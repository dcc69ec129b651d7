// CostMeter attribution: exact dollars for retries and cold starts under
// both cold-start policies, exact-sum aggregation, the CPU-seconds ledger,
// and infrastructure dollars from node telemetry.
#include "src/billing/cost_meter.h"

#include <gtest/gtest.h>

#include "src/common/cost_record.h"

namespace quilt {
namespace {

TEST(CostMeterTest, RetriesBillExactDollarsColdFree) {
  // per-ms card, cold starts free: the 3000 us cold wait never enters the
  // window. exec 2500 us rounds to 3000 us; compute at 128 MB =
  // 3000 * 131072 * 16667 / 2^20e6 = 6.25 -> 6; charge = fee 200 + 6.
  CostMeter meter(PricingProfile::PerMillisecond());
  EXPECT_EQ(meter.MeterAttempt("fn", 2500, 3000, 128.0, 2.0, false), 206);
  // The retry is its own billed attempt at the same price.
  EXPECT_EQ(meter.MeterAttempt("fn", 2500, 3000, 128.0, 2.0, false), 206);

  const CostRecord record = meter.RecordFor("fn");
  EXPECT_EQ(record.attempts, 2);
  EXPECT_EQ(record.billed_us, 6000);
  EXPECT_EQ(record.cold_start_us, 0);  // kFree: provider absorbs the wait.
  EXPECT_EQ(record.request_fee_nanos, 400);
  EXPECT_EQ(record.compute_nanos, 12);
  EXPECT_EQ(record.total_nanos, 412);
  EXPECT_EQ(meter.TotalNanos(), 412);
  EXPECT_EQ(meter.TotalAttempts(), 2);
}

TEST(CostMeterTest, ColdStartsBilledUnderCoarseCard) {
  // coarse-100ms card bills the cold wait: attempt 1 window = 2500 + 3000 ->
  // 100 ms minimum; compute = 50 (mem) + 4000 (2 vCPU) = 4050; charge 4450.
  CostMeter meter(PricingProfile::Coarse100Ms());
  EXPECT_EQ(meter.MeterAttempt("fn", 2500, 3000, 128.0, 2.0, false), 4450);
  // Attempt 2: 150 ms exec + 60 ms cold = 210 ms -> 300 ms billed;
  // compute = 150 + 12000 = 12150; charge 12550.
  EXPECT_EQ(meter.MeterAttempt("fn", 150000, 60000, 128.0, 2.0, false), 12550);

  const CostRecord record = meter.RecordFor("fn");
  EXPECT_EQ(record.attempts, 2);
  EXPECT_EQ(record.billed_us, 400000);
  EXPECT_EQ(record.cold_start_us, 63000);  // Both waits, pre-rounding.
  EXPECT_EQ(record.request_fee_nanos, 800);
  EXPECT_EQ(record.compute_nanos, 16200);
  EXPECT_EQ(record.total_nanos, 17000);
  EXPECT_EQ(meter.TotalNanos(), 17000);
}

TEST(CostMeterTest, MinimumWindowAndNegativeClamp) {
  CostMeter meter(PricingProfile::PerMillisecond());
  // A sub-millisecond attempt still pays the 1 ms minimum: compute 2.
  EXPECT_EQ(meter.MeterAttempt("fn", 500, 0, 128.0, 2.0, false), 202);
  // Negative windows clamp to zero, then the minimum applies.
  EXPECT_EQ(meter.MeterAttempt("fn", -17, -5, 128.0, 2.0, false), 202);
  EXPECT_EQ(meter.RecordFor("fn").billed_us, 2000);
}

TEST(CostMeterTest, AggregateBillIsSumOfLines) {
  CostMeter meter(PricingProfile::Coarse100Ms());
  meter.MeterAttempt("c-handle", 2500, 0, 128.0, 2.0, false);
  meter.MeterAttempt("a-handle", 42, 3000, 64.0, 1.0, true);
  meter.MeterAttempt("b-handle", 130000, 0, 128.0, 0.5, false);
  meter.MeterAttempt("a-handle", 42, 0, 64.0, 1.0, false);

  const std::vector<CostRecord> records = meter.Records();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].handle, "a-handle");  // Sorted by handle.
  EXPECT_EQ(records[1].handle, "b-handle");
  EXPECT_EQ(records[2].handle, "c-handle");

  int64_t total = 0;
  int64_t attempts = 0;
  for (const CostRecord& r : records) {
    EXPECT_EQ(r.total_nanos, r.request_fee_nanos + r.compute_nanos) << r.handle;
    EXPECT_GE(r.canary_nanos, 0);
    EXPECT_LE(r.canary_nanos, r.total_nanos);
    total += r.total_nanos;
    attempts += r.attempts;
  }
  EXPECT_EQ(total, meter.TotalNanos());
  EXPECT_EQ(attempts, meter.TotalAttempts());

  // Canary subtotal tracks exactly the attempts flagged canary.
  EXPECT_EQ(records[0].attempts, 2);
  EXPECT_EQ(records[0].canary_attempts, 1);
  EXPECT_EQ(records[0].canary_nanos, records[0].total_nanos / 2);
}

TEST(CostMeterTest, CpuLedgerKeepsZeroAccruals) {
  CostMeter meter;
  meter.BillCpu("idle", 0.0);
  meter.BillCpu("busy", 1500.0);
  EXPECT_DOUBLE_EQ(meter.BilledCpuSeconds("busy"), 1.5);
  EXPECT_DOUBLE_EQ(meter.BilledCpuSeconds("idle"), 0.0);
  EXPECT_DOUBLE_EQ(meter.BilledCpuSeconds("never"), 0.0);

  // "Invoked but idle" stays in the ledger; "never invoked" does not.
  const std::map<std::string, double> ledger = meter.CpuLedger();
  ASSERT_EQ(ledger.count("idle"), 1u);
  EXPECT_DOUBLE_EQ(ledger.at("idle"), 0.0);
  EXPECT_DOUBLE_EQ(ledger.at("busy"), 1.5);
  EXPECT_EQ(ledger.count("never"), 0u);

  // CPU accrual alone is not a billed attempt: no cost lines yet.
  EXPECT_TRUE(meter.Records().empty());
}

TEST(CostMeterTest, RecordForUnknownHandleIsZero) {
  CostMeter meter;
  const CostRecord record = meter.RecordFor("ghost");
  EXPECT_EQ(record.handle, "ghost");
  EXPECT_EQ(record.attempts, 0);
  EXPECT_EQ(record.total_nanos, 0);
}

TEST(CostMeterTest, ClearDropsChargesKeepsCard) {
  CostMeter meter(PricingProfile::PerMillisecond());
  meter.MeterAttempt("fn", 2500, 0, 128.0, 2.0, false);
  meter.BillCpu("fn", 1000.0);
  meter.Clear();
  EXPECT_EQ(meter.TotalNanos(), 0);
  EXPECT_EQ(meter.TotalAttempts(), 0);
  EXPECT_TRUE(meter.Records().empty());
  EXPECT_TRUE(meter.CpuLedger().empty());
  EXPECT_DOUBLE_EQ(meter.BilledCpuSeconds("fn"), 0.0);
  // Same attempt, same price: the rate card survived the reset.
  EXPECT_EQ(meter.MeterAttempt("fn", 2500, 0, 128.0, 2.0, false), 206);
}

TEST(CostMeterTest, InfraCostFromNodeSamples) {
  CostMeter meter(PricingProfile::PerMillisecond());  // node rate 27778/s.
  NodeSample first;
  first.node_id = 0;
  first.timestamp = 0;
  first.cpu_capacity = 4.0;
  first.cpu_used = 4.0;  // Fully allocated, but allocation is not work:
  first.cpu_busy = 1.0;  // only 25% busy at the interval's left endpoint.
  NodeSample second = first;
  second.timestamp = 1000000000;  // +1 s.
  second.cpu_busy = 4.0;          // Right endpoint utilization is not used.

  const CostMeter::InfraCost infra = meter.InfraCostFromNodes({first, second});
  EXPECT_EQ(infra.node_nanos, 27778);
  EXPECT_EQ(infra.idle_nanos, 27778 * 750 / 1000);  // 75% idle -> 20833.
  EXPECT_NEAR(infra.IdleFraction(), 0.75, 1e-3);

  // A lone sample spans no interval: nothing is paid.
  const CostMeter::InfraCost lone = meter.InfraCostFromNodes({first});
  EXPECT_EQ(lone.node_nanos, 0);
  EXPECT_EQ(lone.idle_nanos, 0);
}

TEST(CostMeterTest, CostRecordLineCanonicalFormat) {
  CostMeter meter(PricingProfile::PerMillisecond());
  meter.MeterAttempt("fn", 2500, 0, 128.0, 2.0, true);
  EXPECT_EQ(CostRecordLine(meter.RecordFor("fn")),
            "handle=fn attempts=1 billed_us=3000 cold_us=0 fee_nanos=200 "
            "compute_nanos=6 total_nanos=206 canary_attempts=1 canary_nanos=206");
  EXPECT_EQ(FormatNanodollars(1234567890), "$1.234567");
  EXPECT_EQ(FormatNanodollars(-206000), "-$0.000206");
  EXPECT_EQ(FormatNanodollars(0), "$0.000000");
}

}  // namespace
}  // namespace quilt
