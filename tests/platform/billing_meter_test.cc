// Platform-side dollar metering: every dispatch attempt lands one
// MeterAttempt under the deployment's *configured* limits and the config's
// rate card, and the meter's CPU-seconds ledger keeps the zero-accrual
// entries the old raw vector used to drop.
#include <gtest/gtest.h>

#include "src/platform/platform.h"
#include "src/tracing/span.h"

namespace quilt {
namespace {

DeploymentSpec MeteredFunction(const std::string& handle, double compute_ms = 1.0) {
  DeploymentSpec spec;
  spec.handle = handle;
  spec.max_scale = 4;
  spec.container.cpu_limit = 2.0;
  spec.container.memory_limit_mb = 128.0;
  spec.container.base_memory_mb = 5.0;
  spec.container.image_size_bytes = 2 * 1024 * 1024;
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = handle;
  behavior->steps = {ComputeStep{compute_ms}};
  spec.behavior.single = std::move(behavior);
  return spec;
}

struct Harness {
  Simulation sim;
  Platform platform;
  SpanStore store;

  explicit Harness(PlatformConfig config = {}) : platform(&sim, config) {
    platform.ConnectSpanStore(&store);
  }

  Result<Json> InvokeAndWait(const std::string& handle) {
    Result<Json> response = InternalError("no response");
    platform.Invoke({.caller = kClientCaller,
                     .callee = handle,
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&](Result<Json> r) { response = std::move(r); }});
    sim.Run();
    return response;
  }
};

TEST(BillingMeterTest, LedgerKeepsExactlyZeroEntries) {
  // Regression: the old Platform-side ledger dropped handles whose accrual
  // was exactly 0.0, making "invoked but idle" indistinguishable from
  // "never invoked".
  Harness h;
  h.platform.cost_meter().BillCpu("idle-fn", 0.0);
  const std::map<std::string, double> ledger = h.platform.cost_meter().CpuLedger();
  ASSERT_EQ(ledger.count("idle-fn"), 1u);
  EXPECT_DOUBLE_EQ(ledger.at("idle-fn"), 0.0);
  EXPECT_EQ(ledger.count("never-invoked"), 0u);
  EXPECT_DOUBLE_EQ(h.platform.cost_meter().BilledCpuSeconds("idle-fn"), 0.0);
}

TEST(BillingMeterTest, LiveInvocationsAccrueInLedger) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(MeteredFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  const std::map<std::string, double> ledger = h.platform.cost_meter().CpuLedger();
  ASSERT_EQ(ledger.count("fn"), 1u);
  EXPECT_GT(ledger.at("fn"), 0.0);
  EXPECT_DOUBLE_EQ(h.platform.cost_meter().BilledCpuSeconds("fn"), ledger.at("fn"));
}

TEST(BillingMeterTest, EveryAttemptBillsOneMeterLine) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(MeteredFunction("fn")).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  }
  const CostRecord record = h.platform.cost_meter().RecordFor("fn");
  EXPECT_EQ(record.attempts, 3);
  EXPECT_EQ(record.canary_attempts, 0);
  EXPECT_EQ(record.total_nanos, record.request_fee_nanos + record.compute_nanos);
  EXPECT_EQ(h.platform.cost_meter().TotalAttempts(), 3);
  EXPECT_EQ(h.platform.cost_meter().TotalNanos(), record.total_nanos);
  // Default card (per-ms): 3 fees of 200 plus a positive compute charge.
  EXPECT_EQ(record.request_fee_nanos, 600);
  EXPECT_GT(record.compute_nanos, 0);
  // Cold starts are free on the default card.
  EXPECT_EQ(record.cold_start_us, 0);
}

TEST(BillingMeterTest, CoarseCardBillsColdStartsAndRoundsWindows) {
  PlatformConfig config;
  config.pricing = PricingProfile::Coarse100Ms();
  Harness h(config);
  ASSERT_TRUE(h.platform.Deploy(MeteredFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());  // Cold.
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());  // Warm.

  const PricingProfile card = h.platform.cost_meter().profile();
  EXPECT_EQ(card.name, "coarse-100ms");
  const CostRecord record = h.platform.cost_meter().RecordFor("fn");
  EXPECT_EQ(record.attempts, 2);
  // The cold wait entered the billed window (kBilled policy).
  EXPECT_GT(record.cold_start_us, 0);
  // Windows round to whole 100 ms slabs; two attempts pay at least two.
  EXPECT_EQ(record.billed_us % 100000, 0);
  EXPECT_GE(record.billed_us, 200000);
  // Configured limits (128 MB, 2 vCPU) price each slab at exactly 4050
  // nanodollars, so the compute total is reconstructible from billed_us.
  EXPECT_EQ(record.compute_nanos,
            card.ComputeCostNanos(record.billed_us, MemoryKb(128.0), CpuMillicores(2.0)));
  EXPECT_EQ(record.request_fee_nanos, 800);
  EXPECT_EQ(record.total_nanos, record.request_fee_nanos + record.compute_nanos);
}

}  // namespace
}  // namespace quilt
