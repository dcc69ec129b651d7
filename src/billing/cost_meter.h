// Per-invocation dollar attribution (§8 metering hook, Costless-style
// accounting). The platform calls MeterAttempt once per dispatch attempt --
// retries and failed attempts included -- and the meter folds each exact
// integer charge into a per-handle CostRecord plus a running grand total,
// so the aggregate bill always equals the sum of its lines.
//
// The meter also absorbs the older raw vCPU-seconds ledger (BillCpu /
// BilledCpuSeconds / CpuLedger): the executor's per-function bill_cpu hook
// lands here, and -- unlike the retired Platform-side vector -- a handle
// that ever billed stays in the ledger even when its accrual is exactly
// zero, so "invoked but idle" is distinguishable from "never invoked".
#ifndef SRC_BILLING_COST_METER_H_
#define SRC_BILLING_COST_METER_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/cost_record.h"
#include "src/common/interner.h"
#include "src/common/node_record.h"
#include "src/billing/pricing_profile.h"

namespace quilt {

class CostMeter {
 public:
  explicit CostMeter(PricingProfile profile = PricingProfile()) : profile_(std::move(profile)) {}

  const PricingProfile& profile() const { return profile_; }
  // Swaps the rate card; affects future charges only (recorded lines keep
  // the dollars they were billed under).
  void set_profile(PricingProfile profile) { profile_ = std::move(profile); }

  // Bills one dispatch attempt: the raw exec window (plus the cold wait,
  // when the profile bills cold starts) is rounded per the card and charged
  // at the deployment's *configured* limits. Returns the attempt's charge
  // in nanodollars.
  int64_t MeterAttempt(const std::string& handle, int64_t exec_us, int64_t cold_us,
                       double memory_limit_mb, double cpu_limit, bool canary);

  // --- Raw vCPU-seconds ledger, fed by the executor's bill_cpu hook. ---
  void BillCpu(const std::string& handle, double cpu_ms);
  // 0.0 for handles that never billed.
  double BilledCpuSeconds(const std::string& handle) const;
  // Every handle that ever billed CPU -> accrued seconds, zero accruals
  // included.
  std::map<std::string, double> CpuLedger() const;

  // Per-handle bill lines, sorted by handle; only handles with at least one
  // billed attempt appear. Sum of total_nanos == TotalNanos() exactly.
  std::vector<CostRecord> Records() const;
  // Zero-valued record (handle filled in) when the handle never billed.
  CostRecord RecordFor(const std::string& handle) const;
  int64_t TotalNanos() const { return total_nanos_; }
  int64_t TotalAttempts() const { return total_attempts_; }

  // Infrastructure dollars from node telemetry: consecutive samples of the
  // same node pay node_second_nanos for the interval between them, and the
  // interval's non-busy CPU share (left endpoint; allocation without work
  // counts as idle) is the paid-but-idle slice.
  struct InfraCost {
    int64_t node_nanos = 0;  // Paid node uptime.
    int64_t idle_nanos = 0;  // ... of which the CPU sat idle (stranded dollars).
    double IdleFraction() const {
      return node_nanos > 0 ? static_cast<double>(idle_nanos) / static_cast<double>(node_nanos)
                            : 0.0;
    }
  };
  InfraCost InfraCostFromNodes(const std::vector<NodeSample>& samples) const;

  // Drops all charges and the CPU ledger; keeps the rate card.
  void Clear();

 private:
  struct Account {
    CostRecord record;
    double cpu_seconds = 0.0;
    bool cpu_billed = false;  // Ever saw a BillCpu call, even for 0 ms.
  };

  Account& AccountFor(const std::string& handle);

  PricingProfile profile_;
  StringInterner handles_;
  std::vector<Account> accounts_;
  int64_t total_nanos_ = 0;
  int64_t total_attempts_ = 0;
};

}  // namespace quilt

#endif  // SRC_BILLING_COST_METER_H_
