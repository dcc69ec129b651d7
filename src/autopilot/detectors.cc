#include "src/autopilot/detectors.h"

#include "src/common/cost_record.h"
#include "src/common/strings.h"

namespace quilt {

namespace {

constexpr int64_t kOomKillThreshold = 1;             // OOM kills since deploy.
constexpr double kP99RegressionPct = 0.5;            // Over the promote-time p99.
constexpr double kAlphaDriftThreshold = 0.25;        // Fallbacks per budget.
constexpr double kColdStartShareThreshold = 0.5;     // Cold-start share of e2e.
constexpr double kCostRegressionPct = 0.5;           // Over the post-promote $/request.
constexpr int64_t kSpawnQueuePressureThreshold = 8;  // Window spawn-queue peak.

}  // namespace

DetectorVerdict DetectOomKill(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.metric = static_cast<double>(signals.oom_kills_since_deploy);
  verdict.threshold = static_cast<double>(kOomKillThreshold);
  if (signals.oom_kills_since_deploy >= kOomKillThreshold) {
    verdict.fired = true;
    verdict.reason = StrCat("merged containers OOM-killed ", signals.oom_kills_since_deploy,
                            " time(s) since deploy");
  }
  return verdict;
}

DetectorVerdict DetectP99Regression(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.threshold = kP99RegressionPct;
  if (signals.window == nullptr || signals.baseline_p99 <= 0 ||
      signals.window->end_to_end.p99 <= 0) {
    return verdict;  // No data: hold.
  }
  verdict.metric = static_cast<double>(signals.window->end_to_end.p99) /
                       static_cast<double>(signals.baseline_p99) -
                   1.0;
  if (verdict.metric > kP99RegressionPct) {
    verdict.fired = true;
    verdict.reason = StrCat("window p99 ", signals.window->end_to_end.p99, "ns is ",
                            FormatDouble(100.0 * verdict.metric, 1),
                            "% over the deploy-time baseline ", signals.baseline_p99, "ns");
  }
  return verdict;
}

DetectorVerdict DetectAlphaDrift(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.metric = signals.alpha_drift;
  verdict.threshold = kAlphaDriftThreshold;
  if (signals.window == nullptr) {
    return verdict;  // Fallback counts come from traces: hold on quiet windows.
  }
  if (signals.alpha_drift >= kAlphaDriftThreshold) {
    verdict.fired = true;
    verdict.reason = StrCat("observed fallback invocations reach ",
                            FormatDouble(100.0 * signals.alpha_drift, 1),
                            "% of a localized edge's budget");
  }
  return verdict;
}

DetectorVerdict DetectColdStartSurge(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.threshold = kColdStartShareThreshold;
  if (signals.window == nullptr) {
    return verdict;
  }
  verdict.metric = signals.window->cold_start.share;
  if (verdict.metric > kColdStartShareThreshold) {
    verdict.fired = true;
    verdict.reason = StrCat("cold starts take ", FormatDouble(100.0 * verdict.metric, 1),
                            "% of end-to-end latency this window");
  }
  return verdict;
}

DetectorVerdict DetectCostRegression(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.threshold = kCostRegressionPct;
  if (signals.window == nullptr || signals.baseline_cost_per_request_nanos <= 0 ||
      signals.cost_per_request_nanos <= 0) {
    return verdict;  // No bill or no baseline yet: hold.
  }
  verdict.metric = static_cast<double>(signals.cost_per_request_nanos) /
                       static_cast<double>(signals.baseline_cost_per_request_nanos) -
                   1.0;
  if (verdict.metric > kCostRegressionPct) {
    verdict.fired = true;
    verdict.reason =
        StrCat("window bill ", FormatNanodollars(signals.cost_per_request_nanos),
               "/request is ", FormatDouble(100.0 * verdict.metric, 1),
               "% over the post-promote baseline ",
               FormatNanodollars(signals.baseline_cost_per_request_nanos), "/request");
  }
  return verdict;
}

DetectorVerdict DetectColdNodePressure(const DetectorSignals& signals) {
  DetectorVerdict verdict;
  verdict.metric = static_cast<double>(signals.spawn_queue_peak);
  verdict.threshold = static_cast<double>(kSpawnQueuePressureThreshold);
  // Node samples, not traces, carry this signal -- no window gate: a cluster
  // too saturated to complete traces is exactly when this must fire.
  if (signals.spawn_queue_peak >= kSpawnQueuePressureThreshold) {
    verdict.fired = true;
    verdict.reason = StrCat("spawn queue peaked at ", signals.spawn_queue_peak,
                            " waiting container(s) this window (", signals.provisioning_nodes,
                            " node(s) still provisioning)");
  }
  return verdict;
}

}  // namespace quilt
