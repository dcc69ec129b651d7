// The autopilot's six detectors (§4.9) and their fixed table. Each detector
// holds on the last value that should not fire and fires on the first value
// that should; the trace-based ones also hold on a quiet window, while the
// OOM and spawn-queue counters stay authoritative without traces.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>

#include "src/autopilot/detectors.h"

namespace quilt {
namespace {

struct Boundary {
  const char* name;
  AdaptationAction action;
  DetectorVerdict (*detect)(const DetectorSignals&);
  // Sets the signal the detector reads to its last holding value, or to its
  // first firing one when `fire` is true.
  void (*set)(DetectorSignals& signals, WorkflowLatencySummary& window, bool fire);
  bool reads_traces;
};

const Boundary kBoundaries[] = {
    {"oom-kill", AdaptationAction::kRollback, DetectOomKill,
     [](DetectorSignals& signals, WorkflowLatencySummary&, bool fire) {
       signals.oom_kills_since_deploy = fire ? 1 : 0;  // Fires at >= 1.
     },
     false},
    {"p99-regression", AdaptationAction::kReoptimize, DetectP99Regression,
     [](DetectorSignals& signals, WorkflowLatencySummary& window, bool fire) {
       signals.baseline_p99 = 1'000'000;  // Fires at > 50% over it.
       window.end_to_end.p99 = fire ? 1'500'001 : 1'500'000;
     },
     true},
    {"alpha-drift", AdaptationAction::kReoptimize, DetectAlphaDrift,
     [](DetectorSignals& signals, WorkflowLatencySummary&, bool fire) {
       signals.alpha_drift = fire ? 0.25 : std::nextafter(0.25, 0.0);  // Fires at >= 0.25.
     },
     true},
    {"cold-start-surge", AdaptationAction::kReoptimize, DetectColdStartSurge,
     [](DetectorSignals&, WorkflowLatencySummary& window, bool fire) {
       window.cold_start.share = fire ? std::nextafter(0.5, 1.0) : 0.5;  // Fires at > 0.5.
     },
     true},
    {"cost-regression", AdaptationAction::kReoptimize, DetectCostRegression,
     [](DetectorSignals& signals, WorkflowLatencySummary&, bool fire) {
       signals.baseline_cost_per_request_nanos = 1000;  // Fires at > 50% over it.
       signals.cost_per_request_nanos = fire ? 1501 : 1500;
     },
     true},
    {"cold-node-pressure", AdaptationAction::kReoptimize, DetectColdNodePressure,
     [](DetectorSignals& signals, WorkflowLatencySummary&, bool fire) {
       signals.spawn_queue_peak = fire ? 8 : 7;  // Fires at >= 8.
     },
     false},
};

TEST(DetectorTableTest, FixedOrderAndActions) {
  ASSERT_EQ(kDetectors.size(), std::size(kBoundaries));
  for (size_t i = 0; i < kDetectors.size(); ++i) {
    SCOPED_TRACE(kBoundaries[i].name);
    EXPECT_STREQ(kDetectors[i].name, kBoundaries[i].name);
    EXPECT_EQ(kDetectors[i].action, kBoundaries[i].action);
    EXPECT_EQ(kDetectors[i].evaluate, kBoundaries[i].detect);
  }
}

TEST(DetectorTableTest, EachHoldsBelowItsThresholdAndFiresAtIt) {
  for (const Boundary& row : kBoundaries) {
    SCOPED_TRACE(row.name);
    WorkflowLatencySummary window;
    DetectorSignals signals;
    signals.window = &window;

    row.set(signals, window, /*fire=*/false);
    EXPECT_FALSE(row.detect(signals).fired);

    row.set(signals, window, /*fire=*/true);
    const DetectorVerdict verdict = row.detect(signals);
    EXPECT_TRUE(verdict.fired);
    EXPECT_FALSE(verdict.reason.empty());

    signals.window = nullptr;  // Quiet window.
    EXPECT_EQ(row.detect(signals).fired, !row.reads_traces);
  }
}

}  // namespace
}  // namespace quilt
