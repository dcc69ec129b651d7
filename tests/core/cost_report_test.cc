// Billing at the controller/autopilot level: canonical CostRecord lines are
// byte-identical across runs and thread counts, CollectCostReport
// snapshots the meter exactly, and the autopilot's cost loop (canary $ gate,
// cost-regression detector) is wired to the same records.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/apps/deathstarbench.h"
#include "src/autopilot/autopilot.h"
#include "src/autopilot/detectors.h"
#include "src/common/cost_record.h"
#include "src/core/quilt_controller.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

std::string SerializedCostLines(const std::vector<CostRecord>& records) {
  std::string out;
  for (const CostRecord& r : records) {
    out += CostRecordLine(r);
    out += '\n';
  }
  return out;
}

// Full pipeline at a given thread count and λ: register, profile, optimize
// (GRASP starts and the compile service on `threads` threads), serve load,
// then collect the bill. `decision`, when set, receives the decision record.
std::string RunPipeline(int threads, double lambda, DecisionRecord* decision = nullptr) {
  ControllerOptions options;
  options.decision.solver = SolverChoice::kGrasp;
  options.decision.grasp_threads = threads;
  options.compile.compile_threads = threads;
  options.cost.cost_weight = lambda;
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform, options);
  const WorkflowApp app = PageService(true);
  EXPECT_TRUE(controller.RegisterWorkflow(app).ok());

  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.warmup = Seconds(2);
  load.duration = Seconds(10);

  controller.StartProfiling();
  generator.Run(&sim, &platform, app.root_handle, load);
  controller.StopProfiling();
  Result<MergeSolution> solution = controller.OptimizeWorkflow(app.root_handle);
  EXPECT_TRUE(solution.ok());
  if (decision != nullptr && !controller.metrics().decisions().empty()) {
    *decision = controller.metrics().decisions().back();
  }
  generator.Run(&sim, &platform, app.root_handle, load);

  return SerializedCostLines(controller.metrics().CollectCostReport().records);
}

TEST(CostReportTest, CostLinesByteIdenticalAcrossRunsAndThreads) {
  const std::string one = RunPipeline(1, 0.5);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, RunPipeline(1, 0.5));  // Same run, same bytes.
  EXPECT_EQ(one, RunPipeline(2, 0.5));  // Threads don't leak in.
  DecisionRecord decision;
  EXPECT_EQ(one, RunPipeline(8, 0.5, &decision));
  // The 8-thread run really ran GRASP's starts on several threads.
  EXPECT_EQ(decision.solver, "grasp");
  EXPECT_GT(decision.threads, 1);
}

TEST(CostReportTest, ReportMatchesMeterExactly) {
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform);
  const WorkflowApp app = PageService(true);
  ASSERT_TRUE(controller.RegisterWorkflow(app).ok());

  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.warmup = Seconds(1);
  load.duration = Seconds(5);
  generator.Run(&sim, &platform, app.root_handle, load);

  const QuiltController::CostReport report = controller.metrics().CollectCostReport();
  ASSERT_FALSE(report.records.empty());
  EXPECT_EQ(report.invocation_nanos, platform.cost_meter().TotalNanos());
  EXPECT_EQ(report.invocation_attempts, platform.cost_meter().TotalAttempts());
  int64_t sum = 0;
  for (const CostRecord& r : report.records) {
    EXPECT_EQ(r.total_nanos, r.request_fee_nanos + r.compute_nanos) << r.handle;
    sum += r.total_nanos;
  }
  EXPECT_EQ(sum, report.invocation_nanos);  // Lines sum to the bill, exactly.
  // The report lands in the metrics store as canonical records.
  EXPECT_EQ(controller.metrics_store()->cost_records().size(), report.records.size());
}

TEST(CostReportTest, WorkflowFunctionHandlesCoverTheApp) {
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform);
  const WorkflowApp app = PageService(true);
  ASSERT_TRUE(controller.RegisterWorkflow(app).ok());

  std::vector<std::string> handles = controller.WorkflowFunctionHandles(app.root_handle);
  std::vector<std::string> expected;
  for (const AppFunctionSpec& fn : app.functions) {
    expected.push_back(fn.handle);
  }
  std::sort(handles.begin(), handles.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(handles, expected);
  EXPECT_TRUE(controller.WorkflowFunctionHandles("ghost").empty());
}

TEST(CostRegressionDetectorTest, HoldsWithoutEvidence) {
  const DetectorEntry& detector = kDetectors[4];
  EXPECT_STREQ(detector.name, "cost-regression");
  EXPECT_EQ(detector.action, AdaptationAction::kReoptimize);
  EXPECT_EQ(detector.evaluate, &DetectCostRegression);

  DetectorSignals signals;  // Quiet window: no summary at all.
  EXPECT_FALSE(DetectCostRegression(signals).fired);

  WorkflowLatencySummary window;
  signals.window = &window;
  signals.cost_per_request_nanos = 900;
  signals.baseline_cost_per_request_nanos = 0;  // Baseline not armed yet.
  EXPECT_FALSE(DetectCostRegression(signals).fired);

  signals.baseline_cost_per_request_nanos = 600;
  signals.cost_per_request_nanos = 0;  // Billing idle this window.
  EXPECT_FALSE(DetectCostRegression(signals).fired);
}

TEST(CostRegressionDetectorTest, FiresOnDollarRegression) {
  WorkflowLatencySummary window;
  DetectorSignals signals;
  signals.window = &window;
  signals.baseline_cost_per_request_nanos = 600;

  signals.cost_per_request_nanos = 890;  // +48%: inside the 50% band.
  EXPECT_FALSE(DetectCostRegression(signals).fired);

  signals.cost_per_request_nanos = 960;  // +60%: regression.
  const DetectorVerdict verdict = DetectCostRegression(signals);
  EXPECT_TRUE(verdict.fired);
  EXPECT_NEAR(verdict.metric, 0.6, 1e-9);
  EXPECT_DOUBLE_EQ(verdict.threshold, 0.5);
  EXPECT_FALSE(verdict.reason.empty());
}

// The canary dollar gate: an impossible tolerance (< 0 means the canary must
// be strictly cheaper than 0x control) blocks every promotion, so the same
// lifecycle that promotes under defaults aborts its canary instead.
TEST(CanaryCostGateTest, ImpossibleToleranceBlocksPromotion) {
  ControllerOptions controller_options;
  controller_options.container_memory_limit_mb = 256.0;
  AutopilotOptions pilot_options;
  pilot_options.min_window_traces = 10;
  pilot_options.canary_min_traces = 8;
  pilot_options.canary_fraction = 0.3;
  pilot_options.canary_cost_tolerance = -1.0;

  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform, controller_options);
  Autopilot pilot(&sim, &controller, pilot_options);
  ASSERT_TRUE(controller.RegisterWorkflow(FanOutApp(4)).ok());
  ASSERT_TRUE(pilot.Enroll("fan-out-root").ok());
  pilot.Start();

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options load;
  load.rps = 8.0;
  load.warmup = 0;
  load.duration = Seconds(25);
  load.drain_grace = Seconds(5);
  Json payload = Json::MakeObject();
  payload["num"] = 2;
  load.payload = std::move(payload);
  generator.Run(&sim, &platform, "fan-out-root", load);
  pilot.Stop();

  bool promoted = false;
  bool aborted = false;
  std::string abort_reason;
  for (const AdaptationRecord& r : controller.metrics_store()->adaptations()) {
    promoted = promoted || r.action == "promote";
    if (r.action == "abort-canary") {
      aborted = true;
      abort_reason = r.reason;
    }
  }
  EXPECT_FALSE(promoted);
  ASSERT_TRUE(aborted);
  // The verdict carries the per-arm $/request it compared.
  EXPECT_NE(abort_reason.find("$/request"), std::string::npos) << abort_reason;
  EXPECT_FALSE(controller.HasMergedDeployment("fan-out-root"));
}

}  // namespace
}  // namespace quilt
