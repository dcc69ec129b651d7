// Merge monitoring (§1.1, §8): Quilt reconsiders merges when workloads
// shift, rolls back misbehaving merged functions, and reverts on permission
// revocation or function updates.
#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;
  explicit Harness(ControllerOptions options = {}) : controller(&sim, &platform, options) {}

  // Drives the fan-out workflow with a fixed num while profiling.
  void ProfileFanOut(int num, int requests = 40) {
    controller.StartProfiling();
    Json payload = Json::MakeObject();
    payload["num"] = num;
    for (int i = 0; i < requests; ++i) {
      platform.Invoke({.caller = kClientCaller,
                       .callee = "fan-out-root",
                       .parent = {},
                       .payload = payload,
                       .async = false,
                       .done = [](Result<Json>) {}});
    }
    sim.RunUntil(sim.now() + Seconds(5));
    controller.StopProfiling();
  }
};

ControllerOptions FanOutOptions() {
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  return options;
}

TEST(MonitorTest, ReconsiderRequiresDeployedMerge) {
  Harness h(FanOutOptions());
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(8)).ok());
  EXPECT_EQ(h.controller.ReconsiderWorkflow("fan-out-root").status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(MonitorTest, UnchangedWorkloadKeepsMerge) {
  Harness h(FanOutOptions());
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(8)).ok());
  h.ProfileFanOut(2);
  ASSERT_TRUE(h.controller.OptimizeWorkflow("fan-out-root").ok());

  h.ProfileFanOut(2);  // Same workload shape.
  Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow("fan-out-root");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->redeployed);
  EXPECT_FALSE(report->rolled_back);
}

TEST(MonitorTest, WorkloadDriftTriggersRedeploy) {
  Harness h(FanOutOptions());
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(8)).ok());
  h.ProfileFanOut(2);
  ASSERT_TRUE(h.controller.OptimizeWorkflow("fan-out-root").ok());

  // The fan-out grows, but root and callee still fit one 2-vCPU container
  // (alpha 3: 0.032 + 3 x 0.462 = 1.42 vCPU): the merge stays and its
  // conditional budget is rebuilt.
  h.ProfileFanOut(3);
  Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow("fan-out-root");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->redeployed) << report->reason;
  EXPECT_FALSE(report->rolled_back);
  const std::vector<QuiltController::InternalEdge> edges =
      h.controller.DeployedInternalEdges("fan-out-root");
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_EQ(edges[0].callee, "fan-callee");
  EXPECT_EQ(edges[0].budget, 3);
}

// Regression: a re-decision that splits the only merged group used to be
// reported as "redeployed" while the root kept serving its merged image --
// every call stayed local, so none reached the callee's deployment.
TEST(MonitorTest, DriftPastTheLimitRevertsToBaseline) {
  for (const int num : {4, 6, 16}) {
    SCOPED_TRACE(num);
    Harness h(FanOutOptions());
    ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(8)).ok());
    h.ProfileFanOut(2);
    ASSERT_TRUE(h.controller.OptimizeWorkflow("fan-out-root").ok());

    // E.g. alpha 6: 0.032 + 6 x 0.462 = 2.80 vCPU > the 2.0 limit, so the
    // re-decision splits root and callee and merges nothing.
    h.ProfileFanOut(num);
    Result<QuiltController::ReconsiderReport> report =
        h.controller.ReconsiderWorkflow("fan-out-root");
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->rolled_back) << report->reason;
    EXPECT_FALSE(report->redeployed);
    EXPECT_FALSE(h.controller.HasMergedDeployment("fan-out-root"));
    EXPECT_TRUE(h.controller.DeployedInternalEdges("fan-out-root").empty());

    // The baseline image serves: each of 10 requests makes 2 remote calls.
    h.ProfileFanOut(2, /*requests=*/10);
    int callee_spans = 0;
    for (const Trace& trace : h.controller.metrics().CollectTraces()) {
      for (const Span& span : trace.spans) {
        callee_spans += span.callee == "fan-callee" ? 1 : 0;
      }
    }
    EXPECT_EQ(callee_spans, 20);
  }
}

TEST(MonitorTest, OomKillsTriggerRollback) {
  // Deploy with conditional invocations disabled so fan-outs beyond the
  // container's capacity OOM-kill the merged function.
  ControllerOptions options = FanOutOptions();
  options.compile.quiltc.conditional_invocations = false;
  Harness h(options);
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(8)).ok());
  h.ProfileFanOut(2);
  ASSERT_TRUE(h.controller.OptimizeWorkflow("fan-out-root").ok());

  // A burst of oversized requests crashes merged containers.
  Json payload = Json::MakeObject();
  payload["num"] = 12;
  int failed = 0;
  for (int i = 0; i < 5; ++i) {
    h.platform.Invoke({.caller = kClientCaller,
                       .callee = "fan-out-root",
                       .parent = {},
                       .payload = payload,
                       .async = false,
                       .done = [&](Result<Json> r) { failed += r.ok() ? 0 : 1; }});
    h.sim.RunUntil(h.sim.now() + Seconds(2));
  }
  ASSERT_GT(failed, 0);

  Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow("fan-out-root");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->rolled_back) << report->reason;

  // After rollback the oversized request succeeds on the unmerged baseline.
  bool ok = false;
  h.platform.Invoke({.caller = kClientCaller,
                     .callee = "fan-out-root",
                     .parent = {},
                     .payload = payload,
                     .async = false,
                     .done = [&](Result<Json> r) { ok = r.ok(); }});
  h.sim.RunUntil(h.sim.now() + Seconds(5));
  EXPECT_TRUE(ok);
}

TEST(MonitorTest, RevokingPermissionRevertsWorkflow) {
  Harness h;
  const WorkflowApp app = ReadHomeTimeline();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  h.controller.StartProfiling();
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.warmup = Seconds(2);
  load.duration = Seconds(10);
  generator.Run(&h.sim, &h.platform, app.root_handle, load);
  h.controller.StopProfiling();
  ASSERT_TRUE(h.controller.OptimizeWorkflow(app.root_handle).ok());
  const LoadResult merged = generator.Run(&h.sim, &h.platform, app.root_handle, load);

  ASSERT_TRUE(h.controller.RevokeMergePermission("post-storage-read").ok());
  const LoadResult reverted = generator.Run(&h.sim, &h.platform, app.root_handle, load);
  // Remote invocations are back.
  EXPECT_GT(reverted.latency.Median(), merged.latency.Median());
  // Reconsider is now a precondition failure (nothing merged is live).
  EXPECT_FALSE(h.controller.ReconsiderWorkflow(app.root_handle).ok());
  // And future merges of that workflow are rejected by the pipeline.
  EXPECT_FALSE(h.controller.OptimizeWorkflow(app.root_handle).ok());
  EXPECT_EQ(h.controller.RevokeMergePermission("ghost").code(), StatusCode::kNotFound);
}

TEST(MonitorTest, FunctionUpdateRevertsMerge) {
  Harness h;
  const WorkflowApp app = ReadUserReview();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  h.controller.StartProfiling();
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.warmup = Seconds(2);
  load.duration = Seconds(10);
  generator.Run(&h.sim, &h.platform, app.root_handle, load);
  h.controller.StopProfiling();
  ASSERT_TRUE(h.controller.OptimizeWorkflow(app.root_handle).ok());
  const LoadResult merged = generator.Run(&h.sim, &h.platform, app.root_handle, load);

  SourceFunction updated;
  updated.handle = "user-review-storage";
  updated.lang = Lang::kRust;
  updated.user_code_bytes = 90 * 1024;
  ASSERT_TRUE(h.controller.UpdateFunctionSource("user-review-storage", updated).ok());
  const LoadResult reverted = generator.Run(&h.sim, &h.platform, app.root_handle, load);
  EXPECT_GT(reverted.latency.Median(), merged.latency.Median());
  EXPECT_EQ(h.controller.UpdateFunctionSource("ghost", updated).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace quilt
