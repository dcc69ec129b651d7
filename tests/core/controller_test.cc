#include "src/core/quilt_controller.h"

#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;

  explicit Harness(ControllerOptions options = {}) : controller(&sim, &platform, options) {}
};

LoadResult RunLoad(Harness& h, const std::string& target, SimDuration duration = Seconds(20),
                   int connections = 1) {
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.connections = connections;
  options.warmup = Seconds(3);
  options.duration = duration;
  return generator.Run(&h.sim, &h.platform, target, options);
}

TEST(ControllerTest, RegisterDeploysEveryFunction) {
  Harness h;
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  for (const AppFunctionSpec& fn : app.functions) {
    EXPECT_TRUE(h.platform.HasDeployment(fn.handle)) << fn.handle;
  }
  EXPECT_EQ(h.controller.RegisterWorkflow(app).code(), StatusCode::kAlreadyExists);
}

TEST(ControllerTest, ProfilingBuildsFaithfulCallGraph) {
  Harness h;
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  h.controller.StartProfiling();
  const LoadResult load = RunLoad(h, "compose-post");
  ASSERT_GT(load.completed, 10);
  h.controller.StopProfiling();

  Result<CallGraph> graph = h.controller.BuildCallGraph("compose-post");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_TRUE(graph->Validate().ok());
  // Every function executed (no data-dependent branches here): full graph.
  EXPECT_EQ(graph->num_nodes(), 11);
  EXPECT_EQ(graph->num_edges(), 10);
  for (const CallEdge& e : graph->edges()) {
    EXPECT_EQ(e.alpha, 1) << graph->node(e.from).name << "->" << graph->node(e.to).name;
  }
  // Measured resource labels stay within the regime the paper reports:
  // small functions, far below the container limits.
  for (NodeId id = 0; id < graph->num_nodes(); ++id) {
    EXPECT_LT(graph->node(id).cpu, 0.7) << graph->node(id).name;
    EXPECT_LT(graph->node(id).memory, 32.0) << graph->node(id).name;
    EXPECT_GT(graph->node(id).cpu, 0.0) << graph->node(id).name;
  }
}

TEST(ControllerTest, EndToEndOptimizeMergesWholeWorkflowAndImprovesLatency) {
  Harness h;
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());

  // Baseline measurement.
  const LoadResult baseline = RunLoad(h, "compose-post");
  ASSERT_GT(baseline.completed, 10);

  // Profile window.
  h.controller.StartProfiling();
  RunLoad(h, "compose-post", Seconds(15));
  h.controller.StopProfiling();

  // Decide + merge + deploy.
  Result<MergeSolution> solution = h.controller.OptimizeWorkflow("compose-post");
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(solution->num_groups(), 1);  // §7.3.1: whole workflow merges.

  // Merged measurement: median latency improves substantially (paper:
  // 45.63%-70.95%).
  const LoadResult merged = RunLoad(h, "compose-post");
  ASSERT_GT(merged.completed, 10);
  EXPECT_LT(merged.latency.Median(), baseline.latency.Median() * 0.7)
      << "baseline=" << FormatDuration(baseline.latency.Median())
      << " merged=" << FormatDuration(merged.latency.Median());
}

TEST(ControllerTest, RollbackRestoresBaselineBehavior) {
  Harness h;
  const WorkflowApp app = ReadHomeTimeline();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  const LoadResult before = RunLoad(h, "read-home-timeline", Seconds(10));

  h.controller.StartProfiling();
  RunLoad(h, "read-home-timeline", Seconds(10));
  h.controller.StopProfiling();
  ASSERT_TRUE(h.controller.OptimizeWorkflow("read-home-timeline").ok());
  const LoadResult merged = RunLoad(h, "read-home-timeline", Seconds(10));
  EXPECT_LT(merged.latency.Median(), before.latency.Median());

  ASSERT_TRUE(h.controller.RollbackDeployment("read-home-timeline").ok());
  // The ledger goes with the merge: nothing merged is reported live.
  EXPECT_FALSE(h.controller.HasMergedDeployment("read-home-timeline"));
  EXPECT_TRUE(h.controller.DeployedInternalEdges("read-home-timeline").empty());
  const LoadResult rolled_back = RunLoad(h, "read-home-timeline", Seconds(10));
  // Back to remote invocations: latency returns to (roughly) baseline.
  EXPECT_GT(rolled_back.latency.Median(), merged.latency.Median());
  EXPECT_EQ(h.controller.RollbackDeployment("ghost").code(), StatusCode::kNotFound);

  // A fresh window is decided on what the ingress saw, not on top of the
  // reverted merge: no call on a formerly internal edge is counted twice.
  h.controller.StartProfiling();
  RunLoad(h, "read-home-timeline", Seconds(10));
  h.controller.StopProfiling();
  Result<CallGraph> observed = h.controller.BuildCallGraph("read-home-timeline");
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  Result<QuiltController::ProposedPlan> plan = h.controller.ProposePlan("read-home-timeline");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ(plan->graph.num_edges(), observed->num_edges());
  for (const CallEdge& e : plan->graph.edges()) {
    const std::string& from = plan->graph.node(e.from).name;
    const std::string& to = plan->graph.node(e.to).name;
    const EdgeId seen = observed->FindEdge(observed->FindNode(from), observed->FindNode(to));
    ASSERT_NE(seen, -1) << from << "->" << to;
    EXPECT_EQ(e.alpha, observed->edge(seen).alpha) << from << "->" << to;
  }
}

TEST(ControllerTest, DeploySolutionDirectPinsGrouping) {
  // §7.4.1 limits: 1.6 vCPU / 320 MB.
  ControllerOptions options;
  options.container_cpu_limit = 1.6;
  options.container_memory_limit_mb = 320.0;
  Harness h(options);
  const WorkflowApp app = ModifiedNearbyCinema();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());

  // Pin the optimal 2-way split from §7.4.1.
  MergeSolution split;
  MergeGroup g1;
  g1.root = graph->FindNode("nearby-cinema-mod");
  g1.members = {g1.root, graph->FindNode("nearby-agg-1"), graph->FindNode("gnp-1"),
                graph->FindNode("gnp-2"), graph->FindNode("gnp-3")};
  MergeGroup g2;
  g2.root = graph->FindNode("nearby-agg-2");
  g2.members = {g2.root, graph->FindNode("gnp-4"), graph->FindNode("gnp-5"),
                graph->FindNode("gnp-6")};
  split.groups = {g1, g2};
  ASSERT_TRUE(h.controller.DeploySolutionDirect(app, split).ok());

  const LoadResult load = RunLoad(h, "nearby-cinema-mod", Seconds(10));
  EXPECT_GT(load.completed, 5);
  EXPECT_EQ(load.failed, 0);
}

TEST(ControllerTest, ConditionalInvocationSurvivesUnderestimatedFanOut) {
  // Container provisioned for a fan-out of 8 (§7.6): 8 x 26 MB instances fit
  // in 256 MB, a 9th would not.
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  Harness h(options);
  const WorkflowApp app = FanOutApp(/*profiled_alpha=*/8);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  ASSERT_TRUE(h.controller.DeploySolutionDirect(app, FullMergeSolution(*graph)).ok());

  // num=12 exceeds the profiled budget of 8: 8 local + 4 remote fallbacks.
  Json payload = Json::MakeObject();
  payload["num"] = 12;
  Result<Json> response = InternalError("no response");
  h.platform.Invoke({.caller = kClientCaller,
                     .callee = "fan-out-root",
                     .parent = {},
                     .payload = payload,
                     .async = false,
                     .done = [&](Result<Json> r) { response = std::move(r); }});
  h.sim.Run();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // The standalone callee deployment served the fallback calls.
  EXPECT_EQ(h.platform.StatsFor("fan-callee")->completed, 4);
}

TEST(ControllerTest, ContainerMergeBaselineDeploys) {
  Harness h;
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  ASSERT_TRUE(h.controller.DeployContainerMerge(app, /*memory_limit_mb=*/256.0).ok());
  const LoadResult load = RunLoad(h, "compose-post", Seconds(10));
  EXPECT_GT(load.completed, 5);
}

TEST(ControllerTest, BuildCallGraphWithoutProfilingFails) {
  Harness h;
  const WorkflowApp app = ReadUserReview();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  RunLoad(h, "read-user-review", Seconds(5));  // Profiling off: no spans.
  EXPECT_FALSE(h.controller.BuildCallGraph("read-user-review").ok());
}

}  // namespace
}  // namespace quilt
