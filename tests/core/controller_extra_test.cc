#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

// One-shot compilation: caches off, so every call compiles from scratch.
CompileServiceOptions Uncached(QuiltcOptions quiltc = {}) {
  CompileServiceOptions options;
  options.quiltc = quiltc;
  options.ir_cache = false;
  options.artifact_cache = false;
  return options;
}

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;
  explicit Harness(ControllerOptions options = {}) : controller(&sim, &platform, options) {}
};

TEST(ControllerExtraTest, MergedSpecCarriesImageAndBudgets) {
  Harness h;
  const WorkflowApp app = ReadHomeTimeline();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  CompileService compiler(Uncached());
  Result<MergedArtifact> artifact = compiler.MergeGroup(
      *graph, FullMergeSolution(*graph).groups[0], app.Sources());
  ASSERT_TRUE(artifact.ok());
  Result<DeploymentSpec> spec =
      h.controller.MergedSpec(app, *graph, FullMergeSolution(*graph).groups[0], *artifact);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->handle, "read-home-timeline");
  EXPECT_EQ(spec->max_scale, 20);  // Sum of the two members' max-scale.
  EXPECT_EQ(spec->container.image_size_bytes, artifact->image.size_bytes);
  EXPECT_GT(spec->container.lazy_libs, 0);  // DelayHTTP'd libcurl closure.
  ASSERT_NE(spec->behavior.merged, nullptr);
  EXPECT_EQ(spec->behavior.merged->functions.size(), 2u);
  EXPECT_EQ(spec->behavior.merged->edge_budgets.size(), 1u);
  EXPECT_GT(spec->max_concurrent_requests, 0);  // Memory-planned cap.
}

TEST(ControllerExtraTest, ProfilingMissesDataDependentPaths) {
  // §3 / Figure 3's dashed arrows: code paths that never executed in the
  // profile window are absent from the reconstructed call graph.
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  Harness h(options);
  const WorkflowApp app = FanOutApp(/*profiled_alpha=*/8);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());

  h.controller.StartProfiling();
  // Drive the workflow with num=0: the fan-out loop body never runs.
  Json payload = Json::MakeObject();
  payload["num"] = 0;
  for (int i = 0; i < 20; ++i) {
    h.platform.Invoke({.caller = kClientCaller,
                       .callee = "fan-out-root",
                       .parent = {},
                       .payload = payload,
                       .async = false,
                       .done = [](Result<Json>) {}});
  }
  h.sim.RunUntil(h.sim.now() + Seconds(5));  // Monitor keeps ticking: bounded run.
  h.controller.StopProfiling();

  Result<CallGraph> graph = h.controller.BuildCallGraph("fan-out-root");
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->num_nodes(), 1);  // fan-callee never observed.
  EXPECT_EQ(graph->num_edges(), 0);
}

TEST(ControllerExtraTest, ProfiledAlphaTracksObservedFanOut) {
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  Harness h(options);
  const WorkflowApp app = FanOutApp(/*profiled_alpha=*/8);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());

  h.controller.StartProfiling();
  // Uniform num in [1, 5]: mean 3, so alpha = ceil(mean) = 3.
  for (int num = 1; num <= 5; ++num) {
    Json payload = Json::MakeObject();
    payload["num"] = num;
    for (int i = 0; i < 10; ++i) {
      h.platform.Invoke({.caller = kClientCaller,
                         .callee = "fan-out-root",
                         .parent = {},
                         .payload = payload,
                         .async = false,
                         .done = [](Result<Json>) {}});
    }
    h.sim.RunUntil(h.sim.now() + Seconds(5));
  }
  h.controller.StopProfiling();

  Result<CallGraph> graph = h.controller.BuildCallGraph("fan-out-root");
  ASSERT_TRUE(graph.ok());
  const EdgeId edge =
      graph->FindEdge(graph->FindNode("fan-out-root"), graph->FindNode("fan-callee"));
  ASSERT_NE(edge, -1);
  EXPECT_EQ(graph->edge(edge).alpha, 3);
  EXPECT_EQ(graph->edge(edge).type, CallType::kAsync);
}

TEST(ControllerExtraTest, ContainerMergeRequiresRegisteredRoot) {
  Harness h;
  const WorkflowApp app = ReadUserReview();
  // DeployContainerMerge goes through UpdateFunction: the root must exist.
  EXPECT_FALSE(h.controller.DeployContainerMerge(app).ok());
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  EXPECT_TRUE(h.controller.DeployContainerMerge(app).ok());
}

TEST(ControllerExtraTest, MultipleWorkflowsCoexist) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(ReadHomeTimeline()).ok());
  ASSERT_TRUE(h.controller.RegisterWorkflow(ReadUserReview()).ok());

  h.controller.StartProfiling();
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.warmup = Seconds(2);
  options.duration = Seconds(10);
  generator.Run(&h.sim, &h.platform, "read-home-timeline", options);
  generator.Run(&h.sim, &h.platform, "read-user-review", options);
  h.controller.StopProfiling();

  // Each workflow's call graph only contains its own functions.
  Result<CallGraph> g1 = h.controller.BuildCallGraph("read-home-timeline");
  Result<CallGraph> g2 = h.controller.BuildCallGraph("read-user-review");
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1->num_nodes(), 2);
  EXPECT_EQ(g2->num_nodes(), 2);
  EXPECT_TRUE(h.controller.OptimizeWorkflow("read-home-timeline").ok());
  EXPECT_TRUE(h.controller.OptimizeWorkflow("read-user-review").ok());
}

TEST(ControllerExtraTest, OptOutFunctionLimitsMerging) {
  Harness h;
  WorkflowApp app = ComposePost(false);
  for (AppFunctionSpec& fn : app.functions) {
    if (fn.handle == "text-service") {
      fn.mergeable = false;
    }
  }
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  // A full merge must be rejected by the compiler (opt-out, §1.1).
  CompileService compiler(Uncached());
  EXPECT_FALSE(
      compiler.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources()).ok());
}

TEST(ControllerExtraTest, DeploySolutionDirectEmitsCompileRecords) {
  Harness h;
  const WorkflowApp app = ReadHomeTimeline();
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  const MergeSolution solution = FullMergeSolution(*graph);
  ASSERT_TRUE(h.controller.DeploySolutionDirect(app, solution).ok());

  const std::vector<CompileRecord>& records = h.controller.metrics_store()->compiles();
  ASSERT_EQ(records.size(), solution.groups.size());
  for (const CompileRecord& record : records) {
    EXPECT_EQ(record.trigger, "direct");
    EXPECT_EQ(record.workflow, "read-home-timeline");
    EXPECT_NE(record.fingerprint, 0u);
    EXPECT_GT(record.total_s, 0.0);
  }
  const CompileRecord& merge_record = records[0];
  EXPECT_EQ(merge_record.kind, "merge");
  EXPECT_EQ(merge_record.members, 2);

  // Redeploying the same solution answers from the cache but still emits
  // identical records (determinism contract: records carry no cache state).
  ASSERT_TRUE(h.controller.RollbackDeployment(app.root_handle).ok());
  ASSERT_TRUE(h.controller.DeploySolutionDirect(app, solution).ok());
  const std::vector<CompileRecord>& after = h.controller.metrics_store()->compiles();
  ASSERT_EQ(after.size(), 2 * solution.groups.size());
  for (size_t i = 0; i < solution.groups.size(); ++i) {
    CompileRecord first = after[i];
    CompileRecord second = after[i + solution.groups.size()];
    second.virtual_time = first.virtual_time;  // Context, not content.
    EXPECT_EQ(CompileRecordLine(first), CompileRecordLine(second));
  }
  EXPECT_GT(h.controller.compile_service()->stats().artifact_hits, 0);
}

TEST(ControllerExtraTest, CompileThreadsAndCachesDoNotChangeWhatIsDeployed) {
  // Same direct deployment under three controller configurations: serial
  // uncached, serial cached, and 8-thread cached. The platform-visible
  // deployment and the compile records must be identical.
  const WorkflowApp app = ReadHomeTimeline();
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  const MergeSolution solution = FullMergeSolution(*graph);

  std::vector<ControllerOptions> configs(3);
  configs[0].compile.ir_cache = false;
  configs[0].compile.artifact_cache = false;
  configs[2].compile.compile_threads = 8;

  std::string reference;
  for (size_t i = 0; i < configs.size(); ++i) {
    Harness h(configs[i]);
    ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
    ASSERT_TRUE(h.controller.DeploySolutionDirect(app, solution).ok());
    std::string lines;
    for (const CompileRecord& record : h.controller.metrics_store()->compiles()) {
      lines += CompileRecordLine(record);
      lines += "\n";
    }
    if (i == 0) {
      reference = lines;
    } else {
      EXPECT_EQ(lines, reference) << "config " << i;
    }
  }
}

}  // namespace
}  // namespace quilt
