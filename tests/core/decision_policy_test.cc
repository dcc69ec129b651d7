// Controller-level decision policy (§4): ControllerOptions::decision
// configures the controller's DecisionEngine, which picks the solver by graph
// size, and OptimizeWorkflow logs its DecisionRecord into the MetricsStore.
#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;

  explicit Harness(ControllerOptions options = {}) : controller(&sim, &platform, options) {}
};

// A graph above the GRASP threshold whose groups need the generous limits
// below to stay feasible.
CallGraph LargeGraph() {
  Rng rng(61);
  RandomDagOptions options;
  options.num_nodes = 60;
  return GenerateRandomRdag(options, rng);
}

ControllerOptions LargeGraphOptions() {
  ControllerOptions options;
  options.container_cpu_limit = 100.0;
  options.container_memory_limit_mb = 2000.0;
  return options;
}

// The controller's decision stage on a bare graph: its engine under its
// container limits, as OptimizeWorkflow runs it.
Result<MergeSolution> Decide(QuiltController& controller, const CallGraph& graph,
                             DecisionRecord* record = nullptr) {
  MergeProblem problem;
  problem.graph = &graph;
  problem.cpu_limit = controller.options().container_cpu_limit;
  problem.memory_limit = controller.options().container_memory_limit_mb;
  return controller.decision_engine()->Decide(problem, record);
}

TEST(DecisionPolicyTest, LargeGraphDecisionUsesGraspAndLogsRecord) {
  {
    Harness h(LargeGraphOptions());
    const CallGraph graph = LargeGraph();
    ASSERT_GT(graph.num_nodes(), kGraspMinNodes);

    DecisionRecord record;
    Result<MergeSolution> solution = Decide(h.controller, graph, &record);
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    MergeProblem problem{&graph, 100.0, 2000.0};
    EXPECT_TRUE(CheckSolution(problem, *solution).ok());
    EXPECT_EQ(record.solver, "grasp");
    EXPECT_EQ(record.seed, h.controller.options().decision.seed);
    EXPECT_EQ(record.graph_nodes, graph.num_nodes());
    EXPECT_TRUE(record.feasible);
    EXPECT_DOUBLE_EQ(record.final_cost, solution->cross_cost);
    EXPECT_EQ(record.grasp_starts, kGraspStarts);
    EXPECT_GT(record.ilp_solves, 0);
    EXPECT_GE(record.wall_ms, 0.0);
  }

  // OptimizeWorkflow logs its decision, tagged "decide", into the
  // MetricsStore (GRASP forced on a profiled workflow).
  ControllerOptions options;
  options.decision.solver = SolverChoice::kGrasp;
  Harness h(options);
  const WorkflowApp app = ComposePost(false);
  ASSERT_TRUE(h.controller.RegisterWorkflow(app).ok());
  h.controller.StartProfiling();
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options load;
  load.warmup = Seconds(1);
  load.duration = Seconds(10);
  generator.Run(&h.sim, &h.platform, app.root_handle, load);
  h.controller.StopProfiling();
  Result<MergeSolution> solution = h.controller.OptimizeWorkflow(app.root_handle);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();

  ASSERT_EQ(h.controller.metrics_store()->decisions().size(), 1u);
  const DecisionRecord& record = h.controller.metrics_store()->decisions().back();
  EXPECT_EQ(record.trigger, "decide");
  EXPECT_EQ(record.workflow, app.root_handle);
  EXPECT_EQ(record.solver, "grasp");
  EXPECT_EQ(record.seed, options.decision.seed);
  EXPECT_EQ(record.grasp_starts, kGraspStarts);
  EXPECT_EQ(record.graph_nodes, static_cast<int>(app.functions.size()));
  EXPECT_TRUE(record.feasible);
  EXPECT_DOUBLE_EQ(record.final_cost, solution->cross_cost);
  EXPECT_GT(record.ilp_solves, 0);
  EXPECT_GE(record.wall_ms, 0.0);
}

TEST(DecisionPolicyTest, DecisionSeedMakesControllerGraspReproducible) {
  const CallGraph graph = LargeGraph();
  ControllerOptions options = LargeGraphOptions();
  options.decision.seed = 12345;

  std::string signatures[2];
  for (int i = 0; i < 2; ++i) {
    Harness h(options);
    DecisionRecord record;
    Result<MergeSolution> solution = Decide(h.controller, graph, &record);
    ASSERT_TRUE(solution.ok()) << solution.status().ToString();
    signatures[i] = CanonicalSolutionSignature(*solution);
    EXPECT_EQ(record.seed, 12345u);
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST(DecisionPolicyTest, ExplicitSolverOverrideIsHonored) {
  ControllerOptions options = LargeGraphOptions();
  options.decision.solver = SolverChoice::kHeuristic;
  Harness h(options);
  DecisionRecord record;
  Result<MergeSolution> solution = Decide(h.controller, LargeGraph(), &record);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(record.solver, "dih-sweep");
}

TEST(DecisionPolicyTest, SmallGraphStillUsesExactSolver) {
  Harness h;
  CallGraph g;
  const NodeId a = g.AddNode("A", 0.1, 10);
  const NodeId b = g.AddNode("B", 0.1, 10);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  DecisionRecord record;
  Result<MergeSolution> solution = Decide(h.controller, g, &record);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->cross_cost, 0.0);
  EXPECT_EQ(record.solver, "optimal");
  EXPECT_EQ(record.num_groups, 1);
}

TEST(DecisionPolicyTest, RepeatDecisionsHitTheSharedCache) {
  Harness h(LargeGraphOptions());
  const CallGraph graph = LargeGraph();
  DecisionRecord decisions[2];
  ASSERT_TRUE(Decide(h.controller, graph, &decisions[0]).ok());
  ASSERT_TRUE(Decide(h.controller, graph, &decisions[1]).ok());
  // The re-decision answers its Phase-2 ILPs from the cache.
  EXPECT_EQ(decisions[1].ilp_cache_hits, decisions[1].ilp_solves);
  EXPECT_GT(decisions[1].ilp_cache_hits, 0);
  // And produces the identical answer.
  EXPECT_DOUBLE_EQ(decisions[0].final_cost, decisions[1].final_cost);
}

}  // namespace
}  // namespace quilt
