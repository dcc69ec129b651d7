#include <gtest/gtest.h>

#include "src/graph/random_dag.h"
#include "src/partition/metrics.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace {

MergeProblem ProblemFor(const CallGraph& g, double cpu, double mem) {
  return MergeProblem{&g, cpu, mem};
}

TEST(ScorersTest, DownstreamImpactPrefersGatewayNodes) {
  // root -> gateway -> {heavy1, heavy2}; root -> light.
  CallGraph g;
  const NodeId root = g.AddNode("root", 0.1, 10);
  const NodeId gateway = g.AddNode("gateway", 0.1, 10);
  const NodeId heavy1 = g.AddNode("heavy1", 0.5, 90);
  const NodeId heavy2 = g.AddNode("heavy2", 0.5, 90);
  const NodeId light = g.AddNode("light", 0.05, 5);
  ASSERT_TRUE(g.AddEdgeWithAlpha(root, gateway, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(gateway, heavy1, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(gateway, heavy2, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(root, light, 10, 1, CallType::kSync).ok());
  MergeProblem problem = ProblemFor(g, 2.0, 128.0);

  const std::vector<double> scores = DownstreamImpactScores(problem);
  // The gateway guards the resource-heavy subtree: highest score.
  EXPECT_GT(scores[gateway], scores[light]);
  EXPECT_GT(scores[gateway], scores[heavy1]);
}

TEST(ScorersTest, WeightedDegreeScorers) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 10);
  const NodeId b = g.AddNode("b", 0.1, 10);
  const NodeId c = g.AddNode("c", 0.1, 10);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 7, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, c, 3, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(b, c, 4, 1, CallType::kSync).ok());
  MergeProblem problem = ProblemFor(g, 2.0, 128.0);
  EXPECT_EQ(WeightedInDegreeScores(problem), (std::vector<double>{0, 7, 7}));
  EXPECT_EQ(WeightedOutDegreeScores(problem), (std::vector<double>{10, 4, 0}));
  EXPECT_EQ(kRootScorers[2].score, BetweennessScores);
  EXPECT_EQ(kRootScorers[2].name, "betweenness");
}

TEST(HeuristicSolverTest, FindsFullMergeOnEasyGraph) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 10);
  const NodeId b = g.AddNode("b", 0.1, 10);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  MergeProblem problem = ProblemFor(g, 2.0, 128.0);
  Result<MergeSolution> solution = SolveDihSweep(problem, DownstreamImpactScores);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->cross_cost, 0.0);
}

TEST(HeuristicSolverTest, DihMatchesOptimalOnSmallRandomGraphs) {
  Rng rng(2024);
  int optimal_matches = 0;
  const int trials = 10;
  for (int trial = 0; trial < trials; ++trial) {
    RandomDagOptions options;
    options.num_nodes = 8;
    CallGraph g = GenerateRandomRdag(options, rng);
    double total_mem = 0.0;
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      total_mem += g.node(id).memory;
    }
    // Memory for roughly half the graph; generous CPU.
    MergeProblem problem = ProblemFor(g, 50.0, total_mem * 0.55);

    Result<MergeSolution> opt = SolveOptimal(problem);
    ASSERT_TRUE(opt.ok()) << "trial " << trial;

    SolverOptions h_options;
    h_options.pool_size = 5;
    Result<MergeSolution> heur = SolveDihSweep(problem, DownstreamImpactScores, h_options);
    ASSERT_TRUE(heur.ok()) << "trial " << trial;
    EXPECT_TRUE(CheckSolution(problem, *heur).ok());

    // The heuristic can never beat the optimum.
    EXPECT_GE(heur->cross_cost, opt->cross_cost - 1e-9);
    const double gap = OptimalityGap(heur->cross_cost, opt->cross_cost, g.TotalEdgeWeight());
    EXPECT_GE(gap, -1e-9);
    EXPECT_LE(gap, 1.0 + 1e-9);
    if (gap <= 1e-9) {
      ++optimal_matches;
    }
  }
  // DIH should be optimal most of the time (paper: gap 0.0394 at 25 nodes).
  EXPECT_GE(optimal_matches, trials / 2);
}

TEST(HeuristicSolverTest, StatsArePopulated) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 60);
  const NodeId b = g.AddNode("b", 0.1, 60);
  const NodeId c = g.AddNode("c", 0.1, 60);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(b, c, 20, 1, CallType::kSync).ok());
  MergeProblem problem = ProblemFor(g, 2.0, 130.0);
  SolverStats stats;
  Result<MergeSolution> solution = SolveDihSweep(problem, DownstreamImpactScores, {}, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_GT(stats.candidate_sets_tried, 0);
  EXPECT_GT(stats.feasible_sets, 0);
  EXPECT_DOUBLE_EQ(solution->cross_cost, 10.0);  // Cut the cheap edge.
}

TEST(MetricsTest, OptimalityGapDefinition) {
  EXPECT_DOUBLE_EQ(OptimalityGap(10, 10, 100), 0.0);   // Matched optimum.
  EXPECT_DOUBLE_EQ(OptimalityGap(100, 10, 100), 1.0);  // No better than baseline.
  EXPECT_DOUBLE_EQ(OptimalityGap(55, 10, 100), 0.5);
  EXPECT_DOUBLE_EQ(OptimalityGap(5, 5, 5), 0.0);  // Degenerate denominator.
}

}  // namespace
}  // namespace quilt
