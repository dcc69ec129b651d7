#include "src/partition/grasp_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "src/graph/random_dag.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace {

// Canonical form of a solution: groups as (root, sorted members), sorted by
// root. Two solutions with equal canonical forms picked the same roots and
// the same membership, regardless of construction order.
std::vector<std::pair<NodeId, std::vector<NodeId>>> CanonicalGroups(
    const MergeSolution& solution) {
  std::vector<std::pair<NodeId, std::vector<NodeId>>> groups;
  for (const MergeGroup& group : solution.groups) {
    std::vector<NodeId> members = group.members;
    std::sort(members.begin(), members.end());
    groups.emplace_back(group.root, std::move(members));
  }
  std::sort(groups.begin(), groups.end());
  return groups;
}

TEST(GraspSolverTest, SolvesMediumRandomGraph) {
  Rng graph_rng(11);
  RandomDagOptions options;
  options.num_nodes = 40;
  CallGraph g = GenerateRandomRdag(options, graph_rng);
  double total_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_mem += g.node(id).memory;
  }
  MergeProblem problem{&g, 100.0, total_mem * 0.3};

  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 99;
  SolverStats stats;
  Result<MergeSolution> solution =
      SolveGrasp(problem, DownstreamImpactScores, grasp_options, &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(CheckSolution(problem, *solution).ok())
      << CheckSolution(problem, *solution).ToString();
  EXPECT_LT(solution->cross_cost, g.TotalEdgeWeight());
  EXPECT_GT(stats.stage1_attempts, 0);
  EXPECT_GT(stats.ilp_solves, 0);
}

TEST(GraspSolverTest, RefinementEndsAtLocalOptimum) {
  // A tight problem whose stage-1 root set carries a removable root.
  Rng graph_rng(5);
  RandomDagOptions options;
  options.num_nodes = 15;
  options.memory_min = 30;
  options.memory_max = 60;
  CallGraph g = GenerateRandomRdag(options, graph_rng);
  MergeProblem problem{&g, 100.0, 125.0, PlanCostModel{}};

  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 1;
  SolverStats stats;
  Result<MergeSolution> refined =
      SolveGrasp(problem, DownstreamImpactScores, grasp_options, &stats);
  ASSERT_TRUE(refined.ok()) << refined.status().ToString();
  EXPECT_GT(stats.refinement_removals, 0);

  // Stage 2 stops only where no single removal helps: dropping any one
  // non-workflow root from the returned root set (one group per root, in
  // root-set order), under the same ILP options, gives no cheaper plan.
  std::vector<NodeId> roots;
  for (const MergeGroup& group : refined->groups) {
    roots.push_back(group.root);
  }
  int removals_tried = 0;
  for (NodeId drop : roots) {
    if (drop == g.root()) {
      continue;
    }
    std::vector<NodeId> fewer;
    for (NodeId root : roots) {
      if (root != drop) {
        fewer.push_back(root);
      }
    }
    ++removals_tried;
    Result<MergeSolution> pruned = SolveForRoots(problem, fewer, grasp_options.ilp());
    if (pruned.ok()) {
      EXPECT_GE(pruned->cross_cost, refined->cross_cost - 1e-9) << "dropping root " << drop;
    }
  }
  EXPECT_GT(removals_tried, 0);
}

TEST(GraspSolverTest, TightConstraintsGrowThePool) {
  // Per-node memory 30..60; cap groups to ~2 nodes so stage 1 needs many
  // roots before feasibility: the pool grows past its initial size of 2.
  Rng graph_rng(31);
  RandomDagOptions options;
  options.num_nodes = 15;
  options.memory_min = 30;
  options.memory_max = 60;
  CallGraph g = GenerateRandomRdag(options, graph_rng);
  MergeProblem problem{&g, 100.0, 125.0};

  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 1;
  SolverStats stats;
  Result<MergeSolution> solution =
      SolveGrasp(problem, DownstreamImpactScores, grasp_options, &stats);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_TRUE(CheckSolution(problem, *solution).ok());
  EXPECT_GT(stats.final_pool_size, 2);
}

TEST(GraspSolverTest, DeterministicGivenSeed) {
  Rng graph_rng(41);
  RandomDagOptions options;
  options.num_nodes = 20;
  CallGraph g = GenerateRandomRdag(options, graph_rng);
  double total_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_mem += g.node(id).memory;
  }
  MergeProblem problem{&g, 100.0, total_mem * 0.4};
  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 123;
  Result<MergeSolution> a = SolveGrasp(problem, DownstreamImpactScores, grasp_options);
  Result<MergeSolution> b = SolveGrasp(problem, DownstreamImpactScores, grasp_options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cross_cost, b->cross_cost);
  EXPECT_EQ(a->num_groups(), b->num_groups());
  // Not just equal cost: the same seed picks the identical group roots and
  // the identical member sets.
  EXPECT_EQ(CanonicalGroups(*a), CanonicalGroups(*b));
}

TEST(GraspSolverTest, DifferentSeedStillProducesValidSolution) {
  Rng graph_rng(41);
  RandomDagOptions options;
  options.num_nodes = 20;
  CallGraph g = GenerateRandomRdag(options, graph_rng);
  double total_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_mem += g.node(id).memory;
  }
  MergeProblem problem{&g, 100.0, total_mem * 0.4};

  SolverOptions base_options = SolverOptions::GraspDefaults();
  base_options.seed = 123;
  Result<MergeSolution> base = SolveGrasp(problem, DownstreamImpactScores, base_options);
  ASSERT_TRUE(base.ok());

  // Any other seed must still satisfy every solution invariant (coverage,
  // unique roots, rooted connectivity, resource limits), whatever roots the
  // randomized construction happens to pick.
  for (uint64_t seed : {7u, 777u, 31337u}) {
    SolverOptions other_options = SolverOptions::GraspDefaults();
    other_options.seed = seed;
    Result<MergeSolution> other = SolveGrasp(problem, DownstreamImpactScores, other_options);
    ASSERT_TRUE(other.ok()) << "seed " << seed << ": " << other.status().ToString();
    EXPECT_TRUE(CheckSolution(problem, *other).ok())
        << "seed " << seed << ": " << CheckSolution(problem, *other).ToString();
    EXPECT_LT(other->cross_cost, g.TotalEdgeWeight());
  }
}

}  // namespace
}  // namespace quilt
