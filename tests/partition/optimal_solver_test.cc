#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>

#include "src/common/strings.h"
#include "src/graph/random_dag.h"
#include "src/partition/combinations.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/ilp_solve_cache.h"
#include "src/partition/root_set_sweep.h"

namespace quilt {
namespace {

TEST(OptimalSolverTest, FullMergeWhenEverythingFits) {
  CallGraph g;
  const NodeId a = g.AddNode("A", 0.1, 10);
  const NodeId b = g.AddNode("B", 0.1, 10);
  const NodeId c = g.AddNode("C", 0.1, 10);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(b, c, 10, 1, CallType::kSync).ok());
  MergeProblem problem{&g, 2.0, 128.0};
  Result<MergeSolution> solution = SolveOptimal(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->cross_cost, 0.0);
  EXPECT_TRUE(solution->IsFullMerge(g));
}

TEST(OptimalSolverTest, PicksCheapestCut) {
  // Chain A -(10)-> B -(99)-> C with memory for only two nodes together:
  // the optimum cuts the cheap A->B edge.
  CallGraph g;
  const NodeId a = g.AddNode("A", 0.1, 60);
  const NodeId b = g.AddNode("B", 0.1, 60);
  const NodeId c = g.AddNode("C", 0.1, 60);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(b, c, 99, 1, CallType::kSync).ok());
  MergeProblem problem{&g, 2.0, 130.0};
  SolverStats stats;
  Result<MergeSolution> solution = SolveOptimal(problem, {}, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->cross_cost, 10.0);
  EXPECT_TRUE(CheckSolution(problem, *solution).ok());
  EXPECT_GT(stats.feasible_sets, 0);
}

TEST(OptimalSolverTest, AppendixAExampleMoreSubgraphsCanBeBetter) {
  // Appendix A, Figure 11: 7 functions, memory limit 60.
  // Node memory and edge weights chosen per the figure's structure: a root
  // fans out to two heavy branches plus a light one; with 4 subgraphs the
  // cheap edges are cut instead of an expensive one.
  CallGraph g;
  const NodeId r = g.AddNode("r", 0.01, 20);
  const NodeId a = g.AddNode("a", 0.01, 30);
  const NodeId b = g.AddNode("b", 0.01, 30);
  const NodeId c = g.AddNode("c", 0.01, 30);
  const NodeId d = g.AddNode("d", 0.01, 30);
  const NodeId e = g.AddNode("e", 0.01, 25);
  const NodeId f = g.AddNode("f", 0.01, 25);
  ASSERT_TRUE(g.AddEdgeWithAlpha(r, a, 1, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 100, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(r, c, 1, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(c, d, 100, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(r, e, 2, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(e, f, 3, 1, CallType::kSync).ok());
  MergeProblem problem{&g, 8.0, 60.0};
  Result<MergeSolution> solution = SolveOptimal(problem);
  ASSERT_TRUE(solution.ok());
  // Best: groups {r}, {a,b}, {c,d}, {e,f}: cut r->a, r->c, r->e = 4.
  EXPECT_DOUBLE_EQ(solution->cross_cost, 4.0);
  EXPECT_EQ(solution->num_groups(), 4);
}

TEST(OptimalSolverTest, InfeasibleWhenPairTooLarge) {
  // Two nodes that cannot be merged and constraints force them together?
  // A single function always fits alone, so a valid grouping always exists:
  // every node its own group. Verify the solver finds it.
  CallGraph g;
  const NodeId a = g.AddNode("A", 0.5, 100);
  const NodeId b = g.AddNode("B", 0.5, 100);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  MergeProblem problem{&g, 2.0, 150.0};
  Result<MergeSolution> solution = SolveOptimal(problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_DOUBLE_EQ(solution->cross_cost, 10.0);
  EXPECT_EQ(solution->num_groups(), 2);
}

TEST(OptimalSolverTest, MatchesBruteForceOnRandomGraphs) {
  // Cross-check the k-sweep + ILP against exhaustive root-set + ILP-free
  // verification: the optimal cross cost must never exceed any feasible
  // solution's cost that CheckSolution accepts.
  Rng rng(77);
  for (int trial = 0; trial < 8; ++trial) {
    RandomDagOptions options;
    options.num_nodes = 6;
    CallGraph g = GenerateRandomRdag(options, rng);
    // Limits sized so roughly half the graph fits per group.
    double total_mem = 0.0;
    double total_cpu = 0.0;
    double max_mem = 0.0;
    double max_cpu = 0.0;
    for (NodeId id = 0; id < g.num_nodes(); ++id) {
      total_mem += g.node(id).memory;
      total_cpu += g.node(id).cpu;
      max_mem = std::max(max_mem, g.node(id).memory);
      max_cpu = std::max(max_cpu, g.node(id).cpu);
    }
    MergeProblem problem{&g, std::max(total_cpu * 0.7, max_cpu * 1.5),
                         std::max(total_mem * 0.7, max_mem * 1.5)};
    Result<MergeSolution> solution = SolveOptimal(problem);
    ASSERT_TRUE(solution.ok()) << "trial " << trial;
    EXPECT_TRUE(CheckSolution(problem, *solution).ok()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(solution->cross_cost, ComputeCrossCost(g, *solution));
    // Sanity: never worse than the no-merge baseline.
    EXPECT_LE(solution->cross_cost, g.TotalEdgeWeight());
  }
}

// Today's sweep without the R = V bound: every candidate root set in
// ForEachCombination order, the incumbent as cutoff, strict improvements
// only, and the latency objective's zero-cost exit.
struct ReferenceSweep {
  std::optional<MergeSolution> best;
  int64_t candidate_sets = 0;
};

ReferenceSweep RunReferenceSweep(const MergeProblem& problem, IlpSolveCache* cache) {
  const CallGraph& graph = *problem.graph;
  const int n = graph.num_nodes();
  const uint64_t fingerprint = FingerprintProblem(problem);
  const bool cost_active = problem.cost.active(graph.num_edges());
  std::vector<NodeId> others;
  for (NodeId id = 0; id < n; ++id) {
    if (id != graph.root()) {
      others.push_back(id);
    }
  }
  ReferenceSweep sweep;
  for (int k = 1; k <= n; ++k) {
    const bool completed =
        ForEachCombination(n - 1, k - 1, [&](const std::vector<int>& combo) {
          ++sweep.candidate_sets;
          std::vector<NodeId> roots = {graph.root()};
          for (int index : combo) {
            roots.push_back(others[index]);
          }
          IlpSolveOptions ilp_options;
          if (sweep.best.has_value()) {
            ilp_options.cutoff = sweep.best->cross_cost;
          }
          Result<MergeSolution> solution =
              SolveForRootsCached(problem, fingerprint, roots, ilp_options, cache, nullptr);
          if (solution.ok()) {
            sweep.best = std::move(solution).value();
            if (!cost_active && sweep.best->cross_cost <= 0.0) {
              return false;
            }
          }
          return true;
        });
    if (!completed) {
      break;
    }
  }
  return sweep;
}

TEST(OptimalSolverTest, EarlyStopMatchesFullSweep) {
  // Memory-only, CPU + memory, and blended λ ∈ {0, 0.5, 0.9} with
  // non-integer dollar terms, each with and without a cache: the early stop
  // returns the full sweep's plan, bit for bit.
  Rng rng(2203);
  int64_t memory_only_sets = 0;
  int64_t memory_only_reference_sets = 0;
  int decisions = 0;
  for (int n = 4; n <= 8; ++n) {
    for (int trial = 0; trial < (n < 8 ? 2 : 1); ++trial) {  // n = 8 dominates the time.
      RandomDagOptions options;
      options.num_nodes = n;
      CallGraph g = GenerateRandomRdag(options, rng);
      double total_cpu = 0.0;
      double total_mem = 0.0;
      double max_cpu = 0.0;
      double max_mem = 0.0;
      for (NodeId id = 0; id < n; ++id) {
        total_cpu += g.node(id).cpu;
        total_mem += g.node(id).memory;
        max_cpu = std::max(max_cpu, g.node(id).cpu);
        max_mem = std::max(max_mem, g.node(id).memory);
      }
      const double mem_limit = std::max(total_mem * rng.UniformDouble(0.3, 0.7), max_mem * 1.5);
      const double cpu_limit = std::max(total_cpu * rng.UniformDouble(0.3, 0.7), max_cpu * 1.5);
      std::vector<MergeProblem> problems;
      problems.push_back(MergeProblem{&g, 1e9, mem_limit, PlanCostModel{}});
      problems.push_back(MergeProblem{&g, cpu_limit, mem_limit, PlanCostModel{}});
      for (double lambda : {0.0, 0.5, 0.9}) {
        PlanCostModel cost;
        cost.weight = lambda;
        cost.scale = 1000.0;
        cost.base = rng.UniformDouble(0.0, 0.1);
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          cost.cut_cost.push_back(rng.UniformDouble(0.0, 0.3));
          cost.merge_cost.push_back(rng.UniformDouble(0.0, 0.3));
        }
        problems.push_back(MergeProblem{&g, cpu_limit, mem_limit, std::move(cost)});
      }
      for (size_t shape = 0; shape < problems.size(); ++shape) {
        const MergeProblem& problem = problems[shape];
        for (bool with_cache : {false, true}) {
          IlpSolveCache solver_cache;
          IlpSolveCache reference_cache;
          SolverOptions solver_options;
          solver_options.cache = with_cache ? &solver_cache : nullptr;
          SolverStats stats;
          Result<MergeSolution> solution = SolveOptimal(problem, solver_options, &stats);
          const ReferenceSweep reference =
              RunReferenceSweep(problem, with_cache ? &reference_cache : nullptr);
          SCOPED_TRACE(StrCat("n=", n, " trial=", trial, " shape=", shape,
                              " cache=", with_cache));
          ASSERT_TRUE(reference.best.has_value());
          ASSERT_TRUE(solution.ok());
          EXPECT_EQ(SolutionToString(g, *solution), SolutionToString(g, *reference.best));
          EXPECT_EQ(std::bit_cast<uint64_t>(solution->cross_cost),
                    std::bit_cast<uint64_t>(reference.best->cross_cost));
          EXPECT_LE(stats.candidate_sets_tried, reference.candidate_sets);
          if (shape == 0) {
            memory_only_sets += stats.candidate_sets_tried;
            memory_only_reference_sets += reference.candidate_sets;
          }
          ++decisions;
        }
      }
    }
  }
  EXPECT_EQ(decisions, 90);
  EXPECT_LT(memory_only_sets, memory_only_reference_sets);
}

}  // namespace
}  // namespace quilt
