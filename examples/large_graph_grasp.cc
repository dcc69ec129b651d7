// Large-graph merge decision with GRASP (Appendix C.4).
//
// Generates a 300-node random rDAG (far beyond what the exact solver can
// handle: 2^299 candidate root sets) and runs the two-stage GRASP procedure:
// randomized pool growth until feasibility, then greedy root pruning.
#include <chrono>
#include <cstdio>

#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"
#include "src/partition/scorers.h"

int main() {
  using namespace quilt;

  Rng graph_rng(2025);
  RandomDagOptions options;
  options.num_nodes = 300;
  const CallGraph graph = GenerateRandomRdag(options, graph_rng);

  double total_mem = 0.0;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    total_mem += graph.node(id).memory;
  }
  MergeProblem problem{&graph, /*cpu_limit=*/40.0, /*memory_limit=*/total_mem * 0.12};
  std::printf("graph: %d nodes, %d edges; memory limit %.0f MB (12%% of total)\n",
              graph.num_nodes(), graph.num_edges(), problem.memory_limit);
  std::printf("baseline (no merging) remote calls per window: %.0f\n\n",
              graph.TotalEdgeWeight());

  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 7;
  SolverStats stats;

  const auto start = std::chrono::steady_clock::now();
  Result<MergeSolution> solution =
      SolveGrasp(problem, DownstreamImpactScores, grasp_options, &stats);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  if (!solution.ok()) {
    std::printf("GRASP failed: %s\n", solution.status().ToString().c_str());
    return 1;
  }

  const Status valid = CheckSolution(problem, *solution);
  std::printf("GRASP: %d groups, cross-edge cost %.0f (%.1f%% of baseline) in %lld ms\n",
              solution->num_groups(), solution->cross_cost,
              100.0 * solution->cross_cost / graph.TotalEdgeWeight(),
              static_cast<long long>(elapsed.count()));
  std::printf("stage 1: %d attempts, final pool size %d; stage 2: %d roots pruned; "
              "%lld ILP solves total\n",
              stats.stage1_attempts, stats.final_pool_size, stats.refinement_removals,
              static_cast<long long>(stats.ilp_solves));
  std::printf("solution check: %s\n", valid.ToString().c_str());
  return valid.ok() ? 0 : 1;
}
