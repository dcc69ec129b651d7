// Ablation: the Gurobi-style "MIP gap" relaxation (§4.3).
//
// The paper stops the Phase-2 solver once a solution within a chosen
// percentage of optimal is found. This harness sweeps the gap and reports
// decision time vs solution quality on random rDAGs.
#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "src/graph/random_dag.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace bench {
namespace {

MergeProblem ProblemFor(const CallGraph& graph) {
  double total_mem = 0.0;
  double max_mem = 0.0;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    total_mem += graph.node(id).memory;
    max_mem = std::max(max_mem, graph.node(id).memory);
  }
  return MergeProblem{&graph, 1e9, std::max(total_mem * 0.5, max_mem * 2.0)};
}

}  // namespace
}  // namespace bench
}  // namespace quilt

int main() {
  using namespace quilt;
  using namespace quilt::bench;

  PrintHeader("Ablation: MIP-gap relaxation (DIH decision, 26-node random rDAGs)");
  std::printf("%8s | %14s | %16s | %12s\n", "gap", "mean cost", "cost vs exact", "mean ms");

  const std::vector<double> gaps = {0.0, 0.05, 0.2, 0.5};
  const int trials = 12;

  // Pre-generate graphs so every gap sees the same instances.
  Rng master(23);
  std::vector<CallGraph> graphs;
  for (int trial = 0; trial < trials; ++trial) {
    RandomDagOptions options;
    options.num_nodes = 26;
    graphs.push_back(GenerateRandomRdag(options, master));
  }

  double exact_cost = 0.0;
  for (double gap : gaps) {
    double cost_sum = 0.0;
    double ms_sum = 0.0;
    for (const CallGraph& graph : graphs) {
      MergeProblem problem = ProblemFor(graph);
      SolverOptions options;
      options.pool_size = 8;
      options.mip_gap = gap;
      const auto start = std::chrono::steady_clock::now();
      Result<MergeSolution> solution = SolveDihSweep(problem, DownstreamImpactScores, options);
      ms_sum += std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                          start)
                    .count();
      cost_sum += solution.ok() ? solution->cross_cost : graph.TotalEdgeWeight();
    }
    if (gap == 0.0) {
      exact_cost = cost_sum;
    }
    std::printf("%7.0f%% | %14.1f | %15.2f%% | %12.1f\n", gap * 100.0, cost_sum / trials,
                exact_cost > 0 ? 100.0 * (cost_sum / exact_cost - 1.0) : 0.0,
                ms_sum / trials);
  }
  std::printf(
      "\nShape check: at benchmark scale the Phase-2 ILPs are already cheap, so the\n"
      "relaxation costs nothing and saves little -- the knob exists for the large\n"
      "candidate sets of Appendix C.4, where GRASP defaults to a 5%% gap.\n");
  return 0;
}
