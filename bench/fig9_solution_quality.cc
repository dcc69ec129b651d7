// Figures 9a/9b: quality of the merging decisions (§7.5.2).
//
// 9a -- optimality gap (Cost_H - Cost_O) / (Cost_B - Cost_O) of the
// Downstream Impact heuristic vs the simple weighted-in-degree heuristic,
// against the exact optimum on random rDAGs (gap 0 = matched the optimum,
// 1 = no better than not merging).
//
// 9b -- number of non-local calls under each heuristic on larger graphs
// (where the optimum is unobtainable): DIH should yield many times fewer
// remote invocations than weighted in-degree.
//
//   --smoke   9a in full, 9b without its 100- and 200-node rows (CI). Those
//             rows come last, so every row that runs draws the same graphs.
#include <algorithm>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"
#include "src/partition/metrics.h"
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
  return MergeProblem{&graph, /*cpu_limit=*/1e9, std::max(total_mem * 0.5, max_mem * 2.0)};
}

struct Stats {
  std::vector<double> values;
  double Mean() const {
    double sum = 0.0;
    for (double v : values) {
      sum += v;
    }
    return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
  }
  double Stdev() const {
    if (values.size() < 2) {
      return 0.0;
    }
    const double mean = Mean();
    double ss = 0.0;
    for (double v : values) {
      ss += (v - mean) * (v - mean);
    }
    return std::sqrt(ss / static_cast<double>(values.size() - 1));
  }
};

}  // namespace
}  // namespace bench
}  // namespace quilt

int main(int argc, char** argv) {
  using namespace quilt;
  using namespace quilt::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  // ---- Figure 9a: optimality gap on small graphs. ----
  PrintHeader("Figure 9a: optimality gap vs graph size (mean +/- stdev; lower is better)");
  std::printf("%6s %7s | %22s | %22s\n", "nodes", "trials", "weighted-in-degree",
              "downstream-impact");
  Rng master(7);
  for (int n : {6, 8, 10, 12}) {
    const int trials = 25;
    Stats indeg_gap;
    Stats dih_gap;
    for (int trial = 0; trial < trials; ++trial) {
      RandomDagOptions options;
      options.num_nodes = n;
      CallGraph graph = GenerateRandomRdag(options, master);
      MergeProblem problem = ProblemFor(graph);

      Result<MergeSolution> opt = SolveOptimal(problem);
      if (!opt.ok()) {
        continue;
      }
      const double baseline_cost = graph.TotalEdgeWeight();

      Result<MergeSolution> h1 = SolveDihSweep(problem, WeightedInDegreeScores);
      Result<MergeSolution> h2 = SolveDihSweep(problem, DownstreamImpactScores);
      const double c1 = h1.ok() ? h1->cross_cost : baseline_cost;
      const double c2 = h2.ok() ? h2->cross_cost : baseline_cost;
      indeg_gap.values.push_back(OptimalityGap(c1, opt->cross_cost, baseline_cost));
      dih_gap.values.push_back(OptimalityGap(c2, opt->cross_cost, baseline_cost));
    }
    std::printf("%6d %7d | %10.4f +/- %8.4f | %10.4f +/- %8.4f\n", n, trials,
                indeg_gap.Mean(), indeg_gap.Stdev(), dih_gap.Mean(), dih_gap.Stdev());
  }
  std::printf("(paper: DIH gap ~0.04 at 25 nodes; weighted-degree much worse)\n");

  // ---- Figure 9b: non-local calls on larger graphs. ----
  PrintHeader("Figure 9b: remote (non-local) calls per profile window, larger graphs");
  std::printf("%6s %7s | %14s %14s %14s | %8s\n", "nodes", "trials", "baseline",
              "in-degree", "dih", "ratio");
  const std::vector<int> large_sizes =
      smoke ? std::vector<int>{25, 50} : std::vector<int>{25, 50, 100, 200};
  for (int n : large_sizes) {
    const int trials = 6;
    Stats indeg_cost;
    Stats dih_cost;
    Stats base_cost;
    for (int trial = 0; trial < trials; ++trial) {
      RandomDagOptions options;
      options.num_nodes = n;
      CallGraph graph = GenerateRandomRdag(options, master);
      MergeProblem problem = ProblemFor(graph);
      base_cost.values.push_back(graph.TotalEdgeWeight());

      if (n <= 25) {
        Result<MergeSolution> h1 = SolveDihSweep(problem, WeightedInDegreeScores);
        Result<MergeSolution> h2 = SolveDihSweep(problem, DownstreamImpactScores);
        indeg_cost.values.push_back(h1.ok() ? h1->cross_cost : graph.TotalEdgeWeight());
        dih_cost.values.push_back(h2.ok() ? h2->cross_cost : graph.TotalEdgeWeight());
      } else {
        SolverOptions grasp_options = SolverOptions::GraspDefaults();
        grasp_options.seed = 300 + trial;
        Result<MergeSolution> h1 = SolveGrasp(problem, WeightedInDegreeScores, grasp_options);
        Result<MergeSolution> h2 = SolveGrasp(problem, DownstreamImpactScores, grasp_options);
        indeg_cost.values.push_back(h1.ok() ? h1->cross_cost : graph.TotalEdgeWeight());
        dih_cost.values.push_back(h2.ok() ? h2->cross_cost : graph.TotalEdgeWeight());
      }
    }
    const double ratio = dih_cost.Mean() > 0 ? indeg_cost.Mean() / dih_cost.Mean() : 0.0;
    std::printf("%6d %7d | %14.0f %14.0f %14.0f | %7.1fx\n", n, trials, base_cost.Mean(),
                indeg_cost.Mean(), dih_cost.Mean(), ratio);
  }
  std::printf("(paper: DIH yields up to hundreds of times fewer non-local calls)\n");
  return 0;
}
