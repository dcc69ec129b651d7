// Figure 8b: time to find merge groupings (§7.5.2).
//
// Random rDAGs (|E| = 1.2|V|, 10% async edges, random CPU/memory, limits
// sized so at least two containers are needed); three algorithms:
//   - optimal (SolveOptimal: k-sweep over candidate root sets, Phase-2 ILP,
//     stopped at the R = V optimum),
//   - simple heuristic (SolveDihSweep over a weighted in-degree pool),
//   - Downstream Impact heuristic (SolveDihSweep over DIH scores).
// Medians with p5/p95 over repeated trials. The optimal solver is only run
// on small graphs (its worst-case candidate-set count is 2^(|V|-1)); for
// graphs beyond the heuristic pool regime the GRASP large-graph procedure
// (SolveGrasp, Appendix C.4) carries both heuristic columns, as in the paper.
// Then the decision engine's per-solver breakdown and ILP-cache effect.
//
//   --smoke   the sizes up to 25 nodes at 3 trials each, then the engine
//             table (CI). Every column but the ms figures is deterministic.
#include <algorithm>
#include <chrono>
#include <cstring>

#include "bench/bench_util.h"
#include "src/graph/random_dag.h"
#include "src/partition/decision_engine.h"
#include "src/partition/grasp_solver.h"
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
  // At least 2 containers required: limit below the full-merge demand.
  return MergeProblem{&graph, /*cpu_limit=*/1e9, std::max(total_mem * 0.5, max_mem * 2.0)};
}

struct Timing {
  std::vector<double> ms;
  double Quantile(double q) {
    if (ms.empty()) {
      return 0.0;
    }
    std::sort(ms.begin(), ms.end());
    const size_t index = std::min(ms.size() - 1, static_cast<size_t>(q * ms.size()));
    return ms[index];
  }
};

template <typename Fn>
double TimeMs(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

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

  PrintHeader("Figure 8b: merge-decision time vs graph size (median [p5,p95] ms)");
  std::printf("%6s %7s | %26s | %26s | %26s\n", "nodes", "trials", "optimal",
              "weighted-in-degree", "downstream-impact");

  std::vector<int> sizes = {5, 8, 10, 12, 25};
  if (!smoke) {
    sizes.insert(sizes.end(), {50, 100, 200, 400, 800});
  }
  Rng master(20250704);

  for (int n : sizes) {
    const int trials = smoke ? 3 : (n <= 25 ? 15 : (n <= 200 ? 6 : 3));
    const bool run_optimal = n <= 12;
    Timing optimal_t;
    Timing indeg_t;
    Timing dih_t;
    for (int trial = 0; trial < trials; ++trial) {
      RandomDagOptions options;
      options.num_nodes = n;
      CallGraph graph = GenerateRandomRdag(options, master);
      MergeProblem problem = ProblemFor(graph);

      if (run_optimal) {
        optimal_t.ms.push_back(TimeMs([&] { (void)SolveOptimal(problem); }));
      }
      if (n <= 25) {
        indeg_t.ms.push_back(
            TimeMs([&] { (void)SolveDihSweep(problem, WeightedInDegreeScores); }));
        dih_t.ms.push_back(
            TimeMs([&] { (void)SolveDihSweep(problem, DownstreamImpactScores); }));
      } else {
        // Large-graph regime: GRASP (Appendix C.4) with each scorer.
        SolverOptions grasp_options = SolverOptions::GraspDefaults();
        grasp_options.draws_per_size = 2;
        grasp_options.max_nodes_per_ilp = 150000;  // Bound pathological pools.
        grasp_options.seed = 1000 + trial;
        indeg_t.ms.push_back(TimeMs(
            [&] { (void)SolveGrasp(problem, WeightedInDegreeScores, grasp_options); }));
        dih_t.ms.push_back(TimeMs(
            [&] { (void)SolveGrasp(problem, DownstreamImpactScores, grasp_options); }));
      }
    }
    auto cell = [](Timing& t) {
      if (t.ms.empty()) {
        return std::string("--");
      }
      return StrCat(FormatDouble(t.Quantile(0.5), 1), " [", FormatDouble(t.Quantile(0.05), 1),
                    ", ", FormatDouble(t.Quantile(0.95), 1), "]");
    };
    std::printf("%6d %7d | %26s | %26s | %26s\n", n, trials, cell(optimal_t).c_str(),
                cell(indeg_t).c_str(), cell(dih_t).c_str());
  }
  std::printf(
      "\nShape check (paper): optimal explodes beyond ~20 nodes; DIH stays sub-second\n"
      "up to 200 nodes and a few seconds at 800.\n");

  // ---- Decision engine: per-solver breakdown + Phase-2 ILP cache. ----
  // The merge monitor re-runs Decide continuously (§8); a stable profile makes
  // every Phase-2 solve of the second decision a cache hit. Compare recurring
  // decisions (decide + re-decide) with the cache on vs off at each policy
  // regime, including a >=200-node GRASP decision.
  PrintHeader("Decision engine: solver breakdown and ILP-cache effect (decide + re-decide)");
  std::printf("%6s %10s | %23s | %23s | %8s\n", "nodes", "solver", "cache on (solves/hits)",
              "cache off (solves/hits)", "speedup");
  Rng engine_master(424242);
  for (int n : {10, 20, 200}) {
    RandomDagOptions options;
    options.num_nodes = n;
    CallGraph graph = GenerateRandomRdag(options, engine_master);
    MergeProblem problem = ProblemFor(graph);

    auto run_pair = [&](bool enable_cache, DecisionRecord records[2]) {
      DecisionEngineOptions engine_options;
      engine_options.enable_cache = enable_cache;
      engine_options.seed = 7;
      DecisionEngine engine(engine_options);
      for (int round = 0; round < 2; ++round) {
        (void)engine.Decide(problem, &records[round]);
      }
    };
    DecisionRecord with_cache[2];
    DecisionRecord without_cache[2];
    run_pair(true, with_cache);
    run_pair(false, without_cache);

    const int64_t cached_solves =
        with_cache[0].ilp_solves - with_cache[0].ilp_cache_hits +
        with_cache[1].ilp_solves - with_cache[1].ilp_cache_hits;
    const int64_t cached_hits = with_cache[0].ilp_cache_hits + with_cache[1].ilp_cache_hits;
    const int64_t fresh_solves = without_cache[0].ilp_solves + without_cache[1].ilp_solves;
    const double lookups = static_cast<double>(cached_solves + cached_hits);
    std::printf("%6d %10s | %10lld / %8lld | %10lld / %8lld | %7.1fx\n", n,
                with_cache[0].solver.c_str(), static_cast<long long>(cached_solves),
                static_cast<long long>(cached_hits), static_cast<long long>(fresh_solves),
                0LL, cached_solves > 0 ? static_cast<double>(fresh_solves) / cached_solves : 0.0);
    std::printf("       %10s | hit rate %.0f%%; wall %s -> %s ms (cache on, decide -> re-decide)\n",
                "", lookups > 0 ? 100.0 * cached_hits / lookups : 0.0,
                FormatDouble(with_cache[0].wall_ms, 1).c_str(),
                FormatDouble(with_cache[1].wall_ms, 1).c_str());
  }
  std::printf(
      "\nShape check: the re-decide pass answers every Phase-2 ILP from the cache, so\n"
      "recurring decisions need >=2x fewer fresh ILP solves than with the cache off.\n");
  return 0;
}
