#include "src/partition/root_set_sweep.h"

#include <limits>
#include <numeric>
#include <optional>

#include "src/partition/combinations.h"
#include "src/partition/ilp_encoding.h"

namespace quilt {

namespace {

// Consecutive non-improving k values before the DIH sweep stops.
constexpr int kStallLimit = 2;

// The k-sweep over {workflow root} ∪ (k-1 of `candidates`). It stops at the
// first plan that costs at most `proven_optimum`, and, when `stall_limit` is
// positive, after that many consecutive k without improvement.
std::optional<MergeSolution> SweepRootSets(const MergeProblem& problem, uint64_t fingerprint,
                                           const std::vector<NodeId>& candidates,
                                           const SolverOptions& options, double proven_optimum,
                                           int stall_limit, SolverStats& st) {
  const NodeId workflow_root = problem.graph->root();
  const bool cost_active = problem.cost.active(problem.graph->num_edges());
  const int num_candidates = static_cast<int>(candidates.size());
  IlpSolveOptions ilp_options = options.ilp();

  std::optional<MergeSolution> best;
  int stalled = 0;
  for (int k = 1; k <= num_candidates + 1; ++k) {
    bool improved = false;
    const bool completed =
        ForEachCombination(num_candidates, k - 1, [&](const std::vector<int>& combo) {
          ++st.candidate_sets_tried;

          std::vector<NodeId> roots = {workflow_root};
          for (int index : combo) {
            roots.push_back(candidates[index]);
          }
          if (best.has_value()) {
            ilp_options.cutoff = best->cross_cost;  // Strict improvement only.
          }
          Result<MergeSolution> solution =
              SolveForRootsCached(problem, fingerprint, roots, ilp_options, options.cache, &st);
          if (!solution.ok()) {
            return true;
          }
          ++st.feasible_sets;
          best = std::move(solution).value();
          improved = true;
          // Zero-cost early exit applies only to the latency objective: a
          // blended cost carries a constant merge-side floor, so "zero" no
          // longer means "cannot improve".
          if (!cost_active && best->cross_cost <= 0.0) {
            return false;
          }
          return best->cross_cost > proven_optimum;  // Else no later set improves.
        });
    if (!completed) {
      break;  // Optimum reached.
    }
    if (stall_limit > 0 && best.has_value()) {
      stalled = improved ? 0 : stalled + 1;
      if (stalled >= stall_limit) {
        break;
      }
    }
  }
  return best;
}

}  // namespace

Result<MergeSolution> SolveOptimal(const MergeProblem& problem, const SolverOptions& options,
                                   SolverStats* stats) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  const CallGraph& graph = *problem.graph;
  const int n = graph.num_nodes();
  const uint64_t fingerprint = FingerprintProblem(problem);

  SolverStats local_stats;
  SolverStats& st = stats != nullptr ? *stats : local_stats;
  st = SolverStats{};

  // The sweep's last candidate set, R = V, solved first: every plan for a
  // root set is also an R = V plan with the same cross edges (DESIGN.md
  // §4.7), so its cost is the sweep's optimum and the sweep stops at the
  // first set that reaches it. Only an exact, unlimited solve of the
  // Appendix-B encoding proves that; otherwise the sweep runs to the end.
  double proven_optimum = -std::numeric_limits<double>::infinity();
  if (options.mip_gap <= 0.0 && options.max_nodes_per_ilp == 0 && n <= kCompactEncodingThreshold) {
    std::vector<NodeId> all_nodes(n);
    std::iota(all_nodes.begin(), all_nodes.end(), 0);
    Result<MergeSolution> all_roots = SolveForRootsCached(problem, fingerprint, all_nodes,
                                                          options.ilp(), options.cache, &st);
    if (all_roots.ok()) {
      proven_optimum = all_roots->cross_cost;
    }
  }

  std::vector<NodeId> others;
  others.reserve(n - 1);
  for (NodeId id = 0; id < n; ++id) {
    if (id != graph.root()) {
      others.push_back(id);
    }
  }
  std::optional<MergeSolution> best = SweepRootSets(problem, fingerprint, others, options,
                                                    proven_optimum, /*stall_limit=*/0, st);
  if (!best.has_value()) {
    return InfeasibleError("no feasible grouping satisfies the resource constraints");
  }
  return *best;
}

Result<MergeSolution> SolveDihSweep(const MergeProblem& problem, ScoreFn score,
                                    const SolverOptions& options, SolverStats* stats) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  SolverStats local_stats;
  SolverStats& st = stats != nullptr ? *stats : local_stats;
  st = SolverStats{};

  // Phase 1: the candidate pool is the top-ℓ nodes by score.
  std::vector<NodeId> pool = RankCandidates(problem, score(problem));
  if (static_cast<int>(pool.size()) > options.pool_size) {
    pool.resize(options.pool_size);
  }
  std::optional<MergeSolution> best =
      SweepRootSets(problem, FingerprintProblem(problem), pool, options,
                    -std::numeric_limits<double>::infinity(), kStallLimit, st);
  if (!best.has_value()) {
    return InfeasibleError(
        "heuristic pool produced no feasible grouping; widen the pool or use GRASP");
  }
  return *best;
}

}  // namespace quilt
