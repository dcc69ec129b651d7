#include "src/partition/heuristic_solver.h"

#include <algorithm>
#include <optional>

#include "src/partition/combinations.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/ilp_solve_cache.h"

namespace quilt {

namespace {

// Consecutive non-improving k values before the sweep stops.
constexpr int kStallLimit = 2;

}  // namespace

Result<MergeSolution> HeuristicSolver::Solve(const MergeProblem& problem,
                                             const SolverOptions& options,
                                             SolverStats* stats) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  const CallGraph& graph = *problem.graph;
  const NodeId workflow_root = graph.root();
  const uint64_t fingerprint = FingerprintProblem(problem);
  const bool cost_active = problem.cost.active(graph.num_edges());

  SolverStats local_stats;
  SolverStats& st = stats != nullptr ? *stats : local_stats;
  st = SolverStats{};

  // Phase 1: candidate pool = top-ℓ nodes by score (workflow root excluded).
  const std::vector<double> scores = scorer_.Score(problem);
  std::vector<NodeId> pool;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    if (id != workflow_root) {
      pool.push_back(id);
    }
  }
  std::sort(pool.begin(), pool.end(), [&](NodeId a, NodeId b) {
    if (scores[a] != scores[b]) {
      return scores[a] > scores[b];
    }
    return a < b;
  });
  if (static_cast<int>(pool.size()) > options.pool_size) {
    pool.resize(options.pool_size);
  }

  const int max_k = static_cast<int>(pool.size()) + 1;

  std::optional<MergeSolution> best;
  int stalled = 0;
  for (int k = 1; k <= max_k; ++k) {
    if (k - 1 > static_cast<int>(pool.size())) {
      break;
    }
    bool improved_at_k = false;
    ForEachCombination(static_cast<int>(pool.size()), k - 1, [&](const std::vector<int>& combo) {
      if (options.expired()) {
        st.exhaustive = false;
        st.hit_deadline = true;
        return false;
      }
      ++st.candidate_sets_tried;
      std::vector<NodeId> roots = {workflow_root};
      for (int index : combo) {
        roots.push_back(pool[index]);
      }
      IlpSolveOptions ilp_options;
      ilp_options.mip_gap = options.mip_gap;
      ilp_options.max_nodes = options.max_nodes_per_ilp;
      ilp_options.deadline = options.deadline;
      if (best.has_value()) {
        ilp_options.cutoff = best->cross_cost;
      }
      Result<MergeSolution> solution =
          SolveForRootsCached(problem, fingerprint, roots, ilp_options, options.cache, &st);
      if (solution.ok()) {
        ++st.feasible_sets;
        best = std::move(solution).value();
        improved_at_k = true;
      }
      // Zero-cost early exit is a latency-only shortcut: blended costs keep
      // a constant merge-side floor, so zero does not mean unbeatable.
      return !(!cost_active && best.has_value() && best->cross_cost <= 0.0);
    });
    if (st.hit_deadline || (!cost_active && best.has_value() && best->cross_cost <= 0.0)) {
      break;
    }
    if (best.has_value()) {
      stalled = improved_at_k ? 0 : stalled + 1;
      if (stalled >= kStallLimit) {
        break;
      }
    }
  }

  if (!best.has_value()) {
    return InfeasibleError(
        "heuristic pool produced no feasible grouping; widen the pool or use GRASP");
  }
  return *best;
}

}  // namespace quilt
