#include "src/partition/optimal_solver.h"

#include <limits>
#include <numeric>
#include <optional>

#include "src/partition/combinations.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/ilp_solve_cache.h"

namespace quilt {

Result<MergeSolution> OptimalSolver::Solve(const MergeProblem& problem,
                                           const SolverOptions& options,
                                           SolverStats* stats) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  const CallGraph& graph = *problem.graph;
  const int n = graph.num_nodes();
  const NodeId workflow_root = graph.root();
  const uint64_t fingerprint = FingerprintProblem(problem);
  const bool cost_active = problem.cost.active(graph.num_edges());

  // Non-root nodes eligible as extra roots.
  std::vector<NodeId> others;
  others.reserve(n - 1);
  for (NodeId id = 0; id < n; ++id) {
    if (id != workflow_root) {
      others.push_back(id);
    }
  }

  SolverStats local_stats;
  SolverStats& st = stats != nullptr ? *stats : local_stats;
  st = SolverStats{};

  IlpSolveOptions ilp_options;
  ilp_options.mip_gap = options.mip_gap;
  ilp_options.max_nodes = options.max_nodes_per_ilp;
  ilp_options.deadline = options.deadline;

  // The sweep's last candidate set, R = V, solved first: every plan for a
  // root set is also an R = V plan with the same cross edges (DESIGN.md
  // §4.7), so its cost is the sweep's optimum and the sweep stops at the
  // first set that reaches it. Only an exact, unlimited solve of the
  // Appendix-B encoding proves that; otherwise the sweep runs to the end.
  double proven_optimum = -std::numeric_limits<double>::infinity();
  if (options.mip_gap <= 0.0 && options.max_nodes_per_ilp == 0 && !options.has_deadline() &&
      n <= kCompactEncodingThreshold) {
    std::vector<NodeId> all_nodes(n);
    std::iota(all_nodes.begin(), all_nodes.end(), 0);
    Result<MergeSolution> all_roots =
        SolveForRootsCached(problem, fingerprint, all_nodes, ilp_options, options.cache, &st);
    if (all_roots.ok()) {
      proven_optimum = all_roots->cross_cost;
    }
  }

  std::optional<MergeSolution> best;
  for (int k = 1; k <= n; ++k) {
    const bool completed = ForEachCombination(
        static_cast<int>(others.size()), k - 1, [&](const std::vector<int>& combo) {
          if (options.max_candidate_sets > 0 &&
              st.candidate_sets_tried >= options.max_candidate_sets) {
            st.exhaustive = false;
            return false;
          }
          if (options.expired()) {
            st.exhaustive = false;
            st.hit_deadline = true;
            return false;
          }
          ++st.candidate_sets_tried;

          std::vector<NodeId> roots = {workflow_root};
          for (int index : combo) {
            roots.push_back(others[index]);
          }

          if (best.has_value()) {
            ilp_options.cutoff = best->cross_cost;  // Strict improvement only.
          }
          Result<MergeSolution> solution =
              SolveForRootsCached(problem, fingerprint, roots, ilp_options, options.cache, &st);
          if (solution.ok()) {
            ++st.feasible_sets;
            best = std::move(solution).value();
            // Zero-cost early exit applies only to the latency objective:
            // a blended cost carries a constant merge-side floor, so "zero"
            // no longer means "cannot improve".
            if (!cost_active && best->cross_cost <= 0.0) {
              return false;  // Cannot improve on zero cross cost.
            }
            if (best->cross_cost <= proven_optimum) {
              return false;  // No later set can strictly improve on it.
            }
          }
          return true;
        });
    if (!completed) {
      break;  // Optimum reached, or candidate-set budget or deadline exhausted.
    }
  }

  if (!best.has_value()) {
    return InfeasibleError("no feasible grouping satisfies the resource constraints");
  }
  return *best;
}

}  // namespace quilt
