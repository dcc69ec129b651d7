// Exact merge-decision solver (§4.2).
//
// Sweeps every subgraph count k from 1 to |V|, enumerates all candidate root
// sets {workflow root} ∪ (k-1 other nodes), and solves the Appendix-B ILP for
// each set, keeping the first strictly cheapest. The running incumbent is
// passed to the ILP as a cutoff so dominated candidate sets are pruned
// cheaply. Appendix A shows that fewer subgraphs are not always better, hence
// the k sweep.
//
// The sweep's last set, R = V (every node a root), is solved first: adding a
// root never raises the optimum, so its cost is the sweep's optimum, and the
// sweep stops at the first set that reaches it (DESIGN.md §4.7). It returns
// the same plan the full sweep would. The bound is skipped, and the sweep runs
// to the end, when the inner ILPs are inexact (mip_gap, node budget,
// deadline) or use the compact encoding.
//
// Practical only for small call graphs (the paper says <= 20 vertices): in the
// worst case the candidate-set count is 1 + C(|V|-1, k-1) summed over k, i.e.
// 2^(|V|-1).
#ifndef SRC_PARTITION_OPTIMAL_SOLVER_H_
#define SRC_PARTITION_OPTIMAL_SOLVER_H_

#include <string>

#include "src/partition/merge_solver.h"

namespace quilt {

// SolverOptions fields honored: mip_gap, max_nodes_per_ilp, deadline, cache,
// max_candidate_sets (abort enumeration after this many root sets; the best
// solution so far is returned, marked non-exhaustive in SolverStats). The
// R = V solve counts in SolverStats::ilp_solves, not in candidate_sets_tried.
class OptimalSolver : public MergeSolver {
 public:
  std::string name() const override { return "optimal"; }
  Result<MergeSolution> Solve(const MergeProblem& problem,
                              const SolverOptions& options = {},
                              SolverStats* stats = nullptr) override;
};

}  // namespace quilt

#endif  // SRC_PARTITION_OPTIMAL_SOLVER_H_
