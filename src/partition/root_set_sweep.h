// The exact merge decision (§4.2) and the DIH sweep (§4.3, Appendix C.1):
// one k-sweep over candidate root sets.
//
// Both sweep k = 1, 2, ... subgraphs over the root sets {workflow root} ∪
// (k-1 candidates), in ForEachCombination order, and solve the Appendix-B
// ILP (Phase 2) for each. They keep the first strictly cheapest plan: the
// incumbent is every later solve's cutoff. Appendix A shows that fewer
// subgraphs are not always better, hence the k sweep. The two differ in
// their candidates and in one stop rule:
//
// - SolveOptimal: every non-root node, in id order. It first solves R = V
//   (every node a root). Adding a root never raises the optimum, so that
//   cost is the sweep's optimum, and the sweep stops at the first plan that
//   reaches it (DESIGN.md §4.7); it returns the plan the full sweep would.
//   The bound is skipped, and the sweep runs to the end, when the inner ILPs
//   are inexact (mip_gap, node budget) or use the compact encoding. Worst
//   case: 2^(|V|-1) root sets, so it is practical only for small call graphs
//   (the paper says <= 20 vertices).
// - SolveDihSweep: the top-ℓ nodes by a score (SolverOptions::pool_size),
//   ties by id. It stops after two consecutive k without improvement ("keep
//   increasing k until we find good enough groupings").
//
// Both also stop at a zero-cost plan under the latency objective (a blended
// cost keeps a constant merge-side floor, so zero is not unbeatable).
//
// SolverOptions fields honoured: mip_gap, max_nodes_per_ilp, cache, and
// pool_size (DIH only). The R = V solve counts in SolverStats::ilp_solves,
// not in candidate_sets_tried.
#ifndef SRC_PARTITION_ROOT_SET_SWEEP_H_
#define SRC_PARTITION_ROOT_SET_SWEEP_H_

#include "src/partition/merge_solver.h"
#include "src/partition/scorers.h"

namespace quilt {

Result<MergeSolution> SolveOptimal(const MergeProblem& problem, const SolverOptions& options = {},
                                   SolverStats* stats = nullptr);

Result<MergeSolution> SolveDihSweep(const MergeProblem& problem, ScoreFn score,
                                    const SolverOptions& options = {},
                                    SolverStats* stats = nullptr);

}  // namespace quilt

#endif  // SRC_PARTITION_ROOT_SET_SWEEP_H_
