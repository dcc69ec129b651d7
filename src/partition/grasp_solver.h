// Large-graph merge decision via GRASP + greedy refinement (Appendix C.4),
// generalized to deterministic parallel multi-start.
//
// One start works as in the paper. Stage 1 finds an initial feasible
// solution: starting from a pool size ℓ of 2, it randomly draws ℓ candidates
// from a Restricted Candidate List of top-score nodes and solves the ILP with
// all of them as roots; on infeasibility ℓ grows and the draw repeats.
// Stage 2 greedily prunes the root set: removable roots are tried in
// ascending score order; any removal that stays feasible and lowers the
// cross-edge cost is accepted and the scan restarts; a full pass with no
// improvement is a local optimum, where the start ends.
//
// "Top-score" is the order RankCandidates gives a score function, as in the
// DIH sweep.
//
// Multi-start (SolverOptions::num_starts) runs independent GRASP starts,
// start s drawing from its own RNG stream derived from the base seed, and
// keeps the winner by deterministic argmin: lowest cross cost, ties broken by
// the lexicographically smallest canonical group signature. Starts are
// embarrassingly parallel (SolverOptions::num_threads); because each start is
// a pure function of (problem, seed, s) — shared-cache answers are
// cutoff-free and therefore order-independent — the chosen solution is
// bit-identical for 1 and N threads.
#ifndef SRC_PARTITION_GRASP_SOLVER_H_
#define SRC_PARTITION_GRASP_SOLVER_H_

#include <string>

#include "src/partition/merge_solver.h"
#include "src/partition/scorers.h"

namespace quilt {

// SolverOptions fields honored: mip_gap, max_nodes_per_ilp, cache, seed,
// draws_per_size, num_starts, num_threads (the initial pool size and the
// Restricted Candidate List size are fixed).
// Callers wanting the paper's large-graph defaults (5% gap, bounded ILPs)
// should start from SolverOptions::GraspDefaults().
Result<MergeSolution> SolveGrasp(const MergeProblem& problem, ScoreFn score,
                                 const SolverOptions& options = {},
                                 SolverStats* stats = nullptr);

// Canonical, order-independent signature of a solution: per group
// "root:sorted-members", groups sorted. Used for the deterministic multi-start
// tie-break and exposed for tests.
std::string CanonicalSolutionSignature(const MergeSolution& solution);

}  // namespace quilt

#endif  // SRC_PARTITION_GRASP_SOLVER_H_
