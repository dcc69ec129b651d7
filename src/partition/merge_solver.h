// What the three merge-decision solvers share (§4.2, §4.3, App C.4).
//
// SolveOptimal and SolveDihSweep (root_set_sweep.h) and SolveGrasp
// (grasp_solver.h) all answer the same question — "which subgraphs should
// this call graph merge into?" — with different searches over candidate root
// sets, each inner step being a Phase-2 ILP solve. This header holds their
// knobs (SolverOptions), their telemetry (SolverStats) and that inner step
// (SolveForRootsCached); the DecisionEngine picks which one runs.
#ifndef SRC_PARTITION_MERGE_SOLVER_H_
#define SRC_PARTITION_MERGE_SOLVER_H_

#include <cstdint>
#include <vector>

#include "src/ilp/ilp_solver.h"
#include "src/partition/problem.h"

namespace quilt {

class IlpSolveCache;

// Which solver a caller wants (kAuto = size-based policy, resolved by the
// DecisionEngine).
enum class SolverChoice { kAuto, kOptimal, kHeuristic, kGrasp };

struct SolverOptions {
  // --- Shared Phase-2 ILP knobs.
  double mip_gap = 0.0;         // Stop within this relative gap (0 = exact).
  int64_t max_nodes_per_ilp = 0;  // Branch-and-bound node budget (0 = off).
  // Optional shared memoization of Phase-2 solves (nullptr = off). With a
  // cache, inner solves ignore the incumbent cutoff (results must be pure
  // functions of the cache key) and the cutoff is applied to the memoized
  // result instead — see SolveForRootsCached.
  IlpSolveCache* cache = nullptr;

  // --- DIH sweep (SolveDihSweep).
  int pool_size = 6;   // ℓ: top-scoring candidates kept in the DIH pool.

  // --- GRASP (App C.4), now multi-start.
  uint64_t seed = 0x9e3779b97f4a7c15ull;  // Base seed; start s derives its own.
  int draws_per_size = 3;     // Random pool draws before growing ℓ.
  int num_starts = 1;   // Independent GRASP starts; best-of by (cost, signature).
  int num_threads = 1;  // Threads for the starts (1 = inline, no pool).

  // GRASP-flavored defaults from the paper: stage ILPs may stop within 5% of
  // optimal and carry a node budget (the candidate sets are large).
  static SolverOptions GraspDefaults() {
    SolverOptions options;
    options.mip_gap = 0.05;
    options.max_nodes_per_ilp = 500000;
    return options;
  }

  // The Phase-2 ILP knobs every inner solve starts from (no cutoff).
  IlpSolveOptions ilp() const {
    IlpSolveOptions ilp_options;
    ilp_options.mip_gap = mip_gap;
    ilp_options.max_nodes = max_nodes_per_ilp;
    return ilp_options;
  }
};

struct SolverStats {
  // Shared counters.
  int64_t ilp_solves = 0;       // Phase-2 solves requested (logical).
  int64_t ilp_cache_hits = 0;   // ... of which the IlpSolveCache answered.
  int64_t candidate_sets_tried = 0;
  int64_t feasible_sets = 0;

  // GRASP specifics (zero for the other solvers).
  int stage1_attempts = 0;
  int final_pool_size = 0;       // Winning start.
  int refinement_removals = 0;   // Winning start.
  int starts = 0;
  int threads = 0;

  int64_t fresh_ilp_solves() const { return ilp_solves - ilp_cache_hits; }
};

// 64-bit structural fingerprint of a merge problem: nodes (resources), edges
// (endpoints, weight, alpha, type), the workflow root, the container
// limits, and — when active — the cost model (λ, scale, per-edge dollar
// terms). Two problems with equal fingerprints pose the same Phase-2 ILPs.
uint64_t FingerprintProblem(const MergeProblem& problem);

// Phase-2 solve with optional memoization, the single inner step every
// solver uses. Without a cache this is exactly SolveForRoots (the cutoff
// prunes inside the ILP). With a cache, the root set is canonicalized
// (sorted), the underlying solve runs cutoff-free so its result is a pure
// function of (fingerprint, roots, mip_gap, max_nodes), and the cutoff is
// applied to the memoized result afterwards — which keeps parallel GRASP
// starts bit-deterministic regardless of which start populates the cache
// first. Increments stats->ilp_solves (and ilp_cache_hits on a hit).
Result<MergeSolution> SolveForRootsCached(const MergeProblem& problem,
                                          uint64_t fingerprint,
                                          const std::vector<NodeId>& roots,
                                          const IlpSolveOptions& ilp_options,
                                          IlpSolveCache* cache,
                                          SolverStats* stats);

}  // namespace quilt

#endif  // SRC_PARTITION_MERGE_SOLVER_H_
