// Approximate merge-decision solver (§4.3, Appendix C.1).
//
// Phase 1 ranks nodes with a RootScorer (e.g. the Downstream Impact
// Heuristic) and keeps the top-ℓ as the candidate pool P; root sets are then
// built as {workflow root} ∪ (k-1 nodes from P) for increasing k, solving the
// Phase-2 ILP for each. The sweep stops early once additional subgraphs stop
// helping ("keep increasing k until we find good enough groupings").
#ifndef SRC_PARTITION_HEURISTIC_SOLVER_H_
#define SRC_PARTITION_HEURISTIC_SOLVER_H_

#include <string>

#include "src/partition/merge_solver.h"
#include "src/partition/scorers.h"

namespace quilt {

// SolverOptions fields honored: mip_gap, max_nodes_per_ilp, deadline, cache,
// pool_size (ℓ). The sweep runs k up to ℓ+1 subgraphs and stops after two
// consecutive non-improving k values.
class HeuristicSolver : public MergeSolver {
 public:
  explicit HeuristicSolver(const RootScorer& scorer) : scorer_(scorer) {}

  std::string name() const override { return "dih-sweep"; }
  Result<MergeSolution> Solve(const MergeProblem& problem,
                              const SolverOptions& options = {},
                              SolverStats* stats = nullptr) override;

 private:
  const RootScorer& scorer_;
};

}  // namespace quilt

#endif  // SRC_PARTITION_HEURISTIC_SOLVER_H_
