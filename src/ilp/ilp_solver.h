// Branch-and-bound solver for 0-1 ILPs (minimization).
//
// Depth-first search with:
//   - incremental constraint-activity tracking and unit propagation
//     (forced assignments / early conflict detection);
//   - objective lower bounds for pruning against the incumbent;
//   - branching priorities and preferred values supplied by the model;
//   - a Gurobi-style "MIP gap" early-stop knob (§4.3) and an external cutoff
//     so a caller enumerating many candidate root sets can prune whole
//     instances against a global best.
#ifndef SRC_ILP_ILP_SOLVER_H_
#define SRC_ILP_ILP_SOLVER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/ilp/ilp_model.h"

namespace quilt {

enum class IlpStatus {
  kOptimal,          // Proven optimal (within mip_gap if one was set).
  kFeasible,         // Found a solution but hit the node limit before proving.
  kInfeasible,       // No feasible assignment exists.
  kNoBetterThanCutoff,  // Feasible solutions may exist, none beats the cutoff.
  kLimitReached,     // Limit hit before any solution was found.
};

struct IlpSolveOptions {
  // Relative optimality gap: search stops/prunes once remaining nodes cannot
  // beat incumbent * (1 - mip_gap). 0 = exact.
  double mip_gap = 0.0;
  // Only solutions with objective < cutoff are accepted (strict).
  double cutoff = std::numeric_limits<double>::infinity();
  // Search limit (0 = unlimited).
  int64_t max_nodes = 0;
};

struct IlpSolution {
  IlpStatus status = IlpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<uint8_t> values;  // One 0/1 per variable when a solution exists.
  int64_t nodes_explored = 0;

  bool has_solution() const {
    return status == IlpStatus::kOptimal || status == IlpStatus::kFeasible;
  }
};

class IlpSolver {
 public:
  IlpSolution Solve(const IlpModel& model, const IlpSolveOptions& options = {});
};

}  // namespace quilt

#endif  // SRC_ILP_ILP_SOLVER_H_
