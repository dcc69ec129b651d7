// 0-1 integer linear program model.
//
// Quilt's merge-decision Phase 2 (Appendix B) is an ILP over binary
// variables. The paper uses Gurobi; this repo ships a self-contained model +
// branch-and-bound solver (ilp_solver.h) sufficient for these instances.
#ifndef SRC_ILP_ILP_MODEL_H_
#define SRC_ILP_ILP_MODEL_H_

#include <limits>
#include <vector>

namespace quilt {

struct IlpTerm {
  int var = 0;
  double coef = 0.0;
};

struct IlpConstraint {
  std::vector<IlpTerm> terms;
  double lower = -std::numeric_limits<double>::infinity();
  double upper = std::numeric_limits<double>::infinity();
};

class IlpModel {
 public:
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  // Adds a binary decision variable. branch_priority: higher values are
  // branched on first (lets encoders steer the search toward the true
  // decision variables). preferred_value: the branch tried first (0 or 1).
  int AddBinaryVar(int branch_priority = 0, int preferred_value = 0);

  int num_vars() const { return static_cast<int>(priorities_.size()); }
  int branch_priority(int var) const { return priorities_[var]; }
  int preferred_value(int var) const { return preferred_[var]; }

  // Minimization objective; unmentioned variables have coefficient 0.
  void SetObjectiveCoef(int var, double coef);
  double objective_coef(int var) const { return objective_[var]; }

  // lb <= Σ terms <= ub.
  int AddConstraint(std::vector<IlpTerm> terms, double lb, double ub);
  int AddLessEqual(std::vector<IlpTerm> terms, double ub) {
    return AddConstraint(std::move(terms), -kInfinity, ub);
  }
  int AddGreaterEqual(std::vector<IlpTerm> terms, double lb) {
    return AddConstraint(std::move(terms), lb, kInfinity);
  }
  int AddEquality(std::vector<IlpTerm> terms, double value) {
    return AddConstraint(std::move(terms), value, value);
  }

  // Pins a variable (encoded as an equality constraint).
  void FixVar(int var, int value) {
    AddEquality({{var, 1.0}}, static_cast<double>(value));
  }

  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const IlpConstraint& constraint(int index) const { return constraints_[index]; }

 private:
  std::vector<int> priorities_;
  std::vector<int> preferred_;
  std::vector<double> objective_;
  std::vector<IlpConstraint> constraints_;
};

}  // namespace quilt

#endif  // SRC_ILP_ILP_MODEL_H_
