#include "src/ilp/ilp_model.h"

#include <cassert>

namespace quilt {

int IlpModel::AddBinaryVar(int branch_priority, int preferred_value) {
  assert(preferred_value == 0 || preferred_value == 1);
  const int var = num_vars();
  priorities_.push_back(branch_priority);
  preferred_.push_back(preferred_value);
  objective_.push_back(0.0);
  return var;
}

void IlpModel::SetObjectiveCoef(int var, double coef) {
  assert(var >= 0 && var < num_vars());
  objective_[var] = coef;
}

int IlpModel::AddConstraint(std::vector<IlpTerm> terms, double lb, double ub) {
  assert(lb <= ub);
  for (const IlpTerm& term : terms) {
    assert(term.var >= 0 && term.var < num_vars());
    (void)term;
  }
  const int index = num_constraints();
  constraints_.push_back(IlpConstraint{std::move(terms), lb, ub});
  return index;
}

}  // namespace quilt
