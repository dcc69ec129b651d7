#include "src/ilp/ilp_solver.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace quilt {

namespace {

constexpr double kEps = 1e-9;

// Search state for one Solve() call.
class Search {
 public:
  Search(const IlpModel& model, const IlpSolveOptions& options)
      : model_(model), options_(options), n_(model.num_vars()) {
    value_.assign(n_, -1);
    occurrences_.resize(n_);
    min_activity_.resize(model.num_constraints());
    max_activity_.resize(model.num_constraints());
    for (int c = 0; c < model.num_constraints(); ++c) {
      double lo = 0.0;
      double hi = 0.0;
      for (const IlpTerm& term : model.constraint(c).terms) {
        occurrences_[term.var].push_back({c, term.coef});
        lo += std::min(0.0, term.coef);
        hi += std::max(0.0, term.coef);
      }
      min_activity_[c] = lo;
      max_activity_[c] = hi;
    }
    // Objective lower bound starts at the sum of negative coefficients.
    bound_ = 0.0;
    for (int v = 0; v < n_; ++v) {
      bound_ += std::min(0.0, model.objective_coef(v));
    }
    // Static branching order: priority desc, |objective| desc, index asc.
    order_.resize(n_);
    for (int v = 0; v < n_; ++v) {
      order_[v] = v;
    }
    std::sort(order_.begin(), order_.end(), [&](int a, int b) {
      if (model.branch_priority(a) != model.branch_priority(b)) {
        return model.branch_priority(a) > model.branch_priority(b);
      }
      const double oa = std::abs(model.objective_coef(a));
      const double ob = std::abs(model.objective_coef(b));
      if (oa != ob) {
        return oa > ob;
      }
      return a < b;
    });
  }

  IlpSolution Run() {
    IlpSolution result;
    best_objective_ = options_.cutoff;

    // Root propagation.
    if (!Propagate()) {
      result.status = IlpStatus::kInfeasible;
      result.nodes_explored = nodes_;
      return result;
    }

    bool exhausted = DepthFirstSearch();

    result.nodes_explored = nodes_;
    if (!have_incumbent_) {
      if (!exhausted) {
        result.status = IlpStatus::kLimitReached;
      } else if (std::isinf(options_.cutoff)) {
        result.status = IlpStatus::kInfeasible;
      } else {
        result.status = IlpStatus::kNoBetterThanCutoff;
      }
      return result;
    }
    result.status = exhausted ? IlpStatus::kOptimal : IlpStatus::kFeasible;
    result.objective = best_objective_;
    result.values = best_values_;
    return result;
  }

 private:
  struct DecisionFrame {
    size_t trail_size;  // Trail length before this decision was applied.
    int var;
    int8_t first_value;
    bool flipped;  // Whether the second branch has been taken.
    int cursor;    // Branch-order cursor at decision time (monotone on a path).
  };

  // Assigns var=value, updates activities, pushes to trail. Returns false on
  // immediate conflict in an affected constraint.
  bool Assign(int var, int8_t value) {
    assert(value_[var] == -1);
    value_[var] = value;
    trail_.push_back(var);
    const double coef = model_.objective_coef(var);
    bound_ -= std::min(0.0, coef);
    bound_ += coef * value;
    for (const auto& [c, a] : occurrences_[var]) {
      min_activity_[c] += a * value - std::min(0.0, a);
      max_activity_[c] += a * value - std::max(0.0, a);
      pending_.push_back(c);
    }
    return true;
  }

  void Unassign(int var) {
    assert(value_[var] != -1);
    const int8_t value = value_[var];
    const double coef = model_.objective_coef(var);
    bound_ += std::min(0.0, coef);
    bound_ -= coef * value;
    for (const auto& [c, a] : occurrences_[var]) {
      min_activity_[c] -= a * value - std::min(0.0, a);
      max_activity_[c] -= a * value - std::max(0.0, a);
    }
    value_[var] = -1;
  }

  void BacktrackTo(size_t trail_size) {
    while (trail_.size() > trail_size) {
      Unassign(trail_.back());
      trail_.pop_back();
    }
    pending_.clear();
  }

  // Fixpoint propagation over pending constraints. Returns false on conflict.
  bool Propagate() {
    while (!pending_.empty()) {
      const int c = pending_.back();
      pending_.pop_back();
      const IlpConstraint& con = model_.constraint(c);
      if (min_activity_[c] > con.upper + kEps || max_activity_[c] < con.lower - kEps) {
        pending_.clear();
        return false;
      }
      // Look for forced variables: an unknown whose one polarity would
      // immediately violate a bound must take the other polarity.
      for (const IlpTerm& term : con.terms) {
        if (value_[term.var] != -1) {
          continue;
        }
        const double a = term.coef;
        int8_t forced = -1;
        if (a > 0) {
          if (min_activity_[c] + a > con.upper + kEps) {
            forced = 0;  // Setting to 1 would overshoot the upper bound.
          } else if (max_activity_[c] - a < con.lower - kEps) {
            forced = 1;  // Setting to 0 would undershoot the lower bound.
          }
        } else if (a < 0) {
          if (min_activity_[c] - a > con.upper + kEps) {
            forced = 1;  // Setting to 0 removes the negative contribution.
          } else if (max_activity_[c] + a < con.lower - kEps) {
            forced = 0;
          }
        }
        if (forced != -1) {
          Assign(term.var, forced);
        }
      }
    }
    return true;
  }

  double PruneThreshold() const {
    if (!have_incumbent_) {
      return best_objective_;  // The external cutoff.
    }
    // Stop exploring nodes that cannot beat incumbent*(1-gap).
    return best_objective_ - std::max(kEps, options_.mip_gap * std::abs(best_objective_));
  }

  int PickBranchVar(int& cursor) const {
    while (cursor < n_ && value_[order_[cursor]] != -1) {
      ++cursor;
    }
    return cursor < n_ ? order_[cursor] : -1;
  }

  void RecordIncumbent() {
    have_incumbent_ = true;
    best_objective_ = 0.0;
    for (int v = 0; v < n_; ++v) {
      best_objective_ += model_.objective_coef(v) * value_[v];
    }
    best_values_.assign(n_, 0);
    for (int v = 0; v < n_; ++v) {
      best_values_[v] = static_cast<uint8_t>(value_[v]);
    }
  }

  // Returns true if the search space was exhausted, false at the node limit.
  bool DepthFirstSearch() {
    std::vector<DecisionFrame> stack;
    int cursor = 0;
    while (true) {
      ++nodes_;
      if (options_.max_nodes > 0 && nodes_ > options_.max_nodes) {
        return false;
      }

      bool conflict = !Propagate();
      if (!conflict && bound_ >= PruneThreshold() - kEps) {
        conflict = true;  // Bound prune: treat like a conflict.
      }

      if (!conflict) {
        int branch_cursor = cursor;
        const int var = PickBranchVar(branch_cursor);
        if (var == -1) {
          // Full assignment: propagation guarantees all constraints hold.
          if (bound_ < PruneThreshold() - kEps || !have_incumbent_) {
            RecordIncumbent();
          }
          conflict = true;  // Force backtrack to continue the search.
        } else {
          const int8_t first = static_cast<int8_t>(model_.preferred_value(var));
          stack.push_back({trail_.size(), var, first, false, cursor});
          cursor = branch_cursor;
          Assign(var, first);
          continue;
        }
      }

      // Backtrack.
      while (true) {
        if (stack.empty()) {
          return true;
        }
        DecisionFrame& frame = stack.back();
        BacktrackTo(frame.trail_size);
        cursor = frame.cursor;
        if (!frame.flipped) {
          frame.flipped = true;
          Assign(frame.var, static_cast<int8_t>(1 - frame.first_value));
          break;
        }
        stack.pop_back();
      }
    }
  }

  const IlpModel& model_;
  const IlpSolveOptions& options_;
  const int n_;

  std::vector<int8_t> value_;
  std::vector<std::vector<std::pair<int, double>>> occurrences_;
  std::vector<double> min_activity_;
  std::vector<double> max_activity_;
  std::vector<int> trail_;
  std::vector<int> pending_;
  std::vector<int> order_;

  double bound_ = 0.0;
  double best_objective_ = 0.0;
  bool have_incumbent_ = false;
  std::vector<uint8_t> best_values_;
  int64_t nodes_ = 0;
};

}  // namespace

IlpSolution IlpSolver::Solve(const IlpModel& model, const IlpSolveOptions& options) {
  Search search(model, options);
  return search.Run();
}

}  // namespace quilt
