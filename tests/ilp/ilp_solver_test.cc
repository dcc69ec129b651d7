#include "src/ilp/ilp_solver.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/ilp/ilp_model.h"

namespace quilt {
namespace {

TEST(IlpSolverTest, TrivialUnconstrainedMinimum) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 3.0);
  model.SetObjectiveCoef(b, 5.0);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.objective, 0.0);
  EXPECT_EQ(sol.values[a], 0);
  EXPECT_EQ(sol.values[b], 0);
}

TEST(IlpSolverTest, ForcedSelection) {
  // Minimize 3a + 5b subject to a + b >= 1.
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 3.0);
  model.SetObjectiveCoef(b, 5.0);
  model.AddGreaterEqual({{a, 1.0}, {b, 1.0}}, 1.0);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.objective, 3.0);
  EXPECT_EQ(sol.values[a], 1);
  EXPECT_EQ(sol.values[b], 0);
}

TEST(IlpSolverTest, Knapsack) {
  // Maximize value = minimize -value. Items (value, weight):
  // (6,3) (5,2) (4,2), capacity 4 -> best picks items 2 and 3: value 9.
  IlpModel model;
  const int x0 = model.AddBinaryVar();
  const int x1 = model.AddBinaryVar();
  const int x2 = model.AddBinaryVar();
  model.SetObjectiveCoef(x0, -6.0);
  model.SetObjectiveCoef(x1, -5.0);
  model.SetObjectiveCoef(x2, -4.0);
  model.AddLessEqual({{x0, 3.0}, {x1, 2.0}, {x2, 2.0}}, 4.0);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.objective, -9.0);
  EXPECT_EQ(sol.values[x0], 0);
  EXPECT_EQ(sol.values[x1], 1);
  EXPECT_EQ(sol.values[x2], 1);
}

TEST(IlpSolverTest, InfeasibleDetected) {
  // a + b >= 3 with binaries is impossible.
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  model.AddGreaterEqual({{a, 1.0}, {b, 1.0}}, 3.0);
  IlpSolver solver;
  EXPECT_EQ(solver.Solve(model).status, IlpStatus::kInfeasible);
}

TEST(IlpSolverTest, EqualityConstraint) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  const int c = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 1.0);
  model.SetObjectiveCoef(b, 2.0);
  model.SetObjectiveCoef(c, 3.0);
  model.AddEquality({{a, 1.0}, {b, 1.0}, {c, 1.0}}, 2.0);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.objective, 3.0);  // a and b chosen.
}

TEST(IlpSolverTest, FixVarRespected) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 1.0);
  model.FixVar(a, 1);
  model.AddGreaterEqual({{a, 1.0}, {b, 1.0}}, 1.0);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.values[a], 1);
  EXPECT_EQ(sol.objective, 1.0);
}

TEST(IlpSolverTest, ImplicationChainPropagates) {
  // y0 <= y1 <= y2 <= ... <= y9; y0 fixed 1 forces all.
  IlpModel model;
  std::vector<int> y;
  for (int i = 0; i < 10; ++i) {
    y.push_back(model.AddBinaryVar());
  }
  for (int i = 0; i + 1 < 10; ++i) {
    model.AddLessEqual({{y[i], 1.0}, {y[i + 1], -1.0}}, 0.0);
  }
  model.FixVar(y[0], 1);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(sol.values[y[i]], 1) << "y" << i;
  }
}

TEST(IlpSolverTest, CutoffRejectsNonImprovingSolutions) {
  // Only solution costs 5; cutoff 5 means "must be < 5" -> no better.
  IlpModel model;
  const int a = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 5.0);
  model.AddGreaterEqual({{a, 1.0}}, 1.0);
  IlpSolver solver;
  IlpSolveOptions options;
  options.cutoff = 5.0;
  EXPECT_EQ(solver.Solve(model, options).status, IlpStatus::kNoBetterThanCutoff);
  options.cutoff = 5.1;
  EXPECT_EQ(solver.Solve(model, options).status, IlpStatus::kOptimal);
}

TEST(IlpSolverTest, MipGapAcceptsNearOptimal) {
  // Optimal is 10 (pick a), but with a large gap the solver may stop at the
  // first incumbent; any returned solution must still be feasible and within
  // the gap of optimal.
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  model.SetObjectiveCoef(a, 10.0);
  model.SetObjectiveCoef(b, 11.0);
  model.AddGreaterEqual({{a, 1.0}, {b, 1.0}}, 1.0);
  IlpSolver solver;
  IlpSolveOptions options;
  options.mip_gap = 0.15;
  const IlpSolution sol = solver.Solve(model, options);
  ASSERT_TRUE(sol.has_solution());
  EXPECT_LE(sol.objective, 10.0 * 1.15 + 1e-9);
}

TEST(IlpSolverTest, NegativeCoefficientConstraints) {
  // x - y <= 0 means x=1 forces y=1. Minimize y: both zero. Force x=1.
  IlpModel model;
  const int x = model.AddBinaryVar();
  const int y = model.AddBinaryVar();
  model.SetObjectiveCoef(y, 1.0);
  model.AddLessEqual({{x, 1.0}, {y, -1.0}}, 0.0);
  model.FixVar(x, 1);
  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  ASSERT_EQ(sol.status, IlpStatus::kOptimal);
  EXPECT_EQ(sol.values[y], 1);
  EXPECT_EQ(sol.objective, 1.0);
}

TEST(IlpSolverTest, NodeLimitReturnsLimitStatus) {
  // Hard-ish random instance; with max_nodes=1 the solver cannot finish.
  IlpModel model;
  Rng rng(3);
  std::vector<int> vars;
  for (int i = 0; i < 30; ++i) {
    vars.push_back(model.AddBinaryVar());
    model.SetObjectiveCoef(vars.back(), rng.UniformDouble(1, 10));
  }
  for (int c = 0; c < 15; ++c) {
    std::vector<IlpTerm> terms;
    for (int j = 0; j < 8; ++j) {
      terms.push_back({vars[rng.UniformInt(0, 29)], rng.UniformDouble(-4, 4)});
    }
    model.AddLessEqual(std::move(terms), rng.UniformDouble(1, 4));
  }
  IlpSolver solver;
  IlpSolveOptions options;
  options.max_nodes = 1;
  const IlpSolution sol = solver.Solve(model, options);
  EXPECT_TRUE(sol.status == IlpStatus::kLimitReached || sol.status == IlpStatus::kFeasible ||
              sol.status == IlpStatus::kOptimal);
}

// Property test: on random feasible instances, the B&B solution matches brute
// force enumeration.
class IlpRandomInstanceTest : public ::testing::TestWithParam<int> {};

TEST_P(IlpRandomInstanceTest, MatchesBruteForce) {
  Rng rng(1000 + GetParam());
  const int n = static_cast<int>(rng.UniformInt(3, 12));
  IlpModel model;
  std::vector<int> vars;
  std::vector<double> obj(n);
  for (int i = 0; i < n; ++i) {
    vars.push_back(model.AddBinaryVar());
    obj[i] = rng.UniformDouble(-5, 10);
    model.SetObjectiveCoef(vars[i], obj[i]);
  }
  struct Con {
    std::vector<double> coef;
    double lb, ub;
  };
  std::vector<Con> cons;
  const int num_cons = static_cast<int>(rng.UniformInt(1, 6));
  for (int c = 0; c < num_cons; ++c) {
    Con con;
    con.coef.resize(n);
    std::vector<IlpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) {
        con.coef[i] = rng.UniformDouble(-3, 3);
        terms.push_back({vars[i], con.coef[i]});
      }
    }
    con.lb = rng.Bernoulli(0.5) ? rng.UniformDouble(-2, 1) : -IlpModel::kInfinity;
    con.ub = rng.UniformDouble(1, 5);
    if (con.lb > con.ub) {
      con.lb = -IlpModel::kInfinity;
    }
    cons.push_back(con);
    model.AddConstraint(std::move(terms), cons.back().lb, cons.back().ub);
  }

  // Brute force.
  double best = std::numeric_limits<double>::infinity();
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool feasible = true;
    for (const Con& con : cons) {
      double act = 0.0;
      for (int i = 0; i < n; ++i) {
        if (mask & (1 << i)) {
          act += con.coef[i];
        }
      }
      if (act > con.ub + 1e-9 || act < con.lb - 1e-9) {
        feasible = false;
        break;
      }
    }
    if (!feasible) {
      continue;
    }
    double value = 0.0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        value += obj[i];
      }
    }
    best = std::min(best, value);
  }

  IlpSolver solver;
  const IlpSolution sol = solver.Solve(model);
  if (std::isinf(best)) {
    EXPECT_EQ(sol.status, IlpStatus::kInfeasible);
  } else {
    ASSERT_EQ(sol.status, IlpStatus::kOptimal) << "expected optimum " << best;
    EXPECT_NEAR(sol.objective, best, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, IlpRandomInstanceTest, ::testing::Range(0, 40));

}  // namespace
}  // namespace quilt
