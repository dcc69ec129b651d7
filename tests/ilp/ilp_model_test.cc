#include "src/ilp/ilp_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/ilp/ilp_solver.h"

namespace quilt {
namespace {

TEST(IlpModelTest, VariableAccessors) {
  IlpModel model;
  const int a = model.AddBinaryVar(/*branch_priority=*/3, /*preferred_value=*/1);
  const int b = model.AddBinaryVar();
  EXPECT_EQ(model.num_vars(), 2);
  EXPECT_EQ(model.branch_priority(a), 3);
  EXPECT_EQ(model.preferred_value(a), 1);
  EXPECT_EQ(model.branch_priority(b), 0);
  EXPECT_EQ(model.preferred_value(b), 0);
}

TEST(IlpModelTest, ObjectiveDefaultsToZero) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  EXPECT_EQ(model.objective_coef(a), 0.0);
  model.SetObjectiveCoef(a, 2.5);
  EXPECT_EQ(model.objective_coef(a), 2.5);
}

TEST(IlpModelTest, ConstraintStorage) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  const int b = model.AddBinaryVar();
  const int c1 = model.AddLessEqual({{a, 1.0}, {b, 2.0}}, 2.0);
  const int c2 = model.AddGreaterEqual({{a, 1.0}}, 1.0);
  const int c3 = model.AddEquality({{b, 1.0}}, 0.0);
  EXPECT_EQ(model.num_constraints(), 3);
  EXPECT_EQ(model.constraint(c1).upper, 2.0);
  EXPECT_TRUE(std::isinf(model.constraint(c1).lower));
  EXPECT_EQ(model.constraint(c2).lower, 1.0);
  EXPECT_EQ(model.constraint(c3).lower, model.constraint(c3).upper);
}

TEST(IlpModelTest, PreferredValueSteersTies) {
  // Two symmetric zero-cost variables; with preferred value 1 on a high
  // priority var, the first full assignment found keeps it at 1.
  IlpModel model;
  const int a = model.AddBinaryVar(/*branch_priority=*/5, /*preferred_value=*/1);
  const int b = model.AddBinaryVar(/*branch_priority=*/0, /*preferred_value=*/0);
  IlpSolver solver;
  const IlpSolution solution = solver.Solve(model);
  ASSERT_EQ(solution.status, IlpStatus::kOptimal);
  EXPECT_EQ(solution.values[a], 1);
  EXPECT_EQ(solution.values[b], 0);
}

TEST(IlpModelTest, BranchPriorityOrdersSearch) {
  // Minimizing b's coefficient: regardless of priorities the optimum holds,
  // but node counts differ. We just check both orders find the optimum.
  for (int priority : {-2, 0, 7}) {
    IlpModel model;
    const int a = model.AddBinaryVar(priority, 0);
    const int b = model.AddBinaryVar(0, 0);
    model.SetObjectiveCoef(b, 4.0);
    model.AddGreaterEqual({{a, 1.0}, {b, 1.0}}, 1.0);
    IlpSolver solver;
    const IlpSolution solution = solver.Solve(model);
    ASSERT_EQ(solution.status, IlpStatus::kOptimal);
    EXPECT_EQ(solution.objective, 0.0);
    EXPECT_EQ(solution.values[a], 1);
  }
}

TEST(IlpModelTest, FixVarContradictionIsInfeasible) {
  IlpModel model;
  const int a = model.AddBinaryVar();
  model.FixVar(a, 1);
  model.FixVar(a, 0);
  IlpSolver solver;
  EXPECT_EQ(solver.Solve(model).status, IlpStatus::kInfeasible);
}

TEST(IlpModelTest, EmptyModelIsTriviallyOptimal) {
  IlpModel model;
  IlpSolver solver;
  const IlpSolution solution = solver.Solve(model);
  EXPECT_EQ(solution.status, IlpStatus::kOptimal);
  EXPECT_EQ(solution.objective, 0.0);
}

}  // namespace
}  // namespace quilt
