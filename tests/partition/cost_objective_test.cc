// The dollar term of the blended objective λ·latency + (1−λ)·$: with λ = 1
// every solver is byte-identical to the latency-only path; below 1 the cost
// model can flip which edge gets cut; PlanDollarCost prices a finished plan.
#include <gtest/gtest.h>

#include <functional>

#include "src/partition/decision_engine.h"
#include "src/partition/grasp_solver.h"
#include "src/partition/merge_solver.h"
#include "src/partition/metrics.h"
#include "src/partition/problem.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace {

// Chain A -(10)-> B -(99)-> C, memory for any two nodes together. The
// latency optimum cuts the cheap A->B edge; the attached dollar model makes
// that cut 1000x more expensive than cutting B->C.
struct ChainFixture {
  CallGraph g;
  NodeId a, b, c;

  ChainFixture() {
    a = g.AddNode("A", 0.1, 60);
    b = g.AddNode("B", 0.1, 60);
    c = g.AddNode("C", 0.1, 60);
    EXPECT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
    EXPECT_TRUE(g.AddEdgeWithAlpha(b, c, 99, 1, CallType::kSync).ok());
  }

  MergeProblem Problem(double lambda) const {
    MergeProblem problem{&g, 2.0, 130.0};
    problem.cost.weight = lambda;
    problem.cost.scale = 1.0;
    problem.cost.cut_cost = {1000.0, 1.0};  // $: cutting A->B is ruinous.
    problem.cost.merge_cost = {0.0, 0.0};
    return problem;
  }
};

TEST(CostObjectiveTest, ModelActivationRules) {
  PlanCostModel model;
  model.cut_cost = {1.0, 2.0};
  model.merge_cost = {0.0, 0.0};
  model.weight = 1.0;
  EXPECT_FALSE(model.active(2));  // λ = 1 switches the term off entirely.
  model.weight = 0.5;
  EXPECT_TRUE(model.active(2));
  EXPECT_FALSE(model.active(3));  // Vectors must cover the graph.
}

TEST(CostObjectiveTest, EdgeCoefAndOffsetArithmetic) {
  PlanCostModel model;
  model.weight = 0.25;
  model.scale = 2.0;
  model.merge_cost = {1.0, 2.0};
  model.cut_cost = {4.0, 5.0};
  model.base = 3.0;
  // coef = λ·w + (1−λ)·scale·(cut − merge).
  EXPECT_DOUBLE_EQ(model.EdgeCoef(5.0, 4.0, 1.0), 0.25 * 5.0 + 0.75 * 2.0 * 3.0);
  // Offset = (1−λ)·scale·(base + Σ merge).
  EXPECT_DOUBLE_EQ(model.Offset(), 0.75 * 2.0 * (3.0 + 1.0 + 2.0));
}

TEST(CostObjectiveTest, LambdaOneIsByteIdenticalToLatencyOnly) {
  const ChainFixture fx;
  MergeProblem plain{&fx.g, 2.0, 130.0};  // No cost model at all.
  const MergeProblem priced = fx.Problem(1.0);

  using Solve = std::function<Result<MergeSolution>(const MergeProblem&)>;
  const Solve solvers[] = {
      [](const MergeProblem& p) { return SolveOptimal(p); },
      [](const MergeProblem& p) { return SolveDihSweep(p, DownstreamImpactScores); },
      [](const MergeProblem& p) { return SolveGrasp(p, DownstreamImpactScores); },
  };
  for (const Solve& solve : solvers) {
    Result<MergeSolution> without = solve(plain);
    Result<MergeSolution> with = solve(priced);
    ASSERT_TRUE(without.ok());
    ASSERT_TRUE(with.ok());
    EXPECT_EQ(SolutionToString(fx.g, *without), SolutionToString(fx.g, *with));
    EXPECT_DOUBLE_EQ(without->cross_cost, with->cross_cost);
  }
}

TEST(CostObjectiveTest, CostWeightFlipsWhichEdgeIsCut) {
  const ChainFixture fx;

  // λ = 1: pure latency, cut the light A->B edge (weight 10) even though
  // that cut costs $1000.
  Result<MergeSolution> latency = SolveOptimal(fx.Problem(1.0));
  ASSERT_TRUE(latency.ok());
  EXPECT_DOUBLE_EQ(latency->cross_cost, 10.0);
  EXPECT_DOUBLE_EQ(PlanDollarCost(fx.g, *latency, fx.Problem(0.0).cost), 1000.0);

  // λ = 0 on the problem's cost model: pure dollars, cut B->C instead
  // (costs $1) even though its latency weight is 99. With the cost term
  // active, the reported cross_cost is the blended objective -- here just
  // the dollar side, scale 1, zero merge floor.
  Result<MergeSolution> dollars = SolveOptimal(fx.Problem(0.0));
  ASSERT_TRUE(dollars.ok());
  EXPECT_DOUBLE_EQ(ComputeCrossCost(fx.g, *dollars), 99.0);
  EXPECT_DOUBLE_EQ(PlanDollarCost(fx.g, *dollars, fx.Problem(0.0).cost), 1.0);
  EXPECT_DOUBLE_EQ(dollars->cross_cost, 1.0);
  EXPECT_TRUE(CheckSolution(fx.Problem(0.0), *dollars).ok());
}

TEST(CostObjectiveTest, ProblemLambdaIsTheOnlyDial) {
  // λ lives on the problem's cost model alone: the DecisionEngine decides
  // under it and its record reports it, with default engine options.
  const ChainFixture fx;
  for (double lambda : {1.0, 0.0}) {
    DecisionEngine engine;
    DecisionRecord record;
    Result<MergeSolution> solution = engine.Decide(fx.Problem(lambda), &record);
    ASSERT_TRUE(solution.ok()) << "lambda " << lambda;
    EXPECT_DOUBLE_EQ(record.cost_weight, lambda);
    // λ = 1 cuts the light A->B edge; λ = 0 the cheap B->C one.
    EXPECT_DOUBLE_EQ(ComputeCrossCost(fx.g, *solution), lambda == 1.0 ? 10.0 : 99.0);
  }
}

TEST(CostObjectiveTest, PlanDollarCostPricesCutAndMergeSides) {
  const ChainFixture fx;
  PlanCostModel cost;
  cost.cut_cost = {7.0, 11.0};
  cost.merge_cost = {2.0, 3.0};
  cost.base = 1.0;

  // Baseline cuts everything; full merge keeps everything internal.
  EXPECT_DOUBLE_EQ(PlanDollarCost(fx.g, BaselineSolution(fx.g), cost),
                   1.0 + 7.0 + 11.0);
  EXPECT_DOUBLE_EQ(PlanDollarCost(fx.g, FullMergeSolution(fx.g), cost),
                   1.0 + 2.0 + 3.0);

  // Vectors that do not cover the graph price as zero (inert model).
  PlanCostModel short_model;
  short_model.cut_cost = {7.0};
  EXPECT_DOUBLE_EQ(PlanDollarCost(fx.g, BaselineSolution(fx.g), short_model), 0.0);
}

}  // namespace
}  // namespace quilt
