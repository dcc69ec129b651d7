// Plan economics: measured durations + a rate card -> per-edge cut/merge
// dollar rates for the blended solver objective. The load-bearing asymmetry:
// a sync callee rides inside the caller's already-billed window when merged
// (cutting it double-bills), while an async callee's work extends the host's
// window either way.
#include "src/billing/plan_cost.h"

#include <gtest/gtest.h>

#include "src/graph/call_graph.h"

namespace quilt {
namespace {

TEST(PlanCostTest, MeanExecSecondsSkipsUndispatchedSpans) {
  Span fast;
  fast.callee = "b";
  fast.exec_start = 1000000;
  fast.exec_end = 3000000;  // 2 ms.
  Span slow;
  slow.callee = "b";
  slow.exec_start = 0;
  slow.exec_end = 4000000;  // 4 ms.
  Span dead;
  dead.callee = "skip";
  dead.exec_start = 5;
  dead.exec_end = 5;  // Never dispatched.

  const std::map<std::string, double> means = MeanExecSecondsBySpan({fast, slow, dead});
  ASSERT_EQ(means.size(), 1u);
  EXPECT_DOUBLE_EQ(means.at("b"), 0.003);
}

TEST(PlanCostTest, SyncCalleeRidesCallerWindowForFree) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 100);
  const NodeId b = g.AddNode("b", 0.2, 50);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());

  PlanCostInputs inputs;
  inputs.profile = PricingProfile::PerMillisecond();
  inputs.exec_seconds = {{"a", 0.010}, {"b", 0.004}};
  const PlanCostModel model = BuildPlanCostModel(g, inputs);
  ASSERT_EQ(model.cut_cost.size(), 1u);
  ASSERT_EQ(model.merge_cost.size(), 1u);

  const PricingProfile& card = inputs.profile;
  const double rate_b = card.DollarsPerSecond(50.0, 0.2);
  // Cut: 10 calls each paying the fee plus b's own rounded 4 ms window.
  EXPECT_DOUBLE_EQ(model.cut_cost[0], 10.0 * (200e-9 + 0.004 * rate_b));
  // Merged: no window time (sync callee already sits inside a's billed
  // window); only b's memory carried over a's 10 ms window. With a
  // memory-only card that carry rate equals b's full per-second rate.
  EXPECT_DOUBLE_EQ(model.merge_cost[0], 10.0 * 0.010 * rate_b);
  // Cutting this sync edge costs real money; merging is strictly cheaper.
  EXPECT_GT(model.cut_cost[0], model.merge_cost[0]);
}

TEST(PlanCostTest, AsyncCalleeExtendsHostWindow) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 100);
  const NodeId b = g.AddNode("b", 0.2, 50);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kAsync).ok());

  PlanCostInputs inputs;
  inputs.profile = PricingProfile::PerMillisecond();
  inputs.exec_seconds = {{"a", 0.010}, {"b", 0.004}};
  const PlanCostModel model = BuildPlanCostModel(g, inputs);

  const double rate_b = inputs.profile.DollarsPerSecond(50.0, 0.2);
  // Merged async work joins the host's window: the callee's own 4 ms of
  // compute bills on top of the memory carry.
  EXPECT_DOUBLE_EQ(model.merge_cost[0], 10.0 * (0.004 * rate_b + 0.010 * rate_b));
}

TEST(PlanCostTest, CutWindowRoundsUpPerCard) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 100);
  const NodeId b = g.AddNode("b", 0.2, 50);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 1, 1, CallType::kSync).ok());

  PlanCostInputs inputs;
  inputs.profile = PricingProfile::Coarse100Ms();
  inputs.exec_seconds = {{"a", 0.010}, {"b", 0.004}};
  const PlanCostModel model = BuildPlanCostModel(g, inputs);
  // 4 ms of exec bills as a full 100 ms window when cut -- rounding waste
  // is what makes merging short functions pay on coarse cards.
  const double rate_b = inputs.profile.DollarsPerSecond(50.0, 0.2);
  EXPECT_DOUBLE_EQ(model.cut_cost[0], 400e-9 + 0.100 * rate_b);
}

TEST(PlanCostTest, DefaultDurationCoversUnmeasuredHandles) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 100);
  const NodeId b = g.AddNode("b", 0.2, 50);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 1, 1, CallType::kSync).ok());

  PlanCostInputs inputs;
  inputs.profile = PricingProfile::PerMillisecond();
  inputs.default_exec_seconds = 0.002;  // No measured spans at all.
  const PlanCostModel model = BuildPlanCostModel(g, inputs);
  const double rate_b = inputs.profile.DollarsPerSecond(50.0, 0.2);
  EXPECT_DOUBLE_EQ(model.cut_cost[0], 200e-9 + 0.002 * rate_b);
  EXPECT_DOUBLE_EQ(model.merge_cost[0], 0.002 * rate_b);
}

TEST(PlanCostTest, ScaleNormalizesAllCutDollarsToEdgeWeight) {
  CallGraph g;
  const NodeId a = g.AddNode("a", 0.1, 100);
  const NodeId b = g.AddNode("b", 0.2, 50);
  const NodeId c = g.AddNode("c", 0.2, 50);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, c, 5, 1, CallType::kSync).ok());

  PlanCostInputs inputs;
  inputs.profile = PricingProfile::PerMillisecond();
  inputs.exec_seconds = {{"a", 0.010}, {"b", 0.004}, {"c", 0.002}};
  const PlanCostModel model = BuildPlanCostModel(g, inputs);

  double all_cut = 0.0;
  for (double cut : model.cut_cost) {
    all_cut += cut;
  }
  ASSERT_GT(all_cut, 0.0);
  EXPECT_DOUBLE_EQ(model.scale, g.TotalEdgeWeight() / all_cut);
  EXPECT_DOUBLE_EQ(model.base, 0.0);
  // The model stays latency-only until its caller stamps λ on it.
  EXPECT_DOUBLE_EQ(model.weight, 1.0);
}

}  // namespace
}  // namespace quilt
