#include "src/apps/deathstarbench.h"

#include <gtest/gtest.h>

#include "src/partition/ilp_encoding.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/problem.h"

namespace quilt {
namespace {

TEST(AppsTest, FunctionCountsMatchAppendixE) {
  EXPECT_EQ(ComposePost(false).functions.size(), 11u);
  EXPECT_EQ(FollowWithUname(false).functions.size(), 4u);
  EXPECT_EQ(ReadHomeTimeline().functions.size(), 2u);
  EXPECT_EQ(ComposeReview(false).functions.size(), 15u);
  EXPECT_EQ(PageService(false).functions.size(), 6u);
  EXPECT_EQ(ReadUserReview().functions.size(), 2u);
  EXPECT_EQ(SearchHandler().functions.size(), 6u);
  EXPECT_EQ(ReservationHandler().functions.size(), 3u);
  EXPECT_EQ(NearbyCinema().functions.size(), 2u);
  EXPECT_EQ(ModifiedNearbyCinema().functions.size(), 9u);
}

TEST(AppsTest, AllWorkflowsHaveValidReferenceGraphs) {
  for (const WorkflowApp& app : AllFigure6Workflows()) {
    Result<CallGraph> graph = app.ReferenceGraph();
    ASSERT_TRUE(graph.ok()) << app.name << ": " << graph.status().ToString();
    EXPECT_TRUE(graph->Validate().ok()) << app.name;
    EXPECT_EQ(graph->num_nodes(), static_cast<int>(app.functions.size())) << app.name;
    EXPECT_EQ(graph->node(graph->root()).name, app.root_handle) << app.name;
  }
}

TEST(AppsTest, SourcesMatchBehaviorCallSites) {
  for (const WorkflowApp& app : AllFigure6Workflows()) {
    const auto sources = app.Sources();
    const auto behaviors = app.Behaviors();
    ASSERT_EQ(sources.size(), behaviors.size()) << app.name;
    for (const auto& [handle, source] : sources) {
      size_t call_items = 0;
      for (const BehaviorStep& step : behaviors.at(handle).steps) {
        if (const auto* call = std::get_if<CallStep>(&step)) {
          call_items += call->items.size();
        }
      }
      EXPECT_EQ(source.invocations.size(), call_items) << app.name << "/" << handle;
    }
  }
}

TEST(AppsTest, AsyncVariantsMarkParallelEdges) {
  Result<CallGraph> sync_graph = ComposePost(false).ReferenceGraph();
  Result<CallGraph> async_graph = ComposePost(true).ReferenceGraph();
  ASSERT_TRUE(sync_graph.ok());
  ASSERT_TRUE(async_graph.ok());
  int sync_async_edges = 0;
  int async_async_edges = 0;
  for (const CallEdge& e : sync_graph->edges()) {
    sync_async_edges += e.type == CallType::kAsync ? 1 : 0;
  }
  for (const CallEdge& e : async_graph->edges()) {
    async_async_edges += e.type == CallType::kAsync ? 1 : 0;
  }
  EXPECT_EQ(sync_async_edges, 0);
  EXPECT_GT(async_async_edges, 0);
}

// §7.3.1: with 2 vCPU / 128 MB containers, the decision algorithm merges
// each DeathStarBench workflow into a single binary.
TEST(AppsTest, DsbWorkflowsFullyMergeUnderPaperLimits) {
  for (const WorkflowApp& app : AllFigure6Workflows()) {
    Result<CallGraph> graph = app.ReferenceGraph();
    ASSERT_TRUE(graph.ok()) << app.name;
    MergeProblem problem{&*graph, 2.0, 128.0};
    Result<MergeSolution> full = SolveForRoots(problem, {graph->root()});
    ASSERT_TRUE(full.ok()) << app.name << ": " << full.status().ToString();
    EXPECT_TRUE(full->IsFullMerge(*graph)) << app.name;
    EXPECT_DOUBLE_EQ(full->cross_cost, 0.0) << app.name;
  }
}

// §7.4.1: the modified nearby-cinema exceeds 1.6 vCPU / 320 MB when merged
// whole; the optimal split is two binaries cutting the cheap root edge.
TEST(AppsTest, ModifiedNearbyCinemaRequiresSplit) {
  const WorkflowApp app = ModifiedNearbyCinema();
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  MergeProblem problem{&*graph, 1.6, 320.0};

  // Full merge violates the constraints.
  EXPECT_FALSE(SolveForRoots(problem, {graph->root()}).ok());

  // The optimal solution is a 2-way split rooted at an aggregator.
  Result<MergeSolution> best = SolveOptimal(problem);
  ASSERT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_EQ(best->num_groups(), 2);
  EXPECT_TRUE(CheckSolution(problem, *best).ok());
  // Cost: exactly one root->aggregator edge is cut.
  EXPECT_DOUBLE_EQ(best->cross_cost, 1000.0);
}

TEST(AppsTest, HotelWorkflowsAreMultiSecond) {
  // Sum of sleeps alone puts HR workflows in the seconds range (§7.3.1).
  for (const WorkflowApp& app : {SearchHandler(), ReservationHandler()}) {
    double total_sleep_ms = 0.0;
    for (const AppFunctionSpec& fn : app.functions) {
      for (const BehaviorStep& step : fn.steps) {
        if (const auto* sleep = std::get_if<SleepStep>(&step)) {
          total_sleep_ms += sleep->latency_ms;
        }
      }
    }
    EXPECT_GT(total_sleep_ms, 1000.0) << app.name;
  }
}

TEST(AppsTest, FanOutAppEncodesDataDependence) {
  const WorkflowApp app = FanOutApp(8);
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  const EdgeId edge = graph->FindEdge(graph->FindNode("fan-out-root"),
                                      graph->FindNode("fan-callee"));
  ASSERT_NE(edge, -1);
  EXPECT_EQ(graph->edge(edge).alpha, 8);
  EXPECT_EQ(graph->edge(edge).type, CallType::kAsync);
  const auto sources = app.Sources();
  EXPECT_TRUE(sources.at("fan-out-root").invocations[0].data_dependent);
}

TEST(AppsTest, ComposeAndUploadSharedByThreeCallers) {
  Result<CallGraph> graph = ComposeReview(true).ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  const NodeId upload = graph->FindNode("compose-and-upload-mr");
  ASSERT_NE(upload, kInvalidNode);
  EXPECT_EQ(graph->InEdges(upload).size(), 3u);
}

TEST(AppsTest, NoOpIsTrivial) {
  const WorkflowApp app = NoOpFunction();
  ASSERT_EQ(app.functions.size(), 1u);
  EXPECT_TRUE(app.ReferenceGraph().ok());
}

}  // namespace
}  // namespace quilt
