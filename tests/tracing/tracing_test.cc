#include <gtest/gtest.h>

#include "src/tracing/call_graph_builder.h"
#include "src/tracing/resource_monitor.h"
#include "src/tracing/span_store.h"

namespace quilt {
namespace {

// A span with only caller, callee and start time, for the store tests.
Span MakeSpan(const std::string& caller, const std::string& callee, bool async = false,
              SimTime t = 0) {
  Span span;
  span.caller = caller;
  span.callee = callee;
  span.async = async;
  span.timestamp = t;
  return span;
}

// Span carrying full trace identity, as the platform records them now.
Span TracedSpan(int64_t trace_id, int64_t span_id, int64_t parent, const std::string& caller,
                const std::string& callee, bool async = false) {
  Span span = MakeSpan(caller, callee, async);
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent;
  return span;
}

TEST(SpanStoreTest, QueryByWindow) {
  SpanStore store;
  store.Add(MakeSpan("client", "a", false, Seconds(1)));
  store.Add(MakeSpan("client", "a", false, Seconds(5)));
  store.Add(MakeSpan("client", "a", false, Seconds(9)));
  EXPECT_EQ(store.Query(Seconds(2), Seconds(8)).size(), 1u);
  EXPECT_EQ(store.Query(0, Seconds(100)).size(), 3u);
  store.Clear();
  EXPECT_EQ(store.size(), 0);
}

TEST(SpanStoreTest, KeepsSortedOrderUnderOutOfOrderAdds) {
  SpanStore store;
  store.Add(MakeSpan("client", "a", false, Seconds(5)));
  store.Add(MakeSpan("client", "b", false, Seconds(1)));  // Before the back: inserted.
  store.Add(MakeSpan("client", "c", false, Seconds(9)));
  store.Add(MakeSpan("client", "d", false, Seconds(5)));  // Equal: keeps arrival order.
  ASSERT_EQ(store.size(), 4);
  EXPECT_EQ(store.spans()[0].callee, "b");
  EXPECT_EQ(store.spans()[1].callee, "a");
  EXPECT_EQ(store.spans()[2].callee, "d");
  EXPECT_EQ(store.spans()[3].callee, "c");

  // The binary-searched range lookup sees the sorted view: [from, to).
  const std::vector<Span> mid = store.Query(Seconds(5), Seconds(9));
  ASSERT_EQ(mid.size(), 2u);
  EXPECT_EQ(mid[0].callee, "a");
  EXPECT_EQ(mid[1].callee, "d");
  EXPECT_EQ(store.Query(Seconds(9), Seconds(9)).size(), 0u);  // Empty window.
  EXPECT_EQ(store.Query(Seconds(6), Seconds(5)).size(), 0u);  // Inverted window.
}

TEST(SpanStoreTest, RetentionWindowEvictsStaleSpans) {
  SpanStore store;
  store.set_retention_window(Seconds(5));
  store.Add(MakeSpan("client", "a", false, Seconds(1)));
  store.Add(MakeSpan("client", "b", false, Seconds(4)));
  EXPECT_EQ(store.size(), 2);  // Nothing older than 5s behind the newest yet.
  store.Add(MakeSpan("client", "c", false, Seconds(9)));
  // Newest start is 9s: the 1s span has fallen beyond the horizon.
  EXPECT_EQ(store.size(), 2);
  EXPECT_EQ(store.evicted(), 1);
  EXPECT_EQ(store.spans()[0].callee, "b");
  EXPECT_EQ(store.Query(0, Seconds(100)).size(), 2u);

  SpanStore unbounded;  // Default: keep everything.
  unbounded.Add(MakeSpan("client", "a", false, Seconds(1)));
  unbounded.Add(MakeSpan("client", "b", false, Seconds(1000)));
  EXPECT_EQ(unbounded.size(), 2);
  EXPECT_EQ(unbounded.evicted(), 0);
}

TEST(ResourceMonitorTest, SamplesPeriodically) {
  Simulation sim;
  MetricsStore store;
  int ticks = 0;
  ResourceMonitor monitor(
      &sim, &store,
      [&] {
        ++ticks;
        ResourceSample sample;
        sample.handle = "fn";
        sample.container_id = 1;
        sample.cpu_seconds_cum = ticks * 0.1;
        sample.busy_seconds_cum = ticks * 0.5;
        sample.peak_memory_mb = 30.0;
        return std::vector<ResourceSample>{sample};
      },
      Seconds(1));
  monitor.Start();
  sim.RunUntil(Seconds(5) + 1);
  monitor.Stop();
  sim.Run();
  EXPECT_GE(ticks, 5);
  EXPECT_EQ(store.samples().size(), static_cast<size_t>(ticks));
}

TEST(MetricsStoreTest, AggregatesPerHandle) {
  MetricsStore store;
  // Two containers of fn-a, one of fn-b.
  ResourceSample s1{"fn-a", 1, 0, 2.0, 4.0, 10.0, 12.0};
  ResourceSample s2{"fn-a", 2, 0, 1.0, 2.0, 9.0, 20.0};
  ResourceSample s3{"fn-b", 3, 0, 5.0, 5.0, 7.0, 8.0};
  // Older duplicate of container 1 with lower counters: superseded.
  ResourceSample s0{"fn-a", 1, 0, 1.0, 2.0, 10.0, 11.0};
  store.Add(s0);
  store.Add(s1);
  store.Add(s2);
  store.Add(s3);
  const auto usage = store.Aggregate();
  ASSERT_EQ(usage.size(), 2u);
  // fn-a: (2+1) cpu over (4+2) busy = 0.5 vCPU; peak = 20.
  EXPECT_NEAR(usage.at("fn-a").avg_cpu, 0.5, 1e-9);
  EXPECT_EQ(usage.at("fn-a").peak_memory_mb, 20.0);
  EXPECT_NEAR(usage.at("fn-b").avg_cpu, 1.0, 1e-9);
}

TEST(CallGraphBuilderTest, BuildsGraphWithAlpha) {
  std::vector<Span> spans;
  // 10 workflow invocations, each a proper trace tree.
  for (int i = 0; i < 10; ++i) {
    const int64_t trace = i + 1;
    spans.push_back(TracedSpan(trace, 1, 0, kClientCaller, "root"));
    spans.push_back(TracedSpan(trace, 2, 1, "root", "mid"));
    // mid calls leaf 3x per request.
    for (int j = 0; j < 3; ++j) {
      spans.push_back(TracedSpan(trace, 3 + j, 2, "mid", "leaf", /*async=*/true));
    }
  }
  std::map<std::string, MetricsStore::FunctionUsage> usage;
  usage["root"] = {0.2, 8.0};
  usage["mid"] = {0.3, 12.0};

  Result<CallGraph> graph = BuildCallGraphFromTraces(spans, usage, "root");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 3);
  EXPECT_EQ(graph->root(), graph->FindNode("root"));
  EXPECT_TRUE(graph->Validate().ok());

  const EdgeId root_mid = graph->FindEdge(graph->FindNode("root"), graph->FindNode("mid"));
  ASSERT_NE(root_mid, -1);
  EXPECT_EQ(graph->edge(root_mid).alpha, 1);
  EXPECT_EQ(graph->edge(root_mid).type, CallType::kSync);
  EXPECT_DOUBLE_EQ(graph->edge(root_mid).weight, 10.0);

  const EdgeId mid_leaf = graph->FindEdge(graph->FindNode("mid"), graph->FindNode("leaf"));
  ASSERT_NE(mid_leaf, -1);
  EXPECT_EQ(graph->edge(mid_leaf).alpha, 3);
  EXPECT_EQ(graph->edge(mid_leaf).type, CallType::kAsync);

  // Node labels: from usage where present, defaults elsewhere.
  EXPECT_DOUBLE_EQ(graph->node(graph->FindNode("root")).cpu, 0.2);
  EXPECT_DOUBLE_EQ(graph->node(graph->FindNode("leaf")).cpu, 0.1);  // Default.
}

TEST(CallGraphBuilderTest, RequiresWorkflowInvocations) {
  std::vector<Span> spans = {TracedSpan(1, 2, 1, "a", "b")};
  EXPECT_FALSE(BuildCallGraphFromTraces(spans, {}, "root").ok());
}

TEST(CallGraphBuilderTest, ForeignTracesThroughSharedFunctionsDoNotBleed) {
  // Trace 1 is this workflow: root -> shared. Trace 2 belongs to another
  // workflow that reaches the *same* shared function and fans further out to
  // "extra". Without trace grouping, shared->extra aggregates into both
  // workflows' graphs (it is reachable from root via shared).
  std::vector<Span> spans;
  spans.push_back(TracedSpan(1, 1, 0, kClientCaller, "root"));
  spans.push_back(TracedSpan(1, 2, 1, "root", "shared"));
  spans.push_back(TracedSpan(2, 1, 0, kClientCaller, "other-root"));
  spans.push_back(TracedSpan(2, 2, 1, "other-root", "shared"));
  spans.push_back(TracedSpan(2, 3, 2, "shared", "extra"));

  Result<CallGraph> graph = BuildCallGraphFromTraces(spans, {}, "root");
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->num_nodes(), 2);
  EXPECT_NE(graph->FindNode("shared"), -1);
  EXPECT_EQ(graph->FindNode("extra"), -1) << "foreign trace bled into this workflow";
  EXPECT_EQ(graph->FindNode("other-root"), -1);

  // The other workflow still sees its own full tree.
  Result<CallGraph> other = BuildCallGraphFromTraces(spans, {}, "other-root");
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->num_nodes(), 3);
  EXPECT_NE(other->FindNode("extra"), -1);
}

TEST(CallGraphBuilderTest, MajorityAsyncTieBreaksToAsync) {
  // The edge type is decided by majority vote over occurrences; an exact
  // 50/50 split counts as async (an edge that is ever async must be joined).
  EXPECT_FALSE(MajorityAsync(0, 1));
  EXPECT_FALSE(MajorityAsync(1, 3));
  EXPECT_TRUE(MajorityAsync(1, 2));  // Tie -> async.
  EXPECT_TRUE(MajorityAsync(2, 3));
  EXPECT_TRUE(MajorityAsync(3, 3));

  // End to end: one async + one sync occurrence of the same edge -> kAsync.
  std::vector<Span> spans;
  spans.push_back(TracedSpan(1, 1, 0, kClientCaller, "root"));
  spans.push_back(TracedSpan(1, 2, 1, "root", "leaf", /*async=*/true));
  spans.push_back(TracedSpan(2, 1, 0, kClientCaller, "root"));
  spans.push_back(TracedSpan(2, 2, 1, "root", "leaf", /*async=*/false));
  Result<CallGraph> graph = BuildCallGraphFromTraces(spans, {}, "root");
  ASSERT_TRUE(graph.ok());
  const EdgeId edge = graph->FindEdge(graph->FindNode("root"), graph->FindNode("leaf"));
  ASSERT_NE(edge, -1);
  EXPECT_EQ(graph->edge(edge).type, CallType::kAsync);
}

TEST(CallGraphBuilderTest, AlphaIsCeilOfAverage) {
  std::vector<Span> spans;
  for (int64_t trace = 1; trace <= 4; ++trace) {
    spans.push_back(TracedSpan(trace, 1, 0, kClientCaller, "root"));
    spans.push_back(TracedSpan(trace, 2, 1, "root", "leaf"));
  }
  // 5 calls over 4 invocations -> alpha = ceil(1.25) = 2.
  spans.push_back(TracedSpan(1, 3, 1, "root", "leaf"));
  Result<CallGraph> graph = BuildCallGraphFromTraces(spans, {}, "root");
  ASSERT_TRUE(graph.ok());
  const EdgeId edge = graph->FindEdge(graph->FindNode("root"), graph->FindNode("leaf"));
  EXPECT_EQ(graph->edge(edge).alpha, 2);
}

}  // namespace
}  // namespace quilt
