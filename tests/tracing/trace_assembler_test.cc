// Trace assembly, latency decomposition, and Chrome export.
//
// The decomposition tests use hand-sized spans (tens of nanoseconds) so every
// expected segment is computed by hand; the invariant under test -- the five
// segments sum *exactly* to the root span's end-to-end latency -- is scale-
// free, so small numbers lose no generality.
#include <gtest/gtest.h>

#include "src/tracing/chrome_trace_exporter.h"
#include "src/tracing/trace_assembler.h"

namespace quilt {
namespace {

Span MakeSpan(int64_t trace_id, int64_t span_id, int64_t parent, const std::string& caller,
              const std::string& callee, SimTime start, SimTime end, SimTime exec_start,
              SimTime exec_end) {
  Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_span_id = parent;
  span.caller = caller;
  span.callee = callee;
  span.timestamp = start;
  span.end_time = end;
  span.exec_start = exec_start;
  span.exec_end = exec_end;
  return span;
}

Trace MakeTrace(std::vector<Span> spans) {
  std::vector<Trace> traces = AssembleTraces(spans);
  EXPECT_EQ(traces.size(), 1u);
  return traces.empty() ? Trace{} : traces[0];
}

TEST(AssembleTracesTest, GroupsByTraceIdAndFindsRoots) {
  std::vector<Span> spans;
  spans.push_back(MakeSpan(7, 12, 11, "a", "b", 5, 9, 6, 8));     // No root in trace 7.
  spans.push_back(MakeSpan(3, 8, 2, "root", "mid", 1, 4, 2, 3));  // Out of span-id order.
  spans.push_back(MakeSpan(3, 2, 0, kClientCaller, "root", 0, 6, 1, 5));

  const std::vector<Trace> traces = AssembleTraces(spans);
  ASSERT_EQ(traces.size(), 2u);  // Ascending trace id.
  EXPECT_EQ(traces[0].trace_id, 3);
  ASSERT_TRUE(traces[0].complete());
  EXPECT_EQ(traces[0].root().span_id, 2);  // Sorted by span id, root found.
  EXPECT_EQ(traces[0].spans[1].span_id, 8);
  EXPECT_EQ(traces[0].workflow(), "root");

  EXPECT_EQ(traces[1].trace_id, 7);
  EXPECT_FALSE(traces[1].complete());  // Root fell outside the window.
}

TEST(DecomposeTraceTest, FailsOnIncompleteOrUnfinishedTraces) {
  Trace no_root;
  no_root.trace_id = 1;
  no_root.spans.push_back(MakeSpan(1, 2, 1, "a", "b", 0, 5, 1, 4));
  EXPECT_EQ(DecomposeTrace(no_root).status().code(), StatusCode::kFailedPrecondition);

  Trace unfinished;
  unfinished.trace_id = 2;
  unfinished.spans.push_back(MakeSpan(2, 1, 0, kClientCaller, "root", 10, 0, 0, 0));
  unfinished.root_index = 0;
  EXPECT_EQ(DecomposeTrace(unfinished).status().code(), StatusCode::kFailedPrecondition);
}

// Hand-computed two-span trace.
//   root: [0,100], exec [25,95], counters net=10 gw=10 q=5 cold=0.
//   child: [30,60], exec [50,58], counters net=4 gw=6 q=2 cold=10.
// Painter sweep: root owns [0,25)+[95,100) as overhead (wall 30, split
// 12/12/6/0 along its counters) and [25,30)+[60,95) as compute (40); the
// child owns [30,50)+[58,60) as overhead (wall 22 = its counters, split
// 4/6/2/10) and [50,58) as compute (8).
TEST(DecomposeTraceTest, HandComputedBreakdownSumsExactly) {
  Span root = MakeSpan(1, 1, 0, kClientCaller, "root", 0, 100, 25, 95);
  root.network_ns = 10;
  root.gateway_ns = 10;
  root.queue_ns = 5;
  Span child = MakeSpan(1, 2, 1, "root", "mid", 30, 60, 50, 58);
  child.network_ns = 4;
  child.gateway_ns = 6;
  child.queue_ns = 2;
  child.cold_start_ns = 10;

  Result<LatencyBreakdown> breakdown = DecomposeTrace(MakeTrace({root, child}));
  ASSERT_TRUE(breakdown.ok()) << breakdown.status().ToString();
  EXPECT_EQ(breakdown->end_to_end, 100);
  EXPECT_EQ(breakdown->network, 16);
  EXPECT_EQ(breakdown->gateway, 18);
  EXPECT_EQ(breakdown->queueing, 8);
  EXPECT_EQ(breakdown->cold_start, 10);
  EXPECT_EQ(breakdown->compute, 48);
  EXPECT_EQ(breakdown->total(), breakdown->end_to_end);
  EXPECT_DOUBLE_EQ(breakdown->overhead_share(), 0.52);
}

TEST(DecomposeTraceTest, OverlappingSiblingsTieBreakToYoungerSpan) {
  // Async fan-out: two depth-1 siblings overlap on [30,50). The older child
  // never executed (pure overhead, all network); the younger one computes
  // for its whole window. The tie must go to the younger span, so [30,50)
  // counts as compute, not network.
  Span root = MakeSpan(1, 1, 0, kClientCaller, "root", 0, 100, 0, 100);
  Span older = MakeSpan(1, 2, 1, "root", "slow-leaf", 10, 50, 0, 0);
  older.network_ns = 1;
  Span younger = MakeSpan(1, 3, 1, "root", "fast-leaf", 30, 70, 30, 70);

  Result<LatencyBreakdown> breakdown = DecomposeTrace(MakeTrace({root, older, younger}));
  ASSERT_TRUE(breakdown.ok());
  EXPECT_EQ(breakdown->network, 20);  // Only [10,30): the contested interval computed.
  EXPECT_EQ(breakdown->compute, 80);
  EXPECT_EQ(breakdown->total(), breakdown->end_to_end);
}

TEST(DecomposeTraceTest, OverheadSplitIsIntegerExact) {
  // Wall 7 over counters 1/1/1/0: integer division leaves a remainder of 1,
  // which must land on the (first) largest counter so the sum stays exact.
  Span root = MakeSpan(1, 1, 0, kClientCaller, "root", 0, 10, 7, 10);
  root.network_ns = 1;
  root.gateway_ns = 1;
  root.queue_ns = 1;
  Result<LatencyBreakdown> breakdown = DecomposeTrace(MakeTrace({root}));
  ASSERT_TRUE(breakdown.ok());
  EXPECT_EQ(breakdown->network, 3);
  EXPECT_EQ(breakdown->gateway, 2);
  EXPECT_EQ(breakdown->queueing, 2);
  EXPECT_EQ(breakdown->compute, 3);
  EXPECT_EQ(breakdown->total(), breakdown->end_to_end);
}

TEST(DecomposeTraceTest, CounterlessOverheadChargesGateway) {
  // Never dispatched, no recorded counters: the whole wall is gateway time.
  Span root = MakeSpan(1, 1, 0, kClientCaller, "root", 0, 10, 0, 0);
  Result<LatencyBreakdown> breakdown = DecomposeTrace(MakeTrace({root}));
  ASSERT_TRUE(breakdown.ok());
  EXPECT_EQ(breakdown->gateway, 10);
  EXPECT_EQ(breakdown->compute, 0);
  EXPECT_EQ(breakdown->total(), 10);
}

TEST(SummarizeWorkflowLatencyTest, AggregatesPercentilesAndShares) {
  // Trace 1: e2e 100 = gateway 20 + compute 80. Trace 2: e2e 200 =
  // queueing 50 + compute 150. A trace of another workflow is ignored.
  Span r1 = MakeSpan(1, 1, 0, kClientCaller, "wf", 0, 100, 20, 100);
  r1.gateway_ns = 20;
  Span r2 = MakeSpan(2, 2, 0, kClientCaller, "wf", 500, 700, 550, 700);
  r2.queue_ns = 50;
  Span other = MakeSpan(3, 3, 0, kClientCaller, "elsewhere", 0, 40, 0, 40);
  const std::vector<Trace> traces = AssembleTraces({r1, r2, other});

  const WorkflowLatencySummary summary = SummarizeWorkflowLatency("wf", traces, 999);
  EXPECT_EQ(summary.workflow, "wf");
  EXPECT_EQ(summary.timestamp, 999);
  EXPECT_EQ(summary.traces, 2);
  EXPECT_EQ(summary.ok_traces, 2);
  EXPECT_DOUBLE_EQ(summary.end_to_end.mean, 150.0);
  EXPECT_DOUBLE_EQ(summary.end_to_end.share, 1.0);
  EXPECT_DOUBLE_EQ(summary.compute.mean, 115.0);
  EXPECT_DOUBLE_EQ(summary.gateway.mean, 10.0);
  EXPECT_DOUBLE_EQ(summary.queueing.mean, 25.0);
  EXPECT_DOUBLE_EQ(summary.network.mean, 0.0);
  // Shares are means over the e2e mean; per-trace overhead share averages.
  EXPECT_NEAR(summary.compute.share, 115.0 / 150.0, 1e-12);
  EXPECT_NEAR(summary.overhead_share, (0.2 + 0.25) / 2.0, 1e-12);

  const WorkflowLatencySummary none = SummarizeWorkflowLatency("ghost", traces, 0);
  EXPECT_EQ(none.traces, 0);
}

TEST(ChromeTraceExporterTest, ExportParsesAndCarriesEverySpan) {
  Span root = MakeSpan(9, 1, 0, kClientCaller, "root", Milliseconds(2), Milliseconds(8),
                       Milliseconds(3), Milliseconds(7));
  root.network_ns = Milliseconds(1);
  Span child = MakeSpan(9, 2, 1, "root", "leaf", Milliseconds(4), Milliseconds(6), 0, 0);
  child.status = SpanStatus::kTimeout;
  const Trace trace = MakeTrace({root, child});

  // Two invocation slices plus the root's execution slice (the child never
  // dispatched, so it has no exec slice). Timestamps are microseconds from
  // the root's start; the child overlaps the root, so the greedy lane
  // assignment moves it to tid 2.
  EXPECT_EQ(ExportChromeTrace(trace),
            R"({"displayTimeUnit":"ms","traceEvents":[)"
            R"({"args":{"async":false,"attempts":1,"caller":"client","cold_start_us":0,)"
            R"("gateway_us":0,"network_us":1000,"parent_span_id":0,"queueing_us":0,)"
            R"("span_id":1,"status":"ok","trace_id":9},"cat":"invocation","dur":6000,)"
            R"("name":"root","ph":"X","pid":1,"tid":1,"ts":0},)"
            R"({"cat":"execution","dur":4000,"name":"root [exec]","ph":"X","pid":1,"tid":1,)"
            R"("ts":1000},)"
            R"({"args":{"async":false,"attempts":1,"caller":"root","cold_start_us":0,)"
            R"("gateway_us":0,"network_us":0,"parent_span_id":1,"queueing_us":0,"span_id":2,)"
            R"("status":"timeout","trace_id":9},"cat":"invocation","dur":2000,"name":"leaf",)"
            R"("ph":"X","pid":1,"tid":2,"ts":2000}]})");
}

}  // namespace
}  // namespace quilt
