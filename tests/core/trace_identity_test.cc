// Regression tests for cross-workflow span bleed (trace identity).
//
// Two workflows share the handle "shared-svc". Workflow A never makes
// shared-svc call its leaf (data-dependent count 0); workflow B always does.
// Before spans carried trace ids, BuildCallGraphFromTraces aggregated every
// shared-svc->leaf-b span into *both* workflows' graphs, so workflow A's
// graph grew an edge it never executed. With per-request trace identity the
// builder only aggregates spans belonging to the workflow's own traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/core/quilt_controller.h"
#include "src/tracing/trace_assembler.h"

namespace quilt {
namespace {

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;

  Harness() : controller(&sim, &platform) {}
};

// One app holding both workflows: root-a -> shared-svc, root-b -> shared-svc,
// and shared-svc -> leaf-b with a data-dependent count taken from the request
// payload's "num" field (0 for workflow A, 2 for workflow B).
WorkflowApp SharedHandleApp() {
  WorkflowApp app;
  app.name = "shared-handle";
  app.root_handle = "root-a";

  AppFunctionSpec root_a;
  root_a.handle = "root-a";
  root_a.steps = {ComputeStep{0.2}, CallStep{{CallItem{"shared-svc", 1, false}}, false}};
  app.functions.push_back(root_a);

  AppFunctionSpec root_b;
  root_b.handle = "root-b";
  root_b.steps = {ComputeStep{0.2}, CallStep{{CallItem{"shared-svc", 1, false}}, false}};
  app.functions.push_back(root_b);

  AppFunctionSpec shared;
  shared.handle = "shared-svc";
  shared.steps = {ComputeStep{0.3},
                  CallStep{{CallItem{"leaf-b", 1, /*data_dependent=*/true}}, false}};
  app.functions.push_back(shared);

  AppFunctionSpec leaf;
  leaf.handle = "leaf-b";
  leaf.steps = {ComputeStep{0.25}};
  app.functions.push_back(leaf);
  return app;
}

Json PayloadWithNum(int64_t num) {
  Json payload = Json::MakeObject();
  payload["num"] = num;
  return payload;
}

// Fires `count` requests at each root, interleaved at the same sim times so
// the two workflows genuinely run concurrently. RunUntil, not Run: the
// profiling resource monitor keeps rescheduling itself, so the event queue
// never drains while profiling is on.
void DriveBothWorkflows(Harness& h, int count) {
  for (int i = 0; i < count; ++i) {
    const SimTime at = h.sim.now() + Milliseconds(5) * i;
    h.sim.ScheduleAt(at, [&h] {
      h.platform.Invoke({.caller = kClientCaller,
                         .callee = "root-a",
                         .parent = {},
                         .payload = PayloadWithNum(0),
                         .async = false,
                         .done = [](Result<Json> result) { ASSERT_TRUE(result.ok()); }});
    });
    h.sim.ScheduleAt(at, [&h] {
      h.platform.Invoke({.caller = kClientCaller,
                         .callee = "root-b",
                         .parent = {},
                         .payload = PayloadWithNum(2),
                         .async = false,
                         .done = [](Result<Json> result) { ASSERT_TRUE(result.ok()); }});
    });
  }
  h.sim.RunUntil(h.sim.now() + Milliseconds(5) * count + Seconds(5));
}

std::string CanonicalGraph(const CallGraph& graph) {
  std::vector<std::string> lines;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    const FunctionNode& n = graph.node(id);
    lines.push_back(StrCat("node ", n.name, " cpu=", n.cpu, " mem=", n.memory));
  }
  for (const CallEdge& e : graph.edges()) {
    lines.push_back(StrCat("edge ", graph.node(e.from).name, "->", graph.node(e.to).name,
                           " alpha=", e.alpha, " w=", e.weight,
                           " async=", e.type == CallType::kAsync));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += "\n";
  }
  return out;
}

TEST(TraceIdentityTest, SharedFunctionDoesNotBleedAcrossWorkflows) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(SharedHandleApp()).ok());
  h.controller.StartProfiling();
  DriveBothWorkflows(h, 20);
  h.controller.StopProfiling();

  // Workflow A: shared-svc executed but never called leaf-b. Before trace
  // identity, root-b's shared-svc->leaf-b spans bled into this graph.
  Result<CallGraph> graph_a = h.controller.BuildCallGraph("root-a");
  ASSERT_TRUE(graph_a.ok()) << graph_a.status().ToString();
  EXPECT_EQ(graph_a->FindNode("leaf-b"), -1)
      << "workflow A's graph contains workflow B's leaf: cross-workflow bleed";
  EXPECT_NE(graph_a->FindNode("shared-svc"), -1);
  EXPECT_EQ(graph_a->num_nodes(), 2);

  // Workflow B keeps its own edge, with the per-request call count intact.
  Result<CallGraph> graph_b = h.controller.BuildCallGraph("root-b");
  ASSERT_TRUE(graph_b.ok()) << graph_b.status().ToString();
  const NodeId shared = graph_b->FindNode("shared-svc");
  const NodeId leaf = graph_b->FindNode("leaf-b");
  ASSERT_NE(shared, -1);
  ASSERT_NE(leaf, -1);
  EXPECT_EQ(graph_b->FindNode("root-a"), -1);
  const EdgeId edge = graph_b->FindEdge(shared, leaf);
  ASSERT_NE(edge, -1);
  EXPECT_EQ(graph_b->edge(edge).alpha, 2);
}

TEST(TraceIdentityTest, EachRequestRootsOneWellFormedTraceTree) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(SharedHandleApp()).ok());
  h.controller.StartProfiling();
  DriveBothWorkflows(h, 10);
  h.controller.StopProfiling();

  const std::vector<Trace> traces = h.controller.metrics().CollectTraces();
  ASSERT_EQ(traces.size(), 20u);  // One trace per client request.

  int a_traces = 0;
  int b_traces = 0;
  for (const Trace& trace : traces) {
    ASSERT_TRUE(trace.complete());
    const Span& root = trace.root();
    EXPECT_EQ(root.caller, kClientCaller);
    EXPECT_EQ(root.parent_span_id, 0);

    std::set<int64_t> ids;
    for (const Span& span : trace.spans) {
      EXPECT_EQ(span.trace_id, trace.trace_id);
      EXPECT_TRUE(ids.insert(span.span_id).second) << "duplicate span id";
    }
    // Every non-root span hangs off another span of the same trace: the
    // causal chain survives the gateway hop and nested invocations.
    for (const Span& span : trace.spans) {
      if (span.span_id == root.span_id) {
        continue;
      }
      EXPECT_TRUE(ids.count(span.parent_span_id) == 1)
          << "orphan span " << span.callee << " in trace " << trace.trace_id;
    }

    if (trace.workflow() == "root-a") {
      ++a_traces;
      EXPECT_EQ(trace.spans.size(), 2u);  // client->root-a, root-a->shared.
      for (const Span& span : trace.spans) {
        EXPECT_NE(span.callee, "leaf-b") << "workflow B's span inside workflow A's trace";
      }
    } else {
      ASSERT_EQ(trace.workflow(), "root-b");
      ++b_traces;
      EXPECT_EQ(trace.spans.size(), 4u);  // ... plus shared->leaf-b twice.
    }
  }
  EXPECT_EQ(a_traces, 10);
  EXPECT_EQ(b_traces, 10);
}

TEST(TraceIdentityTest, PerTraceCallGraphsAreDeterministic) {
  auto run = [] {
    Harness h;
    EXPECT_TRUE(h.controller.RegisterWorkflow(SharedHandleApp()).ok());
    h.controller.StartProfiling();
    DriveBothWorkflows(h, 12);
    h.controller.StopProfiling();
    Result<CallGraph> a = h.controller.BuildCallGraph("root-a");
    Result<CallGraph> b = h.controller.BuildCallGraph("root-b");
    EXPECT_TRUE(a.ok() && b.ok());
    return CanonicalGraph(*a) + "--\n" + CanonicalGraph(*b);
  };
  const std::string first = run();
  const std::string second = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second) << "same seed, different call graphs";
}

TEST(TraceIdentityTest, SpanSegmentsAreBoundedByDuration) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(SharedHandleApp()).ok());
  h.controller.StartProfiling();
  DriveBothWorkflows(h, 5);
  h.controller.StopProfiling();

  for (const Trace& trace : h.controller.metrics().CollectTraces()) {
    for (const Span& span : trace.spans) {
      EXPECT_EQ(span.status, SpanStatus::kOk);
      EXPECT_GT(span.end_time, span.timestamp);
      const SimDuration overhead =
          span.network_ns + span.gateway_ns + span.queue_ns + span.cold_start_ns;
      EXPECT_GE(overhead, 0);
      EXPECT_LE(overhead, span.duration())
          << span.callee << ": recorded overhead exceeds the span's wall time";
    }
  }
}

}  // namespace
}  // namespace quilt
