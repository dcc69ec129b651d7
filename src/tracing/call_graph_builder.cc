#include "src/tracing/call_graph_builder.h"

#include <deque>
#include <map>
#include <set>

#include "src/common/strings.h"

namespace quilt {

namespace {

// Labels of a function with no samples in the metrics store.
constexpr double kDefaultCpu = 0.1;
constexpr double kDefaultMemoryMb = 16.0;

}  // namespace

Result<CallGraph> BuildCallGraphFromTraces(
    const std::vector<Span>& spans,
    const std::map<std::string, MetricsStore::FunctionUsage>& usage,
    const std::string& root_handle) {
  // Pass 1: which traces belong to this workflow? A trace is a member iff
  // its root span (parent_span_id == 0) is a client invocation of
  // root_handle. Traces rooted elsewhere -- including other workflows that
  // happen to share functions with this one -- contribute nothing.
  std::set<int64_t> member_traces;
  int64_t workflow_invocations = 0;
  for (const Span& span : spans) {
    if (span.caller == kClientCaller && span.callee == root_handle &&
        span.parent_span_id == 0 && member_traces.insert(span.trace_id).second) {
      ++workflow_invocations;
    }
  }
  if (workflow_invocations == 0) {
    // Typed as transient: an empty window means "wait for traffic", not that
    // the workflow is misconfigured (callers poll this every control tick).
    return UnavailableError(
        StrCat("no client invocations of workflow root '", root_handle,
               "' in the profile window"));
  }

  // Pass 2: per-edge occurrences, restricted to member traces.
  struct EdgeAgg {
    double weight = 0.0;
    int64_t async_count = 0;
    int64_t total = 0;
  };
  std::map<std::pair<std::string, std::string>, EdgeAgg> edges;
  for (const Span& span : spans) {
    if (span.caller == kClientCaller) {
      continue;  // Client entries are not call-graph edges.
    }
    if (member_traces.count(span.trace_id) == 0) {
      continue;
    }
    EdgeAgg& agg = edges[{span.caller, span.callee}];
    agg.weight += 1.0;
    agg.total += 1;
    if (span.async) {
      ++agg.async_count;
    }
  }

  // Keep only the component reachable from this workflow's root. With trace
  // grouping this is mostly a no-op; it still prunes mid-trace orphans whose
  // caller never appears below the root.
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const auto& [key, agg] : edges) {
    adjacency[key.first].push_back(key.second);
  }
  std::set<std::string> reachable = {root_handle};
  std::deque<std::string> queue = {root_handle};
  while (!queue.empty()) {
    const std::string handle = queue.front();
    queue.pop_front();
    auto adj_it = adjacency.find(handle);
    if (adj_it == adjacency.end()) {
      continue;  // Leaf: no outgoing edges (and no operator[] insertion).
    }
    for (const std::string& next : adj_it->second) {
      if (reachable.insert(next).second) {
        queue.push_back(next);
      }
    }
  }
  for (auto it = edges.begin(); it != edges.end();) {
    if (reachable.count(it->first.first) == 0 || reachable.count(it->first.second) == 0) {
      it = edges.erase(it);
    } else {
      ++it;
    }
  }

  CallGraph graph;
  auto node_of = [&](const std::string& handle) {
    NodeId id = graph.FindNode(handle);
    if (id != kInvalidNode) {
      return id;
    }
    auto it = usage.find(handle);
    const double cpu =
        it != usage.end() && it->second.avg_cpu > 0.0 ? it->second.avg_cpu : kDefaultCpu;
    const double mem = it != usage.end() && it->second.peak_memory_mb > 0.0
                           ? it->second.peak_memory_mb
                           : kDefaultMemoryMb;
    return graph.AddNode(handle, cpu, mem);
  };

  // Root first so it becomes the graph root.
  node_of(root_handle);
  for (const auto& [key, agg] : edges) {
    const NodeId from = node_of(key.first);
    const NodeId to = node_of(key.second);
    const CallType type =
        MajorityAsync(agg.async_count, agg.total) ? CallType::kAsync : CallType::kSync;
    QUILT_RETURN_IF_ERROR(graph.AddEdge(from, to, agg.weight, type));
  }

  QUILT_RETURN_IF_ERROR(graph.Finalize(static_cast<double>(workflow_invocations)));
  return graph;
}

}  // namespace quilt
