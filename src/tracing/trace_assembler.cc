#include "src/tracing/trace_assembler.h"

#include <algorithm>
#include <map>

#include "src/common/histogram.h"
#include "src/common/strings.h"

namespace quilt {

namespace {

struct Window {
  SimTime start = 0;
  SimTime end = 0;
  bool covers(SimTime a, SimTime b) const { return start <= a && b <= end; }
  bool empty() const { return end <= start; }
};

// Splits `overhead` across the four overhead categories proportionally to
// the span's recorded counters, exactly (the remainder after integer
// division goes to the largest counter, so the parts always sum to
// `overhead`). A span with no recorded overhead counters charges everything
// to gateway -- the only segment every platform-routed call pays.
void DistributeOverhead(const Span& span, SimDuration overhead, LatencyBreakdown& out) {
  if (overhead <= 0) {
    return;
  }
  const SimDuration counters[4] = {span.network_ns, span.gateway_ns, span.queue_ns,
                                   span.cold_start_ns};
  SimDuration* targets[4] = {&out.network, &out.gateway, &out.queueing, &out.cold_start};
  SimDuration total = 0;
  for (const SimDuration c : counters) {
    total += std::max<SimDuration>(0, c);
  }
  if (total <= 0) {
    out.gateway += overhead;
    return;
  }
  SimDuration assigned = 0;
  int largest = 0;
  for (int i = 0; i < 4; ++i) {
    const SimDuration c = std::max<SimDuration>(0, counters[i]);
    // 128-bit intermediate: overhead and counters are both nanosecond scale,
    // so the product can exceed int64.
    const SimDuration part =
        static_cast<SimDuration>(static_cast<__int128>(overhead) * c / total);
    *targets[i] += part;
    assigned += part;
    if (c > std::max<SimDuration>(0, counters[largest])) {
      largest = i;
    }
  }
  *targets[largest] += overhead - assigned;
}

}  // namespace

std::vector<Trace> AssembleTraces(const std::vector<Span>& spans) {
  std::map<int64_t, Trace> by_id;
  for (const Span& span : spans) {
    Trace& trace = by_id[span.trace_id];
    trace.trace_id = span.trace_id;
    trace.spans.push_back(span);
  }
  std::vector<Trace> traces;
  traces.reserve(by_id.size());
  for (auto& [id, trace] : by_id) {
    std::sort(trace.spans.begin(), trace.spans.end(),
              [](const Span& a, const Span& b) { return a.span_id < b.span_id; });
    for (size_t i = 0; i < trace.spans.size(); ++i) {
      if (trace.spans[i].parent_span_id == 0) {
        trace.root_index = static_cast<int>(i);
        break;  // Span ids are issue-ordered: the first root is the request.
      }
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

Result<LatencyBreakdown> DecomposeTrace(const Trace& trace) {
  if (!trace.complete()) {
    return FailedPreconditionError(
        StrCat("trace ", trace.trace_id, " has no root span (incomplete)"));
  }
  const Span& root = trace.root();
  if (root.end_time < root.timestamp || root.end_time == 0) {
    return FailedPreconditionError(
        StrCat("trace ", trace.trace_id, " root span never finished"));
  }

  const size_t n = trace.spans.size();
  const Window root_window{root.timestamp, root.end_time};

  // Depth of each span in the trace tree (root = 0). A span whose parent is
  // missing from the trace is treated as a direct child of the root: its
  // time still beats the root's in the sweep, which is the right call --
  // it was doing work on the root's behalf.
  std::map<int64_t, size_t> index_of;
  for (size_t i = 0; i < n; ++i) {
    index_of[trace.spans[i].span_id] = i;
  }
  std::vector<int> depth(n, -1);
  depth[static_cast<size_t>(trace.root_index)] = 0;
  for (size_t i = 0; i < n; ++i) {
    if (depth[i] >= 0) {
      continue;
    }
    // Walk the parent chain up to a memoized ancestor, then unwind.
    std::vector<size_t> chain;
    size_t at = i;
    while (depth[at] < 0) {
      chain.push_back(at);
      auto parent = index_of.find(trace.spans[at].parent_span_id);
      if (parent == index_of.end() || parent->second == at || chain.size() > n) {
        depth[at] = 1;  // Orphan (or malformed loop): adopt as a root child.
        chain.pop_back();
        break;
      }
      at = parent->second;
    }
    int d = depth[at];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[*it] = ++d;
    }
  }

  // Clip every span (and its exec window) into the root's timeline.
  std::vector<Window> live(n), exec(n);
  std::vector<SimTime> bounds;
  bounds.reserve(4 * n);
  for (size_t i = 0; i < n; ++i) {
    const Span& s = trace.spans[i];
    Window w{std::max(s.timestamp, root_window.start),
             std::min(s.end_time > 0 ? s.end_time : s.timestamp, root_window.end)};
    live[i] = w;
    Window x{std::max(s.exec_start, w.start), std::min(s.exec_end, w.end)};
    if (s.exec_start == 0 && s.exec_end == 0) {
      x = Window{w.start, w.start};  // Never dispatched: empty exec window.
    }
    exec[i] = x;
    bounds.push_back(w.start);
    bounds.push_back(w.end);
    if (!x.empty()) {
      bounds.push_back(x.start);
      bounds.push_back(x.end);
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  // Painter sweep: each elementary interval belongs to the deepest covering
  // span (ties break to the later span id -- the younger invocation).
  std::vector<SimDuration> overhead_wall(n, 0);
  LatencyBreakdown out;
  out.end_to_end = root.duration();
  for (size_t b = 0; b + 1 < bounds.size(); ++b) {
    const SimTime a = bounds[b];
    const SimTime z = bounds[b + 1];
    if (z <= a || a < root_window.start || z > root_window.end) {
      continue;
    }
    int winner = -1;
    for (size_t i = 0; i < n; ++i) {
      if (!live[i].covers(a, z) || live[i].empty()) {
        continue;
      }
      if (winner < 0 || depth[i] > depth[static_cast<size_t>(winner)] ||
          (depth[i] == depth[static_cast<size_t>(winner)] &&
           trace.spans[i].span_id > trace.spans[static_cast<size_t>(winner)].span_id)) {
        winner = static_cast<int>(i);
      }
    }
    if (winner < 0) {
      continue;  // Cannot happen while the root covers its own window.
    }
    const auto w = static_cast<size_t>(winner);
    if (exec[w].covers(a, z) && !exec[w].empty()) {
      out.compute += z - a;
    } else {
      overhead_wall[w] += z - a;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    DistributeOverhead(trace.spans[i], overhead_wall[i], out);
  }
  return out;
}

const char* TraceVersionFilterName(TraceVersionFilter filter) {
  switch (filter) {
    case TraceVersionFilter::kAll:
      return "all";
    case TraceVersionFilter::kControl:
      return "control";
    case TraceVersionFilter::kCanary:
      return "canary";
  }
  return "unknown";
}

WorkflowLatencySummary SummarizeWorkflowLatency(const std::string& workflow,
                                                const std::vector<Trace>& traces,
                                                SimTime timestamp, TraceVersionFilter filter) {
  WorkflowLatencySummary summary;
  summary.workflow = workflow;
  summary.timestamp = timestamp;
  summary.version = TraceVersionFilterName(filter);

  LatencyHistogram e2e, network, gateway, queueing, cold_start, compute;
  double overhead_share_sum = 0.0;
  for (const Trace& trace : traces) {
    if (!trace.complete() || trace.workflow() != workflow) {
      continue;
    }
    if ((filter == TraceVersionFilter::kControl && trace.root().canary) ||
        (filter == TraceVersionFilter::kCanary && !trace.root().canary)) {
      continue;
    }
    Result<LatencyBreakdown> decomposed = DecomposeTrace(trace);
    if (!decomposed.ok()) {
      continue;
    }
    const LatencyBreakdown& b = decomposed.value();
    ++summary.traces;
    if (trace.root().status == SpanStatus::kOk) {
      ++summary.ok_traces;
    }
    e2e.Record(b.end_to_end);
    network.Record(b.network);
    gateway.Record(b.gateway);
    queueing.Record(b.queueing);
    cold_start.Record(b.cold_start);
    compute.Record(b.compute);
    overhead_share_sum += b.overhead_share();
  }
  if (summary.traces == 0) {
    return summary;
  }

  const double e2e_mean = e2e.Mean();
  auto fill = [e2e_mean](SegmentPercentiles& out, const LatencyHistogram& h) {
    out.p50 = h.Quantile(0.5);
    out.p95 = h.Quantile(0.95);
    out.p99 = h.Quantile(0.99);
    out.mean = h.Mean();
    out.share = e2e_mean > 0.0 ? h.Mean() / e2e_mean : 0.0;
  };
  fill(summary.end_to_end, e2e);
  summary.end_to_end.share = 1.0;
  fill(summary.network, network);
  fill(summary.gateway, gateway);
  fill(summary.queueing, queueing);
  fill(summary.cold_start, cold_start);
  fill(summary.compute, compute);
  summary.overhead_share = overhead_share_sum / static_cast<double>(summary.traces);
  return summary;
}

}  // namespace quilt
