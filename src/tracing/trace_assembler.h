// Trace assembly and critical-path latency decomposition (§2, §3).
//
// Groups spans by trace id into trace trees (one per client request) and
// decomposes each trace's end-to-end latency into network / gateway /
// queueing / cold-start / compute segments. The decomposition is a painter
// sweep over the root span's timeline: at every instant exactly one span --
// the deepest one covering it -- owns the time, owning it as compute while
// inside its container-execution window and as overhead otherwise; each
// span's overhead is then split across the four overhead categories in
// proportion to its recorded segment counters. By construction the five
// segments sum exactly to the measured end-to-end latency of the trace.
// This is the measured form of the paper's "invocation overhead dominates
// end-to-end time" motivation, and what merging is scored against.
#ifndef SRC_TRACING_TRACE_ASSEMBLER_H_
#define SRC_TRACING_TRACE_ASSEMBLER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/tracing/resource_monitor.h"
#include "src/tracing/span.h"

namespace quilt {

// One client request's spans. Spans are sorted by span id (issue order);
// root_index points at the span with parent_span_id == 0.
struct Trace {
  int64_t trace_id = 0;
  std::vector<Span> spans;
  int root_index = -1;

  bool complete() const { return root_index >= 0; }
  const Span& root() const { return spans[static_cast<size_t>(root_index)]; }
  // The workflow this request exercised: the root span's callee.
  const std::string& workflow() const { return root().callee; }
};

// End-to-end latency of one trace, split into the five segments. The
// invariant total() == end_to_end holds exactly (integer nanoseconds).
struct LatencyBreakdown {
  SimDuration network = 0;
  SimDuration gateway = 0;
  SimDuration queueing = 0;
  SimDuration cold_start = 0;
  SimDuration compute = 0;
  SimDuration end_to_end = 0;

  SimDuration total() const { return network + gateway + queueing + cold_start + compute; }
  double overhead_share() const {
    return end_to_end > 0 ? 1.0 - static_cast<double>(compute) / static_cast<double>(end_to_end)
                          : 0.0;
  }
};

// Groups spans by trace id. Traces are returned in ascending trace-id order;
// a trace with no root span (e.g. the root fell out of the store's retention
// window) has root_index == -1.
std::vector<Trace> AssembleTraces(const std::vector<Span>& spans);

// Decomposes one complete trace. Fails on traces without a root span or
// whose root never finished (end_time == 0).
Result<LatencyBreakdown> DecomposeTrace(const Trace& trace);

// Which deployment version's traces a summary aggregates: all of them, only
// those the control (current) version served, or only those a staged canary
// served. The root span's canary flag decides (the client-visible entry hop
// is where two-version routing splits the traffic).
enum class TraceVersionFilter { kAll, kControl, kCanary };

const char* TraceVersionFilterName(TraceVersionFilter filter);

// Percentile summary over every complete, decomposable trace of `workflow`
// in `traces`. `timestamp` stamps the record (pass sim->now()).
WorkflowLatencySummary SummarizeWorkflowLatency(
    const std::string& workflow, const std::vector<Trace>& traces, SimTime timestamp,
    TraceVersionFilter filter = TraceVersionFilter::kAll);

}  // namespace quilt

#endif  // SRC_TRACING_TRACE_ASSEMBLER_H_
