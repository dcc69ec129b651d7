#include "src/tracing/chrome_trace_exporter.h"

#include <algorithm>
#include <fstream>
#include <vector>

#include "src/common/json.h"
#include "src/common/strings.h"

namespace quilt {

namespace {

Json ChromeTraceDocument(const Trace& trace) {
  Json doc = Json::MakeObject();
  doc["displayTimeUnit"] = "ms";
  Json events = Json::MakeArray();

  const SimTime origin = trace.complete() ? trace.root().timestamp
                         : trace.spans.empty() ? 0
                                               : trace.spans.front().timestamp;

  // Greedy lane assignment: spans sorted by start; each takes the first
  // lane that is free at its start time. Complete events on one tid must
  // not overlap, and siblings of an async fan-out do.
  std::vector<size_t> order(trace.spans.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [&trace](size_t a, size_t b) {
    const Span& sa = trace.spans[a];
    const Span& sb = trace.spans[b];
    return sa.timestamp != sb.timestamp ? sa.timestamp < sb.timestamp
                                        : sa.span_id < sb.span_id;
  });
  std::vector<SimTime> lane_free;
  for (const size_t i : order) {
    const Span& span = trace.spans[i];
    size_t lane = lane_free.size();
    for (size_t l = 0; l < lane_free.size(); ++l) {
      if (lane_free[l] <= span.timestamp) {
        lane = l;
        break;
      }
    }
    if (lane == lane_free.size()) {
      lane_free.push_back(0);
    }
    lane_free[lane] = std::max(span.end_time, span.timestamp);

    Json args = Json::MakeObject();
    args["caller"] = span.caller;
    args["trace_id"] = span.trace_id;
    args["span_id"] = span.span_id;
    args["parent_span_id"] = span.parent_span_id;
    args["async"] = span.async;
    args["attempts"] = span.attempts;
    args["status"] = SpanStatusName(span.status);
    args["network_us"] = ToMicros(span.network_ns);
    args["gateway_us"] = ToMicros(span.gateway_ns);
    args["queueing_us"] = ToMicros(span.queue_ns);
    args["cold_start_us"] = ToMicros(span.cold_start_ns);

    Json event = Json::MakeObject();
    event["name"] = span.callee;
    event["cat"] = "invocation";
    event["ph"] = "X";
    event["ts"] = ToMicros(span.timestamp - origin);
    event["dur"] = ToMicros(std::max<SimDuration>(0, span.duration()));
    event["pid"] = static_cast<int64_t>(1);
    event["tid"] = static_cast<int64_t>(lane + 1);
    event["args"] = std::move(args);
    events.Append(std::move(event));

    // The container-execution window as a nested slice on the same lane:
    // strictly inside the invocation event, so the viewer stacks them.
    if (span.exec_end > span.exec_start) {
      Json exec = Json::MakeObject();
      exec["name"] = StrCat(span.callee, " [exec]");
      exec["cat"] = "execution";
      exec["ph"] = "X";
      exec["ts"] = ToMicros(span.exec_start - origin);
      exec["dur"] = ToMicros(span.exec_end - span.exec_start);
      exec["pid"] = static_cast<int64_t>(1);
      exec["tid"] = static_cast<int64_t>(lane + 1);
      events.Append(std::move(exec));
    }
  }

  doc["traceEvents"] = std::move(events);
  return doc;
}

}  // namespace

std::string ExportChromeTrace(const Trace& trace) {
  return ChromeTraceDocument(trace).Dump();
}

Status WriteChromeTraceFile(const Trace& trace, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    return InvalidArgumentError(StrCat("cannot open '", path, "' for writing"));
  }
  out << ExportChromeTrace(trace) << "\n";
  out.close();
  if (!out.good()) {
    return InternalError(StrCat("failed writing chrome trace to '", path, "'"));
  }
  return Status::Ok();
}

}  // namespace quilt
