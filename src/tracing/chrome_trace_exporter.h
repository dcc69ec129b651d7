// Chrome trace-event JSON exporter: renders one assembled trace as a
// chrome://tracing / Perfetto-loadable document. Every span becomes a
// complete ("ph":"X") event; overlapping spans are laid out on separate
// tid lanes so the viewer's nesting stays well-formed, and per-span
// latency segments ride along in "args" for inspection.
#ifndef SRC_TRACING_CHROME_TRACE_EXPORTER_H_
#define SRC_TRACING_CHROME_TRACE_EXPORTER_H_

#include <string>

#include "src/common/status.h"
#include "src/tracing/trace_assembler.h"

namespace quilt {

// The serialized trace-event document ({"displayTimeUnit": "ms",
// "traceEvents": [...]}). Timestamps are microseconds relative to the trace
// root's start, per the trace-event format.
std::string ExportChromeTrace(const Trace& trace);

// Writes ExportChromeTrace(trace) to `path`.
Status WriteChromeTraceFile(const Trace& trace, const std::string& path);

}  // namespace quilt

#endif  // SRC_TRACING_CHROME_TRACE_EXPORTER_H_
