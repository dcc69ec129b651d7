// Call-graph construction from profiling data (§3).
//
// Groups spans into traces (one per client request), counts workflow
// invocations (N = traces rooted at the workflow's handle) and
// caller->callee occurrences within those traces, labels nodes with
// aggregated resource usage from the metrics store, and produces the
// finalized CallGraph (per-edge alpha = ⌈w/N⌉) that the merge-decision
// algorithms consume. Grouping by trace is what keeps two concurrently
// profiled workflows apart even when they share a function handle: a
// span only contributes to the workflow whose client request caused it.
// Code paths that never executed in the profile window are absent --
// exactly the imperfect-profile property the paper notes under Figure 3.
#ifndef SRC_TRACING_CALL_GRAPH_BUILDER_H_
#define SRC_TRACING_CALL_GRAPH_BUILDER_H_

#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/call_graph.h"
#include "src/tracing/resource_monitor.h"
#include "src/tracing/span.h"

namespace quilt {

// Sync/async edge classification: an edge whose observed calls were async
// at least half the time is async (exact ties break toward async -- the
// cheaper assumption for the decision stage, since async alpha admits
// batching).
inline bool MajorityAsync(int64_t async_count, int64_t total) {
  return async_count * 2 >= total;
}

// `root_handle` identifies the workflow: N = number of traces whose root
// span is a client invocation of it. A function with no samples in `usage`
// is labeled 0.1 vCPU and 16 MB.
Result<CallGraph> BuildCallGraphFromTraces(
    const std::vector<Span>& spans,
    const std::map<std::string, MetricsStore::FunctionUsage>& usage,
    const std::string& root_handle);

}  // namespace quilt

#endif  // SRC_TRACING_CALL_GRAPH_BUILDER_H_
