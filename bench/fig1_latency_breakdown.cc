// Figure 1 motivation: where does a serverless workflow's end-to-end
// latency go? (§1, §2). Assembles the profile window's traces, decomposes
// every trace into network / gateway / queueing / cold-start / compute
// segments (the five sum exactly to the measured end-to-end latency, per
// trace), and prints the breakdown for the baseline deployment next to the
// Quilt-merged one: merging exists to shrink the invocation-overhead share,
// and this harness measures that it does.
//
// Flags:
//   --smoke           short runs (CI); same pipeline, fewer requests.
//   --export <path>   write one baseline trace as Chrome trace-event JSON
//                     (chrome://tracing- or Perfetto-loadable).
//   --json <path>     write machine-readable results (name, config, rows).
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/deathstarbench.h"
#include "src/tracing/chrome_trace_exporter.h"
#include "src/tracing/trace_assembler.h"

namespace quilt {
namespace bench {
namespace {

struct Phase {
  WorkflowLatencySummary summary;
  int64_t traces = 0;
  int64_t exact = 0;  // Traces whose segment sum equals their e2e latency.
};

// Profiles `target` under a closed loop and summarizes the window. When
// `export_path` is non-empty, the first complete ok multi-span trace is
// written there as Chrome trace-event JSON.
Phase ProfileAndDecompose(Env& env, const std::string& target, SimDuration duration,
                          SimDuration warmup, const std::string& export_path) {
  Phase phase;
  env.controller.StartProfiling();
  RunClosedLoop(env, target, /*connections=*/1, duration, warmup);
  env.controller.StopProfiling();

  const std::vector<Trace> traces = env.controller.metrics().CollectTraces();
  bool exported = export_path.empty();
  for (const Trace& trace : traces) {
    if (!trace.complete() || trace.workflow() != target) {
      continue;
    }
    Result<LatencyBreakdown> breakdown = DecomposeTrace(trace);
    if (!breakdown.ok()) {
      continue;
    }
    ++phase.traces;
    if (breakdown->total() == breakdown->end_to_end) {
      ++phase.exact;
    }
    if (!exported && trace.root().status == SpanStatus::kOk && trace.spans.size() > 1) {
      const Status written = WriteChromeTraceFile(trace, export_path);
      if (!written.ok()) {
        std::printf("!! export failed: %s\n", written.ToString().c_str());
      } else {
        std::printf("exported trace %lld (%zu spans) -> %s\n",
                    static_cast<long long>(trace.trace_id), trace.spans.size(),
                    export_path.c_str());
      }
      exported = true;
    }
  }

  Result<WorkflowLatencySummary> summary =
      env.controller.metrics().SummarizeWorkflowLatency(target);
  if (summary.ok()) {
    phase.summary = std::move(summary).value();
  } else {
    std::printf("!! summarize failed: %s\n", summary.status().ToString().c_str());
  }
  return phase;
}

void PrintSegmentRow(const char* name, const SegmentPercentiles& base,
                     const SegmentPercentiles& quilt) {
  std::printf("  %-11s %10.3f ms %5.1f%% | %10.3f ms %5.1f%%\n", name, base.mean / 1e6,
              100.0 * base.share, quilt.mean / 1e6, 100.0 * quilt.share);
}

Json SummaryRow(const std::string& app, const std::string& series,
                const WorkflowLatencySummary& s, int64_t exact_traces) {
  Json row = Json::MakeObject();
  row["app"] = app;
  row["series"] = series;
  row["traces"] = s.traces;
  row["exact_sum_traces"] = exact_traces;
  row["e2e_mean_ms"] = s.end_to_end.mean / 1e6;
  row["e2e_p50_ms"] = static_cast<double>(s.end_to_end.p50) / 1e6;
  row["e2e_p99_ms"] = static_cast<double>(s.end_to_end.p99) / 1e6;
  row["network_share"] = s.network.share;
  row["gateway_share"] = s.gateway.share;
  row["queueing_share"] = s.queueing.share;
  row["cold_start_share"] = s.cold_start.share;
  row["compute_share"] = s.compute.share;
  row["overhead_share"] = s.overhead_share;
  return row;
}

bool RunWorkflow(const WorkflowApp& app, bool smoke, const std::string& export_path,
                 BenchJson& json) {
  const SimDuration duration = smoke ? Seconds(3) : Seconds(20);
  const SimDuration warmup = smoke ? Seconds(1) : Seconds(5);

  Env env;
  const Status registered = env.controller.RegisterWorkflow(app);
  if (!registered.ok()) {
    std::printf("!! %s: %s\n", app.name.c_str(), registered.ToString().c_str());
    return false;
  }

  const Phase baseline =
      ProfileAndDecompose(env, app.root_handle, duration, warmup, export_path);

  // Quilt pipeline on the profile just gathered, then re-profile merged.
  Result<MergeSolution> solution = env.controller.OptimizeWorkflow(app.root_handle);
  if (!solution.ok()) {
    std::printf("!! %s: decision failed: %s\n", app.name.c_str(),
                solution.status().ToString().c_str());
    return false;
  }
  const Phase merged = ProfileAndDecompose(env, app.root_handle, duration, warmup, "");

  const WorkflowLatencySummary& b = baseline.summary;
  const WorkflowLatencySummary& q = merged.summary;
  std::printf("\n%s (%d functions -> %d groups)\n", app.name.c_str(),
              static_cast<int>(app.functions.size()), solution->num_groups());
  std::printf("  traces: baseline %lld (exact-sum %lld), quilt %lld (exact-sum %lld)\n",
              static_cast<long long>(baseline.traces), static_cast<long long>(baseline.exact),
              static_cast<long long>(merged.traces), static_cast<long long>(merged.exact));
  std::printf("  %-11s %13s %6s | %13s %6s\n", "segment", "baseline", "share", "quilt",
              "share");
  PrintSegmentRow("network", b.network, q.network);
  PrintSegmentRow("gateway", b.gateway, q.gateway);
  PrintSegmentRow("queueing", b.queueing, q.queueing);
  PrintSegmentRow("cold-start", b.cold_start, q.cold_start);
  PrintSegmentRow("compute", b.compute, q.compute);
  std::printf("  %-11s %10.3f ms        | %10.3f ms\n", "end-to-end", b.end_to_end.mean / 1e6,
              q.end_to_end.mean / 1e6);
  std::printf("  p50 / p99:  %.3f / %.3f ms   | %.3f / %.3f ms\n",
              static_cast<double>(b.end_to_end.p50) / 1e6,
              static_cast<double>(b.end_to_end.p99) / 1e6,
              static_cast<double>(q.end_to_end.p50) / 1e6,
              static_cast<double>(q.end_to_end.p99) / 1e6);
  std::printf("  invocation-overhead share: %.1f%% -> %.1f%%\n", 100.0 * b.overhead_share,
              100.0 * q.overhead_share);

  json.AddRow(SummaryRow(app.name, "baseline", b, baseline.exact));
  json.AddRow(SummaryRow(app.name, "quilt", q, merged.exact));

  const bool sums_exact = baseline.traces > 0 && baseline.exact == baseline.traces &&
                          merged.traces > 0 && merged.exact == merged.traces;
  const bool overhead_shrank = q.overhead_share < b.overhead_share;
  if (!sums_exact) {
    std::printf("!! %s: segment sums did not match end-to-end latency\n", app.name.c_str());
  }
  if (!overhead_shrank) {
    std::printf("!! %s: overhead share did not shrink after merging\n", app.name.c_str());
  }
  return sums_exact && overhead_shrank;
}

}  // namespace
}  // namespace bench
}  // namespace quilt

int main(int argc, char** argv) {
  using namespace quilt;
  using namespace quilt::bench;

  bool smoke = false;
  std::string export_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--export") == 0 && i + 1 < argc) {
      export_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  PrintHeader(
      "Figure 1: end-to-end latency decomposition, baseline vs Quilt\n"
      "(per-trace segments sum exactly to measured end-to-end latency)");

  std::vector<WorkflowApp> apps;
  apps.push_back(ComposePost(/*async_fanout=*/false));
  if (!smoke) {
    apps.push_back(PageService(/*async_fanout=*/false));
    apps.push_back(SearchHandler());
  }

  BenchJson json("fig1_latency_breakdown");
  json.SetConfig("smoke", smoke);
  json.SetConfig("apps", static_cast<int64_t>(apps.size()));

  bool ok = true;
  bool first = true;
  for (const WorkflowApp& app : apps) {
    ok = RunWorkflow(app, smoke, first ? export_path : "", json) && ok;
    first = false;
  }
  const Status written = json.WriteTo(json_path);
  if (!written.ok()) {
    std::printf("!! --json: %s\n", written.ToString().c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
