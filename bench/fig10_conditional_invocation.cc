// Figure 10: data-dependent fan-out and conditional invocations (§5.6,
// §7.6).
//
// The fan-out function invokes a memory-intensive callee `num` times, where
// num comes from the request. The container is provisioned for the profiled
// fan-out of 8 (at most 8 concurrent callee instances fit). Three systems:
//   - baseline: unmerged (every call remote);
//   - Quilt without conditional invocations: all calls local -- crashes
//     (container OOM-killed) whenever num > 8;
//   - Quilt with conditional invocations: first 8 calls local, the rest
//     fall back to the remote path -- no crashes, and latency improves in
//     both regimes.
#include "bench/bench_util.h"
#include "src/apps/deathstarbench.h"

namespace quilt {
namespace bench {
namespace {

enum class System { kBaseline, kQuiltUnconditional, kQuiltConditional };

const char* SystemName(System system) {
  switch (system) {
    case System::kBaseline:
      return "baseline";
    case System::kQuiltUnconditional:
      return "quilt w/o conditional";
    case System::kQuiltConditional:
      return "quilt w/ conditional";
  }
  return "?";
}

struct Point {
  double mean_latency_ms = 0.0;
  double failure_rate = 0.0;
};

Point RunPoint(System system, int num, int requests = 60) {
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;  // Fits the profiled fan-out of 8.
  if (system == System::kQuiltUnconditional) {
    options.compile.quiltc.conditional_invocations = false;
  }
  Env env(options);
  const WorkflowApp app = FanOutApp(/*profiled_alpha=*/8);
  if (!env.controller.RegisterWorkflow(app).ok()) {
    return {};
  }
  if (system != System::kBaseline) {
    Result<CallGraph> graph = app.ReferenceGraph();
    if (!graph.ok() ||
        !env.controller.DeploySolutionDirect(app, FullMergeSolution(*graph)).ok()) {
      std::printf("!! deploy failed\n");
      return {};
    }
  }

  // Sequential requests with the given fan-out (mean latency, as in Fig 10).
  LatencyHistogram latency;
  int64_t failed = 0;
  for (int i = 0; i < requests; ++i) {
    Json payload = Json::MakeObject();
    payload["num"] = num;
    SimTime sent = env.sim.now();
    bool ok = false;
    SimTime finished = sent;
    env.platform.Invoke({.caller = kClientCaller,
                         .callee = app.root_handle,
                         .parent = {},
                         .payload = payload,
                         .async = false,
                         .done = [&](Result<Json> r) {
                          ok = r.ok();
                          finished = env.sim.now();
                        }});
    env.sim.Run();
    if (ok) {
      latency.Record(finished - sent);
    } else {
      ++failed;
    }
  }
  Point point;
  point.mean_latency_ms = ToMillis(static_cast<SimDuration>(latency.Mean()));
  point.failure_rate = static_cast<double>(failed) / requests;
  return point;
}

}  // namespace
}  // namespace bench
}  // namespace quilt

int main() {
  using namespace quilt;
  using namespace quilt::bench;

  PrintHeader(
      "Figure 10: data-dependent fan-out (profiled alpha = 8, container sized for 8)\n"
      "mean latency (ms) and crash rate per fan-out value");
  const std::vector<int> nums = {2, 4, 6, 8, 10, 12, 14};

  std::printf("%22s |", "num =");
  for (int num : nums) {
    std::printf(" %9d", num);
  }
  std::printf("\n");
  for (System system :
       {System::kBaseline, System::kQuiltUnconditional, System::kQuiltConditional}) {
    std::printf("%22s |", SystemName(system));
    std::vector<Point> points;
    for (int num : nums) {
      points.push_back(RunPoint(system, num));
    }
    for (const Point& point : points) {
      if (point.failure_rate > 0.5) {
        std::printf(" %9s", "CRASH");
      } else {
        std::printf(" %9.2f", point.mean_latency_ms);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check: below the profiled alpha all three succeed and merged latency is\n"
      "lowest; above it the unconditional merge crashes (OOM) while conditional\n"
      "invocations keep every request alive by sending the overflow remotely.\n");
  return 0;
}
