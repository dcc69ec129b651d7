// End-to-end walkthrough on a real workflow: DeathStarBench's Movie Review
// compose-review (15 functions, the Figure-3 application).
//
// Shows every stage of Quilt's pipeline with intermediate artifacts printed:
// transparent profiling (call-graph reconstruction from spans), the
// constraint-aware merge decision, the per-pass merge pipeline, deployment
// via the platform's normal function-update mechanism, and the before/after
// measurement -- plus a rollback at the end (§8).
#include <cstdio>

#include "src/apps/deathstarbench.h"
#include "src/core/quilt_controller.h"
#include "src/common/strings.h"
#include "src/workload/loadgen.h"

namespace {

quilt::LoadResult Measure(quilt::Simulation& sim, quilt::Platform& platform,
                          const std::string& target, int connections = 1) {
  quilt::ClosedLoopGenerator generator;
  quilt::ClosedLoopGenerator::Options options;
  options.connections = connections;
  options.warmup = quilt::Seconds(3);
  options.duration = quilt::Seconds(30);
  return generator.Run(&sim, &platform, target, options);
}

}  // namespace

int main() {
  using namespace quilt;
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform);

  const WorkflowApp app = ComposeReview(/*async_fanout=*/true);
  std::printf("== registering '%s' (%zu functions) ==\n", app.name.c_str(),
              app.functions.size());
  if (Status s = controller.RegisterWorkflow(app); !s.ok()) {
    std::printf("register failed: %s\n", s.ToString().c_str());
    return 1;
  }

  std::printf("\n== baseline measurement ==\n");
  const LoadResult baseline = Measure(sim, platform, app.root_handle);
  std::printf("median %s  p99 %s  (%lld requests)\n",
              FormatDuration(baseline.latency.Median()).c_str(),
              FormatDuration(baseline.latency.P99()).c_str(),
              static_cast<long long>(baseline.completed));

  std::printf("\n== profiling window (ingress + otel + cadvisor) ==\n");
  controller.StartProfiling();
  Measure(sim, platform, app.root_handle);
  controller.StopProfiling();
  std::printf("spans collected: %lld\n",
              static_cast<long long>(controller.span_store()->size()));

  Result<CallGraph> graph = controller.BuildCallGraph(app.root_handle);
  if (!graph.ok()) {
    std::printf("call-graph construction failed: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("\n== reconstructed call graph ==\n%s\n", graph->DebugString().c_str());

  std::printf("== merge decision (C=%.1f vCPU, M=%.0f MB per container) ==\n",
              controller.options().container_cpu_limit,
              controller.options().container_memory_limit_mb);
  // The controller's decision stage, run by hand to show its answer.
  MergeProblem problem;
  problem.graph = &*graph;
  problem.cpu_limit = controller.options().container_cpu_limit;
  problem.memory_limit = controller.options().container_memory_limit_mb;
  Result<MergeSolution> solution = controller.decision_engine()->Decide(problem);
  if (!solution.ok()) {
    std::printf("decision failed: %s\n", solution.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", SolutionToString(*graph, *solution).c_str());

  std::printf("== merging (LLVM-style pipeline) ==\n");
  Result<std::vector<MergedArtifact>> artifacts =
      controller.compile_service()->MergeSolution(*graph, *solution, app.Sources());
  if (!artifacts.ok()) {
    std::printf("merge failed: %s\n", artifacts.status().ToString().c_str());
    return 1;
  }
  for (const MergedArtifact& artifact : *artifacts) {
    std::printf("artifact '%s': %zu functions, binary %s, pipeline time %s\n",
                artifact.handle.c_str(), artifact.member_handles.size(),
                FormatBytes(artifact.image.size_bytes).c_str(),
                FormatDuration(artifact.TotalPipelineTime()).c_str());
    for (const PassStats& pass : artifact.pass_stats) {
      if (pass.counter("calls_localized") > 0) {
        std::printf("  %s: localized %lld call site(s)\n", pass.pass_name.c_str(),
                    static_cast<long long>(pass.counter("calls_localized")));
      }
    }
  }

  // OptimizeWorkflow re-runs decide and merge on the same profile window --
  // both engines are deterministic and answer from their caches -- and makes
  // the plan live.
  std::printf("\n== deploying merged function (transparent update, §5.5) ==\n");
  if (Result<MergeSolution> live = controller.OptimizeWorkflow(app.root_handle); !live.ok()) {
    std::printf("deploy failed: %s\n", live.status().ToString().c_str());
    return 1;
  }

  const LoadResult merged = Measure(sim, platform, app.root_handle);
  std::printf("median %s  p99 %s  (%lld requests)\n",
              FormatDuration(merged.latency.Median()).c_str(),
              FormatDuration(merged.latency.P99()).c_str(),
              static_cast<long long>(merged.completed));
  std::printf("median improvement: %.1f%%\n",
              100.0 * (1.0 - static_cast<double>(merged.latency.Median()) /
                                 static_cast<double>(baseline.latency.Median())));

  std::printf("\n== rollback (§8) ==\n");
  if (Status s = controller.RollbackDeployment(app.root_handle); !s.ok()) {
    std::printf("rollback failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const LoadResult rolled = Measure(sim, platform, app.root_handle);
  std::printf("median after rollback: %s (back to remote invocations)\n",
              FormatDuration(rolled.latency.Median()).c_str());
  return 0;
}
