// Figure 8 (c/d): cost of compiling and merging workflows (§7.5.3).
//
// Part 1 runs every DeathStarBench workflow through the full compilation
// pipeline and reports the modeled wall-clock of each stage. Expectations
// from the paper: compile+link dominated by dependency builds (~1.5 min
// regardless of function count -- read-home-timeline with 2 functions costs
// about the same as compose-review with 15), merge time linear in the
// number of functions and of the same order.
//
// Part 2 measures what the CompileService's content-addressed caches buy
// across a controller lifecycle (register -> profile -> optimize ->
// reconsider -> rollback -> re-optimize): the baseline single builds seed
// the per-function IR cache, so the deploy merge runs zero fresh frontend
// compiles, and the re-deploy answers from the artifact cache outright.
// The run FAILS (nonzero exit) unless caching cuts fresh per-function IR
// compiles by at least 2x versus the cache-off configuration.
//
// Flags:
//   --smoke           small workflow + short loads (CI); same pipeline.
#include <cstring>

#include "bench/bench_util.h"
#include "src/apps/deathstarbench.h"

namespace quilt {
namespace bench {
namespace {

struct CycleResult {
  CompileServiceStats stats;
  bool ok = false;
};

// One controller lifecycle over `app` with the compile caches on or off.
CycleResult RunLifecycle(const WorkflowApp& app, bool caches, bool smoke) {
  CycleResult result;
  ControllerOptions options;
  options.compile.ir_cache = caches;
  options.compile.artifact_cache = caches;
  Env env(options);

  const SimDuration load_time = smoke ? Seconds(12) : Seconds(30);
  auto profile = [&]() {
    env.controller.StartProfiling();
    RunClosedLoop(env, app.root_handle, /*connections=*/1, load_time);
    env.controller.StopProfiling();
  };

  // Register: one baseline single build per function.
  if (!env.controller.RegisterWorkflow(app).ok()) {
    return result;
  }
  // Profile -> decide -> merge -> deploy.
  profile();
  if (!env.controller.OptimizeWorkflow(app.root_handle).ok()) {
    return result;
  }
  // Fresh window over the merged deployment, then reconsider (the usual
  // steady-state outcome: profile unchanged, nothing recompiled).
  profile();
  if (!env.controller.ReconsiderWorkflow(app.root_handle).ok()) {
    return result;
  }
  // Roll back, profile the restored baseline, optimize again: with caches,
  // the re-merge is answered from the artifact/IR caches.
  if (!env.controller.RollbackDeployment(app.root_handle).ok()) {
    return result;
  }
  profile();
  if (!env.controller.OptimizeWorkflow(app.root_handle).ok()) {
    return result;
  }

  result.stats = env.controller.compile_service()->stats();
  result.ok = true;
  return result;
}

}  // namespace
}  // namespace bench
}  // namespace quilt

int main(int argc, char** argv) {
  using namespace quilt;
  using namespace quilt::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  PrintHeader("Figure 8c/8d: compile, link, merge, and codegen time per workflow");
  std::printf("%-26s %4s | %10s %10s %10s %10s | %10s\n", "workflow", "fns", "compile",
              "link", "merge", "codegen", "total");

  CompileService service;
  const std::vector<WorkflowApp> workflows = {
      ReadHomeTimeline(),  ReadUserReview(),        NearbyCinema(),
      FollowWithUname(true), PageService(true),     SearchHandler(),
      ReservationHandler(), ComposePost(true),      ComposeReview(true),
  };
  for (const WorkflowApp& app : workflows) {
    Result<CallGraph> graph = app.ReferenceGraph();
    if (!graph.ok()) {
      std::printf("!! %s: %s\n", app.name.c_str(), graph.status().ToString().c_str());
      continue;
    }
    Result<MergedArtifact> artifact =
        service.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
    if (!artifact.ok()) {
      std::printf("!! %s: %s\n", app.name.c_str(), artifact.status().ToString().c_str());
      continue;
    }
    std::printf("%-26s %4zu | %10s %10s %10s %10s | %10s\n", app.name.c_str(),
                app.functions.size(), FormatDuration(artifact->compile_time).c_str(),
                FormatDuration(artifact->link_time).c_str(),
                FormatDuration(artifact->merge_time).c_str(),
                FormatDuration(artifact->codegen_time).c_str(),
                FormatDuration(artifact->TotalPipelineTime()).c_str());
  }
  std::printf(
      "\nShape check: compile/link dominated by (shared) dependency builds; merge time\n"
      "scales linearly with function count; everything is minutes-scale, background work.\n");

  // --- Part 2: cached re-merge across a controller lifecycle.
  const WorkflowApp cycle_app = smoke ? ReadUserReview() : ComposeReview(true);
  PrintHeader(StrCat("Cached re-merge: register -> optimize -> reconsider -> rollback -> "
                     "re-optimize (", cycle_app.name, ")"));

  const CycleResult uncached = RunLifecycle(cycle_app, /*caches=*/false, smoke);
  const CycleResult cached = RunLifecycle(cycle_app, /*caches=*/true, smoke);
  if (!uncached.ok || !cached.ok) {
    std::printf("!! lifecycle run failed\n");
    return 1;
  }

  std::printf("%-28s %14s %14s\n", "", "cache off", "cache on");
  std::printf("%-28s %14lld %14lld\n", "fresh frontend compiles",
              static_cast<long long>(uncached.stats.frontend_compiles),
              static_cast<long long>(cached.stats.frontend_compiles));
  std::printf("%-28s %14lld %14lld\n", "merges built",
              static_cast<long long>(uncached.stats.merges_built),
              static_cast<long long>(cached.stats.merges_built));
  std::printf("%-28s %14s %14s\n", "IR cache hit rate", "--",
              StrCat(FormatDouble(100.0 * cached.stats.IrHitRate(), 1), "%").c_str());
  std::printf("%-28s %14s %14s\n", "artifact cache hit rate", "--",
              StrCat(FormatDouble(100.0 * cached.stats.ArtifactHitRate(), 1), "%").c_str());
  std::printf("%-28s %14s %14s\n", "modeled compile cost",
              FormatDuration(Seconds(uncached.stats.modeled_cost_s)).c_str(),
              FormatDuration(Seconds(cached.stats.modeled_cost_s)).c_str());
  std::printf("%-28s %14s %14s\n", "charged (incremental) cost",
              FormatDuration(Seconds(uncached.stats.charged_cost_s)).c_str(),
              FormatDuration(Seconds(cached.stats.charged_cost_s)).c_str());

  // Guard: the caches must cut fresh per-function IR compiles >= 2x across
  // the lifecycle (incremental compilation is the point of the service).
  if (cached.stats.frontend_compiles * 2 > uncached.stats.frontend_compiles) {
    std::printf("\nFAIL: caching cut fresh compiles %lld -> %lld (< 2x)\n",
                static_cast<long long>(uncached.stats.frontend_compiles),
                static_cast<long long>(cached.stats.frontend_compiles));
    return 1;
  }
  std::printf("\nOK: caching cut fresh frontend compiles %lld -> %lld (>= 2x)\n",
              static_cast<long long>(uncached.stats.frontend_compiles),
              static_cast<long long>(cached.stats.frontend_compiles));
  return 0;
}
