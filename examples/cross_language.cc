// Cross-language merging (§5.3, Appendix D): five functions in five
// languages (Rust, C, Go, Swift, C++) fused into one process.
//
// Prints the merged module so the caller2c / c2callee shim chains and the
// renamed per-language symbols are visible, and demonstrates that the merged
// function serves requests with local calls across language boundaries.
#include <cstdio>

#include "src/apps/app.h"
#include "src/core/quilt_controller.h"
#include "src/quiltc/compile_service.h"
#include "src/common/strings.h"
#include "src/workload/loadgen.h"

namespace {

quilt::WorkflowApp PolyglotWorkflow() {
  using namespace quilt;
  WorkflowApp app;
  app.name = "polyglot";
  app.root_handle = "gateway-rs";

  AppFunctionSpec root;
  root.handle = "gateway-rs";
  root.lang = Lang::kRust;
  root.steps = {ComputeStep{0.3},
                CallStep{{CallItem{"tokenize-c", 1, false}, CallItem{"rank-go", 1, false}},
                         /*parallel=*/true},
                CallStep{{CallItem{"render-swift", 1, false}}, false}};
  app.functions.push_back(root);

  AppFunctionSpec tokenize;
  tokenize.handle = "tokenize-c";
  tokenize.lang = Lang::kC;
  tokenize.steps = {ComputeStep{0.4}};
  app.functions.push_back(tokenize);

  AppFunctionSpec rank;
  rank.handle = "rank-go";
  rank.lang = Lang::kGo;
  rank.steps = {ComputeStep{0.6}, CallStep{{CallItem{"score-cpp", 1, false}}, false}};
  app.functions.push_back(rank);

  AppFunctionSpec score;
  score.handle = "score-cpp";
  score.lang = Lang::kCpp;
  score.steps = {ComputeStep{0.5}};
  app.functions.push_back(score);

  AppFunctionSpec render;
  render.handle = "render-swift";
  render.lang = Lang::kSwift;
  render.steps = {ComputeStep{0.4}, SleepStep{1.0}};
  app.functions.push_back(render);
  return app;
}

}  // namespace

int main() {
  using namespace quilt;

  const WorkflowApp app = PolyglotWorkflow();
  Result<CallGraph> graph = app.ReferenceGraph();
  if (!graph.ok()) {
    std::printf("graph error: %s\n", graph.status().ToString().c_str());
    return 1;
  }

  std::printf("== merging %zu functions across 5 languages ==\n", app.functions.size());
  // One-shot compile: caches off, every call builds from scratch.
  CompileServiceOptions uncached;
  uncached.ir_cache = false;
  uncached.artifact_cache = false;
  CompileService compiler(uncached);
  Result<MergedArtifact> artifact =
      compiler.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
  if (!artifact.ok()) {
    std::printf("merge failed: %s\n", artifact.status().ToString().c_str());
    return 1;
  }

  std::printf("\n== merged module (note the shim chains and mangled symbols) ==\n%s\n",
              artifact->module.DebugString().c_str());
  int cross = 0;
  for (const LocalizedEdge& edge : artifact->localized_edges) {
    std::printf("localized %-12s -> %-13s %s\n", edge.caller_handle.c_str(),
                edge.callee_handle.c_str(),
                edge.cross_language ? "[cross-language via caller2c/c2callee]" : "");
    cross += edge.cross_language ? 1 : 0;
  }
  std::printf("%d of %zu localized edges cross a language boundary\n", cross,
              artifact->localized_edges.size());
  std::printf("merged binary: %s\n", FormatBytes(artifact->image.size_bytes).c_str());

  // Deploy and serve requests to show the merged polyglot process works.
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  QuiltController controller(&sim, &platform);
  if (Status s = controller.RegisterWorkflow(app); !s.ok()) {
    std::printf("register failed: %s\n", s.ToString().c_str());
    return 1;
  }
  if (Status s = controller.DeploySolutionDirect(app, FullMergeSolution(*graph)); !s.ok()) {
    std::printf("deploy failed: %s\n", s.ToString().c_str());
    return 1;
  }
  ClosedLoopGenerator generator;
  ClosedLoopGenerator::Options options;
  options.warmup = Seconds(1);
  options.duration = Seconds(10);
  const LoadResult result = generator.Run(&sim, &platform, "gateway-rs", options);
  std::printf("\nserved %lld requests, median latency %s, 0 remote hops inside the workflow\n",
              static_cast<long long>(result.completed),
              FormatDuration(result.latency.Median()).c_str());
  return result.completed > 0 ? 0 : 1;
}
