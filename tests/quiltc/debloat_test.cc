// Program-debloating behavior of the pipeline (§1.1, §5.2): when every
// invocation in a group is localized *unconditionally* (no fallback), the
// HTTP stack becomes dead code and is stripped together with libcurl; with
// conditional invocations it must survive (the fallback path needs it).
#include <gtest/gtest.h>

#include "src/apps/deathstarbench.h"
#include "src/quiltc/compile_service.h"

namespace quilt {
namespace {

// One-shot compilation: caches off, so every call compiles from scratch.
CompileServiceOptions Uncached(QuiltcOptions quiltc = {}) {
  CompileServiceOptions options;
  options.quiltc = quiltc;
  options.ir_cache = false;
  options.artifact_cache = false;
  return options;
}

bool HasCurl(const IrModule& module) {
  for (const SharedLibDep& lib : module.shared_libs()) {
    if (lib.name.find("curl") != std::string::npos) {
      return true;
    }
  }
  return false;
}

bool HasSyncInvGlue(const IrModule& module) {
  for (const std::string& symbol : module.function_order()) {
    if (symbol.find(".sync_inv") != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(DebloatTest, ConditionalMergeKeepsHttpStackLazily) {
  const WorkflowApp app = ReadHomeTimeline();
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  CompileService compiler(Uncached());  // Conditional invocations on by default.
  Result<MergedArtifact> artifact =
      compiler.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
  ASSERT_TRUE(artifact.ok());
  EXPECT_TRUE(HasSyncInvGlue(artifact->module));
  EXPECT_TRUE(HasCurl(artifact->module));
  // ...but lazily: DelayHTTP + Implib wrapping deferred its loading.
  EXPECT_GT(artifact->image.lazy_libs, 0);
  bool curl_lazy = false;
  for (const SharedLibDep& lib : artifact->module.shared_libs()) {
    if (lib.name.find("curl") != std::string::npos) {
      curl_lazy = lib.lazy;
    }
  }
  EXPECT_TRUE(curl_lazy);
}

TEST(DebloatTest, UnconditionalMergeStripsHttpStack) {
  const WorkflowApp app = ReadHomeTimeline();
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  QuiltcOptions options;
  options.conditional_invocations = false;
  CompileService compiler(Uncached(options));
  Result<MergedArtifact> artifact =
      compiler.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // No remote path remains anywhere: DCE removes the invoke glue...
  EXPECT_FALSE(HasSyncInvGlue(artifact->module));
  // ...and -gc-sections drops libcurl entirely.
  EXPECT_FALSE(HasCurl(artifact->module));

  // The debloated binary is smaller than the conditional one.
  CompileService conditional(Uncached());
  Result<MergedArtifact> with_fallback =
      conditional.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
  ASSERT_TRUE(with_fallback.ok());
  EXPECT_LT(artifact->image.size_bytes, with_fallback->image.size_bytes);
}

TEST(DebloatTest, PartialMergeKeepsHttpForCutEdges) {
  // Even with conditional invocations off, a partial merge that leaves a cut
  // edge must keep the remote machinery for it.
  const WorkflowApp app = ComposePost(false);
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  QuiltcOptions options;
  options.conditional_invocations = false;
  CompileService compiler(Uncached(options));
  MergeGroup group;
  group.root = graph->FindNode("compose-post");
  group.members = {group.root, graph->FindNode("unique-id")};
  Result<MergedArtifact> artifact = compiler.MergeGroup(*graph, group, app.Sources());
  ASSERT_TRUE(artifact.ok());
  EXPECT_TRUE(HasSyncInvGlue(artifact->module));
  EXPECT_TRUE(HasCurl(artifact->module));
}

TEST(DebloatTest, DcePassReportsRemovedBytes) {
  const WorkflowApp app = PageService(false);
  Result<CallGraph> graph = app.ReferenceGraph();
  ASSERT_TRUE(graph.ok());
  QuiltcOptions options;
  options.conditional_invocations = false;
  CompileService compiler(Uncached(options));
  Result<MergedArtifact> artifact =
      compiler.MergeGroup(*graph, FullMergeSolution(*graph).groups[0], app.Sources());
  ASSERT_TRUE(artifact.ok());
  int64_t removed_bytes = 0;
  for (const PassStats& pass : artifact->pass_stats) {
    if (pass.pass_name == "DCE") {
      removed_bytes += pass.counter("bytes_removed");
    }
  }
  EXPECT_GT(removed_bytes, 0);
}

}  // namespace
}  // namespace quilt
