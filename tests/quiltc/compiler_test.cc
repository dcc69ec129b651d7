#include "src/quiltc/compile_service.h"

#include <gtest/gtest.h>

#include "src/frontend/frontend.h"

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

// Movie-review-style workflow (Figure 3 shape): root fans out to three
// uploaders that all call compose-and-upload.
struct Workflow {
  CallGraph graph;
  std::map<std::string, SourceFunction> sources;
};

Workflow MovieReview(Lang lang = Lang::kRust) {
  Workflow w;
  auto add = [&](const std::string& handle, std::vector<InvocationSite> sites,
                 double cpu = 0.1, double mem = 20) {
    w.graph.AddNode(handle, cpu, mem);
    SourceFunction fn;
    fn.handle = handle;
    fn.lang = lang;
    fn.invocations = std::move(sites);
    w.sources[handle] = fn;
  };
  add("compose-review", {InvocationSite{"upload-user-id", true, false},
                         InvocationSite{"upload-rating", true, false},
                         InvocationSite{"upload-text", true, false}});
  add("upload-user-id", {InvocationSite{"compose-and-upload", false, false}});
  add("upload-rating", {InvocationSite{"compose-and-upload", false, false}});
  add("upload-text", {InvocationSite{"compose-and-upload", false, false}});
  add("compose-and-upload", {});
  auto edge = [&](const std::string& a, const std::string& b, CallType type) {
    EXPECT_TRUE(w.graph
                    .AddEdgeWithAlpha(w.graph.FindNode(a), w.graph.FindNode(b), 100, 1, type)
                    .ok());
  };
  edge("compose-review", "upload-user-id", CallType::kAsync);
  edge("compose-review", "upload-rating", CallType::kAsync);
  edge("compose-review", "upload-text", CallType::kAsync);
  edge("upload-user-id", "compose-and-upload", CallType::kSync);
  edge("upload-rating", "compose-and-upload", CallType::kSync);
  edge("upload-text", "compose-and-upload", CallType::kSync);
  return w;
}

TEST(QuiltCompilerTest, BuildSingleFunctionBaseline) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  Result<MergedArtifact> artifact = compiler.BuildSingleFunction(w.sources["upload-text"]);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_TRUE(artifact->IsSingleFunction());
  EXPECT_GT(artifact->image.size_bytes, 1000 * 1024);
  EXPECT_GT(artifact->compile_time, Seconds(10));  // Rust deps dominate.
}

TEST(QuiltCompilerTest, MergesFullWorkflow) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->handle, "compose-review");
  EXPECT_EQ(artifact->member_handles.size(), 5u);
  EXPECT_EQ(artifact->member_handles[0], "compose-review");
  EXPECT_TRUE(artifact->module.Verify().ok());
  // All 6 edges localized.
  EXPECT_EQ(artifact->localized_edges.size(), 6u);
  for (const LocalizedEdge& edge : artifact->localized_edges) {
    EXPECT_EQ(edge.budget, 1);
    EXPECT_FALSE(edge.cross_language);
  }
  // No invoke opcodes survive inside the module.
  for (const std::string& symbol : artifact->module.function_order()) {
    for (const CallInst& call : artifact->module.GetFunction(symbol)->calls) {
      EXPECT_NE(call.opcode, CallOpcode::kSyncInvoke) << symbol;
      EXPECT_NE(call.opcode, CallOpcode::kAsyncInvoke) << symbol;
    }
  }
}

TEST(QuiltCompilerTest, MergedBinarySmallerThanSumOfParts) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  int64_t sum = 0;
  for (const auto& [handle, source] : w.sources) {
    Result<MergedArtifact> single = compiler.BuildSingleFunction(source);
    ASSERT_TRUE(single.ok());
    sum += single->image.size_bytes;
  }
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> merged = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(merged.ok());
  EXPECT_LT(merged->image.size_bytes, sum);
  // But larger than any single function (it contains all the user code).
  EXPECT_GT(merged->image.size_bytes, sum / 5);
}

TEST(QuiltCompilerTest, SharedCalleeIntroducedOnce) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok());
  // compose-and-upload handler appears exactly once.
  int count = 0;
  for (const std::string& symbol : artifact->module.function_order()) {
    if (symbol.find("compose_and_upload") != std::string::npos &&
        symbol.find("handler") != std::string::npos) {
      ++count;
    }
  }
  EXPECT_EQ(count, 1);
  EXPECT_EQ(artifact->member_handles.size(), 5u);
}

TEST(QuiltCompilerTest, CrossLanguageMerge) {
  Workflow w = MovieReview();
  // Mixed languages: the paper's five languages across the workflow.
  w.sources["compose-review"].lang = Lang::kRust;
  w.sources["upload-user-id"].lang = Lang::kC;
  w.sources["upload-rating"].lang = Lang::kGo;
  w.sources["upload-text"].lang = Lang::kSwift;
  w.sources["compose-and-upload"].lang = Lang::kCpp;
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_TRUE(artifact->module.Verify().ok());
  int cross = 0;
  for (const LocalizedEdge& edge : artifact->localized_edges) {
    if (edge.cross_language) {
      ++cross;
    }
  }
  EXPECT_EQ(cross, 6);  // Every edge crosses a language boundary here.
  // Shims for compose-and-upload exist for multiple caller languages.
  EXPECT_TRUE(artifact->module.HasFunction("c2callee_compose_and_upload"));
  EXPECT_TRUE(artifact->module.HasFunction("caller2c_compose_and_upload_from_c"));
  EXPECT_TRUE(artifact->module.HasFunction("caller2c_compose_and_upload_from_go"));
  EXPECT_TRUE(artifact->module.HasFunction("caller2c_compose_and_upload_from_swift"));
}

TEST(QuiltCompilerTest, RespectsMergeOptOut) {
  Workflow w = MovieReview();
  w.sources["upload-text"].mergeable = false;
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  EXPECT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QuiltCompilerTest, PartialGroupKeepsRemoteEdges) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  // Merge only the root and upload-user-id: other invokes stay remote.
  MergeGroup group;
  group.root = w.graph.FindNode("compose-review");
  group.members = {group.root, w.graph.FindNode("upload-user-id")};
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, group, w.sources);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  EXPECT_EQ(artifact->localized_edges.size(), 1u);
  // upload-user-id's call to compose-and-upload survives as a remote invoke.
  bool remote_found = false;
  for (const std::string& symbol : artifact->module.function_order()) {
    for (const CallInst& call : artifact->module.GetFunction(symbol)->calls) {
      if (call.opcode == CallOpcode::kSyncInvoke &&
          call.target_handle == "compose-and-upload") {
        remote_found = true;
      }
    }
  }
  EXPECT_TRUE(remote_found);
}

TEST(QuiltCompilerTest, DisconnectedGroupRejected) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  MergeGroup group;
  group.root = w.graph.FindNode("compose-review");
  // compose-and-upload unreachable without an uploader in the group.
  group.members = {group.root, w.graph.FindNode("compose-and-upload")};
  EXPECT_FALSE(compiler.MergeGroup(w.graph, group, w.sources).ok());
}

TEST(QuiltCompilerTest, MissingSourceRejected) {
  Workflow w = MovieReview();
  w.sources.erase("upload-text");
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  EXPECT_EQ(compiler.MergeGroup(w.graph, full.groups[0], w.sources).status().code(),
            StatusCode::kNotFound);
}

TEST(QuiltCompilerTest, MergeSolutionProducesArtifactPerGroup) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  MergeSolution solution;
  solution.groups.push_back(
      MergeGroup{w.graph.FindNode("compose-review"),
                 {w.graph.FindNode("compose-review"), w.graph.FindNode("upload-user-id"),
                  w.graph.FindNode("upload-rating"), w.graph.FindNode("upload-text")}});
  solution.groups.push_back(MergeGroup{w.graph.FindNode("compose-and-upload"),
                                       {w.graph.FindNode("compose-and-upload")}});
  Result<std::vector<MergedArtifact>> artifacts =
      compiler.MergeSolution(w.graph, solution, w.sources);
  ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
  ASSERT_EQ(artifacts->size(), 2u);
  EXPECT_EQ((*artifacts)[0].member_handles.size(), 4u);
  EXPECT_TRUE((*artifacts)[1].IsSingleFunction());
}

TEST(QuiltCompilerTest, DelayHttpMakesCurlLazyInMergedImage) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> merged = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(merged.ok());
  EXPECT_GT(merged->image.lazy_libs, 0);  // libcurl + transitive closure.

  Result<MergedArtifact> baseline =
      compiler.BuildSingleFunction(w.sources["compose-review"]);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->image.lazy_libs, 0);
  EXPECT_LT(merged->image.eager_libs, baseline->image.eager_libs);
}

TEST(QuiltCompilerTest, MergeTimeScalesWithFunctions) {
  Workflow w = MovieReview();
  CompileService compiler(Uncached());
  MergeGroup two;
  two.root = w.graph.FindNode("compose-review");
  two.members = {two.root, w.graph.FindNode("upload-user-id")};
  Result<MergedArtifact> small = compiler.MergeGroup(w.graph, two, w.sources);
  ASSERT_TRUE(small.ok());
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> large = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(large.ok());
  EXPECT_GT(large->merge_time, small->merge_time);
  // Compile time is dominated by the (shared) dependency build: same
  // language everywhere, so the gap is small relative to the total.
  EXPECT_GT(large->compile_time, small->compile_time);
}

TEST(QuiltCompilerTest, ConditionalInvocationsCanBeDisabled) {
  Workflow w = MovieReview();
  QuiltcOptions options;
  options.conditional_invocations = false;
  CompileService compiler(Uncached(options));
  const MergeSolution full = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = compiler.MergeGroup(w.graph, full.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok());
  for (const LocalizedEdge& edge : artifact->localized_edges) {
    EXPECT_EQ(edge.budget, 0);
  }
}

}  // namespace
}  // namespace quilt
