#include "src/quiltc/compile_service.h"

#include <gtest/gtest.h>

#include <atomic>

#include "src/common/strings.h"
#include "src/frontend/frontend.h"

namespace quilt {
namespace {

// Movie-review-style workflow (Figure 3 shape): root fans out to three
// uploaders that all call compose-and-upload.
struct Workflow {
  CallGraph graph;
  std::map<std::string, SourceFunction> sources;
};

Workflow MovieReview(Lang lang = Lang::kRust, int upload_alpha = 1) {
  Workflow w;
  auto add = [&](const std::string& handle, std::vector<InvocationSite> sites) {
    w.graph.AddNode(handle, 0.1, 20);
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
  auto edge = [&](const std::string& a, const std::string& b, CallType type, int alpha = 1) {
    EXPECT_TRUE(w.graph
                    .AddEdgeWithAlpha(w.graph.FindNode(a), w.graph.FindNode(b), 100, alpha, type)
                    .ok());
  };
  edge("compose-review", "upload-user-id", CallType::kAsync);
  edge("compose-review", "upload-rating", CallType::kAsync);
  edge("compose-review", "upload-text", CallType::kAsync, upload_alpha);
  edge("upload-user-id", "compose-and-upload", CallType::kSync);
  edge("upload-rating", "compose-and-upload", CallType::kSync);
  edge("upload-text", "compose-and-upload", CallType::kSync);
  return w;
}

// A two-group solution over the workflow: {root, the three uploaders} merged,
// compose-and-upload left as a single.
MergeSolution TwoGroupSolution(const CallGraph& graph) {
  MergeSolution solution;
  MergeGroup merged;
  merged.root = graph.FindNode("compose-review");
  merged.members = {graph.FindNode("compose-review"), graph.FindNode("upload-user-id"),
                    graph.FindNode("upload-rating"), graph.FindNode("upload-text")};
  solution.groups.push_back(merged);
  MergeGroup single;
  single.root = graph.FindNode("compose-and-upload");
  single.members = {single.root};
  solution.groups.push_back(single);
  return solution;
}

std::string RecordLines(const std::vector<CompileRecord>& records) {
  std::string out;
  for (const CompileRecord& r : records) {
    out += CompileRecordLine(r);
    out += "\n";
  }
  return out;
}

// --- Cache equivalence -----------------------------------------------------

TEST(CompileServiceTest, CachedMergeIsByteIdenticalToFresh) {
  Workflow w = MovieReview();
  CompileService service;
  const MergeSolution solution = FullMergeSolution(w.graph);

  CompileRecord fresh_record;
  Result<MergedArtifact> fresh =
      service.MergeGroup(w.graph, solution.groups[0], w.sources, &fresh_record);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  CompileRecord cached_record;
  Result<MergedArtifact> cached =
      service.MergeGroup(w.graph, solution.groups[0], w.sources, &cached_record);
  ASSERT_TRUE(cached.ok()) << cached.status().ToString();

  EXPECT_EQ(ArtifactSignature(*fresh), ArtifactSignature(*cached));
  EXPECT_EQ(CompileRecordLine(fresh_record), CompileRecordLine(cached_record));

  const CompileServiceStats stats = service.stats();
  EXPECT_EQ(stats.merges_built, 1);
  EXPECT_EQ(stats.artifact_hits, 1);
  EXPECT_EQ(stats.artifact_lookups, 2);
  // The cache hit was charged as incremental (~0) cost.
  EXPECT_GT(stats.modeled_cost_s, stats.charged_cost_s);
}

TEST(CompileServiceTest, CacheOnAndOffProduceIdenticalArtifactsAndRecords) {
  Workflow w = MovieReview();
  CompileServiceOptions cached_opts;
  CompileServiceOptions uncached_opts;
  uncached_opts.ir_cache = false;
  uncached_opts.artifact_cache = false;
  CompileService with_cache(cached_opts);
  CompileService without_cache(uncached_opts);

  const MergeSolution solution = TwoGroupSolution(w.graph);
  for (int round = 0; round < 2; ++round) {
    std::vector<CompileRecord> cached_records;
    std::vector<CompileRecord> uncached_records;
    Result<std::vector<MergedArtifact>> a =
        with_cache.MergeSolution(w.graph, solution, w.sources, &cached_records);
    Result<std::vector<MergedArtifact>> b =
        without_cache.MergeSolution(w.graph, solution, w.sources, &uncached_records);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ(ArtifactSignature((*a)[i]), ArtifactSignature((*b)[i])) << "round " << round;
    }
    EXPECT_EQ(RecordLines(cached_records), RecordLines(uncached_records)) << "round " << round;
  }
  // The cached service did real work once; the uncached one every time.
  EXPECT_LT(with_cache.stats().frontend_compiles, without_cache.stats().frontend_compiles);
}

TEST(CompileServiceTest, SinglesHitTheArtifactCache) {
  Workflow w = MovieReview();
  CompileService service;
  Result<MergedArtifact> first = service.BuildSingleFunction(w.sources["upload-text"]);
  ASSERT_TRUE(first.ok());
  Result<MergedArtifact> second = service.BuildSingleFunction(w.sources["upload-text"]);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(ArtifactSignature(*first), ArtifactSignature(*second));
  EXPECT_EQ(service.stats().artifact_hits, 1);
  EXPECT_EQ(service.stats().singles_built, 1);
}

TEST(CompileServiceTest, IrCacheEvictsAtCapacity) {
  // The IR cache holds 512 modules: one more distinct source evicts the
  // least recently used one.
  constexpr int kIrCacheCapacity = 512;
  CompileServiceOptions options;
  options.artifact_cache = false;
  CompileService service(options);
  SourceFunction source = MovieReview().sources["upload-text"];
  for (int i = 0; i <= kIrCacheCapacity; ++i) {
    source.handle = StrCat("fn-", i);
    ASSERT_TRUE(service.BuildSingleFunction(source).ok()) << source.handle;
  }
  CompileServiceStats stats = service.stats();
  EXPECT_EQ(stats.ir_insertions, kIrCacheCapacity + 1);
  EXPECT_EQ(stats.ir_evictions, 1);

  // The newest module is still cached; the oldest one needs the frontend.
  ASSERT_TRUE(service.BuildSingleFunction(source).ok());
  source.handle = "fn-0";
  ASSERT_TRUE(service.BuildSingleFunction(source).ok());
  stats = service.stats();
  EXPECT_EQ(stats.ir_hits, 1);
  EXPECT_EQ(stats.frontend_compiles, kIrCacheCapacity + 2);
}

// --- Pass pipeline ---------------------------------------------------------

std::vector<std::string> PassNames(const MergedArtifact& artifact) {
  std::vector<std::string> names;
  for (const PassStats& stats : artifact.pass_stats) {
    names.push_back(stats.pass_name);
  }
  return names;
}

TEST(CompileServiceTest, PassStatsFollowThePipelineOrder) {
  // Each BFS round renames the callee module and localizes its invokes; the
  // post-merge passes run once, after the last round.
  Workflow w = MovieReview();
  CompileService service;
  const MergeSolution solution = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = service.MergeGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  std::vector<std::string> expected;
  for (int round = 0; round < 4; ++round) {
    expected.insert(expected.end(), {"RenameFunc", "MergeFunc"});
  }
  expected.insert(expected.end(), {"DelayHTTP", "DCE", "ImplibWrap"});
  EXPECT_EQ(PassNames(*artifact), expected);
  for (const PassStats& stats : artifact->pass_stats) {
    EXPECT_GE(stats.wall_ms, 0.0) << stats.pass_name;
  }
}

TEST(CompileServiceTest, QuiltcOptionsSelectThePostMergePasses) {
  struct Case {
    bool delay_http;
    bool dce;
    bool implib_wrap;
    std::vector<std::string> post_merge;
  };
  const std::vector<Case> cases = {
      {true, true, true, {"DelayHTTP", "DCE", "ImplibWrap"}},
      {false, true, true, {"DCE", "ImplibWrap"}},
      {true, false, true, {"DelayHTTP", "ImplibWrap"}},
      {true, true, false, {"DelayHTTP", "DCE"}},
      {false, false, false, {}},
  };
  Workflow w = MovieReview();
  MergeGroup pair;
  pair.root = w.graph.FindNode("compose-review");
  pair.members = {pair.root, w.graph.FindNode("upload-text")};
  for (const Case& c : cases) {
    CompileServiceOptions options;
    options.quiltc.delay_http = c.delay_http;
    options.quiltc.dce = c.dce;
    options.quiltc.implib_wrap = c.implib_wrap;
    CompileService service(options);
    Result<MergedArtifact> artifact = service.MergeGroup(w.graph, pair, w.sources);
    ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
    std::vector<std::string> expected = {"RenameFunc", "MergeFunc"};
    expected.insert(expected.end(), c.post_merge.begin(), c.post_merge.end());
    EXPECT_EQ(PassNames(*artifact), expected)
        << "delay_http=" << c.delay_http << " dce=" << c.dce << " implib_wrap=" << c.implib_wrap;
  }
}

TEST(CompileServiceTest, PassErrorIsPrefixedWithThePassName) {
  // Empty modules pass verification, but MergeFunc finds no callee handler
  // to localize.
  Workflow w = MovieReview();
  CompileServiceOptions options;
  options.frontend = [](const SourceFunction& source) -> Result<IrModule> {
    return IrModule(source.handle);
  };
  CompileService service(options);
  const MergeSolution solution = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = service.MergeGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_FALSE(artifact.ok());
  EXPECT_EQ(artifact.status().message().rfind("pass 'MergeFunc': ", 0), 0u)
      << artifact.status().ToString();
}

// --- Fingerprints ----------------------------------------------------------

TEST(CompileServiceTest, FingerprintTracksEveryCompilationInput) {
  Workflow w = MovieReview();
  CompileService service;
  const MergeSolution solution = FullMergeSolution(w.graph);
  Result<uint64_t> base = service.FingerprintGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_TRUE(base.ok());
  Result<uint64_t> again = service.FingerprintGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*base, *again);  // Deterministic.

  // Source bytes changed -> new fingerprint.
  Workflow edited = MovieReview();
  edited.sources["upload-text"].user_code_bytes += 1024;
  Result<uint64_t> edited_fp =
      service.FingerprintGroup(edited.graph, solution.groups[0], edited.sources);
  ASSERT_TRUE(edited_fp.ok());
  EXPECT_NE(*base, *edited_fp);

  // In-group alpha budget changed -> new fingerprint.
  Workflow realpha = MovieReview(Lang::kRust, /*upload_alpha=*/7);
  Result<uint64_t> alpha_fp =
      service.FingerprintGroup(realpha.graph, solution.groups[0], realpha.sources);
  ASSERT_TRUE(alpha_fp.ok());
  EXPECT_NE(*base, *alpha_fp);

  // Different QuiltcOptions -> new fingerprint.
  CompileServiceOptions no_dce;
  no_dce.quiltc.dce = false;
  CompileService other(no_dce);
  Result<uint64_t> options_fp = other.FingerprintGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_TRUE(options_fp.ok());
  EXPECT_NE(*base, *options_fp);
}

TEST(CompileServiceTest, SourceFingerprintSeparatesFunctions) {
  Workflow w = MovieReview();
  EXPECT_NE(CompileService::FingerprintSource(w.sources["upload-text"]),
            CompileService::FingerprintSource(w.sources["upload-rating"]));
  SourceFunction copy = w.sources["upload-text"];
  EXPECT_EQ(CompileService::FingerprintSource(copy),
            CompileService::FingerprintSource(w.sources["upload-text"]));
  copy.num_dependencies += 1;
  EXPECT_NE(CompileService::FingerprintSource(copy),
            CompileService::FingerprintSource(w.sources["upload-text"]));
}

// --- Thread determinism ----------------------------------------------------

TEST(CompileServiceTest, MergeSolutionIsByteIdenticalAcrossThreadCounts) {
  Workflow w = MovieReview();
  const MergeSolution solution = TwoGroupSolution(w.graph);

  std::vector<std::string> signatures;
  std::vector<std::string> record_lines;
  std::vector<CompileServiceStats> stats;
  for (int threads : {1, 2, 8}) {
    CompileServiceOptions options;
    options.compile_threads = threads;
    CompileService service(options);
    // Two rounds: the second exercises the cache paths under parallelism.
    for (int round = 0; round < 2; ++round) {
      std::vector<CompileRecord> records;
      Result<std::vector<MergedArtifact>> artifacts =
          service.MergeSolution(w.graph, solution, w.sources, &records);
      ASSERT_TRUE(artifacts.ok()) << artifacts.status().ToString();
      if (threads == 1) {
        std::string sig;
        for (const MergedArtifact& a : *artifacts) {
          sig += ArtifactSignature(a);
          sig += "\n---\n";
        }
        signatures.push_back(sig);
        record_lines.push_back(RecordLines(records));
      } else {
        std::string sig;
        for (const MergedArtifact& a : *artifacts) {
          sig += ArtifactSignature(a);
          sig += "\n---\n";
        }
        EXPECT_EQ(sig, signatures[round]) << "threads=" << threads << " round=" << round;
        EXPECT_EQ(RecordLines(records), record_lines[round])
            << "threads=" << threads << " round=" << round;
      }
    }
    stats.push_back(service.stats());
  }
  // Even the cache statistics are thread-invariant: all cache mutation is
  // sequential.
  for (size_t i = 1; i < stats.size(); ++i) {
    EXPECT_EQ(stats[i].frontend_compiles, stats[0].frontend_compiles);
    EXPECT_EQ(stats[i].ir_hits, stats[0].ir_hits);
    EXPECT_EQ(stats[i].ir_insertions, stats[0].ir_insertions);
    EXPECT_EQ(stats[i].artifact_hits, stats[0].artifact_hits);
    EXPECT_EQ(stats[i].artifact_insertions, stats[0].artifact_insertions);
    EXPECT_DOUBLE_EQ(stats[i].charged_cost_s, stats[0].charged_cost_s);
  }
}

// --- Frontend verification (baseline path) ---------------------------------

TEST(CompileServiceTest, CorruptedFrontendModuleIsRejectedOnTheBaselinePath) {
  Workflow w = MovieReview();
  CompileServiceOptions options;
  options.frontend = [](const SourceFunction& source) -> Result<IrModule> {
    Result<IrModule> module = CompileToIr(source);
    if (!module.ok()) {
      return module;
    }
    // Corrupt it: a local call to a symbol that does not exist.
    IrFunction bad;
    bad.symbol = "bad";
    CallInst call;
    call.opcode = CallOpcode::kLocal;
    call.callee_symbol = "no-such-symbol";
    bad.calls.push_back(call);
    QUILT_RETURN_IF_ERROR(module->AddFunction(std::move(bad)));
    return module;
  };
  CompileService service(options);
  Result<MergedArtifact> artifact = service.BuildSingleFunction(w.sources["upload-text"]);
  ASSERT_FALSE(artifact.ok());
  EXPECT_NE(artifact.status().message().find("invalid module"), std::string::npos)
      << artifact.status().ToString();
  // The merge path rejects it too.
  const MergeSolution solution = FullMergeSolution(w.graph);
  EXPECT_FALSE(service.MergeGroup(w.graph, solution.groups[0], w.sources).ok());
}

// --- Modeled-cost accounting (regression: codegen before ImplibWrap) -------

TEST(CompileServiceTest, CodegenCostReflectsThePostPipelineModule) {
  Workflow w = MovieReview();
  CompileService service;
  const MergeSolution solution = FullMergeSolution(w.graph);
  Result<MergedArtifact> artifact = service.MergeGroup(w.graph, solution.groups[0], w.sources);
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  // llc lowers the module the LAST mutating pass produced. ImplibWrap adds
  // trampoline shims, so computing codegen cost before it under-counts.
  EXPECT_EQ(artifact->codegen_time, ModeledCodegenTime(artifact->module.TotalCodeSize()));

  Result<MergedArtifact> single = service.BuildSingleFunction(w.sources["upload-text"]);
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->codegen_time, ModeledCodegenTime(single->module.TotalCodeSize()));
}

// --- Incremental compilation across controller-style cycles ----------------

TEST(CompileServiceTest, BaselineBuildsSeedTheIrCacheForLaterMerges) {
  Workflow w = MovieReview();
  std::atomic<int> frontend_calls{0};
  CompileServiceOptions options;
  options.frontend = [&frontend_calls](const SourceFunction& source) {
    ++frontend_calls;
    return CompileToIr(source);
  };
  CompileService service(options);

  // Register-style phase: every function gets a baseline single build.
  for (const auto& [handle, source] : w.sources) {
    ASSERT_TRUE(service.BuildSingleFunction(source).ok()) << handle;
  }
  EXPECT_EQ(frontend_calls.load(), static_cast<int>(w.sources.size()));

  // Deploy-style phase: the merge reuses every member's cached IR.
  const MergeSolution solution = FullMergeSolution(w.graph);
  ASSERT_TRUE(service.MergeSolution(w.graph, solution, w.sources).ok());
  EXPECT_EQ(frontend_calls.load(), static_cast<int>(w.sources.size()));

  // Rollback + redeploy-style phase: the artifact cache answers outright.
  const int64_t merges_before = service.stats().merges_built;
  ASSERT_TRUE(service.MergeSolution(w.graph, solution, w.sources).ok());
  EXPECT_EQ(service.stats().merges_built, merges_before);
  EXPECT_EQ(frontend_calls.load(), static_cast<int>(w.sources.size()));
}

}  // namespace
}  // namespace quilt
