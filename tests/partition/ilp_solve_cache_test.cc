#include "src/partition/ilp_solve_cache.h"

#include <gtest/gtest.h>

#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/merge_solver.h"

namespace quilt {
namespace {

TEST(IlpSolveCacheTest, KeyCanonicalizesRootOrder) {
  EXPECT_EQ(IlpSolveCache::Key(42, {3, 1, 2}, 0.05, 1000),
            IlpSolveCache::Key(42, {1, 2, 3}, 0.05, 1000));
  // Anything that shapes the result must separate keys.
  EXPECT_NE(IlpSolveCache::Key(42, {1, 2}, 0.05, 1000),
            IlpSolveCache::Key(42, {1, 3}, 0.05, 1000));
  EXPECT_NE(IlpSolveCache::Key(42, {1, 2}, 0.0, 1000),
            IlpSolveCache::Key(42, {1, 2}, 0.05, 1000));
  EXPECT_NE(IlpSolveCache::Key(41, {1, 2}, 0.05, 1000),
            IlpSolveCache::Key(42, {1, 2}, 0.05, 1000));
}

TEST(IlpSolveCacheTest, FingerprintSeparatesProblems) {
  Rng rng(3);
  RandomDagOptions options;
  options.num_nodes = 10;
  CallGraph g1 = GenerateRandomRdag(options, rng);
  CallGraph g2 = GenerateRandomRdag(options, rng);
  MergeProblem p1{&g1, 2.0, 128.0};
  MergeProblem p1_again{&g1, 2.0, 128.0};
  MergeProblem p2{&g2, 2.0, 128.0};
  MergeProblem p1_other_limits{&g1, 2.0, 256.0};
  EXPECT_EQ(FingerprintProblem(p1), FingerprintProblem(p1_again));
  EXPECT_NE(FingerprintProblem(p1), FingerprintProblem(p2));
  EXPECT_NE(FingerprintProblem(p1), FingerprintProblem(p1_other_limits));
}

TEST(IlpSolveCacheTest, CachedSolveMatchesFreshSolve) {
  // Every root set a DIH-style sweep would try: the memoized answer must be
  // byte-equal to the direct SolveForRoots answer (same cost, same grouping).
  Rng rng(17);
  RandomDagOptions options;
  options.num_nodes = 9;
  CallGraph g = GenerateRandomRdag(options, rng);
  double total_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_mem += g.node(id).memory;
  }
  MergeProblem problem{&g, 100.0, total_mem * 0.5};
  const uint64_t fingerprint = FingerprintProblem(problem);
  const NodeId root = g.root();

  IlpSolveCache cache(256);
  IlpSolveOptions ilp_options;
  for (int pass = 0; pass < 2; ++pass) {  // Second pass: all answers cached.
    for (NodeId extra = 0; extra < g.num_nodes(); ++extra) {
      if (extra == root) {
        continue;
      }
      std::vector<NodeId> roots = {root, extra};
      SolverStats stats;
      Result<MergeSolution> cached =
          SolveForRootsCached(problem, fingerprint, roots, ilp_options, &cache, &stats);
      Result<MergeSolution> fresh = SolveForRoots(problem, roots, ilp_options);
      ASSERT_EQ(cached.ok(), fresh.ok()) << "extra root " << extra;
      if (!cached.ok()) {
        continue;
      }
      EXPECT_DOUBLE_EQ(cached->cross_cost, fresh->cross_cost);
      EXPECT_EQ(CanonicalSolutionSignature(*cached), CanonicalSolutionSignature(*fresh));
    }
  }
  const IlpSolveCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0);  // The whole second pass hits.
  EXPECT_GE(stats.hits, stats.insertions);
}

TEST(IlpSolveCacheTest, CutoffIsAppliedToTheMemoizedResult) {
  // A cached feasible solution above the caller's cutoff must come back as
  // infeasible-for-this-cutoff, exactly like a fresh cutoff-pruned solve.
  CallGraph g;
  const NodeId a = g.AddNode("A", 0.1, 60);
  const NodeId b = g.AddNode("B", 0.1, 60);
  const NodeId c = g.AddNode("C", 0.1, 60);
  ASSERT_TRUE(g.AddEdgeWithAlpha(a, b, 10, 1, CallType::kSync).ok());
  ASSERT_TRUE(g.AddEdgeWithAlpha(b, c, 99, 1, CallType::kSync).ok());
  MergeProblem problem{&g, 2.0, 130.0};
  const uint64_t fingerprint = FingerprintProblem(problem);

  IlpSolveCache cache(16);
  SolverStats stats;
  IlpSolveOptions no_cutoff;
  std::vector<NodeId> roots = {a, b};  // Cuts A->B: cost 10.
  Result<MergeSolution> first =
      SolveForRootsCached(problem, fingerprint, roots, no_cutoff, &cache, &stats);
  ASSERT_TRUE(first.ok());
  EXPECT_DOUBLE_EQ(first->cross_cost, 10.0);

  IlpSolveOptions tight;
  tight.cutoff = 5.0;  // Strictly better than 5 required: 10 fails.
  Result<MergeSolution> filtered =
      SolveForRootsCached(problem, fingerprint, roots, tight, &cache, &stats);
  EXPECT_FALSE(filtered.ok());
  IlpSolveOptions loose;
  loose.cutoff = 50.0;
  Result<MergeSolution> passed =
      SolveForRootsCached(problem, fingerprint, roots, loose, &cache, &stats);
  ASSERT_TRUE(passed.ok());
  EXPECT_DOUBLE_EQ(passed->cross_cost, 10.0);
  // All three queries resolved to one underlying solve.
  EXPECT_EQ(stats.ilp_solves, 3);
  EXPECT_EQ(stats.ilp_cache_hits, 2);
}

TEST(IlpSolveCacheTest, EvictsLeastRecentlyUsedUnderCapacity) {
  IlpSolveCache cache(3);
  auto key = [](int i) { return IlpSolveCache::Key(7, {static_cast<NodeId>(i)}, 0.0, 0); };
  for (int i = 0; i < 5; ++i) {
    cache.Insert(key(i), IlpSolveCache::Entry{false, {}});
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 2);
  // Oldest two are gone, newest three remain.
  EXPECT_FALSE(cache.Lookup(key(0)).has_value());
  EXPECT_FALSE(cache.Lookup(key(1)).has_value());
  EXPECT_TRUE(cache.Lookup(key(2)).has_value());
  EXPECT_TRUE(cache.Lookup(key(4)).has_value());
  // Touch key(2), insert another: key(3) is now the LRU victim.
  EXPECT_TRUE(cache.Lookup(key(2)).has_value());
  cache.Insert(key(5), IlpSolveCache::Entry{false, {}});
  EXPECT_FALSE(cache.Lookup(key(3)).has_value());
  EXPECT_TRUE(cache.Lookup(key(2)).has_value());

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace quilt
