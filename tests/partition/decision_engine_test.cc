#include "src/partition/decision_engine.h"

#include <gtest/gtest.h>

#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"

namespace quilt {
namespace {

CallGraph GraphOfSize(int n, uint64_t seed = 11) {
  Rng rng(seed);
  RandomDagOptions options;
  options.num_nodes = n;
  return GenerateRandomRdag(options, rng);
}

MergeProblem ProblemFor(const CallGraph& g, double mem_fraction = 0.4) {
  double total_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_mem += g.node(id).memory;
  }
  return MergeProblem{&g, 100.0, total_mem * mem_fraction};
}

TEST(DecisionEngineTest, AutoPolicyPicksSolverBySize) {
  DecisionEngine engine;
  EXPECT_EQ(engine.Resolve(5), SolverChoice::kOptimal);
  EXPECT_EQ(engine.Resolve(11), SolverChoice::kOptimal);
  EXPECT_EQ(engine.Resolve(12), SolverChoice::kHeuristic);
  EXPECT_EQ(engine.Resolve(25), SolverChoice::kHeuristic);
  EXPECT_EQ(engine.Resolve(26), SolverChoice::kGrasp);
  EXPECT_EQ(engine.Resolve(400), SolverChoice::kGrasp);
}

TEST(DecisionEngineTest, RecordsNameTheSolverThatRan) {
  struct Case {
    int nodes;
    const char* solver;
  };
  for (const Case& c : {Case{8, "optimal"}, Case{18, "dih-sweep"}, Case{40, "grasp"}}) {
    DecisionEngine engine;
    CallGraph g = GraphOfSize(c.nodes);
    MergeProblem problem = ProblemFor(g);
    DecisionRecord record;
    Result<MergeSolution> solution = engine.Decide(problem, &record);
    ASSERT_TRUE(solution.ok()) << c.nodes << " nodes: " << solution.status().ToString();
    EXPECT_EQ(record.solver, c.solver) << c.nodes << " nodes";
    EXPECT_TRUE(record.feasible);
    EXPECT_EQ(record.graph_nodes, c.nodes);
    EXPECT_DOUBLE_EQ(record.final_cost, solution->cross_cost);
    EXPECT_GT(record.ilp_solves, 0);
  }
}

TEST(DecisionEngineTest, ExplicitChoiceOverridesSize) {
  DecisionEngineOptions options;
  options.solver = SolverChoice::kGrasp;
  DecisionEngine engine(options);
  CallGraph g = GraphOfSize(8);  // Would resolve to kOptimal under kAuto.
  MergeProblem problem = ProblemFor(g, 0.6);
  DecisionRecord record;
  Result<MergeSolution> solution = engine.Decide(problem, &record);
  ASSERT_TRUE(solution.ok()) << solution.status().ToString();
  EXPECT_EQ(record.solver, "grasp");
  EXPECT_EQ(record.grasp_starts, kGraspStarts);
}

TEST(DecisionEngineTest, MultiStartGraspIsBitIdenticalAcrossThreadCounts) {
  // The tentpole determinism contract: same seed => byte-identical grouping,
  // whether the starts run inline or on 2 or 8 threads, with the shared ILP
  // cache on, and stable across repetitions.
  CallGraph g = GraphOfSize(40, 21);
  MergeProblem problem = ProblemFor(g);

  std::string reference_signature;
  double reference_cost = 0.0;
  for (int threads : {1, 2, 8}) {
    for (int repeat = 0; repeat < 2; ++repeat) {
      DecisionEngineOptions options;
      options.solver = SolverChoice::kGrasp;
      options.grasp_threads = threads;
      options.seed = 99;
      DecisionEngine engine(options);
      DecisionRecord record;
      Result<MergeSolution> solution = engine.Decide(problem, &record);
      ASSERT_TRUE(solution.ok())
          << threads << " threads: " << solution.status().ToString();
      const std::string signature = CanonicalSolutionSignature(*solution);
      if (reference_signature.empty()) {
        reference_signature = signature;
        reference_cost = solution->cross_cost;
        continue;
      }
      EXPECT_EQ(signature, reference_signature) << threads << " threads, run " << repeat;
      EXPECT_DOUBLE_EQ(solution->cross_cost, reference_cost);
    }
  }
}

TEST(DecisionEngineTest, DifferentSeedsMayDifferButStayValid) {
  CallGraph g = GraphOfSize(40, 21);
  MergeProblem problem = ProblemFor(g);
  for (uint64_t seed : {1u, 2u, 3u}) {
    DecisionEngineOptions options;
    options.solver = SolverChoice::kGrasp;
    options.seed = seed;
    DecisionEngine engine(options);
    DecisionRecord record;
    Result<MergeSolution> solution = engine.Decide(problem, &record);
    ASSERT_TRUE(solution.ok()) << "seed " << seed;
    EXPECT_TRUE(CheckSolution(problem, *solution).ok()) << "seed " << seed;
    EXPECT_EQ(record.seed, seed);
  }
}

TEST(DecisionEngineTest, RecurringDecisionsHalveIlpSolvesWithCache) {
  // The acceptance scenario: a >=200-node decision plus its re-decision (the
  // merge monitor re-runs Decide continuously). With the cache the second
  // pass answers every Phase-2 ILP from memory, so the fresh-solve total
  // across both passes is >=2x smaller than with the cache off.
  CallGraph g = GraphOfSize(200, 5);
  MergeProblem problem = ProblemFor(g, 0.3);

  auto fresh_solves_for_two_rounds = [&](bool enable_cache) {
    DecisionEngineOptions options;
    options.enable_cache = enable_cache;
    options.seed = 7;
    DecisionEngine engine(options);
    int64_t fresh = 0;
    for (int round = 0; round < 2; ++round) {
      DecisionRecord record;
      Result<MergeSolution> solution = engine.Decide(problem, &record);
      EXPECT_TRUE(solution.ok()) << solution.status().ToString();
      EXPECT_EQ(record.solver, "grasp");
      fresh += record.ilp_solves - record.ilp_cache_hits;
    }
    return fresh;
  };

  const int64_t with_cache = fresh_solves_for_two_rounds(true);
  const int64_t without_cache = fresh_solves_for_two_rounds(false);
  EXPECT_GT(with_cache, 0);
  EXPECT_GE(without_cache, 2 * with_cache)
      << "cache on: " << with_cache << " fresh solves; off: " << without_cache;
}

TEST(DecisionEngineTest, CacheDoesNotChangeTheAnswer) {
  CallGraph g = GraphOfSize(40, 33);
  MergeProblem problem = ProblemFor(g);
  std::string signatures[2];
  for (int i = 0; i < 2; ++i) {
    DecisionEngineOptions options;
    options.solver = SolverChoice::kGrasp;
    options.enable_cache = i == 0;
    options.seed = 4;
    DecisionEngine engine(options);
    Result<MergeSolution> solution = engine.Decide(problem);
    ASSERT_TRUE(solution.ok());
    signatures[i] = CanonicalSolutionSignature(*solution);
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

}  // namespace
}  // namespace quilt
