// Pins the work of every decision solver, not only its mean cost: on seeded
// rDAGs each solver's plans (SolutionToString), the bits of their costs and
// every SolverStats counter fold into one FNV-1a digest per solver, asserted
// as a literal. A change to a plan, a counter or a stop rule of the exact
// sweep, the DIH sweep (with each scorer) or GRASP changes a digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/graph/random_dag.h"
#include "src/partition/grasp_solver.h"
#include "src/partition/ilp_solve_cache.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace {

using Solve = std::function<Result<MergeSolution>(const MergeProblem&, const SolverOptions&,
                                                  SolverStats*)>;

std::string Hex(uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx", static_cast<unsigned long long>(digest));
  return text;
}

void Fold(uint64_t& hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash = MixWord(hash, c);
  }
}

// One decision as a line: the plan and the bits of its cost (or the error),
// then every counter. The "1,0" stands where two flags were folded before
// every decision ran to completion (sweep finished, deadline hit); they
// always read 1 and 0 here, so the digests did not change when they went.
std::string DecisionLine(const CallGraph& g, const Result<MergeSolution>& solution,
                         const SolverStats& st) {
  std::string line = solution.ok() ? StrCat(SolutionToString(g, *solution), "|",
                                            std::bit_cast<uint64_t>(solution->cross_cost))
                                   : solution.status().ToString();
  StrAppend(&line, "|", st.ilp_solves, ",", st.ilp_cache_hits, ",", st.candidate_sets_tried,
            ",", st.feasible_sets, ",1,0,", st.stage1_attempts, ",", st.final_pool_size, ",",
            st.refinement_removals, ",", st.starts, ",", st.threads);
  return line;
}

// Memory-only, CPU + memory, and a blended λ = 0.5 cost: the three shapes
// whose stop rules differ (the zero-cost exit holds only without a cost).
std::vector<MergeProblem> ShapesFor(const CallGraph& g, Rng& rng) {
  double total_cpu = 0.0;
  double total_mem = 0.0;
  double max_cpu = 0.0;
  double max_mem = 0.0;
  for (NodeId id = 0; id < g.num_nodes(); ++id) {
    total_cpu += g.node(id).cpu;
    total_mem += g.node(id).memory;
    max_cpu = std::max(max_cpu, g.node(id).cpu);
    max_mem = std::max(max_mem, g.node(id).memory);
  }
  const double cpu = std::max(total_cpu * 0.5, max_cpu * 1.5);
  const double mem = std::max(total_mem * 0.5, max_mem * 1.5);
  std::vector<MergeProblem> shapes;
  shapes.push_back(MergeProblem{&g, 1e9, mem, PlanCostModel{}});
  shapes.push_back(MergeProblem{&g, cpu, mem, PlanCostModel{}});
  PlanCostModel cost;
  cost.weight = 0.5;
  cost.scale = 1000.0;
  cost.base = rng.UniformDouble(0.0, 0.1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    cost.cut_cost.push_back(rng.UniformDouble(0.0, 0.3));
    cost.merge_cost.push_back(rng.UniformDouble(0.0, 0.3));
  }
  shapes.push_back(MergeProblem{&g, cpu, mem, std::move(cost)});
  return shapes;
}

// Every graph and shape, decided and then re-decided through one cache, so
// the digest also pins the cache-hit counters.
uint64_t DigestOf(const std::vector<CallGraph>& graphs,
                  const std::vector<std::vector<MergeProblem>>& shapes, const Solve& solve,
                  SolverOptions options) {
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < graphs.size(); ++i) {
    for (const MergeProblem& problem : shapes[i]) {
      IlpSolveCache cache;
      options.cache = &cache;
      for (int round = 0; round < 2; ++round) {
        SolverStats stats;
        const Result<MergeSolution> solution = solve(problem, options, &stats);
        Fold(hash, DecisionLine(graphs[i], solution, stats));
      }
    }
  }
  return hash;
}

TEST(DecisionPinTest, SweepAndGraspWorkIsPinned) {
  Rng rng(2027);
  std::vector<CallGraph> small;
  for (int n = 6; n <= 10; ++n) {
    RandomDagOptions options;
    options.num_nodes = n;
    small.push_back(GenerateRandomRdag(options, rng));
  }
  std::vector<std::vector<MergeProblem>> small_shapes;
  for (const CallGraph& g : small) {
    small_shapes.push_back(ShapesFor(g, rng));
  }
  std::vector<CallGraph> large;
  for (int n : {30, 45, 60}) {
    RandomDagOptions options;
    options.num_nodes = n;
    large.push_back(GenerateRandomRdag(options, rng));
  }
  std::vector<std::vector<MergeProblem>> large_shapes;
  for (const CallGraph& g : large) {
    large_shapes.push_back({ShapesFor(g, rng)[1]});
  }

  const ScoreFn in_degree = WeightedInDegreeScores;
  const ScoreFn out_degree = WeightedOutDegreeScores;
  const ScoreFn betweenness = BetweennessScores;
  const ScoreFn dih = DownstreamImpactScores;
  auto dih_sweep = [](ScoreFn score) -> Solve {
    return [score](const MergeProblem& p, const SolverOptions& o, SolverStats* s) {
      return SolveDihSweep(p, score, o, s);
    };
  };
  auto grasp = [](ScoreFn score) -> Solve {
    return [score](const MergeProblem& p, const SolverOptions& o, SolverStats* s) {
      return SolveGrasp(p, score, o, s);
    };
  };
  const Solve optimal = SolveOptimal;

  SolverOptions grasp_options = SolverOptions::GraspDefaults();
  grasp_options.seed = 2027;
  grasp_options.num_starts = 2;

  EXPECT_EQ(Hex(DigestOf(small, small_shapes, optimal, {})), "414a4269b5d1fe0d");
  EXPECT_EQ(Hex(DigestOf(small, small_shapes, dih_sweep(in_degree), {})), "2104f37c59070e0b");
  EXPECT_EQ(Hex(DigestOf(small, small_shapes, dih_sweep(out_degree), {})), "d293f83c949afd35");
  EXPECT_EQ(Hex(DigestOf(small, small_shapes, dih_sweep(betweenness), {})), "e8f19c593c7a2195");
  EXPECT_EQ(Hex(DigestOf(small, small_shapes, dih_sweep(dih), {})), "691f2282f1dc29e9");
  EXPECT_EQ(Hex(DigestOf(large, large_shapes, grasp(in_degree), grasp_options)),
            "3a71f94205f3c401");
  EXPECT_EQ(Hex(DigestOf(large, large_shapes, grasp(dih), grasp_options)), "89e7708d510bdc28");
}

}  // namespace
}  // namespace quilt
