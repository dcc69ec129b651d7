#include "src/partition/grasp_solver.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"

namespace quilt {

std::string CanonicalSolutionSignature(const MergeSolution& solution) {
  std::vector<std::string> groups;
  groups.reserve(solution.groups.size());
  for (const MergeGroup& group : solution.groups) {
    std::vector<NodeId> members = group.members;
    std::sort(members.begin(), members.end());
    std::string s = StrCat(group.root, ":");
    for (NodeId id : members) {
      s += StrCat(id, ",");
    }
    groups.push_back(std::move(s));
  }
  std::sort(groups.begin(), groups.end());
  return StrJoin(groups, ";");
}

namespace {

// Restricted Candidate List size: stage 1 draws from this many top-score
// candidates (or from the whole pool once ℓ exceeds it).
constexpr int kRclSize = 16;

// Stage 1's first pool size ℓ, grown by one per infeasible round of draws.
constexpr int kInitialPoolSize = 2;

struct StartOutcome {
  Result<MergeSolution> solution = InternalError("start never ran");
  SolverStats stats;
};

// One GRASP start: the two-stage procedure of Appendix C.4, drawing from its
// own RNG stream. Pure function of (problem, ranked, scores, options, rng
// seed) — cache answers are cutoff-free, so a shared cache cannot change the
// outcome, only its cost.
StartOutcome RunStart(const MergeProblem& problem, uint64_t fingerprint,
                      const std::vector<NodeId>& ranked, const std::vector<double>& scores,
                      const SolverOptions& options, uint64_t start_seed) {
  const CallGraph& graph = *problem.graph;
  const NodeId workflow_root = graph.root();
  Rng rng(start_seed);

  StartOutcome out;
  SolverStats& st = out.stats;

  const IlpSolveOptions ilp_options = options.ilp();

  // ---- Stage 1: find an initial feasible solution. ----
  std::optional<MergeSolution> best;
  std::vector<NodeId> best_roots;
  int pool_size = std::min<int>(kInitialPoolSize, static_cast<int>(ranked.size()));
  if (pool_size < 1) {
    pool_size = 1;
  }
  while (!best.has_value()) {
    if (pool_size > static_cast<int>(ranked.size())) {
      out.solution = InfeasibleError("GRASP stage 1 exhausted all candidates without feasibility");
      return out;
    }
    const int rcl = std::min<int>(std::max(kRclSize, pool_size),
                                  static_cast<int>(ranked.size()));
    for (int draw = 0; draw < options.draws_per_size && !best.has_value(); ++draw) {
      ++st.stage1_attempts;
      ++st.candidate_sets_tried;
      // Randomly select pool_size distinct candidates from the RCL.
      std::vector<NodeId> rcl_nodes(ranked.begin(), ranked.begin() + rcl);
      rng.Shuffle(rcl_nodes);
      std::vector<NodeId> roots = {workflow_root};
      roots.insert(roots.end(), rcl_nodes.begin(), rcl_nodes.begin() + pool_size);

      Result<MergeSolution> solution =
          SolveForRootsCached(problem, fingerprint, roots, ilp_options, options.cache, &st);
      if (solution.ok()) {
        ++st.feasible_sets;
        best = std::move(solution).value();
        best_roots = roots;
      }
    }
    if (!best.has_value()) {
      ++pool_size;
    }
  }
  st.final_pool_size = pool_size;

  // ---- Stage 2: greedy refinement by pruning low-score roots. ----
  // It ends at a local optimum: a full scan with no improving removal.
  bool improved = true;
  while (improved) {
    improved = false;
    // Removable roots in ascending score order (least valuable first).
    std::vector<NodeId> removable;
    for (NodeId r : best_roots) {
      if (r != workflow_root) {
        removable.push_back(r);
      }
    }
    std::sort(removable.begin(), removable.end(), [&](NodeId a, NodeId b) {
      if (scores[a] != scores[b]) {
        return scores[a] < scores[b];
      }
      return a < b;
    });

    for (NodeId remove : removable) {
      std::vector<NodeId> candidate_roots;
      for (NodeId r : best_roots) {
        if (r != remove) {
          candidate_roots.push_back(r);
        }
      }
      IlpSolveOptions refine_options = ilp_options;
      refine_options.cutoff = best->cross_cost;  // Strict improvement required.
      ++st.candidate_sets_tried;
      Result<MergeSolution> solution = SolveForRootsCached(problem, fingerprint, candidate_roots,
                                                           refine_options, options.cache, &st);
      if (solution.ok() && solution->cross_cost < best->cross_cost) {
        ++st.feasible_sets;
        best = std::move(solution).value();
        best_roots = candidate_roots;
        ++st.refinement_removals;
        improved = true;
        break;  // Restart the scan with the smaller root set.
      }
    }
  }

  out.solution = *best;
  return out;
}

}  // namespace

Result<MergeSolution> SolveGrasp(const MergeProblem& problem, ScoreFn score,
                                 const SolverOptions& options, SolverStats* stats) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  const uint64_t fingerprint = FingerprintProblem(problem);

  SolverStats local_stats;
  SolverStats& st = stats != nullptr ? *stats : local_stats;
  st = SolverStats{};

  const std::vector<double> scores = score(problem);
  const std::vector<NodeId> ranked = RankCandidates(problem, scores);

  const int num_starts = std::max(1, options.num_starts);
  const int num_threads = std::max(1, std::min(options.num_threads, num_starts));
  st.starts = num_starts;
  st.threads = num_threads;

  // Run the starts, each with its own SplitMix-derived RNG stream, into
  // pre-sized slots: the reduction below reads them in start order, so the
  // outcome is independent of scheduling.
  std::vector<StartOutcome> outcomes(num_starts);
  auto run_one = [&](int s) {
    const uint64_t start_seed = options.seed + 0x9e3779b97f4a7c15ull * static_cast<uint64_t>(s);
    outcomes[s] = RunStart(problem, fingerprint, ranked, scores, options, start_seed);
  };
  if (num_threads > 1) {
    ThreadPool pool(num_threads);
    pool.ParallelFor(num_starts, run_one);
  } else {
    for (int s = 0; s < num_starts; ++s) {
      run_one(s);
    }
  }

  // Deterministic reduction: aggregate counters in start order; the winner is
  // the argmin by (cross cost, canonical signature), first start on full tie.
  int winner = -1;
  std::string winner_signature;
  for (int s = 0; s < num_starts; ++s) {
    const StartOutcome& outcome = outcomes[s];
    st.ilp_solves += outcome.stats.ilp_solves;
    st.ilp_cache_hits += outcome.stats.ilp_cache_hits;
    st.candidate_sets_tried += outcome.stats.candidate_sets_tried;
    st.feasible_sets += outcome.stats.feasible_sets;
    st.stage1_attempts += outcome.stats.stage1_attempts;
    if (!outcome.solution.ok()) {
      continue;
    }
    if (winner == -1) {
      winner = s;
      winner_signature = CanonicalSolutionSignature(*outcome.solution);
      continue;
    }
    const MergeSolution& incumbent = *outcomes[winner].solution;
    if (outcome.solution->cross_cost > incumbent.cross_cost) {
      continue;
    }
    const std::string signature = CanonicalSolutionSignature(*outcome.solution);
    if (outcome.solution->cross_cost < incumbent.cross_cost || signature < winner_signature) {
      winner = s;
      winner_signature = signature;
    }
  }

  if (winner == -1) {
    return outcomes[0].solution.status();  // Deterministic: first start's error.
  }
  st.final_pool_size = outcomes[winner].stats.final_pool_size;
  st.refinement_removals = outcomes[winner].stats.refinement_removals;
  return outcomes[winner].solution;
}

}  // namespace quilt
