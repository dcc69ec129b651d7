// DecisionEngine: the single entry point of the merge-decision stage (§4).
//
// Owns a shared IlpSolveCache memoizing Phase-2 solves across solvers AND
// across successive decisions (the merge monitor re-runs Decide continuously
// as workloads drift — recurring decisions on a stable profile are near-free
// cache hits), and the policy that picks a solver per graph size:
//
//   kAuto:  |V| <= kOptimalMaxNodes    -> exact sweep (§4.2)
//           |V| <  kGraspMinNodes      -> DIH k-sweep (§4.3)
//           otherwise                  -> multi-start GRASP (App C.4)
//
// The exact and DIH sweeps run SolverOptions{} (exact Phase-2 ILPs, ℓ = 6);
// GRASP runs SolverOptions::GraspDefaults() (5% stage gap, bounded stage
// ILPs) with kGraspStarts starts. DIH and GRASP rank candidates by
// DownstreamImpactScores. λ of the blended objective is the problem's
// (PlanCostModel::weight). Every solver runs to its own stop rule; no clock
// cuts a decision short.
//
// Every decision emits a DecisionRecord describing what ran and what it cost.
#ifndef SRC_PARTITION_DECISION_ENGINE_H_
#define SRC_PARTITION_DECISION_ENGINE_H_

#include <memory>

#include "src/common/decision_record.h"
#include "src/partition/ilp_solve_cache.h"
#include "src/partition/merge_solver.h"

namespace quilt {

// kAuto policy thresholds.
inline constexpr int kOptimalMaxNodes = 11;  // Exact sweep up to here (2^(|V|-1) sets).
inline constexpr int kGraspMinNodes = 26;    // GRASP at or beyond; DIH sweep in between.
// Best-of-N GRASP starts, run on up to DecisionEngineOptions::grasp_threads
// threads; any thread count yields a bit-identical answer.
inline constexpr int kGraspStarts = 4;

struct DecisionEngineOptions {
  // kAuto picks by graph size; the explicit choices force one solver.
  SolverChoice solver = SolverChoice::kAuto;
  // Base seed of the GRASP draws; every DecisionRecord carries it, so
  // decisions are reproducible.
  uint64_t seed = 0x9e3779b97f4a7c15ull;
  // Threads for the kGraspStarts GRASP starts.
  int grasp_threads = 1;
  // Phase-2 ILP memoization (LRU, 4096 entries) shared across solvers and
  // successive decisions: re-decisions on a stable profile hit.
  bool enable_cache = true;
};

class DecisionEngine {
 public:
  explicit DecisionEngine(DecisionEngineOptions options = {});

  // Runs the policy-selected solver. On success or failure, `record` (when
  // non-null) is filled with the decision telemetry; the caller owns adding
  // context (trigger, workflow, virtual time) and storing it.
  Result<MergeSolution> Decide(const MergeProblem& problem, DecisionRecord* record = nullptr);

  // Which portfolio member kAuto resolves to for a graph of `num_nodes`.
  SolverChoice Resolve(int num_nodes) const;

  const DecisionEngineOptions& options() const { return options_; }

 private:
  SolverOptions OptionsFor(SolverChoice choice) const;

  DecisionEngineOptions options_;
  std::unique_ptr<IlpSolveCache> cache_;
};

}  // namespace quilt

#endif  // SRC_PARTITION_DECISION_ENGINE_H_
