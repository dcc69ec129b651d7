#include "src/partition/decision_engine.h"

#include <chrono>

#include "src/partition/grasp_solver.h"
#include "src/partition/root_set_sweep.h"
#include "src/partition/scorers.h"

namespace quilt {

namespace {

// The DecisionRecord::solver name of each choice.
const char* SolverName(SolverChoice choice) {
  switch (choice) {
    case SolverChoice::kOptimal:
      return "optimal";
    case SolverChoice::kHeuristic:
      return "dih-sweep";
    case SolverChoice::kGrasp:
    case SolverChoice::kAuto:  // Unreachable: Resolve never returns kAuto.
      break;
  }
  return "grasp";
}

}  // namespace

DecisionEngine::DecisionEngine(DecisionEngineOptions options) : options_(options) {
  if (options_.enable_cache) {
    cache_ = std::make_unique<IlpSolveCache>();
  }
}

SolverChoice DecisionEngine::Resolve(int num_nodes) const {
  if (options_.solver != SolverChoice::kAuto) {
    return options_.solver;
  }
  if (num_nodes <= kOptimalMaxNodes) {
    return SolverChoice::kOptimal;
  }
  if (num_nodes < kGraspMinNodes) {
    return SolverChoice::kHeuristic;
  }
  return SolverChoice::kGrasp;
}

SolverOptions DecisionEngine::OptionsFor(SolverChoice choice) const {
  SolverOptions solver_options;
  if (choice == SolverChoice::kGrasp) {
    solver_options = SolverOptions::GraspDefaults();
    solver_options.num_starts = kGraspStarts;
    solver_options.num_threads = options_.grasp_threads;
  }
  solver_options.seed = options_.seed;
  solver_options.cache = cache_.get();
  return solver_options;
}

Result<MergeSolution> DecisionEngine::Decide(const MergeProblem& problem,
                                             DecisionRecord* record) {
  QUILT_RETURN_IF_ERROR(problem.Validate());
  const SolverChoice choice = Resolve(problem.graph->num_nodes());
  const SolverOptions solver_options = OptionsFor(choice);

  SolverStats stats;
  const auto start = std::chrono::steady_clock::now();
  Result<MergeSolution> solution = [&] {
    switch (choice) {
      case SolverChoice::kOptimal:
        return SolveOptimal(problem, solver_options, &stats);
      case SolverChoice::kHeuristic:
        return SolveDihSweep(problem, DownstreamImpactScores, solver_options, &stats);
      case SolverChoice::kGrasp:
      case SolverChoice::kAuto:
        break;
    }
    return SolveGrasp(problem, DownstreamImpactScores, solver_options, &stats);
  }();
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();

  if (record != nullptr) {
    *record = DecisionRecord{};
    record->solver = SolverName(choice);
    record->seed = solver_options.seed;
    record->graph_nodes = problem.graph->num_nodes();
    record->graph_edges = problem.graph->num_edges();
    record->feasible = solution.ok();
    record->final_cost = solution.ok() ? solution->cross_cost : 0.0;
    record->num_groups = solution.ok() ? solution->num_groups() : 0;
    record->cost_weight = problem.cost.weight;
    if (solution.ok()) {
      // 0.0 unless the problem carried per-edge dollar terms.
      record->plan_dollars = PlanDollarCost(*problem.graph, *solution, problem.cost);
    }
    record->wall_ms = wall_ms;
    record->ilp_solves = stats.ilp_solves;
    record->ilp_cache_hits = stats.ilp_cache_hits;
    record->candidate_sets_tried = stats.candidate_sets_tried;
    record->feasible_sets = stats.feasible_sets;
    record->stage1_attempts = stats.stage1_attempts;
    record->refinement_removals = stats.refinement_removals;
    record->grasp_starts = stats.starts;
    record->threads = stats.threads;
  }
  return solution;
}

}  // namespace quilt
