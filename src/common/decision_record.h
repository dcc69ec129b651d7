// Telemetry for one merge decision (§4): which solver ran, what it cost, and
// what it produced. Shared vocabulary between the decision engine (partition
// layer), the controller (core layer) and the metrics store (tracing layer) —
// a flat struct with no dependencies so every layer can speak it.
#ifndef SRC_COMMON_DECISION_RECORD_H_
#define SRC_COMMON_DECISION_RECORD_H_

#include <cstdint>
#include <string>

namespace quilt {

struct DecisionRecord {
  // --- What ran (filled by the DecisionEngine).
  std::string solver;  // "optimal" | "dih-sweep" | "grasp".
  uint64_t seed = 0;   // RNG seed the decision ran under (GRASP draws).
  int graph_nodes = 0;
  int graph_edges = 0;

  // --- Outcome.
  bool feasible = false;
  double final_cost = 0.0;  // Cross-edge cost of the chosen solution.
  int num_groups = 0;
  // Blended-objective context: λ the decision ran under (1.0 = latency-only)
  // and the chosen plan's unscaled dollar rate under the problem's
  // PlanCostModel (0.0 when the problem carried no cost terms).
  double cost_weight = 1.0;
  double plan_dollars = 0.0;

  // --- Cost of deciding.
  double wall_ms = 0.0;         // Wall-clock decision time.
  int64_t ilp_solves = 0;       // Phase-2 ILP solves requested (logical).
  int64_t ilp_cache_hits = 0;   // ... of which the IlpSolveCache answered.
  int64_t candidate_sets_tried = 0;
  int64_t feasible_sets = 0;
  int stage1_attempts = 0;      // GRASP stage-1 draws.
  int refinement_removals = 0;  // GRASP stage-2 prunes (winning start).
  int grasp_starts = 0;         // Multi-start width (0 = not GRASP).
  int threads = 0;              // Thread-pool width the decision used.

  // --- Context (filled by the controller when it emits the record).
  std::string trigger;        // "decide" | "reconsider".
  std::string workflow;       // Workflow root handle (or graph root name).
  int64_t virtual_time = 0;   // SimTime at emission.
};

}  // namespace quilt

#endif  // SRC_COMMON_DECISION_RECORD_H_
