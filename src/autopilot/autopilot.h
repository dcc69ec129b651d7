// Autopilot: the closed-loop adaptation control plane (§4.9).
//
// Runs on the simulation clock next to the QuiltController and owns each
// enrolled workflow's lifecycle end to end: it rolls profile windows,
// decides when enough evidence has accumulated to merge, stages every new
// plan as a weighted canary instead of an atomic swap, promotes or aborts
// the canary from a per-version SLO comparison, and keeps watching the
// promoted plan with fixed drift/SLO detectors -- rolling back with no
// operator in the loop when a merge misbehaves.
//
//   Registered -> Profiling -> Optimized -> Canarying -> Monitoring
//                     ^                         |            |
//                     +------- RolledBack <-----+------------+
//
// The controller owns every mechanism (ProposePlan / StageCanaryPlan /
// PromoteCanaryPlan / AbortCanaryPlan / RollbackDeployment); the autopilot
// is pure policy, so every action it takes is also available manually.
// Every decision, promotion and rollback is recorded as an AdaptationRecord
// in the MetricsStore. Records carry no wall-clock fields: the serialized
// record sequence of a run is byte-identical across repeats at the same
// seed and across decision-thread counts.
#ifndef SRC_AUTOPILOT_AUTOPILOT_H_
#define SRC_AUTOPILOT_AUTOPILOT_H_

#include <array>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/autopilot/detectors.h"
#include "src/common/adaptation_record.h"
#include "src/core/quilt_controller.h"

namespace quilt {

// Lifecycle state of one workflow under autopilot control.
enum class WorkflowState {
  kRegistered = 0,  // Enrolled; the first control tick starts profiling.
  kProfiling,       // Accumulating profile windows until one has enough traces.
  kOptimized,       // Transient: a changed plan was decided this tick.
  kCanarying,       // Two-version guard window running at the group roots.
  kMonitoring,      // Plan promoted; detectors watch for drift/regression.
  kRolledBack,      // Reverted to baseline; re-profiles on the next tick.
};

const char* WorkflowStateName(WorkflowState state);

// Control tick = profile window length. Every tick closes the current
// window, evaluates each enrolled workflow against it, then rolls a fresh
// window.
inline constexpr SimDuration kAutopilotTick = Seconds(5);

// The canary guard window runs for at most 4 ticks and promotes iff canary
// p99 <= 1.10x control p99, canary failure rate <= control's + 0.02 and the
// cost gate below holds. Reoptimize detectors must fire on 2 consecutive
// windows to trip, and a tripped detector stays quiet for 2 ticks; the OOM
// detector is a safety trip and rolls back on first fire.
struct AutopilotOptions {
  // Windows with fewer complete traces are "quiet": trace-based detectors
  // hold (the typed kUnavailable summary status, not an alarm) and no merge
  // decision is attempted.
  int64_t min_window_traces = 20;

  // --- Canary guard window.
  double canary_fraction = 0.2;    // Traffic share the staged version gets.
  int64_t canary_min_traces = 20;  // Per arm before the verdict is called.
  // Cost gate: the canary arm's billed $/request may exceed the control
  // arm's by at most this fraction. Inert while billing is idle (neither arm
  // accrued a bill during the guard window).
  double canary_cost_tolerance = 0.10;

  // Rejects canary_min_traces < 1, canary_fraction outside (0, 1] and a
  // negative min_window_traces. canary_cost_tolerance is free: a negative
  // tolerance demands the canary bill less than the control.
  Status Validate() const;
};

class Autopilot {
 public:
  Autopilot(Simulation* sim, QuiltController* controller, AutopilotOptions options = {});

  // Enrolls a registered workflow root under autopilot control. Fails with
  // the options' Validate error while they are invalid.
  Status Enroll(const std::string& root_handle);

  // Starts the control loop: profiling on, ticks scheduled. Idempotent, and
  // a no-op while the options are invalid.
  void Start();
  void Stop() { running_ = false; }
  bool running() const { return running_; }
  int64_t ticks() const { return tick_; }

  Result<WorkflowState> StateOf(const std::string& root_handle) const;
  const AutopilotOptions& options() const { return options_; }

 private:
  // Hysteresis/cooldown state of one detector for one workflow.
  struct DetectorState {
    int consecutive = 0;         // Consecutive windows the detector fired.
    int64_t cooldown_until = 0;  // Tick before which it may not trip again.
  };
  struct Pilot {
    WorkflowState state = WorkflowState::kRegistered;
    // Indexed like kDetectors.
    std::array<DetectorState, kDetectors.size()> detectors{};
    SimDuration baseline_p99 = 0;  // Promoted plan's p99 at promote time.
    int64_t canary_ticks = 0;      // Ticks the current guard window has run.
    // --- Billing state (all nanodollars, integer-exact).
    // $/request established by the first non-quiet window after promote; the
    // cost-regression detector compares later windows against it.
    int64_t baseline_cost_per_request_nanos = 0;
    // Workflow's cumulative bill at the last monitoring tick (window deltas).
    int64_t last_cost_nanos = 0;
    // Workflow bill totals when the current canary was staged; the guard
    // window's per-arm spend is the delta from here.
    int64_t canary_snap_total_nanos = 0;
    int64_t canary_snap_canary_nanos = 0;
  };

  void Tick();
  void Step(const std::string& root, Pilot& pilot, const std::vector<Trace>& traces);
  void StepProfiling(const std::string& root, Pilot& pilot, const std::vector<Trace>& traces);
  void StepCanarying(const std::string& root, Pilot& pilot, const std::vector<Trace>& traces);
  void StepMonitoring(const std::string& root, Pilot& pilot, const std::vector<Trace>& traces);

  // Proposes a plan for the current window and either stages it as a canary
  // (-> kCanarying), rolls back when the decision prefers the unmerged
  // baseline (-> kRolledBack), or holds. `detector`/`verdict` tag the
  // records when a detector trip drove the re-decision.
  void AdoptPlan(const std::string& root, Pilot& pilot, const std::string& detector,
                 const DetectorVerdict& verdict, int64_t window_traces);

  // Max observed fallback-to-budget ratio across the live merge's localized
  // edges in this window's traces.
  double ComputeAlphaDrift(const std::string& root, const std::vector<Trace>& traces) const;

  // Cumulative workflow bill {total_nanos, canary_nanos}: CostMeter records
  // summed over the workflow's function handles (group roots reuse function
  // handles, so merged deployments are covered too).
  std::pair<int64_t, int64_t> WorkflowCostTotals(const std::string& root) const;

  AdaptationRecord MakeRecord(const std::string& root, WorkflowState from, WorkflowState to,
                              std::string action) const;
  void Emit(AdaptationRecord record);

  Simulation* sim_;
  QuiltController* controller_;
  AutopilotOptions options_;
  Status options_status_;
  bool running_ = false;
  int64_t tick_ = 0;
  // Fleet-pressure signals of the window that just closed, computed once per
  // tick from the metrics view's node samples and stamped on every record.
  int64_t window_queue_peak_ = 0;
  int64_t window_provisioning_ = 0;
  // Keyed by root handle: map order is the deterministic evaluation order.
  std::map<std::string, Pilot> pilots_;
};

}  // namespace quilt

#endif  // SRC_AUTOPILOT_AUTOPILOT_H_
