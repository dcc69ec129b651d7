// Drift and SLO detectors for the autopilot control loop (§4.9).
//
// A detector looks at one profile window's signals for one workflow and
// votes: is the live deployment still the right one? Detectors are pure
// functions with fixed thresholds -- hysteresis (N consecutive firing
// windows) and cooldowns live in the autopilot, so a detector can be
// unit-tested from a hand-built snapshot.
#ifndef SRC_AUTOPILOT_DETECTORS_H_
#define SRC_AUTOPILOT_DETECTORS_H_

#include <array>
#include <string>

#include "src/tracing/resource_monitor.h"

namespace quilt {

// What a tripped detector asks the autopilot to do.
enum class AdaptationAction {
  kReoptimize,  // Re-run the decision; canary the new plan if it changed.
  kRollback,    // Safety trip: revert to the unmerged baseline now.
};

// The signals one control tick hands every detector, all derived from the
// window that just closed. Everything here is a deterministic function of
// the simulated run.
struct DetectorSignals {
  // Latency summary of the window (nullptr when the window held no complete
  // trace -- trace-based detectors must hold, not alarm).
  const WorkflowLatencySummary* window = nullptr;
  // p99 end-to-end of the deployed version, recorded when it was promoted
  // (0 when nothing was promoted yet).
  SimDuration baseline_p99 = 0;
  // OOM kills across the live merge's group roots since deployment.
  int64_t oom_kills_since_deploy = 0;
  // Max observed fallback-to-budget ratio across the live merge's localized
  // edges this window (0 when no merge is live or no fallback was seen).
  double alpha_drift = 0.0;
  // Billed $/request of this window (nanodollars; 0 when billing is idle or
  // the window is quiet) and the baseline established on the first non-quiet
  // window after the plan was promoted (0 until then).
  int64_t cost_per_request_nanos = 0;
  int64_t baseline_cost_per_request_nanos = 0;
  // Peak cluster-wide spawn-queue depth across the window's node samples
  // (0 with the node model off or no backlog) and nodes still provisioning
  // at the window's last sample tick.
  int64_t spawn_queue_peak = 0;
  int64_t provisioning_nodes = 0;
};

struct DetectorVerdict {
  bool fired = false;
  double metric = 0.0;     // The value the detector measured.
  double threshold = 0.0;  // What it was compared against.
  std::string reason;      // Filled when fired.
};

// Merged containers getting OOM-killed: the profile under-estimated memory.
// Fires at >= 1 kill since deploy. This is the one detector that trips a
// direct rollback (§8) -- a canary of a new plan would keep the misbehaving
// version serving meanwhile.
DetectorVerdict DetectOomKill(const DetectorSignals& signals);

// Window p99 regressed against the promoted plan's deploy-time baseline:
// fires when p99 > baseline * 1.5.
DetectorVerdict DetectP99Regression(const DetectorSignals& signals);

// Observed conditional-invocation fallbacks exceed the deployed budgets: the
// workload's call frequencies drifted from the profiled alphas. Fires when
// fallback/budget reaches 0.25.
DetectorVerdict DetectAlphaDrift(const DetectorSignals& signals);

// Cold starts dominating the window: scale or grouping no longer matches the
// arrival pattern. Fires when the cold-start share of e2e exceeds 0.5.
DetectorVerdict DetectColdStartSurge(const DetectorSignals& signals);

// Billed $/request regressed against the post-promote baseline: the promoted
// plan (or the workload under it) got more expensive than what the canary
// verdict approved, so the decision is worth re-running with fresh prices.
// Fires when $/request > baseline * 1.5.
DetectorVerdict DetectCostRegression(const DetectorSignals& signals);

// Container spawns piling up behind cold nodes: the fleet (static or
// elastic) is not absorbing placement pressure, so request latency is about
// to pay for queued capacity. Worth re-running the decision -- a tighter
// grouping packs the same workflow into fewer containers. Fires when the
// window's spawn-queue peak reaches 8.
DetectorVerdict DetectColdNodePressure(const DetectorSignals& signals);

struct DetectorEntry {
  const char* name;
  AdaptationAction action;
  DetectorVerdict (*evaluate)(const DetectorSignals&);
};

// Fixed order: the safety trip first, then the reoptimize detectors. The
// first detector that trips on a tick wins it.
inline constexpr std::array<DetectorEntry, 6> kDetectors = {{
    {"oom-kill", AdaptationAction::kRollback, DetectOomKill},
    {"p99-regression", AdaptationAction::kReoptimize, DetectP99Regression},
    {"alpha-drift", AdaptationAction::kReoptimize, DetectAlphaDrift},
    {"cold-start-surge", AdaptationAction::kReoptimize, DetectColdStartSurge},
    {"cost-regression", AdaptationAction::kReoptimize, DetectCostRegression},
    {"cold-node-pressure", AdaptationAction::kReoptimize, DetectColdNodePressure},
}};

}  // namespace quilt

#endif  // SRC_AUTOPILOT_DETECTORS_H_
