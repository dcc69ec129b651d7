#include "src/autopilot/autopilot.h"

#include <algorithm>
#include <utility>

#include "src/common/cost_record.h"
#include "src/common/strings.h"

namespace quilt {

namespace {

// Canary guard window: the tick bound (abort when still starved) and how
// far the canary may trail the control on p99 and failure rate.
constexpr int64_t kCanaryMaxTicks = 4;
constexpr double kCanaryP99Tolerance = 0.10;
constexpr double kCanaryFailureTolerance = 0.02;
// Reoptimize detectors trip after this many consecutive firing windows and
// then stay quiet for this many ticks.
constexpr int kHysteresisWindows = 2;
constexpr int64_t kDetectorCooldownTicks = 2;

}  // namespace

Status AutopilotOptions::Validate() const {
  if (min_window_traces < 0) {
    return InvalidArgumentError("min_window_traces must be >= 0");
  }
  if (canary_fraction <= 0.0 || canary_fraction > 1.0) {
    return InvalidArgumentError(
        StrCat("canary_fraction must be in (0, 1], got ", FormatDouble(canary_fraction, 3)));
  }
  if (canary_min_traces < 1) {
    return InvalidArgumentError("canary_min_traces must be >= 1");
  }
  return Status::Ok();
}

const char* WorkflowStateName(WorkflowState state) {
  switch (state) {
    case WorkflowState::kRegistered:
      return "registered";
    case WorkflowState::kProfiling:
      return "profiling";
    case WorkflowState::kOptimized:
      return "optimized";
    case WorkflowState::kCanarying:
      return "canarying";
    case WorkflowState::kMonitoring:
      return "monitoring";
    case WorkflowState::kRolledBack:
      return "rolled-back";
  }
  return "unknown";
}

Autopilot::Autopilot(Simulation* sim, QuiltController* controller, AutopilotOptions options)
    : sim_(sim),
      controller_(controller),
      options_(options),
      options_status_(options.Validate()) {}

Status Autopilot::Enroll(const std::string& root_handle) {
  QUILT_RETURN_IF_ERROR(options_status_);
  if (!controller_->HasFunction(root_handle)) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  if (pilots_.count(root_handle) > 0) {
    return AlreadyExistsError(StrCat("workflow '", root_handle, "' already enrolled"));
  }
  pilots_[root_handle] = Pilot{};
  AdaptationRecord record = MakeRecord(root_handle, WorkflowState::kRegistered,
                                       WorkflowState::kRegistered, "register");
  record.reason = "enrolled under autopilot control";
  Emit(std::move(record));
  return Status::Ok();
}

void Autopilot::Start() {
  if (running_ || !options_status_.ok()) {
    return;
  }
  running_ = true;
  controller_->StartProfiling();
  sim_->Schedule(kAutopilotTick, [this] { Tick(); });
}

Result<WorkflowState> Autopilot::StateOf(const std::string& root_handle) const {
  auto it = pilots_.find(root_handle);
  if (it == pilots_.end()) {
    return NotFoundError(StrCat("workflow '", root_handle, "' not enrolled"));
  }
  return it->second.state;
}

AdaptationRecord Autopilot::MakeRecord(const std::string& root, WorkflowState from,
                                       WorkflowState to, std::string action) const {
  AdaptationRecord record;
  record.workflow = root;
  record.tick = tick_;
  record.virtual_time = sim_->now();
  record.from_state = WorkflowStateName(from);
  record.to_state = WorkflowStateName(to);
  record.action = std::move(action);
  record.spawn_queue_peak = window_queue_peak_;
  record.fleet_nodes = controller_->platform()->placement().ReadyNodes();
  return record;
}

void Autopilot::Emit(AdaptationRecord record) {
  controller_->metrics_store()->AddAdaptation(std::move(record));
}

void Autopilot::Tick() {
  if (!running_) {
    return;
  }
  ++tick_;
  // One collection serves every workflow: the window that just closed. All
  // observability reads go through the controller's metrics view.
  MetricsView metrics = controller_->metrics();
  const std::vector<Trace> traces = metrics.CollectTraces();
  // Fleet pressure over the closed window, from the node samples: the spawn
  // queue's peak depth and how many nodes were still provisioning at the
  // window's last sample tick (both 0 with the node model off).
  window_queue_peak_ = 0;
  window_provisioning_ = 0;
  const SimTime window_start = sim_->now() - kAutopilotTick;
  SimTime last_sample_ts = -1;
  for (const NodeSample& sample : metrics.node_samples()) {
    if (sample.timestamp < window_start) {
      continue;
    }
    window_queue_peak_ = std::max(window_queue_peak_, sample.spawn_queue_depth);
    if (sample.timestamp > last_sample_ts) {
      last_sample_ts = sample.timestamp;
      window_provisioning_ = 0;
    }
    if (sample.timestamp == last_sample_ts && sample.provisioning) {
      ++window_provisioning_;
    }
  }
  for (auto& [root, pilot] : pilots_) {
    Step(root, pilot, traces);
  }
  // Roll a fresh profile window for the next tick (Start is idempotent on
  // the monitor, so this only resets the window origin).
  controller_->StartProfiling();
  sim_->Schedule(kAutopilotTick, [this] { Tick(); });
}

void Autopilot::Step(const std::string& root, Pilot& pilot,
                     const std::vector<Trace>& traces) {
  switch (pilot.state) {
    case WorkflowState::kRegistered: {
      AdaptationRecord record =
          MakeRecord(root, WorkflowState::kRegistered, WorkflowState::kProfiling, "profile");
      record.reason = "profiling started";
      Emit(std::move(record));
      pilot.state = WorkflowState::kProfiling;
      break;
    }
    case WorkflowState::kRolledBack: {
      pilot.detectors = {};
      pilot.baseline_p99 = 0;
      pilot.baseline_cost_per_request_nanos = 0;
      pilot.last_cost_nanos = 0;
      AdaptationRecord record =
          MakeRecord(root, WorkflowState::kRolledBack, WorkflowState::kProfiling, "profile");
      record.reason = "re-profiling after rollback";
      Emit(std::move(record));
      pilot.state = WorkflowState::kProfiling;
      break;
    }
    case WorkflowState::kProfiling:
      StepProfiling(root, pilot, traces);
      break;
    case WorkflowState::kCanarying:
      StepCanarying(root, pilot, traces);
      break;
    case WorkflowState::kMonitoring:
      StepMonitoring(root, pilot, traces);
      break;
    case WorkflowState::kOptimized:
      // Transient within a tick; never persists across ticks.
      pilot.state = WorkflowState::kProfiling;
      break;
  }
}

void Autopilot::StepProfiling(const std::string& root, Pilot& pilot,
                              const std::vector<Trace>& traces) {
  const WorkflowLatencySummary window =
      SummarizeWorkflowLatency(root, traces, sim_->now(), TraceVersionFilter::kAll);
  if (window.traces < options_.min_window_traces) {
    return;  // Quiet window: wait for traffic, never alarm.
  }
  AdoptPlan(root, pilot, /*detector=*/"", DetectorVerdict{}, window.traces);
}

void Autopilot::AdoptPlan(const std::string& root, Pilot& pilot, const std::string& detector,
                          const DetectorVerdict& verdict, int64_t window_traces) {
  const WorkflowState from = pilot.state;
  Result<QuiltController::ProposedPlan> plan = controller_->ProposePlan(root);
  if (!plan.ok()) {
    return;  // Transient (e.g. the window went quiet mid-probe): hold.
  }
  if (!plan->changed) {
    if (!detector.empty()) {
      // A detector tripped but the re-decision stands by the live plan:
      // record the hold so the trip is visible, then let the cooldown damp it.
      AdaptationRecord record = MakeRecord(root, from, from, "hold");
      record.detector = detector;
      record.metric = verdict.metric;
      record.threshold = verdict.threshold;
      record.window_traces = window_traces;
      record.reason = "re-decision confirms the live plan";
      Emit(std::move(record));
    }
    return;
  }
  if (plan->merged_groups == 0) {
    // The optimum for the new profile is the unmerged baseline: a canary
    // cannot express "merge nothing", so revert directly.
    if (!controller_->RollbackDeployment(root).ok()) {
      return;
    }
    AdaptationRecord record = MakeRecord(root, from, WorkflowState::kRolledBack, "rollback");
    record.detector = detector;
    record.metric = verdict.metric;
    record.threshold = verdict.threshold;
    record.window_traces = window_traces;
    record.reason = detector.empty() ? "re-decision prefers the unmerged baseline"
                                     : StrCat(verdict.reason, "; baseline is optimal");
    Emit(std::move(record));
    pilot.state = WorkflowState::kRolledBack;
    return;
  }
  if (!controller_->StageCanaryPlan(root, *plan, options_.canary_fraction).ok()) {
    return;
  }
  // Modeled cost of building the plan's artifacts (the price of adapting).
  double plan_compile_s = 0.0;
  for (const MergedArtifact& artifact : plan->artifacts) {
    plan_compile_s += ToSeconds(artifact.TotalPipelineTime());
  }
  AdaptationRecord decided = MakeRecord(root, from, WorkflowState::kOptimized, "decide");
  decided.plan_compile_s = plan_compile_s;
  decided.detector = detector;
  decided.metric = verdict.metric;
  decided.threshold = verdict.threshold;
  decided.window_traces = window_traces;
  decided.reason = detector.empty()
                       ? StrCat("profile window complete (", window_traces, " traces)")
                       : verdict.reason;
  Emit(std::move(decided));
  AdaptationRecord staged =
      MakeRecord(root, WorkflowState::kOptimized, WorkflowState::kCanarying, "stage-canary");
  staged.plan_compile_s = plan_compile_s;
  staged.detector = detector;
  staged.window_traces = window_traces;
  staged.reason = StrCat(plan->merged_groups, " merged group(s) staged at ",
                         FormatDouble(100.0 * options_.canary_fraction, 0), "% traffic");
  Emit(std::move(staged));
  pilot.state = WorkflowState::kCanarying;
  pilot.canary_ticks = 0;
  // Snapshot the workflow's bill: the guard window's per-arm spend is the
  // delta from here, so older traffic never contaminates the cost gate.
  const auto [snap_total, snap_canary] = WorkflowCostTotals(root);
  pilot.canary_snap_total_nanos = snap_total;
  pilot.canary_snap_canary_nanos = snap_canary;
}

void Autopilot::StepCanarying(const std::string& root, Pilot& pilot,
                              const std::vector<Trace>& traces) {
  ++pilot.canary_ticks;
  const WorkflowLatencySummary control =
      SummarizeWorkflowLatency(root, traces, sim_->now(), TraceVersionFilter::kControl);
  const WorkflowLatencySummary canary =
      SummarizeWorkflowLatency(root, traces, sim_->now(), TraceVersionFilter::kCanary);

  // A canary container exceeding its memory limit is an immediate fail: the
  // plan's memory model is wrong, more traffic will not fix it.
  int64_t canary_ooms = 0;
  for (const std::string& handle : controller_->StagedCanaryRoots(root)) {
    const DeploymentStats* stats = controller_->platform()->CanaryStats(handle);
    if (stats != nullptr) {
      canary_ooms += stats->oom_kills;
    }
  }

  bool promote = false;
  AdaptationRecord record;
  if (canary_ooms > 0) {
    record.metric = static_cast<double>(canary_ooms);
    record.threshold = 0.0;
    record.reason = StrCat("canary containers OOM-killed ", canary_ooms, " time(s)");
  } else if (control.traces >= options_.canary_min_traces &&
             canary.traces >= options_.canary_min_traces) {
    const double p99_ratio = control.end_to_end.p99 > 0
                                 ? static_cast<double>(canary.end_to_end.p99) /
                                       static_cast<double>(control.end_to_end.p99)
                                 : 1.0;
    const double control_failures =
        static_cast<double>(control.traces - control.ok_traces) /
        static_cast<double>(control.traces);
    const double canary_failures =
        static_cast<double>(canary.traces - canary.ok_traces) /
        static_cast<double>(canary.traces);
    // Cost gate: what each arm billed per request during the guard window.
    // Inert when billing is idle on either arm (no $/request to compare).
    const auto [cur_total, cur_canary] = WorkflowCostTotals(root);
    const int64_t canary_spend_nanos = cur_canary - pilot.canary_snap_canary_nanos;
    const int64_t control_spend_nanos = (cur_total - cur_canary) -
                                        (pilot.canary_snap_total_nanos -
                                         pilot.canary_snap_canary_nanos);
    const int64_t canary_cpr = canary_spend_nanos / canary.traces;
    const int64_t control_cpr = control_spend_nanos / control.traces;
    bool cost_ok = true;
    if (canary_spend_nanos > 0 && control_spend_nanos > 0) {
      cost_ok = static_cast<double>(canary_cpr) <=
                (1.0 + options_.canary_cost_tolerance) * static_cast<double>(control_cpr);
    }
    record.metric = p99_ratio;
    record.threshold = 1.0 + kCanaryP99Tolerance;
    promote = p99_ratio <= 1.0 + kCanaryP99Tolerance &&
              canary_failures <= control_failures + kCanaryFailureTolerance && cost_ok;
    record.reason = StrCat("canary p99/control p99 = ", FormatDouble(p99_ratio, 3),
                           ", failure rates ", FormatDouble(canary_failures, 3), " vs ",
                           FormatDouble(control_failures, 3), ", $/request ",
                           FormatNanodollars(canary_cpr), " vs ",
                           FormatNanodollars(control_cpr), " over ", canary.traces, "/",
                           control.traces, " traces");
  } else if (pilot.canary_ticks >= kCanaryMaxTicks) {
    record.metric = static_cast<double>(std::min(control.traces, canary.traces));
    record.threshold = static_cast<double>(options_.canary_min_traces);
    record.reason = StrCat("guard window expired with ", canary.traces, " canary / ",
                           control.traces, " control traces");
  } else {
    return;  // Extend the guard window: not enough evidence either way yet.
  }

  record.workflow = root;
  record.tick = tick_;
  record.virtual_time = sim_->now();
  record.from_state = WorkflowStateName(WorkflowState::kCanarying);
  record.detector = "canary-analyzer";
  record.window_traces = control.traces + canary.traces;
  if (promote && controller_->PromoteCanaryPlan(root).ok()) {
    pilot.baseline_p99 = canary.end_to_end.p99;
    // The cost baseline re-arms on the first non-quiet window under the new
    // plan; window deltas restart from the promoted bill.
    pilot.baseline_cost_per_request_nanos = 0;
    pilot.last_cost_nanos = WorkflowCostTotals(root).first;
    pilot.detectors = {};
    record.to_state = WorkflowStateName(WorkflowState::kMonitoring);
    record.action = "promote";
    Emit(std::move(record));
    pilot.state = WorkflowState::kMonitoring;
    return;
  }
  (void)controller_->AbortCanaryPlan(root);
  // With a previous merge still live the workflow returns to monitoring it;
  // otherwise the baseline keeps serving and profiling resumes.
  const WorkflowState next = controller_->HasMergedDeployment(root)
                                 ? WorkflowState::kMonitoring
                                 : WorkflowState::kProfiling;
  record.to_state = WorkflowStateName(next);
  record.action = "abort-canary";
  Emit(std::move(record));
  pilot.state = next;
}

void Autopilot::StepMonitoring(const std::string& root, Pilot& pilot,
                               const std::vector<Trace>& traces) {
  const WorkflowLatencySummary window =
      SummarizeWorkflowLatency(root, traces, sim_->now(), TraceVersionFilter::kAll);
  DetectorSignals signals;
  // Quiet windows blind the trace-based detectors (they hold); the OOM
  // counter is platform state and stays authoritative regardless.
  signals.window = window.traces >= options_.min_window_traces ? &window : nullptr;
  signals.baseline_p99 = pilot.baseline_p99;
  signals.oom_kills_since_deploy = controller_->OomKillsSinceDeploy(root);
  signals.alpha_drift =
      signals.window != nullptr ? ComputeAlphaDrift(root, traces) : 0.0;
  // Fleet pressure is node-sample state, not trace state: no quiet-window
  // gate (a cluster too saturated to finish traces must still trip it).
  signals.spawn_queue_peak = window_queue_peak_;
  signals.provisioning_nodes = window_provisioning_;
  // Billed $/request of this window: delta of the workflow's cumulative bill
  // over the window's complete traces. The first non-quiet window after a
  // promote establishes the baseline (the detector holds on that window).
  const int64_t window_cost_nanos = WorkflowCostTotals(root).first;
  if (signals.window != nullptr && window.traces > 0) {
    signals.cost_per_request_nanos =
        (window_cost_nanos - pilot.last_cost_nanos) / window.traces;
    signals.baseline_cost_per_request_nanos = pilot.baseline_cost_per_request_nanos;
    if (pilot.baseline_cost_per_request_nanos == 0) {
      pilot.baseline_cost_per_request_nanos = signals.cost_per_request_nanos;
    }
  }
  pilot.last_cost_nanos = window_cost_nanos;

  for (size_t i = 0; i < kDetectors.size(); ++i) {
    const DetectorEntry& detector = kDetectors[i];
    DetectorState& rt = pilot.detectors[i];
    const DetectorVerdict verdict = detector.evaluate(signals);
    if (detector.action == AdaptationAction::kRollback) {
      // Safety trip: no hysteresis, no cooldown -- act on first fire.
      if (!verdict.fired || !controller_->RollbackDeployment(root).ok()) {
        continue;
      }
      AdaptationRecord record =
          MakeRecord(root, WorkflowState::kMonitoring, WorkflowState::kRolledBack, "rollback");
      record.detector = detector.name;
      record.metric = verdict.metric;
      record.threshold = verdict.threshold;
      record.window_traces = window.traces;
      record.reason = verdict.reason;
      Emit(std::move(record));
      pilot.state = WorkflowState::kRolledBack;
      return;
    }
    if (tick_ < rt.cooldown_until) {
      continue;  // Recently tripped: stay quiet while the fix settles.
    }
    if (!verdict.fired) {
      rt.consecutive = 0;
      continue;
    }
    if (++rt.consecutive < kHysteresisWindows) {
      continue;  // Hysteresis: one noisy window must not flap the deployment.
    }
    rt.consecutive = 0;
    rt.cooldown_until = tick_ + kDetectorCooldownTicks;
    AdoptPlan(root, pilot, detector.name, verdict, window.traces);
    return;  // At most one adaptation per workflow per tick.
  }
}

std::pair<int64_t, int64_t> Autopilot::WorkflowCostTotals(const std::string& root) const {
  int64_t total_nanos = 0;
  int64_t canary_nanos = 0;
  CostMeter& meter = controller_->platform()->cost_meter();
  for (const std::string& handle : controller_->WorkflowFunctionHandles(root)) {
    const CostRecord record = meter.RecordFor(handle);
    total_nanos += record.total_nanos;
    canary_nanos += record.canary_nanos;
  }
  return {total_nanos, canary_nanos};
}

double Autopilot::ComputeAlphaDrift(const std::string& root,
                                    const std::vector<Trace>& traces) const {
  const std::vector<QuiltController::InternalEdge> edges =
      controller_->DeployedInternalEdges(root);
  if (edges.empty()) {
    return 0.0;
  }
  int64_t requests = 0;
  std::map<std::pair<std::string, std::string>, int64_t> observed;
  for (const Trace& trace : traces) {
    if (!trace.complete() || trace.workflow() != root) {
      continue;
    }
    ++requests;
    for (const Span& span : trace.spans) {
      if (span.caller == kClientCaller) {
        continue;
      }
      ++observed[{span.caller, span.callee}];
    }
  }
  if (requests == 0) {
    return 0.0;
  }
  double max_ratio = 0.0;
  for (const QuiltController::InternalEdge& edge : edges) {
    // With conditional invocations, calls within the budget run locally and
    // are invisible to the ingress: any observed caller->callee span on a
    // localized edge is an over-budget fallback.
    auto it = observed.find({edge.caller, edge.callee});
    if (it == observed.end()) {
      continue;
    }
    const double fallback_alpha =
        static_cast<double>(it->second) / static_cast<double>(requests);
    max_ratio = std::max(max_ratio, fallback_alpha / std::max(1, edge.budget));
  }
  return max_ratio;
}

}  // namespace quilt
