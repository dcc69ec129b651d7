// QuiltController: the public top-level API (§1.1).
//
// Runs in the background next to an unmodified serverless platform:
//   1. developers upload functions (RegisterWorkflow deploys the status-quo
//      baseline, one container image per function);
//   2. the provider flips the profiler-enabled token (StartProfiling):
//      invocations take the ingress path, spans and resource samples flow
//      into the stores;
//   3. OptimizeWorkflow builds the call graph, hands it to the
//      DecisionEngine for the constraint-aware merge decision (§4), compiles
//      the chosen groups through the CompileService (§5), and replaces each
//      group root's function through the platform's normal update mechanism
//      (§5.5) -- the scheduler never learns a merge happened;
//   4. ReconsiderWorkflow, or the autopilot's propose/canary/promote cycle,
//      re-decides as the workload drifts;
//   5. RollbackDeployment restores the original functions if the workload
//      shifts (§8).
//
// The controller only orchestrates: the decision and compile knobs are the
// engines' own option structs, embedded in ControllerOptions. The fleet the
// functions run on (node geometry, static or elastic) is the platform's
// business: it is configured once, on PlatformConfig, and the controller
// accepts the platform as configured.
#ifndef SRC_CORE_QUILT_CONTROLLER_H_
#define SRC_CORE_QUILT_CONTROLLER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/billing/cost_meter.h"
#include "src/billing/plan_cost.h"
#include "src/common/status.h"
#include "src/partition/decision_engine.h"
#include "src/partition/problem.h"
#include "src/platform/platform.h"
#include "src/quiltc/compile_service.h"
#include "src/tracing/call_graph_builder.h"
#include "src/tracing/resource_monitor.h"
#include "src/tracing/span_store.h"
#include "src/tracing/trace_assembler.h"

namespace quilt {

struct ControllerOptions {
  // Per-container limits the provider grants each function (§7.3.1). A
  // merged function gets the containers of all its members (resource parity
  // with the baseline): max_scale times its member count.
  double container_cpu_limit = 2.0;
  double container_memory_limit_mb = 128.0;
  int max_scale = 10;

  // Merge decision (§4): the DecisionEngine's options.
  DecisionEngineOptions decision;
  // Merge compilation (§5): the CompileService's options, QuiltcOptions
  // included.
  CompileServiceOptions compile;

  // --- Billing / cost-aware decisions (billing engine). cost_weight is the
  // λ of the blended objective λ·latency + (1−λ)·$: 1.0 (default) keeps the
  // seed latency-only decisions byte-identical; below 1.0 every decision
  // builds a PlanCostModel from `profile` and the window's measured exec
  // durations, stamped with this λ, and all three solvers optimize the blend.
  struct CostOptions {
    double cost_weight = 1.0;   // λ; 1.0 = latency-only.
    PricingProfile profile;     // Rate card the plan-cost model prices under.
  };
  CostOptions cost;

  // Typed validation of the knob surface: rejects λ outside [0, 1] and
  // non-positive limits/thread/start counts. The controller constructor
  // calls this and surfaces the error from RegisterWorkflow instead of
  // silently misbehaving.
  Status Validate() const;
};

class MetricsView;

class QuiltController {
 public:
  QuiltController(Simulation* sim, Platform* platform, ControllerOptions options = {});

  // --- Developer-facing: upload a workflow's functions. Deploys every
  // function as its own (baseline) container image.
  Status RegisterWorkflow(const WorkflowApp& app);
  bool HasFunction(const std::string& handle) const {
    return app_of_handle_.count(handle) > 0;
  }

  // --- Profiling (§3).
  void StartProfiling();
  void StopProfiling();
  bool profiling() const { return platform_->profiling(); }
  Result<CallGraph> BuildCallGraph(const std::string& root_handle);

  // --- Decision (§4), merging (§5) and deployment (§5.5), end to end:
  // profile data must already be in the stores. The decision and compile
  // records are tagged trigger="decide" and "deploy".
  Result<MergeSolution> OptimizeWorkflow(const std::string& root_handle);

  // Deploys a chosen solution using the app's reference graph (bypasses
  // profiling; used by benchmarks that pin the grouping).
  Status DeploySolutionDirect(const WorkflowApp& app, const MergeSolution& solution);

  // --- Merge monitoring (§1.1, §5.6, §8). Quilt keeps watching merged
  // workflows: big workload changes re-run the decision, misbehaving merged
  // containers (OOM kills) trigger a rollback, and revoked merge permission
  // reverts the workflow.
  struct ReconsiderReport {
    bool rolled_back = false;
    bool redeployed = false;
    std::string reason;
  };
  // Re-examines a previously optimized workflow against the *current*
  // profile window. Call StartProfiling()/StopProfiling() around fresh
  // traffic first. The autopilot's policy with an immediate promote: an
  // OOM-killed merge rolls back; otherwise the ProposePlan path re-decides
  // (telemetry tagged trigger="reconsider"), a quiet window or an unchanged
  // plan keeps the live merge, a plan that merges nothing rolls back, and any
  // other plan goes live.
  Result<ReconsiderReport> ReconsiderWorkflow(const std::string& root_handle);

  // --- Canary-guarded adaptation mechanisms (§4.9). The autopilot owns the
  // policy (when to re-decide, promote, roll back); the controller owns the
  // mechanisms: propose a plan for the current window, stage it as a
  // weighted canary next to the live version, then promote or abort it.
  struct ProposedPlan {
    CallGraph graph;
    MergeSolution solution;
    std::string signature;
    std::vector<MergedArtifact> artifacts;  // Built only when `changed`.
    bool changed = false;  // Differs from what is currently deployed.
    int merged_groups = 0;  // Groups with >= 2 members.
  };
  // Re-runs the merge decision against the current profile window -- on top
  // of the deployed graph + observations when a merge is live (localized
  // calls are ingress-invisible), else on a fresh call graph. Deploys
  // nothing. Decision telemetry is tagged trigger="autopilot".
  Result<ProposedPlan> ProposePlan(const std::string& root_handle);
  // Stages every >=2-member group of `plan` as a canary at its group root:
  // the root keeps serving (1 - fraction) of its traffic from the live
  // version while the canary serves `fraction`. Fails if the plan has no
  // merged group (promote would equal a rollback: use RollbackDeployment)
  // or a canary is already in flight for the workflow.
  Status StageCanaryPlan(const std::string& root_handle, const ProposedPlan& plan,
                         double fraction);
  // The canary won: flip the staged roots to the new version, revert
  // formerly-merged roots the new plan no longer merges, and refresh the
  // deployment ledger (signature, graph, OOM baselines).
  Status PromoteCanaryPlan(const std::string& root_handle);
  // The canary lost (or the guard expired): drop the staged versions; the
  // live deployment keeps serving as if nothing happened.
  Status AbortCanaryPlan(const std::string& root_handle);
  bool HasStagedCanary(const std::string& root_handle) const {
    return pending_canary_.count(root_handle) > 0;
  }
  // Group-root handles with a staged platform canary for the workflow
  // (empty when no canary is in flight).
  std::vector<std::string> StagedCanaryRoots(const std::string& root_handle) const;
  // Localized (group-internal) edges of the live merge with their deployed
  // conditional-invocation budgets. Empty when no merge is live. The drift
  // detector compares these budgets against the fallback invocations the
  // ingress observes.
  struct InternalEdge {
    std::string caller;
    std::string callee;
    int budget = 0;
  };
  std::vector<InternalEdge> DeployedInternalEdges(const std::string& root_handle) const;
  bool HasMergedDeployment(const std::string& root_handle) const {
    return deployed_.count(root_handle) > 0;
  }
  // OOM kills across the workflow's merged group roots since the live plan
  // recorded their baselines (0 when no merge is live).
  int64_t OomKillsSinceDeploy(const std::string& root_handle) const;
  // Function handles of the workflow that contains `root_handle` (empty if
  // unknown). Baseline deployments and merged group roots both bill under
  // these handles, so summing the cost meter over them covers the workflow's
  // whole bill regardless of the live plan.
  std::vector<std::string> WorkflowFunctionHandles(const std::string& root_handle) const;
  // Full revert to the unmerged baseline (§8): aborts any staged canary,
  // restores every function's original image and drops the deployment ledger
  // entry. The one way to undo a merge.
  Status RollbackDeployment(const std::string& root_handle);

  // Developer revokes a function's merge permission: any merged deployment
  // containing it reverts to the unmerged originals.
  Status RevokeMergePermission(const std::string& handle);

  // The function's code changed: merged binaries containing it are stale, so
  // the owning workflow reverts (a later OptimizeWorkflow can re-merge).
  Status UpdateFunctionSource(const std::string& handle, const SourceFunction& source);

  // --- Baseline helpers for the evaluation.
  // Container-merge (CM, §7.2): the whole workflow in one container, one
  // process per function behind an internal API gateway.
  Status DeployContainerMerge(const WorkflowApp& app, double memory_limit_mb = 0.0);

  // --- Billing (§8 metering -> dollars): what metrics().CollectCostReport()
  // returns.
  struct CostReport {
    std::vector<CostRecord> records;  // Sorted by handle.
    int64_t invocation_nanos = 0;     // Σ records.total_nanos, exact.
    int64_t invocation_attempts = 0;  // Σ records.attempts.
    int64_t infra_nanos = 0;          // Node-uptime dollars (node model only).
    int64_t infra_idle_nanos = 0;     // ... of which the CPUs sat idle.
  };

  // The query surface over everything the controller observes: traces,
  // latency summaries, cost reports and the record streams.
  MetricsView metrics();

  // The typed verdict of ControllerOptions::Validate on the live options.
  const Status& options_status() const { return options_status_; }

  Platform* platform() { return platform_; }
  // Every traced invocation appends its span here when it answers.
  SpanStore* span_store() { return &span_store_; }
  MetricsStore* metrics_store() { return &metrics_store_; }
  const MetricsStore* metrics_store() const { return &metrics_store_; }
  // The decision stage behind every plan; configured by options().decision.
  DecisionEngine* decision_engine() { return &decision_engine_; }
  // The compile stack behind every plan and the baseline builders;
  // configured by options().compile, exposes cache/parallelism statistics.
  CompileService* compile_service() { return &compile_service_; }
  const CompileService* compile_service() const { return &compile_service_; }
  const ControllerOptions& options() const { return options_; }

  // Deployment-spec builder for one merged group (exposed for tests).
  Result<DeploymentSpec> MergedSpec(const WorkflowApp& app, const CallGraph& graph,
                                    const MergeGroup& group,
                                    const MergedArtifact& artifact) const;

 private:
  // The query surface reads the profile window and the stores directly.
  friend class MetricsView;

  const WorkflowApp* AppForHandle(const std::string& handle) const;
  double BaseMemoryMb(const BinaryImage& image) const;
  Result<DeploymentSpec> BaselineSpec(const WorkflowApp& app, const std::string& handle) const;
  // Replaces each merged group root's function with its artifact through
  // the platform's normal update, then records what is live.
  Status DeployMerged(const CallGraph& graph, const MergeSolution& solution,
                      const std::vector<MergedArtifact>& artifacts,
                      const std::string& workflow_root);
  // Decide + decision telemetry: emits a DecisionRecord (tagged with the
  // trigger) into the MetricsStore, success or failure.
  Result<MergeSolution> DecideWithTrigger(const CallGraph& graph, const std::string& trigger);
  // Compile a solution through the CompileService and emit one CompileRecord
  // per artifact (tagged with the trigger) into the MetricsStore.
  Result<std::vector<MergedArtifact>> CompileSolution(
      const CallGraph& graph, const MergeSolution& solution,
      const std::map<std::string, SourceFunction>& sources, const std::string& workflow_root,
      const std::string& trigger);

  Simulation* sim_;
  Platform* platform_;
  ControllerOptions options_;
  Status options_status_;
  // mutable: the const deployment-spec builders (BaselineSpec,
  // DeployContainerMerge) build single-function artifacts through the
  // service, which updates its caches and statistics.
  mutable CompileService compile_service_;
  DecisionEngine decision_engine_;

  SpanStore span_store_;
  MetricsStore metrics_store_;
  ResourceMonitor monitor_;
  SimTime profile_window_start_ = 0;

  std::vector<WorkflowApp> apps_;
  std::map<std::string, int> app_of_handle_;  // handle -> index into apps_.

  // Deployment ledger for merge monitoring: the signature of what is live
  // (sorted group member sets + localized-edge budgets) and the failure
  // counters observed at deploy time.
  struct DeployedState {
    std::string signature;
    std::map<std::string, int64_t> oom_baseline;  // group root -> oom_kills.
    // The graph and grouping the live merge was built from. Needed to
    // reconstruct workload drift: localized calls are invisible to the
    // ingress, so a merged workflow's observable spans are only the
    // conditional-invocation fallbacks (true alpha = budget + observed).
    CallGraph graph;
    MergeSolution solution;
  };
  std::map<std::string, DeployedState> deployed_;  // workflow root -> state.

  // Canary in flight for a workflow: the proposed plan plus the group-root
  // handles that have a staged platform canary.
  struct PendingCanary {
    ProposedPlan plan;
    std::vector<std::string> staged_roots;
  };
  std::map<std::string, PendingCanary> pending_canary_;

  // Writes the deployment ledger entry for a (graph, solution) whose merged
  // group roots already serve their new images, reverting formerly merged
  // roots the solution no longer merges. Every path that makes a merge live
  // (DeployMerged, PromoteCanaryPlan) ends here.
  Status RecordDeployed(const WorkflowApp& app, const CallGraph& graph,
                        const MergeSolution& solution, const std::string& workflow_root);

  // ProposePlan's code path with the decision and compile records tagged
  // by the caller (the autopilot's and ReconsiderWorkflow's share it).
  Result<ProposedPlan> Propose(const std::string& root_handle,
                               const std::string& decision_trigger,
                               const std::string& compile_trigger);
  // The one revert path: aborts a staged canary, then restores every
  // function's original image and drops the ledger entry -- only when a merge
  // is live, unless `reimage_unmerged`.
  Status RevertToBaseline(const std::string& root_handle, bool reimage_unmerged);

  std::string SolutionSignature(const CallGraph& graph, const MergeSolution& solution) const;
  // Applies the current window's observations on top of the deployed graph.
  Result<CallGraph> UpdatedGraphFromObservations(const DeployedState& state,
                                                 const std::string& root_handle);
};

// The controller's one query surface: traces, latency summaries, cost
// reports, and the record streams (decisions, adaptations, compiles, node
// samples, ...). Benches, tests and the autopilot read telemetry through
// this instead of reaching through four subsystems.
// Lightweight handle: copyable, valid as long as the controller lives.
class MetricsView {
 public:
  explicit MetricsView(QuiltController* controller) : controller_(controller) {}

  // Assembles the profile window's spans into per-request trace trees. A
  // window query, not a drain: repeated calls see the same traces.
  std::vector<Trace> CollectTraces();
  // Latency decomposition percentiles for one workflow over the window;
  // the summary is also appended to the MetricsStore. Status is typed so
  // callers can distinguish operator error from a quiet window:
  //   kNotFound     -- root_handle is not a registered function.
  //   kUnavailable  -- window holds no complete trace (transient: the right
  //                    reaction is "wait for traffic", not "alarm").
  // `filter` restricts the summary to control- or canary-served traces
  // during a two-version guard window.
  Result<WorkflowLatencySummary> SummarizeWorkflowLatency(
      const std::string& root_handle, TraceVersionFilter filter = TraceVersionFilter::kAll);
  // Snapshots the platform's cost meter: per-handle bill lines (appended to
  // the MetricsStore as canonical CostRecords) plus infrastructure dollars
  // derived from the window's NodeSamples, so stranded capacity shows up as
  // paid-but-idle money.
  QuiltController::CostReport CollectCostReport();

  // Record streams from the MetricsStore.
  const std::vector<DecisionRecord>& decisions() const {
    return controller_->metrics_store()->decisions();
  }
  const std::vector<AdaptationRecord>& adaptations() const {
    return controller_->metrics_store()->adaptations();
  }
  const std::vector<CompileRecord>& compiles() const {
    return controller_->metrics_store()->compiles();
  }
  const std::vector<NodeSample>& node_samples() const {
    return controller_->metrics_store()->node_samples();
  }
  const std::vector<CostRecord>& cost_records() const {
    return controller_->metrics_store()->cost_records();
  }
  const std::vector<WorkflowLatencySummary>& workflow_latency() const {
    return controller_->metrics_store()->workflow_latency();
  }

 private:
  QuiltController* controller_;
};

inline MetricsView QuiltController::metrics() { return MetricsView(this); }

}  // namespace quilt

#endif  // SRC_CORE_QUILT_CONTROLLER_H_
