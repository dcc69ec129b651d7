#include "src/core/quilt_controller.h"

#include <algorithm>

#include "src/common/strings.h"

namespace quilt {

Status ControllerOptions::Validate() const {
  if (container_cpu_limit <= 0.0) {
    return InvalidArgumentError("container_cpu_limit must be positive");
  }
  if (container_memory_limit_mb <= 0.0) {
    return InvalidArgumentError("container_memory_limit_mb must be positive");
  }
  if (max_scale < 1) {
    return InvalidArgumentError("max_scale must be >= 1");
  }
  if (cost.cost_weight < 0.0 || cost.cost_weight > 1.0) {
    return InvalidArgumentError("cost.cost_weight (lambda) must be in [0, 1]");
  }
  if (decision.grasp_threads < 1) {
    return InvalidArgumentError("decision.grasp_threads must be >= 1");
  }
  if (compile.compile_threads < 1) {
    return InvalidArgumentError("compile.compile_threads must be >= 1");
  }
  return Status::Ok();
}

QuiltController::QuiltController(Simulation* sim, Platform* platform, ControllerOptions options)
    : sim_(sim),
      platform_(platform),
      options_(options),
      options_status_(options.Validate()),
      compile_service_(options.compile),
      decision_engine_(options.decision),
      metrics_store_(),
      monitor_(sim, &metrics_store_, [platform] { return platform->SampleResources(); }) {
  platform_->ConnectSpanStore(&span_store_);
  // The same sampling tick also snapshots per-node utilization/stranding
  // (empty while the platform runs the infinite pool).
  monitor_.set_node_source([platform] { return platform->SampleNodes(); });
}

namespace {

// Worst-case live memory of one request against a behavior: its working set
// plus every allocation it performs (merged behaviors add the footprint of
// the local callees that can run concurrently within the request).
double FunctionFootprintMb(const FunctionBehavior& fn) {
  double mb = fn.request_memory_mb;
  for (const BehaviorStep& step : fn.steps) {
    if (const auto* alloc = std::get_if<AllocStep>(&step)) {
      mb += alloc->mb;
    }
  }
  return mb;
}

double RequestFootprintMb(const DeployedBehavior& behavior) {
  if (behavior.single != nullptr) {
    return FunctionFootprintMb(*behavior.single);
  }
  const MergedBehavior& merged = *behavior.merged;
  auto root = merged.functions.find(merged.root_handle);
  double mb = root != merged.functions.end() ? FunctionFootprintMb(root->second) : 0.0;
  for (const auto& [key, budget] : merged.edge_budgets) {
    const std::string callee = key.substr(key.find("->") + 2);
    auto it = merged.functions.find(callee);
    if (it != merged.functions.end()) {
      mb += std::max(1, budget) * FunctionFootprintMb(it->second);
    }
  }
  return mb;
}

// How many requests fit in a container without risking the memory limit.
int MemoryPlannedConcurrency(const DeployedBehavior& behavior,
                             const ContainerConfig& container) {
  const double footprint = RequestFootprintMb(behavior);
  if (footprint <= 0.0) {
    return 0;  // No information: platform default.
  }
  const double headroom = container.memory_limit_mb - container.base_memory_mb;
  return std::max(1, static_cast<int>(headroom / footprint));
}

}  // namespace

double QuiltController::BaseMemoryMb(const BinaryImage& image) const {
  // Resident footprint of an idle process: mapped binary + heap bootstrap.
  return 2.5 + 0.4 * static_cast<double>(image.size_bytes) / (1024.0 * 1024.0);
}

const WorkflowApp* QuiltController::AppForHandle(const std::string& handle) const {
  auto it = app_of_handle_.find(handle);
  if (it == app_of_handle_.end()) {
    return nullptr;
  }
  return &apps_[it->second];
}

Result<DeploymentSpec> QuiltController::BaselineSpec(const WorkflowApp& app,
                                                     const std::string& handle) const {
  const AppFunctionSpec* fn = app.Find(handle);
  if (fn == nullptr) {
    return NotFoundError(StrCat("function '", handle, "' not in workflow '", app.name, "'"));
  }
  const std::map<std::string, SourceFunction> sources = app.Sources();
  Result<MergedArtifact> artifact = compile_service_.BuildSingleFunction(sources.at(handle));
  if (!artifact.ok()) {
    return artifact.status();
  }
  DeploymentSpec spec;
  spec.handle = handle;
  spec.max_scale = options_.max_scale;
  spec.container.cpu_limit = options_.container_cpu_limit;
  spec.container.memory_limit_mb = options_.container_memory_limit_mb;
  spec.container.image_size_bytes = artifact->image.size_bytes;
  spec.container.eager_libs = artifact->image.eager_libs;
  spec.container.lazy_libs = artifact->image.lazy_libs;
  spec.container.base_memory_mb = BaseMemoryMb(artifact->image);
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = handle;
  behavior->request_memory_mb = fn->request_memory_mb;
  behavior->steps = fn->steps;
  spec.behavior.single = std::move(behavior);
  spec.max_concurrent_requests = MemoryPlannedConcurrency(spec.behavior, spec.container);
  return spec;
}

Result<DeploymentSpec> QuiltController::MergedSpec(const WorkflowApp& app,
                                                   const CallGraph& graph,
                                                   const MergeGroup& group,
                                                   const MergedArtifact& artifact) const {
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kQuilt;
  merged->root_handle = artifact.handle;
  const std::map<std::string, FunctionBehavior> behaviors = app.Behaviors();
  for (const std::string& handle : artifact.member_handles) {
    auto it = behaviors.find(handle);
    if (it == behaviors.end()) {
      return NotFoundError(StrCat("no behavior for merged member '", handle, "'"));
    }
    merged->functions[handle] = it->second;
  }
  for (const LocalizedEdge& edge : artifact.localized_edges) {
    merged->edge_budgets[MergedBehavior::EdgeKey(edge.caller_handle, edge.callee_handle)] =
        edge.budget;
  }

  DeploymentSpec spec;
  spec.handle = artifact.handle;
  spec.max_scale = options_.max_scale * static_cast<int>(artifact.member_handles.size());
  spec.container.cpu_limit = options_.container_cpu_limit;
  spec.container.memory_limit_mb = options_.container_memory_limit_mb;
  spec.container.image_size_bytes = artifact.image.size_bytes;
  spec.container.eager_libs = artifact.image.eager_libs;
  spec.container.lazy_libs = artifact.image.lazy_libs;
  spec.container.base_memory_mb = BaseMemoryMb(artifact.image);
  spec.behavior.merged = std::move(merged);
  spec.max_concurrent_requests = MemoryPlannedConcurrency(spec.behavior, spec.container);
  return spec;
}

Status QuiltController::RegisterWorkflow(const WorkflowApp& app) {
  QUILT_RETURN_IF_ERROR(options_status_);
  for (const AppFunctionSpec& fn : app.functions) {
    if (app_of_handle_.count(fn.handle) > 0) {
      return AlreadyExistsError(StrCat("function '", fn.handle, "' already registered"));
    }
  }
  apps_.push_back(app);
  const int index = static_cast<int>(apps_.size()) - 1;
  for (const AppFunctionSpec& fn : app.functions) {
    app_of_handle_[fn.handle] = index;
    Result<DeploymentSpec> spec = BaselineSpec(app, fn.handle);
    if (!spec.ok()) {
      return spec.status();
    }
    QUILT_RETURN_IF_ERROR(platform_->Deploy(std::move(spec).value()));
  }
  return Status::Ok();
}

void QuiltController::StartProfiling() {
  profile_window_start_ = sim_->now();
  platform_->SetProfiling(true);
  monitor_.Start();
}

void QuiltController::StopProfiling() {
  platform_->SetProfiling(false);
  monitor_.Stop();
}

Result<CallGraph> QuiltController::BuildCallGraph(const std::string& root_handle) {
  const std::vector<Span> spans = span_store_.Query(profile_window_start_, sim_->now() + 1);
  return BuildCallGraphFromTraces(spans, metrics_store_.Aggregate(), root_handle);
}

Result<MergeSolution> QuiltController::DecideWithTrigger(const CallGraph& graph,
                                                         const std::string& trigger) {
  MergeProblem problem;
  problem.graph = &graph;
  problem.cpu_limit = options_.container_cpu_limit;
  problem.memory_limit = options_.container_memory_limit_mb;
  // Cost-aware decisions (λ < 1): price every edge from the window's
  // measured exec durations under the configured rate card, and stamp λ on
  // the model -- the one place the solvers read it. With λ = 1 the problem
  // carries no cost terms and the decision is byte-identical to the
  // latency-only path.
  if (options_.cost.cost_weight < 1.0) {
    PlanCostInputs inputs;
    inputs.profile = options_.cost.profile;
    inputs.exec_seconds = MeanExecSecondsBySpan(
        span_store_.Query(profile_window_start_, sim_->now() + 1));
    problem.cost = BuildPlanCostModel(graph, inputs);
    problem.cost.weight = options_.cost.cost_weight;
  }

  DecisionRecord record;
  Result<MergeSolution> solution = decision_engine_.Decide(problem, &record);
  record.trigger = trigger;
  record.workflow = graph.num_nodes() > 0 ? graph.node(graph.root()).name : "";
  record.virtual_time = sim_->now();
  metrics_store_.AddDecision(std::move(record));
  return solution;
}

Result<std::vector<MergedArtifact>> QuiltController::CompileSolution(
    const CallGraph& graph, const MergeSolution& solution,
    const std::map<std::string, SourceFunction>& sources, const std::string& workflow_root,
    const std::string& trigger) {
  std::vector<CompileRecord> records;
  Result<std::vector<MergedArtifact>> artifacts =
      compile_service_.MergeSolution(graph, solution, sources, &records);
  if (!artifacts.ok()) {
    return artifacts.status();
  }
  for (CompileRecord& record : records) {
    record.trigger = trigger;
    record.workflow = workflow_root;
    record.virtual_time = sim_->now();
    metrics_store_.AddCompile(std::move(record));
  }
  return artifacts;
}

Status QuiltController::DeployMerged(const CallGraph& graph, const MergeSolution& solution,
                                     const std::vector<MergedArtifact>& artifacts,
                                     const std::string& workflow_root) {
  const WorkflowApp* app = AppForHandle(workflow_root);
  if (app == nullptr) {
    return NotFoundError(StrCat("workflow root '", workflow_root, "' not registered"));
  }
  if (artifacts.size() != solution.groups.size()) {
    return InvalidArgumentError("artifact count does not match group count");
  }
  for (size_t i = 0; i < artifacts.size(); ++i) {
    const MergedArtifact& artifact = artifacts[i];
    if (artifact.IsSingleFunction()) {
      continue;  // Unmerged group: the baseline deployment already serves it.
    }
    Result<DeploymentSpec> spec = MergedSpec(*app, graph, solution.groups[i], artifact);
    if (!spec.ok()) {
      return spec.status();
    }
    // The same mechanism as a developer uploading an updated function: the
    // scheduler just sees a new image for this handle (§5.5).
    QUILT_RETURN_IF_ERROR(platform_->UpdateFunction(std::move(spec).value()));
  }

  // Record what is live so the merge monitor can detect drift/misbehavior.
  return RecordDeployed(*app, graph, solution, workflow_root);
}

Status QuiltController::RecordDeployed(const WorkflowApp& app, const CallGraph& graph,
                                       const MergeSolution& solution,
                                       const std::string& workflow_root) {
  DeployedState state;
  state.signature = SolutionSignature(graph, solution);
  state.graph = graph;
  state.solution = solution;
  for (const MergeGroup& group : solution.groups) {
    if (group.members.size() < 2) {
      continue;
    }
    const std::string& group_root = graph.node(group.root).name;
    const DeploymentStats* stats = platform_->StatsFor(group_root);
    state.oom_baseline[group_root] = stats != nullptr ? stats->oom_kills : 0;
  }
  // Formerly-merged group roots the new plan no longer merges revert to
  // their original single-function image (updating only the plan's merged
  // roots would leave them serving the old merged binary).
  auto deployed_it = deployed_.find(workflow_root);
  if (deployed_it != deployed_.end()) {
    for (const auto& [group_root, baseline] : deployed_it->second.oom_baseline) {
      if (state.oom_baseline.count(group_root) > 0) {
        continue;
      }
      Result<DeploymentSpec> spec = BaselineSpec(app, group_root);
      if (!spec.ok()) {
        return spec.status();
      }
      QUILT_RETURN_IF_ERROR(platform_->UpdateFunction(std::move(spec).value()));
    }
  }
  deployed_[workflow_root] = std::move(state);
  return Status::Ok();
}

Result<MergeSolution> QuiltController::OptimizeWorkflow(const std::string& root_handle) {
  Result<CallGraph> graph = BuildCallGraph(root_handle);
  if (!graph.ok()) {
    return graph.status();
  }
  Result<MergeSolution> solution = DecideWithTrigger(*graph, "decide");
  if (!solution.ok()) {
    return solution.status();
  }
  const WorkflowApp* app = AppForHandle(root_handle);
  if (app == nullptr) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  Result<std::vector<MergedArtifact>> artifacts =
      CompileSolution(*graph, *solution, app->Sources(), root_handle, "deploy");
  if (!artifacts.ok()) {
    return artifacts.status();
  }
  QUILT_RETURN_IF_ERROR(DeployMerged(*graph, *solution, *artifacts, root_handle));
  return solution;
}

Status QuiltController::DeploySolutionDirect(const WorkflowApp& app,
                                             const MergeSolution& solution) {
  Result<CallGraph> graph = app.ReferenceGraph();
  if (!graph.ok()) {
    return graph.status();
  }
  Result<std::vector<MergedArtifact>> artifacts =
      CompileSolution(*graph, solution, app.Sources(), app.root_handle, "direct");
  if (!artifacts.ok()) {
    return artifacts.status();
  }
  return DeployMerged(*graph, solution, *artifacts, app.root_handle);
}

std::string QuiltController::SolutionSignature(const CallGraph& graph,
                                               const MergeSolution& solution) const {
  // Canonical text form: per group, the sorted member handles; plus every
  // edge's alpha (which becomes the conditional-invocation budget). Any
  // change in grouping *or* in profiled call frequencies alters it.
  std::vector<std::string> group_strings;
  for (const MergeGroup& group : solution.groups) {
    std::vector<std::string> members;
    for (NodeId id : group.members) {
      members.push_back(graph.node(id).name);
    }
    std::sort(members.begin(), members.end());
    group_strings.push_back(StrCat(graph.node(group.root).name, ":", StrJoin(members, ",")));
  }
  std::sort(group_strings.begin(), group_strings.end());
  std::vector<std::string> edge_strings;
  for (const CallEdge& e : graph.edges()) {
    edge_strings.push_back(
        StrCat(graph.node(e.from).name, ">", graph.node(e.to).name, "=", e.alpha));
  }
  std::sort(edge_strings.begin(), edge_strings.end());
  return StrJoin(group_strings, ";") + "|" + StrJoin(edge_strings, ";");
}

Result<QuiltController::ReconsiderReport> QuiltController::ReconsiderWorkflow(
    const std::string& root_handle) {
  auto deployed_it = deployed_.find(root_handle);
  if (deployed_it == deployed_.end()) {
    return FailedPreconditionError(
        StrCat("workflow '", root_handle, "' has no merged deployment to reconsider"));
  }
  if (pending_canary_.count(root_handle) > 0) {
    // A guard window is running: the autopilot will promote or abort the
    // staged plan; re-deciding underneath it would race both versions.
    return FailedPreconditionError(
        StrCat("workflow '", root_handle, "' has a canary in flight; reconsider after the "
               "guard window resolves"));
  }
  ReconsiderReport report;

  // 1. Misbehavior: merged containers being OOM-killed means the profile
  //    under-estimated memory; roll back first (§8).
  for (const auto& [group_root, baseline] : deployed_it->second.oom_baseline) {
    const DeploymentStats* stats = platform_->StatsFor(group_root);
    if (stats != nullptr && stats->oom_kills > baseline) {
      // Build the report first: group_root/baseline point into the
      // DeployedState that the revert destroys, and the revert may drop the
      // stats entry behind `stats`.
      report.rolled_back = true;
      report.reason = StrCat("merged function '", group_root, "' exceeded its memory limit ",
                             stats->oom_kills - baseline, " time(s)");
      QUILT_RETURN_IF_ERROR(RevertToBaseline(root_handle, /*reimage_unmerged=*/false));
      return report;
    }
  }

  // 2. Workload drift: re-decide on the deployed graph plus what the current
  //    window observed (client arrivals and conditional-invocation
  //    fallbacks), exactly as the autopilot proposes a plan.
  Result<ProposedPlan> plan = Propose(root_handle, "reconsider", "reconsider");
  if (!plan.ok()) {
    if (plan.status().code() == StatusCode::kUnavailable) {
      // An empty profile window is not drift (and not misbehavior): there is
      // nothing fresh to learn from, so the deployed merge stands.
      report.reason = "profile window holds no fresh traces; keeping the current merge";
      return report;
    }
    return plan.status();
  }
  if (!plan->changed) {
    report.reason = "profile unchanged; keeping the current merge";
    return report;
  }
  if (plan->merged_groups == 0) {
    // The optimum for the new profile is the unmerged baseline.
    QUILT_RETURN_IF_ERROR(RevertToBaseline(root_handle, /*reimage_unmerged=*/false));
    report.rolled_back = true;
    report.reason = "workload profile changed; the unmerged baseline is optimal";
    return report;
  }
  QUILT_RETURN_IF_ERROR(DeployMerged(plan->graph, plan->solution, plan->artifacts, root_handle));
  report.redeployed = true;
  report.reason = "workload profile changed; merged functions rebuilt";
  return report;
}

Result<CallGraph> QuiltController::UpdatedGraphFromObservations(
    const DeployedState& state, const std::string& root_handle) {
  // What did the ingress see this window? (Errors if there was no traffic:
  // the monitor needs a fresh profile window.)
  Result<CallGraph> observed = BuildCallGraph(root_handle);
  if (!observed.ok()) {
    return observed.status();
  }

  // Which deployed edges are internal to a merged group (invisible except
  // for over-budget fallbacks)?
  const CallGraph& base = state.graph;
  std::vector<bool> internal(base.num_edges(), false);
  for (const MergeGroup& group : state.solution.groups) {
    if (group.members.size() < 2) {
      continue;
    }
    for (EdgeId eid = 0; eid < base.num_edges(); ++eid) {
      if (group.Contains(base.edge(eid).from) && group.Contains(base.edge(eid).to)) {
        internal[eid] = true;
      }
    }
  }
  const bool conditional = options_.compile.quiltc.conditional_invocations;

  CallGraph updated;
  for (NodeId id = 0; id < base.num_nodes(); ++id) {
    // Keep the deploy-time resource labels: fresh samples describe merged
    // *containers*, not individual functions (a merged root's container
    // carries its whole group's memory). Resource misbehavior is caught by
    // the OOM signal instead.
    updated.AddNode(base.node(id));
  }
  updated.SetRoot(base.root());
  for (EdgeId eid = 0; eid < base.num_edges(); ++eid) {
    const CallEdge& e = base.edge(eid);
    const NodeId from = observed->FindNode(base.node(e.from).name);
    const NodeId to = observed->FindNode(base.node(e.to).name);
    const EdgeId seen =
        (from != kInvalidNode && to != kInvalidNode) ? observed->FindEdge(from, to) : -1;
    const int observed_alpha = seen != -1 ? observed->edge(seen).alpha : 0;
    int alpha = e.alpha;
    if (internal[eid] && conditional) {
      // Local up to the budget; any ingress-visible call is overflow.
      alpha = e.alpha + observed_alpha;
    } else if (!internal[eid] && seen != -1) {
      // Cut (remote) edge: fully observable, take the fresh value.
      alpha = observed_alpha;
    }
    QUILT_RETURN_IF_ERROR(updated.AddEdgeWithAlpha(e.from, e.to, alpha * 1000.0, alpha, e.type));
  }
  // Entirely new caller->callee pairs (code paths that never profiled
  // before) appear only between known functions here; exotic cases fall back
  // to a full re-profile after rollback.
  QUILT_RETURN_IF_ERROR(updated.Validate());
  return updated;
}

Result<QuiltController::ProposedPlan> QuiltController::ProposePlan(
    const std::string& root_handle) {
  return Propose(root_handle, "autopilot", "canary");
}

Result<QuiltController::ProposedPlan> QuiltController::Propose(
    const std::string& root_handle, const std::string& decision_trigger,
    const std::string& compile_trigger) {
  if (app_of_handle_.count(root_handle) == 0) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  auto deployed_it = deployed_.find(root_handle);
  Result<CallGraph> graph =
      deployed_it != deployed_.end()
          ? UpdatedGraphFromObservations(deployed_it->second, root_handle)
          : BuildCallGraph(root_handle);
  if (!graph.ok()) {
    return graph.status();
  }
  Result<MergeSolution> solution = DecideWithTrigger(*graph, decision_trigger);
  if (!solution.ok()) {
    return solution.status();
  }

  ProposedPlan plan;
  plan.graph = std::move(graph).value();
  plan.solution = std::move(solution).value();
  plan.signature = SolutionSignature(plan.graph, plan.solution);
  for (const MergeGroup& group : plan.solution.groups) {
    if (group.members.size() >= 2) {
      ++plan.merged_groups;
    }
  }
  // A plan "changes" the deployment when its signature differs from the live
  // merge -- or, with nothing merged yet, when it merges anything at all.
  plan.changed = deployed_it != deployed_.end()
                     ? plan.signature != deployed_it->second.signature
                     : plan.merged_groups > 0;
  if (plan.changed && plan.merged_groups > 0) {
    const WorkflowApp* app = AppForHandle(root_handle);
    if (app == nullptr) {
      return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
    }
    Result<std::vector<MergedArtifact>> artifacts =
        CompileSolution(plan.graph, plan.solution, app->Sources(), root_handle, compile_trigger);
    if (!artifacts.ok()) {
      return artifacts.status();
    }
    plan.artifacts = std::move(artifacts).value();
  }
  return plan;
}

Status QuiltController::StageCanaryPlan(const std::string& root_handle,
                                        const ProposedPlan& plan, double fraction) {
  const WorkflowApp* app = AppForHandle(root_handle);
  if (app == nullptr) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  if (pending_canary_.count(root_handle) > 0) {
    return AlreadyExistsError(
        StrCat("workflow '", root_handle, "' already has a canary in flight"));
  }
  if (!plan.changed) {
    return FailedPreconditionError("plan does not change the deployment; nothing to stage");
  }
  if (plan.merged_groups == 0) {
    return FailedPreconditionError(
        "plan has no merged groups; promote would be a rollback (use RollbackDeployment)");
  }
  if (plan.artifacts.size() != plan.solution.groups.size()) {
    return InvalidArgumentError("plan artifact count does not match group count");
  }

  PendingCanary pending;
  pending.plan = plan;
  for (size_t i = 0; i < plan.artifacts.size(); ++i) {
    const MergedArtifact& artifact = plan.artifacts[i];
    if (artifact.IsSingleFunction()) {
      continue;  // Unmerged group: the live deployment already serves it.
    }
    Result<DeploymentSpec> spec =
        MergedSpec(*app, plan.graph, plan.solution.groups[i], artifact);
    if (!spec.ok()) {
      // Unwind canaries staged so far: staging is all-or-nothing.
      for (const std::string& staged : pending.staged_roots) {
        (void)platform_->AbortCanary(staged);
      }
      return spec.status();
    }
    // One warm container so the canary's first requests measure the new
    // version, not its cold start.
    spec->warm_containers = std::max(spec->warm_containers, 1);
    const std::string handle = spec->handle;
    Status staged = platform_->StageCanary(std::move(spec).value(), fraction);
    if (!staged.ok()) {
      for (const std::string& prior : pending.staged_roots) {
        (void)platform_->AbortCanary(prior);
      }
      return staged;
    }
    pending.staged_roots.push_back(handle);
  }
  pending_canary_[root_handle] = std::move(pending);
  return Status::Ok();
}

Status QuiltController::PromoteCanaryPlan(const std::string& root_handle) {
  auto it = pending_canary_.find(root_handle);
  if (it == pending_canary_.end()) {
    return FailedPreconditionError(
        StrCat("workflow '", root_handle, "' has no canary in flight"));
  }
  const WorkflowApp* app = AppForHandle(root_handle);
  if (app == nullptr) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  for (const std::string& staged : it->second.staged_roots) {
    QUILT_RETURN_IF_ERROR(platform_->PromoteCanary(staged));
  }
  QUILT_RETURN_IF_ERROR(
      RecordDeployed(*app, it->second.plan.graph, it->second.plan.solution, root_handle));
  pending_canary_.erase(it);
  return Status::Ok();
}

Status QuiltController::AbortCanaryPlan(const std::string& root_handle) {
  auto it = pending_canary_.find(root_handle);
  if (it == pending_canary_.end()) {
    return FailedPreconditionError(
        StrCat("workflow '", root_handle, "' has no canary in flight"));
  }
  for (const std::string& staged : it->second.staged_roots) {
    // A root whose canary already died with its deployment is fine to skip.
    if (platform_->HasCanary(staged)) {
      QUILT_RETURN_IF_ERROR(platform_->AbortCanary(staged));
    }
  }
  pending_canary_.erase(it);
  // Canary OOM kills were charged to the deployment's overall counters too:
  // refresh the live plan's baselines so the aborted canary's misbehavior is
  // not held against the version that keeps serving.
  auto deployed_it = deployed_.find(root_handle);
  if (deployed_it != deployed_.end()) {
    for (auto& [group_root, baseline] : deployed_it->second.oom_baseline) {
      const DeploymentStats* stats = platform_->StatsFor(group_root);
      if (stats != nullptr) {
        baseline = stats->oom_kills;
      }
    }
  }
  return Status::Ok();
}

std::vector<std::string> QuiltController::StagedCanaryRoots(
    const std::string& root_handle) const {
  auto it = pending_canary_.find(root_handle);
  return it != pending_canary_.end() ? it->second.staged_roots : std::vector<std::string>{};
}

std::vector<QuiltController::InternalEdge> QuiltController::DeployedInternalEdges(
    const std::string& root_handle) const {
  std::vector<InternalEdge> edges;
  auto it = deployed_.find(root_handle);
  if (it == deployed_.end()) {
    return edges;
  }
  const CallGraph& graph = it->second.graph;
  for (const MergeGroup& group : it->second.solution.groups) {
    if (group.members.size() < 2) {
      continue;
    }
    for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
      const CallEdge& e = graph.edge(eid);
      if (group.Contains(e.from) && group.Contains(e.to)) {
        edges.push_back({graph.node(e.from).name, graph.node(e.to).name, e.alpha});
      }
    }
  }
  return edges;
}

int64_t QuiltController::OomKillsSinceDeploy(const std::string& root_handle) const {
  auto it = deployed_.find(root_handle);
  if (it == deployed_.end()) {
    return 0;
  }
  int64_t kills = 0;
  for (const auto& [group_root, baseline] : it->second.oom_baseline) {
    const DeploymentStats* stats = platform_->StatsFor(group_root);
    if (stats != nullptr && stats->oom_kills > baseline) {
      kills += stats->oom_kills - baseline;
    }
  }
  return kills;
}

std::vector<std::string> QuiltController::WorkflowFunctionHandles(
    const std::string& root_handle) const {
  std::vector<std::string> handles;
  const WorkflowApp* app = AppForHandle(root_handle);
  if (app == nullptr) {
    return handles;
  }
  handles.reserve(app->functions.size());
  for (const AppFunctionSpec& fn : app->functions) {
    handles.push_back(fn.handle);
  }
  return handles;
}

Status QuiltController::RollbackDeployment(const std::string& root_handle) {
  return RevertToBaseline(root_handle, /*reimage_unmerged=*/true);
}

Status QuiltController::RevertToBaseline(const std::string& root_handle,
                                         bool reimage_unmerged) {
  const WorkflowApp* app = AppForHandle(root_handle);
  if (app == nullptr) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  // A staged canary plan is built on what is being reverted: drop it first.
  if (pending_canary_.count(root_handle) > 0) {
    QUILT_RETURN_IF_ERROR(AbortCanaryPlan(root_handle));
  }
  if (!reimage_unmerged && deployed_.count(root_handle) == 0) {
    return Status::Ok();
  }
  // Replace every handle with its original single-function image. Handles
  // that were never merged are refreshed harmlessly.
  for (const AppFunctionSpec& fn : app->functions) {
    Result<DeploymentSpec> spec = BaselineSpec(*app, fn.handle);
    if (!spec.ok()) {
      return spec.status();
    }
    QUILT_RETURN_IF_ERROR(platform_->UpdateFunction(std::move(spec).value()));
  }
  deployed_.erase(root_handle);
  return Status::Ok();
}

Status QuiltController::RevokeMergePermission(const std::string& handle) {
  auto it = app_of_handle_.find(handle);
  if (it == app_of_handle_.end()) {
    return NotFoundError(StrCat("function '", handle, "' not registered"));
  }
  WorkflowApp& app = apps_[it->second];
  for (AppFunctionSpec& fn : app.functions) {
    if (fn.handle == handle) {
      fn.mergeable = false;
    }
  }
  // Any staged canary plan or live merge may contain the function: both
  // revert to the originals.
  return RevertToBaseline(app.root_handle, /*reimage_unmerged=*/false);
}

Status QuiltController::UpdateFunctionSource(const std::string& handle,
                                             const SourceFunction& source) {
  auto it = app_of_handle_.find(handle);
  if (it == app_of_handle_.end()) {
    return NotFoundError(StrCat("function '", handle, "' not registered"));
  }
  WorkflowApp& app = apps_[it->second];
  for (AppFunctionSpec& fn : app.functions) {
    if (fn.handle == handle) {
      fn.lang = source.lang;
      fn.user_code_bytes = source.user_code_bytes;
      fn.mergeable = source.mergeable;
    }
  }
  // Merged binaries -- live or staged as a canary -- containing the old code
  // are stale (§1.1): revert; the provider re-optimizes in the background
  // later.
  const bool merged = deployed_.count(app.root_handle) > 0;
  QUILT_RETURN_IF_ERROR(RevertToBaseline(app.root_handle, /*reimage_unmerged=*/false));
  if (merged) {
    return Status::Ok();
  }
  // No merge live: just refresh the single-function image.
  Result<DeploymentSpec> spec = BaselineSpec(app, handle);
  if (!spec.ok()) {
    return spec.status();
  }
  return platform_->UpdateFunction(std::move(spec).value());
}

Status QuiltController::DeployContainerMerge(const WorkflowApp& app, double memory_limit_mb) {
  // One container image holding every function as a separate process plus
  // the internal API gateway (WiseFuse-inspired CM baseline, §7.2).
  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kContainerMerge;
  merged->root_handle = app.root_handle;
  for (const auto& [handle, behavior] : app.Behaviors()) {
    merged->functions[handle] = behavior;
  }

  // Image: the sum of all function binaries (nothing is deduplicated).
  int64_t image_bytes = 0;
  const std::map<std::string, SourceFunction> sources = app.Sources();
  for (const auto& [handle, source] : sources) {
    Result<MergedArtifact> artifact = compile_service_.BuildSingleFunction(source);
    if (!artifact.ok()) {
      return artifact.status();
    }
    image_bytes += artifact->image.size_bytes;
  }

  DeploymentSpec spec;
  spec.handle = app.root_handle;
  spec.max_scale = options_.max_scale * static_cast<int>(app.functions.size());
  spec.container.cpu_limit = options_.container_cpu_limit;
  spec.container.memory_limit_mb =
      memory_limit_mb > 0.0 ? memory_limit_mb : options_.container_memory_limit_mb;
  spec.container.image_size_bytes = image_bytes;
  spec.container.eager_libs = 43 * static_cast<int>(app.functions.size());
  spec.container.lazy_libs = 0;
  // Internal gateway + the root function's resident process.
  spec.container.base_memory_mb = 10.0 + kCmProcessBaseMb;
  spec.behavior.merged = std::move(merged);
  return platform_->UpdateFunction(std::move(spec));
}

std::vector<Trace> MetricsView::CollectTraces() {
  QuiltController& c = *controller_;
  return AssembleTraces(c.span_store_.Query(c.profile_window_start_, c.sim_->now() + 1));
}

Result<WorkflowLatencySummary> MetricsView::SummarizeWorkflowLatency(
    const std::string& root_handle, TraceVersionFilter filter) {
  QuiltController& c = *controller_;
  if (!c.HasFunction(root_handle)) {
    return NotFoundError(StrCat("workflow root '", root_handle, "' not registered"));
  }
  WorkflowLatencySummary summary =
      quilt::SummarizeWorkflowLatency(root_handle, CollectTraces(), c.sim_->now(), filter);
  if (summary.traces == 0) {
    // Typed as transient: an empty window means "wait for traffic", not an
    // operator error. The autopilot holds instead of alarming on this.
    return UnavailableError(StrCat("no complete ", TraceVersionFilterName(filter),
                                   " traces of workflow '", root_handle,
                                   "' in the profile window"));
  }
  c.metrics_store_.AddWorkflowLatency(summary);
  return summary;
}

QuiltController::CostReport MetricsView::CollectCostReport() {
  QuiltController& c = *controller_;
  QuiltController::CostReport report;
  CostMeter& meter = c.platform_->cost_meter();
  report.records = meter.Records();
  for (const CostRecord& record : report.records) {
    c.metrics_store_.AddCost(record);
  }
  report.invocation_nanos = meter.TotalNanos();
  report.invocation_attempts = meter.TotalAttempts();
  const CostMeter::InfraCost infra = meter.InfraCostFromNodes(c.metrics_store_.node_samples());
  report.infra_nanos = infra.node_nanos;
  report.infra_idle_nanos = infra.idle_nanos;
  return report;
}

}  // namespace quilt
