#include "src/platform/platform.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/strings.h"

namespace quilt {

namespace {

// Fixed platform costs (cluster: 1 Gbps, ~200us RTT, §7.1).
constexpr SimDuration kNetworkRtt = Microseconds(200);
constexpr SimDuration kGatewayOverhead = Microseconds(2400);
constexpr SimDuration kIngressOverhead = Microseconds(150);

// Router address-cache behavior: requests arriving after the cache went stale
// pay the executor/poolmgr specialization path. This reproduces Fission's
// counter-intuitive "median latency decreases as load increases" effect
// (§7.3.2, §7.5.1).
constexpr SimDuration kRouteCacheTtl = Milliseconds(500);
constexpr SimDuration kRouteStalePenalty = Microseconds(1200);

// Cold starts (§2): base sandbox setup + image fetch + eager shared-lib
// loading.
constexpr SimDuration kColdStartBase = Milliseconds(80);
constexpr double kImageFetchMsPerMb = 5.0;
constexpr SimDuration kEagerLibLoadPerLib = Microseconds(110);

// Fission-style packing: a container accepts more concurrent requests until
// its CPU utilization crosses this fraction of its quota, and never more than
// this many at once.
constexpr double kContainerUtilizationThreshold = 0.8;
constexpr int kMaxRequestsPerContainer = 100;

// Retry backoffs are scaled by a factor drawn from [1 - jitter, 1 + jitter].
constexpr double kRetryJitter = 0.2;

// The checks every new or replacement version of a deployment must pass.
Status CheckSpec(const DeploymentSpec& spec) {
  if (!spec.behavior.valid()) {
    return InvalidArgumentError(StrCat("deployment '", spec.handle,
                                       "' must have exactly one behavior"));
  }
  if (spec.max_scale < 1) {
    // A version that may never run a replica would queue its requests forever.
    return InvalidArgumentError(StrCat("deployment '", spec.handle,
                                       "' needs max_scale >= 1, got ", spec.max_scale));
  }
  return Status::Ok();
}

}  // namespace

Status PlatformConfig::Validate() const {
  if (max_nodes < 0) {
    return InvalidArgumentError("max_nodes must be >= 0 (0 = infinite pool)");
  }
  if ((max_nodes > 0 || autoscaler.enabled) && (node_cpu <= 0.0 || node_memory_mb <= 0.0)) {
    return InvalidArgumentError(
        "a finite fleet (max_nodes > 0 or the autoscaler) requires positive node_cpu and "
        "node_memory_mb");
  }
  if (memory_admission_threshold <= 0.0 || memory_admission_threshold > 1.0) {
    return InvalidArgumentError("memory_admission_threshold must be in (0, 1]");
  }
  if (invocation_timeout < 0) {
    return InvalidArgumentError("invocation_timeout must not be negative");
  }
  if (retry.max_attempts < 1) {
    return InvalidArgumentError("retry.max_attempts must be >= 1");
  }
  if (retry.initial_backoff < 0 || retry.max_backoff < 0) {
    return InvalidArgumentError("retry backoffs must not be negative");
  }
  if (retry.backoff_multiplier <= 0.0) {
    return InvalidArgumentError("retry.backoff_multiplier must be > 0");
  }
  if (breaker.failure_threshold < 1 || breaker.half_open_max_probes < 1) {
    return InvalidArgumentError(
        "breaker.failure_threshold and breaker.half_open_max_probes must be >= 1");
  }
  if (breaker.open_duration < 0) {
    return InvalidArgumentError("breaker.open_duration must not be negative");
  }
  QUILT_RETURN_IF_ERROR(autoscaler.Validate());
  if (autoscaler.enabled && max_nodes > 0) {
    return InvalidArgumentError(
        "the autoscaler and a static finite fleet (max_nodes > 0) are mutually exclusive");
  }
  return Status::Ok();
}

Platform::Platform(Simulation* sim, PlatformConfig config)
    : sim_(sim),
      config_(std::move(config)),
      injector_(config_.fault_plan),
      // Jitter stream decorrelated from the injector's draw stream so a plan
      // change never perturbs retry timing of unrelated deployments.
      failure_rng_(config_.fault_plan.seed * 0x9e3779b97f4a7c15ull + 1),
      cost_meter_(config_.pricing) {
  config_status_ = config_.Validate();
  if (config_status_.ok() && config_.autoscaler.enabled) {
    // Elastic fleet: the engine starts empty and the autoscaler provisions
    // its floor now, before the first deployment spawns a container.
    placement_.ConfigureElastic(config_.node_cpu, config_.node_memory_mb,
                                config_.placement_policy);
    autoscaler_ = std::make_unique<NodeAutoscaler>(sim_, this, config_.autoscaler);
    autoscaler_->Start();
  } else {
    placement_.Configure(config_.node_cpu, config_.node_memory_mb, config_.max_nodes,
                         config_.placement_policy);
  }
  // Scheduled deterministic node failures: at the planned instant the node
  // dies with everything on it. (No-ops while the node model is off.)
  for (const NodeFailureEvent& failure : config_.fault_plan.node_failures) {
    const int node_id = failure.node_id;
    sim_->Schedule(std::max<SimDuration>(0, failure.at - sim_->now()),
                   [this, node_id] { FailNode(node_id); });
  }
  // Scheduled deterministic crash events (blast-radius experiments): at the
  // planned instant, the oldest live container of the target deployment dies.
  for (const CrashEvent& crash : config_.fault_plan.crashes) {
    const HandleId id = InternHandle(crash.deployment);
    sim_->Schedule(std::max<SimDuration>(0, crash.at - sim_->now()), [this, id] {
      Deployment* dep = DeploymentAt(id);
      if (dep == nullptr) {
        return;
      }
      std::shared_ptr<Container> victim;
      for (const auto& container : dep->containers) {
        if (container->state() != ContainerState::kKilled) {
          victim = container;
          break;
        }
      }
      if (victim != nullptr) {
        injector_.CountScheduledCrash();
        ++dep->stats.injected_faults;
        KillContainer(*dep, victim, KillReason::kInjectedCrash);
      }
    });
  }
}

Platform::~Platform() = default;

Platform::Deployment* Platform::DeploymentAt(HandleId id) const {
  if (id < 0 || id >= static_cast<HandleId>(deployments_.size())) {
    return nullptr;
  }
  return deployments_[static_cast<size_t>(id)].get();
}

Platform::Deployment* Platform::FindDeployment(std::string_view handle) const {
  return DeploymentAt(handles_.Find(handle));
}

HandleId Platform::InternHandle(std::string_view handle) {
  const HandleId id = handles_.Intern(handle);
  if (id >= static_cast<HandleId>(deployments_.size())) {
    deployments_.resize(static_cast<size_t>(id) + 1);
  }
  return id;
}

Status Platform::Deploy(DeploymentSpec spec) {
  QUILT_RETURN_IF_ERROR(config_status_);
  if (spec.handle.empty()) {
    return InvalidArgumentError("deployment needs a handle");
  }
  QUILT_RETURN_IF_ERROR(CheckSpec(spec));
  const HandleId id = InternHandle(spec.handle);
  if (deployments_[static_cast<size_t>(id)] != nullptr) {
    return AlreadyExistsError(StrCat("function '", spec.handle, "' already deployed"));
  }
  auto dep = std::make_unique<Deployment>();
  dep->id = id;
  dep->spec = std::move(spec);
  Deployment* raw = dep.get();
  deployments_[static_cast<size_t>(id)] = std::move(dep);
  for (int i = 0; i < raw->spec.warm_containers && i < raw->spec.max_scale; ++i) {
    CreateContainer(*raw, raw->version);
  }
  return Status::Ok();
}

Status Platform::UpdateFunction(DeploymentSpec spec) {
  QUILT_RETURN_IF_ERROR(config_status_);
  Deployment* dep = FindDeployment(spec.handle);
  if (dep == nullptr) {
    return NotFoundError(StrCat("function '", spec.handle, "' not deployed"));
  }
  QUILT_RETURN_IF_ERROR(CheckSpec(spec));
  // A full update supersedes any canary experiment in flight: the canary and
  // the old control stop serving at once, so the version-change step runs
  // once, for the new version (never spawning for the one it replaces).
  dep->canary.reset();
  dep->spec = std::move(spec);
  dep->version = ++dep->version_counter;
  ChangeVersion(*dep);
  return Status::Ok();
}

Status Platform::StageCanary(DeploymentSpec spec, double fraction) {
  Deployment* dep = FindDeployment(spec.handle);
  if (dep == nullptr) {
    return NotFoundError(StrCat("function '", spec.handle, "' not deployed"));
  }
  QUILT_RETURN_IF_ERROR(CheckSpec(spec));
  if (fraction <= 0.0 || fraction > 1.0) {
    return InvalidArgumentError(StrCat("canary fraction must be in (0, 1], got ",
                                       FormatDouble(fraction, 3)));
  }
  if (dep->canary != nullptr) {
    return AlreadyExistsError(StrCat("function '", spec.handle, "' already has a canary"));
  }
  auto canary = std::make_unique<CanaryTrack>();
  canary->spec = std::move(spec);
  canary->version = ++dep->version_counter;
  canary->fraction = fraction;
  dep->canary = std::move(canary);
  // Pre-warm so the canary's first guard-window requests measure the new
  // version, not its cold start.
  for (int i = 0; i < dep->canary->spec.warm_containers && i < dep->canary->spec.max_scale;
       ++i) {
    CreateContainer(*dep, dep->canary->version);
  }
  return Status::Ok();
}

Status Platform::PromoteCanary(const std::string& handle) {
  Deployment* dep = FindDeployment(handle);
  if (dep == nullptr) {
    return NotFoundError(StrCat("function '", handle, "' not deployed"));
  }
  if (dep->canary == nullptr) {
    return FailedPreconditionError(StrCat("function '", handle, "' has no staged canary"));
  }
  dep->spec = std::move(dep->canary->spec);
  dep->version = dep->canary->version;
  dep->canary.reset();
  ChangeVersion(*dep);
  return Status::Ok();
}

Status Platform::AbortCanary(const std::string& handle) {
  Deployment* dep = FindDeployment(handle);
  if (dep == nullptr) {
    return NotFoundError(StrCat("function '", handle, "' not deployed"));
  }
  if (dep->canary == nullptr) {
    return FailedPreconditionError(StrCat("function '", handle, "' has no staged canary"));
  }
  dep->canary.reset();
  ChangeVersion(*dep);
  return Status::Ok();
}

void Platform::ChangeVersion(Deployment& dep) {
  assert(dep.canary == nullptr);
  // Rule 1. The experiment is over, so no queued request stays canary-tagged.
  for (PendingRequest& request : dep.pending) {
    request.ctx->version = dep.version;
    request.ctx->span.canary = false;
  }
  // Replicas of dead versions retire as their in-flight work finishes.
  RetireStaleContainers(dep);
  DrainPending(dep);
  EnsureReplica(dep, dep.version);
}

bool Platform::HasCanary(const std::string& handle) const {
  const Deployment* dep = FindDeployment(handle);
  return dep != nullptr && dep->canary != nullptr;
}

const DeploymentStats* Platform::CanaryStats(const std::string& handle) const {
  const Deployment* dep = FindDeployment(handle);
  if (dep == nullptr || dep->canary == nullptr) {
    return nullptr;
  }
  return &dep->canary->stats;
}

const DeploymentStats* Platform::CanaryControlStats(const std::string& handle) const {
  const Deployment* dep = FindDeployment(handle);
  if (dep == nullptr || dep->canary == nullptr) {
    return nullptr;
  }
  return &dep->canary->control_stats;
}

Status Platform::RemoveFunction(const std::string& handle) {
  Deployment* dep = FindDeployment(handle);
  if (dep == nullptr) {
    return NotFoundError(StrCat("function '", handle, "' not deployed"));
  }
  // Queued requests leave first, so nothing below drains or spawns for them.
  std::deque<PendingRequest> queued = std::move(dep->pending);
  dep->pending.clear();
  // Kill from a snapshot, as FailNode does: a busy replica's abort handlers
  // re-enter the deployment (retire, drain) and edit its replica list.
  const std::vector<std::shared_ptr<Container>> replicas = dep->containers;
  for (const auto& container : replicas) {
    if (container->state() != ContainerState::kKilled) {
      RemoveReplica(*dep, container, ContainerKillCause::kNone);
    }
  }
  // The interned id stays reserved; a later re-deploy of the same handle
  // reuses the slot.
  deployments_[static_cast<size_t>(dep->id)].reset();
  // Answered as a request routed after the removal is.
  for (const PendingRequest& request : queued) {
    SettleAttempt(request.ctx, request.attempt, NotFoundError("function removed while queued"));
  }
  return Status::Ok();
}

bool Platform::HasDeployment(const std::string& handle) const {
  return FindDeployment(handle) != nullptr;
}

void Platform::SetProfiling(bool enabled) {
  // The one-bit Kubernetes token: containers pick the ingress path iff set.
  config_.profiling_enabled = enabled;
}

const DeploymentStats* Platform::StatsFor(const std::string& handle) const {
  const Deployment* dep = FindDeployment(handle);
  if (dep == nullptr) {
    return nullptr;
  }
  dep->stats.AssertNonNegative();
  return &dep->stats;
}

std::vector<ResourceSample> Platform::SampleResources() const {
  std::vector<ResourceSample> samples;
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    for (const auto& container : dep->containers) {
      ResourceSample sample;
      sample.handle = dep->spec.handle;
      sample.container_id = container->id();
      sample.timestamp = sim_->now();
      sample.cpu_seconds_cum = container->cpu().cpu_seconds_used();
      sample.busy_seconds_cum = container->request_busy_seconds();
      sample.memory_mb = container->memory_in_use_mb();
      sample.peak_memory_mb = container->peak_memory_mb();
      samples.push_back(std::move(sample));
    }
  }
  return samples;
}

double Platform::TotalMemoryInUseMb() const {
  double total = 0.0;
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    for (const auto& container : dep->containers) {
      total += container->memory_in_use_mb();
    }
  }
  return total;
}

int Platform::TotalContainers() const {
  int total = 0;
  for (const auto& dep : deployments_) {
    if (dep != nullptr) {
      total += static_cast<int>(dep->containers.size());
    }
  }
  return total;
}

std::vector<NodeSample> Platform::SampleNodes() const {
  // Busy CPU per node: a container doing work (in-flight requests, or still
  // cold-starting) counts its full limit; an idle-warm container holds its
  // allocation but does no work -- that split is what makes "paid-but-idle"
  // infrastructure dollars measurable.
  std::vector<double> busy_cpu(placement_.nodes().size(), 0.0);
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    for (const auto& container : dep->containers) {
      const int node_id = container->node_id();
      if (node_id < 0 || node_id >= static_cast<int>(busy_cpu.size()) ||
          container->state() == ContainerState::kKilled) {
        continue;
      }
      if (container->active_requests() > 0 ||
          container->state() == ContainerState::kColdStarting) {
        busy_cpu[static_cast<size_t>(node_id)] += container->config().cpu_limit;
      }
    }
  }
  std::vector<NodeSample> samples;
  for (const NodeStats& node : placement_.Snapshot()) {
    NodeSample sample;
    sample.node_id = node.node_id;
    sample.timestamp = sim_->now();
    sample.cpu_capacity = node.cpu_capacity;
    sample.memory_capacity_mb = node.memory_capacity_mb;
    sample.cpu_used = node.cpu_used;
    sample.cpu_busy =
        node.node_id >= 0 && node.node_id < static_cast<int>(busy_cpu.size())
            ? std::min(busy_cpu[static_cast<size_t>(node.node_id)], node.cpu_capacity)
            : 0.0;
    sample.memory_used_mb = node.memory_used_mb;
    sample.containers = node.containers;
    sample.placements_cum = node.placements;
    sample.kills_cum = node.kills;
    sample.failed = node.failed;
    sample.cordoned = node.cordoned;
    sample.provisioning = node.provisioning;
    sample.spawn_queue_depth = static_cast<int64_t>(spawn_queue_.size());
    samples.push_back(sample);
  }
  return samples;
}

void Platform::EnqueueSpawn(Deployment& dep, int64_t version) {
  // One parked spawn per container the deployment may still add: saturated
  // routing retries must not grow the queue without bound.
  if (dep.queued_spawns >= dep.SpecFor(version).max_scale) {
    return;
  }
  ++dep.queued_spawns;
  spawn_queue_.emplace_back(dep.id, version);
}

void Platform::ReleaseNodeCapacity(const Container& container) {
  if (!placement_.enabled() || container.node_id() < 0) {
    return;
  }
  placement_.Release(container.node_id(), container.config().cpu_limit,
                     container.config().memory_limit_mb);
  ScheduleSpawnDrain();
}

void Platform::ScheduleSpawnDrain() {
  if (!placement_.enabled() || spawn_queue_.empty() || spawn_drain_scheduled_) {
    return;
  }
  spawn_drain_scheduled_ = true;
  // Zero-delay event (due-now FIFO): capacity is released inside kill,
  // retire and drain passes over a deployment's replicas; the spawn drain
  // never runs underneath them. With the node model off, no event is ever
  // scheduled here, keeping the infinite-pool event sequence untouched.
  sim_->Schedule(0, [this] {
    spawn_drain_scheduled_ = false;
    DrainSpawnQueue();
  });
}

void Platform::DrainSpawnQueue() {
  // Bounded pass: entries re-parked by a failing CreateContainer must not
  // spin this loop forever.
  size_t budget = spawn_queue_.size();
  while (budget-- > 0 && !spawn_queue_.empty()) {
    const auto [id, version] = spawn_queue_.front();
    spawn_queue_.pop_front();
    Deployment* dep = DeploymentAt(id);
    if (dep == nullptr) {
      continue;  // Deployment removed while the spawn waited.
    }
    if (dep->queued_spawns > 0) {
      --dep->queued_spawns;
    }
    if (!dep->IsLive(version)) {
      continue;  // The version died (update / canary resolution).
    }
    // Spawn only if the deployment still needs it: requests of this version
    // wait and the scale cap allows another container. Parked warm-container
    // spawns with no demand are dropped -- warmth is a latency hint, not a
    // capacity reservation.
    if (!dep->HasQueued(version) ||
        dep->LiveReplicas(version) >= dep->SpecFor(version).max_scale) {
      continue;
    }
    CreateContainer(*dep, version);  // May re-park if capacity vanished again.
  }
}

void Platform::FailNode(int node_id) {
  if (!placement_.MarkFailed(node_id)) {
    return;  // Unknown node, node model off, or already failed.
  }
  injector_.CountNodeFailure();
  // Collect victims first: KillContainer mutates dep.containers.
  std::vector<std::pair<Deployment*, std::shared_ptr<Container>>> victims;
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    for (const auto& container : dep->containers) {
      if (container->node_id() == node_id &&
          container->state() != ContainerState::kKilled) {
        victims.emplace_back(dep.get(), container);
      }
    }
  }
  for (auto& [dep, container] : victims) {
    KillContainer(*dep, container, KillReason::kNodeFailure);
  }
}

Platform::SpawnDemand Platform::QueuedSpawnDemand() const {
  SpawnDemand demand;
  for (const auto& [id, version] : spawn_queue_) {
    const Deployment* dep = DeploymentAt(id);
    if (dep == nullptr) {
      continue;
    }
    if (!dep->IsLive(version)) {
      continue;  // Dead entries are skipped at drain time too.
    }
    const ContainerConfig& container = dep->SpecFor(version).container;
    ++demand.count;
    demand.cpu += container.cpu_limit;
    demand.memory_mb += container.memory_limit_mb;
  }
  return demand;
}

int Platform::ProvisionNode(bool ready) {
  const int id = placement_.AddNode(ready);
  if (ready) {
    ScheduleSpawnDrain();
  }
  return id;
}

bool Platform::NodeReady(int node_id) {
  if (!placement_.SetReady(node_id)) {
    return false;
  }
  ScheduleSpawnDrain();
  return true;
}

bool Platform::CordonNode(int node_id) { return placement_.Cordon(node_id); }

bool Platform::UncordonNode(int node_id) {
  if (!placement_.Uncordon(node_id)) {
    return false;
  }
  ScheduleSpawnDrain();
  return true;
}

bool Platform::RetireNode(int node_id) { return placement_.RetireNode(node_id); }

void Platform::DrainCordonedNode(int node_id) {
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    // Drain safety: never kill the deployment's last replica off the node. A
    // respawn would have to wait for capacity -- possibly a full node
    // provision -- turning a routine drain into a tail-latency spike. The
    // survivor pins the node (it cannot empty, so it cannot retire) until
    // demand elsewhere spawns a sibling.
    const bool live_elsewhere =
        std::any_of(dep->containers.begin(), dep->containers.end(), [node_id](const auto& c) {
          return c->state() != ContainerState::kKilled && c->node_id() != node_id;
        });
    if (!live_elsewhere) {
      continue;
    }
    // Only ready, idle containers die; cold-starting ones were just spawned
    // for waiting demand and busy ones finish their in-flight requests first
    // (the node stays cordoned until a later drain pass gets them).
    std::vector<std::shared_ptr<Container>> idle;
    for (const auto& container : dep->containers) {
      if (container->node_id() == node_id && container->state() == ContainerState::kReady &&
          container->active_requests() == 0) {
        idle.push_back(container);
      }
    }
    // A planned decommission is not a failure: no kill cause or stat.
    for (const auto& container : idle) {
      RemoveReplica(*dep, container, ContainerKillCause::kNone);
    }
  }
}

int Platform::BusyNodes() const {
  const std::vector<WorkerNode>& nodes = placement_.nodes();
  std::vector<char> busy(nodes.size(), 0);
  for (const auto& dep : deployments_) {
    if (dep == nullptr) {
      continue;
    }
    for (const auto& container : dep->containers) {
      const int node_id = container->node_id();
      if (node_id >= 0 && node_id < static_cast<int>(nodes.size()) &&
          container->state() != ContainerState::kKilled &&
          container->active_requests() > 0) {
        busy[static_cast<size_t>(node_id)] = 1;
      }
    }
  }
  int count = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (busy[i] != 0 && nodes[i].Available()) {
      ++count;
    }
  }
  return count;
}

void Platform::Invoke(InvokeRequest&& request) {
  if (!config_status_.ok()) {
    // Invalid config surfaces as a typed error instead of silently
    // misbehaving (e.g. a finite fleet of zero-capacity nodes).
    Status status = config_status_;
    sim_->Schedule(0, [done = std::move(request.done), status = std::move(status)]() mutable {
      if (done) {
        done(status);
      }
    });
    return;
  }
  // Request path: serialize -> network -> (ingress) -> gateway. Paid once
  // per attempt; the span is recorded once per logical invocation, when the
  // response is delivered back to the caller.
  SimDuration request_path = config_.serialize_latency + kNetworkRtt / 2;
  auto ctx = std::make_shared<CallContext>();
  if (config_.profiling_enabled && span_store_ != nullptr) {
    request_path += kIngressOverhead;
    ctx->traced = true;
    Span& span = ctx->span;
    // Trace identity: nested invocations inherit the root request's trace
    // id; only trace roots mint a new one.
    const TraceContext& parent = request.parent;
    span.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
    span.parent_span_id = parent.valid() ? parent.parent_span_id : 0;
    span.span_id = next_span_id_++;
    span.caller = std::move(request.caller);
    span.callee = request.callee;
    span.async = request.async;
    span.timestamp = sim_->now();
  }
  request_path += kGatewayOverhead;

  // Intern the callee once; every later lookup on this invocation's path is
  // an integer index (see DeploymentAt).
  ctx->callee_id = InternHandle(request.callee);
  ctx->payload = std::move(request.payload);
  ctx->async = request.async;
  ctx->request_path = request_path;
  // Response path: gateway -> network -> deserialize at the caller.
  ctx->response_path = kGatewayOverhead + kNetworkRtt / 2 + config_.serialize_latency;
  ctx->done = std::move(request.done);
  // Request-leg segment costs; every retry attempt pays them again.
  ctx->attempt_network = config_.serialize_latency + kNetworkRtt / 2;
  ctx->attempt_gateway = request_path - ctx->attempt_network;
  BeginAttempt(std::move(ctx));
}

void Platform::Respond(const std::shared_ptr<CallContext>& ctx, Result<Json> result) {
  if (ctx->traced) {
    // Response leg: paid once, by whichever attempt settles the call.
    ctx->span.network_ns += kNetworkRtt / 2 + config_.serialize_latency;
    ctx->span.gateway_ns += kGatewayOverhead;
  }
  sim_->Schedule(ctx->response_path, [this, ctx, result = std::move(result)]() mutable {
    FinishSpan(*ctx, result.status());
    ctx->done(std::move(result));
  });
}

void Platform::FinishSpan(CallContext& ctx, const Status& status) {
  if (!ctx.traced || span_store_ == nullptr) {
    return;
  }
  Span& span = ctx.span;
  span.end_time = sim_->now();
  span.attempts = ctx.attempt;
  span.status = ClassifySpanStatus(ctx, status);
  span_store_->Add(span);
}

SpanStatus Platform::ClassifySpanStatus(const CallContext& ctx, const Status& status) {
  if (status.ok()) {
    return SpanStatus::kOk;
  }
  if (ctx.retries_exhausted) {
    return SpanStatus::kRetryExhausted;
  }
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      return SpanStatus::kTimeout;
    case StatusCode::kResourceExhausted:
      return SpanStatus::kOomKill;
    case StatusCode::kAborted:
      return SpanStatus::kContainerCrash;
    case StatusCode::kUnavailable:
      return ctx.gateway_fault ? SpanStatus::kGateway5xx : SpanStatus::kError;
    default:
      return SpanStatus::kError;
  }
}

void Platform::BeginAttempt(std::shared_ptr<CallContext> ctx) {
  ctx->shed = false;
  ctx->half_open_probe = false;
  if (ctx->traced) {
    ctx->span.network_ns += ctx->attempt_network;
    ctx->span.gateway_ns += ctx->attempt_gateway;
  }
  const int attempt = ctx->attempt;
  if (config_.invocation_timeout > 0) {
    sim_->Schedule(config_.invocation_timeout, [this, ctx, attempt] {
      if (attempt <= ctx->settled_attempt) {
        return;  // Answered in time.
      }
      SettleAttempt(ctx, attempt,
                    DeadlineExceededError(StrCat("invocation of '",
                                                 handles_.NameOf(ctx->callee_id),
                                                 "' timed out (attempt ", attempt, ")")));
    });
  }

  sim_->Schedule(ctx->request_path, [this, ctx, attempt] {
    Deployment* found = DeploymentAt(ctx->callee_id);
    if (found == nullptr) {
      SettleAttempt(ctx, attempt,
                    NotFoundError(StrCat("no function '", handles_.NameOf(ctx->callee_id), "'")));
      return;
    }
    Deployment& dep = *found;

    if (BreakerRejects(dep, *ctx)) {
      // Load shedding: answer immediately, never reaches a container.
      ++dep.stats.breaker_rejected;
      ++dep.stats.failures_by_cause["BREAKER_OPEN"];
      ctx->shed = true;
      SettleAttempt(ctx, attempt,
                    UnavailableError(StrCat("circuit breaker open for '",
                                            handles_.NameOf(ctx->callee_id), "'")));
      return;
    }

    if (injector_.enabled()) {
      const FaultInjector::GatewayFault fault =
          injector_.OnGatewayHop(dep.spec.handle, sim_->now());
      if (fault.drop) {
        ++dep.stats.injected_faults;
        if (config_.invocation_timeout > 0) {
          return;  // The request vanishes; the attempt deadline answers.
        }
        SettleAttempt(ctx, attempt, UnavailableError("injected network drop (connection reset)"));
        return;
      }
      if (fault.gateway_error) {
        ++dep.stats.injected_faults;
        ctx->gateway_fault = true;
        SettleAttempt(ctx, attempt, UnavailableError("injected gateway 5xx"));
        return;
      }
      if (fault.extra_delay > 0) {
        ++dep.stats.injected_faults;
        if (ctx->traced) {
          ctx->span.network_ns += fault.extra_delay;
        }
        sim_->Schedule(fault.extra_delay, [this, ctx, attempt] {
          Deployment* delayed = DeploymentAt(ctx->callee_id);
          if (delayed == nullptr) {
            SettleAttempt(ctx, attempt,
                          NotFoundError(StrCat("no function '",
                                               handles_.NameOf(ctx->callee_id), "'")));
            return;
          }
          RouteRequest(*delayed, ctx, attempt);
        });
        return;
      }
    }

    RouteRequest(dep, ctx, attempt);
  });
}

void Platform::SettleAttempt(const std::shared_ptr<CallContext>& ctx, int attempt,
                             Result<Json> result) {
  if (attempt <= ctx->settled_attempt) {
    return;  // A late answer for an attempt that already settled.
  }
  ctx->settled_attempt = attempt;
  OnAttemptResult(ctx, std::move(result));
}

void Platform::OnAttemptResult(const std::shared_ptr<CallContext>& ctx, Result<Json> result) {
  Deployment* dep = DeploymentAt(ctx->callee_id);

  if (ctx->half_open_probe) {
    // Probe settled (either way): release the slot. Clamped because a state
    // round-trip (re-open -> half-open) resets the counter while old probes
    // are still in flight.
    ctx->half_open_probe = false;
    if (dep != nullptr && dep->half_open_inflight > 0) {
      --dep->half_open_inflight;
    }
  }
  if (ctx->shed) {
    // Breaker rejections are load shedding, not attempt outcomes: they must
    // neither trip the breaker further nor trigger retries (retry storms are
    // exactly what the breaker interrupts).
    Respond(ctx, std::move(result));
    return;
  }
  if (dep != nullptr) {
    RecordAttemptOutcome(*dep, result.ok() ? Status::Ok() : result.status());
  }
  if (result.ok()) {
    Respond(ctx, std::move(result));
    return;
  }

  const StatusCode code = result.status().code();
  const bool transient = code == StatusCode::kUnavailable ||
                         code == StatusCode::kDeadlineExceeded || code == StatusCode::kAborted;
  const bool retry_safe = ctx->async || (dep != nullptr && dep->spec.idempotent);
  const bool breaker_open =
      dep != nullptr && dep->breaker_state == BreakerState::kOpen;
  if (!config_.retry.enabled() || !transient || !retry_safe || breaker_open) {
    Respond(ctx, std::move(result));
    return;
  }
  if (ctx->attempt >= config_.retry.max_attempts) {
    if (dep != nullptr) {
      ++dep->stats.retries_exhausted;
    }
    ctx->retries_exhausted = true;
    Respond(ctx, std::move(result));
    return;
  }

  // Exponential backoff with jitter, from the platform's seeded Rng.
  double backoff_ns = static_cast<double>(config_.retry.initial_backoff) *
                      std::pow(config_.retry.backoff_multiplier, ctx->attempt - 1);
  backoff_ns = std::min(backoff_ns, static_cast<double>(config_.retry.max_backoff));
  backoff_ns *= failure_rng_.UniformDouble(1.0 - kRetryJitter, 1.0 + kRetryJitter);
  if (dep != nullptr) {
    ++dep->stats.retries;
  }
  ++ctx->attempt;
  const SimDuration backoff = std::max<SimDuration>(0, static_cast<SimDuration>(backoff_ns));
  if (ctx->traced) {
    // Retry backoff is time the request spends waiting, not moving: queueing.
    ctx->span.queue_ns += backoff;
  }
  sim_->Schedule(backoff, [this, ctx] { BeginAttempt(ctx); });
}

bool Platform::BreakerRejects(Deployment& dep, CallContext& ctx) {
  if (!config_.breaker.enabled) {
    return false;
  }
  if (dep.breaker_state == BreakerState::kOpen) {
    if (sim_->now() < dep.breaker_open_until) {
      return true;
    }
    // Cooldown over: half-open, let capped probe traffic test the callee.
    dep.breaker_state = BreakerState::kHalfOpen;
    dep.half_open_inflight = 0;
    dep.stats.breaker_open_ns += sim_->now() - dep.breaker_opened_at;
  }
  if (dep.breaker_state == BreakerState::kHalfOpen) {
    // Probe storm guard: a burst arriving right at cooldown expiry must not
    // flood the recovering deployment before the first probe answers.
    if (dep.half_open_inflight >= config_.breaker.half_open_max_probes) {
      return true;
    }
    ++dep.half_open_inflight;
    ctx.half_open_probe = true;
  }
  return false;
}

void Platform::RecordAttemptOutcome(Deployment& dep, const Status& status) {
  if (status.ok()) {
    dep.consecutive_failures = 0;
    if (dep.breaker_state == BreakerState::kHalfOpen) {
      dep.breaker_state = BreakerState::kClosed;
    }
    return;
  }
  ++dep.stats.failures_by_cause[StatusCodeName(status.code())];
  if (status.code() == StatusCode::kDeadlineExceeded) {
    ++dep.stats.timeouts;
  }
  ++dep.consecutive_failures;
  dep.stats.AssertNonNegative();
  if (!config_.breaker.enabled) {
    return;
  }
  if (dep.breaker_state == BreakerState::kHalfOpen ||
      (dep.breaker_state == BreakerState::kClosed &&
       dep.consecutive_failures >= config_.breaker.failure_threshold)) {
    OpenBreaker(dep);
  }
}

void Platform::OpenBreaker(Deployment& dep) {
  dep.breaker_state = BreakerState::kOpen;
  dep.breaker_opened_at = sim_->now();
  dep.breaker_open_until = sim_->now() + config_.breaker.open_duration;
  ++dep.stats.breaker_opens;
}

SimDuration Platform::BreakerOpenNs(const std::string& handle) const {
  const Deployment* dep = FindDeployment(handle);
  if (dep == nullptr) {
    return 0;
  }
  SimDuration total = dep->stats.breaker_open_ns;
  if (dep->breaker_state == BreakerState::kOpen) {
    total += sim_->now() - dep->breaker_opened_at;
  }
  return total;
}

int Platform::Deployment::LiveReplicas(int64_t v) const {
  return static_cast<int>(std::count_if(containers.begin(), containers.end(), [v](const auto& c) {
    return c->version() == v && c->state() != ContainerState::kKilled;
  }));
}

bool Platform::Deployment::HasQueued(int64_t v) const {
  return std::any_of(pending.begin(), pending.end(),
                     [v](const PendingRequest& request) { return request.ctx->version == v; });
}

SimDuration Platform::ColdStartDelay(const DeploymentSpec& spec) const {
  const double image_mb =
      static_cast<double>(spec.container.image_size_bytes) / (1024.0 * 1024.0);
  return kColdStartBase + Milliseconds(image_mb * kImageFetchMsPerMb) +
         kEagerLibLoadPerLib * spec.container.eager_libs;
}

namespace {

// The working set one request of this spec reserves on dispatch -- what the
// footprint-aware memory admission accounts for.
double RequestFootprintMb(const DeploymentSpec& spec) {
  const DeployedBehavior& behavior = spec.behavior;
  if (behavior.single != nullptr) {
    return behavior.single->request_memory_mb;
  }
  if (behavior.merged != nullptr) {
    auto root = behavior.merged->functions.find(behavior.merged->root_handle);
    if (root != behavior.merged->functions.end()) {
      return root->second.request_memory_mb;
    }
  }
  return 0.0;
}

}  // namespace

std::shared_ptr<Container> Platform::SelectContainer(Deployment& dep, int64_t version) const {
  const DeploymentSpec& spec = dep.SpecFor(version);
  // The admission check must account for the candidate request's own working
  // set: when a deep backlog drains, each admission used to sneak in just
  // under the threshold and collectively push the pod far past it.
  const double footprint_mb = RequestFootprintMb(spec);
  int inflight_cap = kMaxRequestsPerContainer;
  if (spec.max_concurrent_requests > 0) {
    inflight_cap = std::min(inflight_cap, spec.max_concurrent_requests);
  }
  std::shared_ptr<Container> best;
  for (const auto& container : dep.containers) {
    if (container->state() != ContainerState::kReady || container->version() != version) {
      continue;  // Cold-starting, or retiring / serving the other version.
    }
    if (container->active_requests() >= inflight_cap) {
      continue;
    }
    // Fission packs instances into a container until its CPU utilization
    // crosses the threshold.
    const double used = container->cpu().cpu_in_use();
    if (used >= kContainerUtilizationThreshold * container->config().cpu_limit) {
      continue;
    }
    if (container->memory_in_use_mb() + footprint_mb >=
        config_.memory_admission_threshold * container->config().memory_limit_mb) {
      continue;
    }
    if (best == nullptr || container->active_requests() < best->active_requests()) {
      best = container;
    }
  }
  return best;
}

void Platform::CreateContainer(Deployment& dep, int64_t version) {
  const DeploymentSpec& spec = dep.SpecFor(version);
  int node_id = -1;
  if (placement_.enabled()) {
    node_id = placement_.Place(spec.container.cpu_limit, spec.container.memory_limit_mb);
    if (node_id < 0) {
      // Saturated (or impossible) cluster: park the spawn; it materializes
      // when capacity frees. No stats are charged for a spawn that never
      // happened.
      EnqueueSpawn(dep, version);
      return;
    }
  }
  auto container = std::make_shared<Container>(sim_, dep.spec.handle, next_container_id_++,
                                               spec.container, version);
  container->set_node_id(node_id);
  dep.containers.push_back(container);
  dep.Charge(version, &DeploymentStats::containers_created);
  dep.Charge(version, &DeploymentStats::cold_starts);
  const HandleId id = dep.id;
  sim_->Schedule(ColdStartDelay(spec), [this, id, container] {
    if (container->state() == ContainerState::kKilled) {
      return;
    }
    container->set_state(ContainerState::kReady);
    Deployment* dep = DeploymentAt(id);
    if (dep != nullptr) {
      DrainPending(*dep);
    }
  });
}

int64_t Platform::AssignVersion(Deployment& dep) {
  if (dep.canary == nullptr) {
    return dep.version;
  }
  // Deterministic weighted round-robin: the canary accrues `fraction` credit
  // per routing decision and serves a request whenever a full credit is
  // banked. Exact traffic split, no RNG draw.
  dep.canary->credit += dep.canary->fraction;
  if (dep.canary->credit >= 1.0 - 1e-9) {
    dep.canary->credit -= 1.0;
    return dep.canary->version;
  }
  return dep.version;
}

void Platform::RouteRequest(Deployment& dep, std::shared_ptr<CallContext> ctx, int attempt) {
  // Router address-cache staleness penalty.
  SimDuration penalty = 0;
  if (dep.last_routed < 0 || sim_->now() - dep.last_routed > kRouteCacheTtl) {
    penalty = kRouteStalePenalty;
    ++dep.stats.stale_route_hits;
  }
  dep.last_routed = sim_->now();
  if (ctx->traced) {
    // The specialization path stalls the request inside the router: queueing.
    ctx->span.queue_ns += penalty;
  }

  const HandleId id = dep.id;
  sim_->Schedule(penalty, [this, id, ctx = std::move(ctx), attempt]() mutable {
    Deployment* found = DeploymentAt(id);
    if (found == nullptr) {
      SettleAttempt(ctx, attempt, NotFoundError("function removed while routing"));
      return;
    }
    Deployment& dep = *found;
    // Version assignment: a fresh call draws from the weighted round-robin;
    // retries keep their first assignment (one logical call measures one
    // version) unless that version died (canary promoted/aborted), in which
    // case they fall back to the control.
    if (ctx->version == 0) {
      ctx->version = AssignVersion(dep);
    } else if (!dep.IsLive(ctx->version)) {
      ctx->version = dep.version;
    }
    if (ctx->traced) {
      ctx->span.canary = dep.IsCanary(ctx->version);
    }
    std::shared_ptr<Container> container = SelectContainer(dep, ctx->version);
    if (container != nullptr) {
      Dispatch(dep, container, ctx, sim_->now(), attempt);
      return;
    }
    // No capacity: scale out if allowed, otherwise queue.
    const int64_t version = ctx->version;
    dep.pending.push_back(PendingRequest{std::move(ctx), sim_->now(), attempt});
    dep.stats.pending_peak =
        std::max(dep.stats.pending_peak, static_cast<int64_t>(dep.pending.size()));
    if (dep.LiveReplicas(version) < dep.SpecFor(version).max_scale) {
      CreateContainer(dep, version);
    }
  });
}

void Platform::Dispatch(Deployment& dep, const std::shared_ptr<Container>& container,
                        const std::shared_ptr<CallContext>& ctx, SimTime enqueued_at,
                        int attempt) {
  const HandleId id = dep.id;
  // Split the time since routing into cold-start wait (overlap with the
  // serving container's cold-start window) and plain queueing. Computed for
  // every attempt -- the cost meter bills cold starts even when the request
  // is not traced.
  const SimTime now = sim_->now();
  const SimTime ready = container->ready_at() > 0 ? container->ready_at() : now;
  const SimDuration cold = std::max<SimDuration>(
      0, std::min(now, ready) - std::max(enqueued_at, container->created_at()));
  if (ctx->traced) {
    ctx->span.cold_start_ns += cold;
    ctx->span.queue_ns += (now - enqueued_at) - cold;
    ctx->span.exec_start = now;
    ctx->span.exec_end = 0;  // Reset in case an earlier attempt set it.
    ctx->span.node_id = container->node_id();
  }
  ExecutionEnv env;
  env.sim = sim_;
  env.container = container;
  env.remote = this;
  env.costs = &config_.runtime;
  if (ctx->traced) {
    // Nested Invokes issued during execution join this request's trace as
    // children of this invocation's span.
    env.trace = TraceContext{ctx->span.trace_id, ctx->span.span_id};
  }
  env.trigger_kill = [this, id, container](KillReason reason) {
    Deployment* dep = DeploymentAt(id);
    if (dep != nullptr) {
      KillContainer(*dep, container, reason);
    } else {
      container->Kill();
    }
  };
  env.bill_cpu = [this](const std::string& fn, double cpu_ms) {
    cost_meter_.BillCpu(fn, cpu_ms);
  };
  // Spurious-crash/OOM injection: decide before execution starts, apply
  // after, so the new request is registered and dies with the container
  // (widest blast radius, as a real mid-request fault would produce).
  const FaultInjector::DispatchFault injected =
      injector_.enabled() ? injector_.OnDispatch(dep.spec.handle, sim_->now())
                          : FaultInjector::DispatchFault{};
  ExecuteRequest(std::move(env), dep.SpecFor(ctx->version).behavior, ctx->payload,
                 /*remote_entry=*/true,
                 [this, id, container, ctx, attempt, dispatch_start = now,
                  cold](Result<Json> result) {
                   if (ctx->traced) {
                     ctx->span.exec_end = sim_->now();
                   }
                   Deployment* found = DeploymentAt(id);
                   if (found != nullptr) {
                     Deployment& dep = *found;
                     // Bill this attempt (§8 metering): the exec window at
                     // the serving version's *configured* limits. Every
                     // retry attempt lands here, success or failure.
                     const DeploymentSpec& billed_spec = dep.SpecFor(ctx->version);
                     const SimDuration exec_ns =
                         std::max<SimDuration>(0, sim_->now() - dispatch_start);
                     cost_meter_.MeterAttempt(billed_spec.handle, (exec_ns + 999) / 1000,
                                              (cold + 999) / 1000,
                                              billed_spec.container.memory_limit_mb,
                                              billed_spec.container.cpu_limit,
                                              dep.IsCanary(ctx->version));
                     dep.Charge(ctx->version, result.ok() ? &DeploymentStats::completed
                                                          : &DeploymentStats::failed);
                     RetireStaleContainers(dep);
                     DrainPending(dep);
                   }
                   SettleAttempt(ctx, attempt, std::move(result));
                 });
  if (injected.any()) {
    ++dep.stats.injected_faults;
    KillContainer(dep, container,
                  injected.oom ? KillReason::kOom : KillReason::kInjectedCrash);
  }
}

void Platform::DrainPending(Deployment& dep) {
  if (dep.draining) {
    return;
  }
  dep.draining = true;
  // Per-version FIFO: a request only drains onto a container of its assigned
  // version, but a starved version must not head-of-line-block the other.
  std::deque<PendingRequest> still_waiting;
  while (!dep.pending.empty()) {
    PendingRequest request = std::move(dep.pending.front());
    dep.pending.pop_front();
    std::shared_ptr<Container> container = SelectContainer(dep, request.ctx->version);
    if (container == nullptr) {
      still_waiting.push_back(std::move(request));
      continue;
    }
    Dispatch(dep, container, request.ctx, request.enqueued_at, request.attempt);
  }
  dep.pending = std::move(still_waiting);
  dep.draining = false;
}

void Platform::RemoveReplica(Deployment& dep, std::shared_ptr<Container> container,
                             ContainerKillCause cause) {
  ReleaseNodeCapacity(*container);  // No-op for a failed node's capacity.
  std::erase(dep.containers, container);
  container->Kill(cause);
  EnsureReplica(dep, container->version());
}

void Platform::EnsureReplica(Deployment& dep, int64_t version) {
  if (!dep.IsLive(version) || dep.LiveReplicas(version) > 0 || !dep.HasQueued(version)) {
    return;
  }
  for (const auto& [id, parked] : spawn_queue_) {
    if (id == dep.id && parked == version) {
      return;
    }
  }
  CreateContainer(dep, version);
}

void Platform::KillContainer(Deployment& dep, const std::shared_ptr<Container>& container,
                             KillReason reason) {
  if (container->state() == ContainerState::kKilled) {
    return;  // Already dead: a kill is charged to exactly one cause, once.
  }
  int64_t DeploymentStats::*counter = &DeploymentStats::crashes;
  ContainerKillCause cause = ContainerKillCause::kCrash;
  switch (reason) {
    case KillReason::kOom:
      counter = &DeploymentStats::oom_kills;
      cause = ContainerKillCause::kOom;
      break;
    case KillReason::kCrash:
    case KillReason::kInjectedCrash:
      break;
    case KillReason::kNodeFailure:
      counter = &DeploymentStats::node_failure_kills;
      cause = ContainerKillCause::kNodeFailure;
      break;
  }
  dep.Charge(container->version(), counter);
  if (placement_.enabled() && container->node_id() >= 0) {
    placement_.RecordKill(container->node_id());
  }
  RemoveReplica(dep, container, cause);
  dep.stats.AssertNonNegative();
}

void Platform::RetireStaleContainers(Deployment& dep) {
  std::vector<std::shared_ptr<Container>> stale;
  for (const auto& container : dep.containers) {
    if (!dep.IsLive(container->version()) && container->active_requests() == 0) {
      stale.push_back(container);
    }
  }
  for (const auto& container : stale) {
    RemoveReplica(dep, container, ContainerKillCause::kNone);
  }
}

}  // namespace quilt
