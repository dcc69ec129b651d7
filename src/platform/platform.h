// The serverless platform substrate: API gateway, optional profiling
// ingress, Fission-style executor (container pools, utilization-based
// packing, max-scale, cold starts), and the full invocation path of
// Figure 1. Quilt treats this platform as unmodified: merged functions are
// deployed through the same UpdateFunction mechanism developers use (§5.5).
#ifndef SRC_PLATFORM_PLATFORM_H_
#define SRC_PLATFORM_PLATFORM_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/billing/cost_meter.h"
#include "src/common/interner.h"
#include "src/common/json.h"
#include "src/common/node_record.h"
#include "src/common/status.h"
#include "src/platform/autoscaler.h"
#include "src/platform/fault_injection.h"
#include "src/platform/placement.h"
#include "src/runtime/behavior.h"
#include "src/runtime/executor.h"
#include "src/sim/container.h"
#include "src/sim/simulation.h"
#include "src/tracing/resource_monitor.h"
#include "src/tracing/span_store.h"

namespace quilt {

// Client-side invocation retry policy. Defaults keep the seed behavior: one
// attempt, no retries. A retry is attempted only for *transient* failures
// (kUnavailable, kDeadlineExceeded, kAborted) and only when the call is
// async or the callee deployment declares itself idempotent -- re-running a
// non-idempotent handler is never safe. Each backoff is scaled by a uniform
// jitter factor in [0.8, 1.2] drawn from the platform's seeded failure Rng,
// so retry storms decorrelate but runs stay reproducible.
struct RetryPolicy {
  int max_attempts = 1;  // Total attempts; 1 = retries disabled.
  SimDuration initial_backoff = Milliseconds(10);
  double backoff_multiplier = 2.0;
  SimDuration max_backoff = Seconds(2);

  bool enabled() const { return max_attempts > 1; }
};

// Per-deployment circuit breaker: after `failure_threshold` consecutive
// failed attempts the deployment sheds load (immediate kUnavailable) for
// `open_duration`, then lets traffic probe again (half-open). A successful
// probe closes the breaker; a failed one re-opens it. This degrades
// gracefully instead of feeding retry storms into a dying deployment.
struct CircuitBreakerConfig {
  bool enabled = false;
  int failure_threshold = 5;
  SimDuration open_duration = Seconds(5);
  // Concurrent probe requests admitted while half-open. The cooldown expiry
  // used to admit unbounded traffic until the first probe responded -- a
  // probe storm straight into the deployment the breaker was protecting.
  // Excess arrivals are shed as breaker-rejected.
  int half_open_max_probes = 1;
};

struct PlatformConfig {
  // Message serialization cost per hop. The fixed platform costs (the ~200us
  // RTT of §7.1, gateway and ingress hops, router cache, cold starts and
  // Fission's packing limits) are constants in platform.cc.
  SimDuration serialize_latency = Microseconds(60);

  // A container accepts more concurrent requests until its CPU utilization
  // crosses 80% of its quota, or until its memory utilization crosses this
  // fraction (the router stops handing requests to pods already close to
  // their memory limit). The check is footprint-aware: a request is admitted
  // only if the pod stays under the threshold *with* the request's declared
  // working set, so draining a deep backlog cannot push the pod past it.
  double memory_admission_threshold = 0.8;

  // --- Worker-node model (§4, live). This is the one place the fleet is
  // configured. max_nodes == 0 with the autoscaler off keeps the seed
  // behavior: an infinite pool, no placement engine, no node events. With a
  // finite fleet, every container spawn debits a node chosen by
  // placement_policy; spawns that fit no node queue until capacity frees.
  // The node geometry and policy apply to the static and the elastic fleet
  // alike.
  double node_cpu = 16.0;
  double node_memory_mb = 32768.0;
  int max_nodes = 0;
  PlacementPolicy placement_policy = PlacementPolicy::kFirstFit;

  // Elastic node pool (§4.14): mutually exclusive with a static finite fleet
  // (max_nodes > 0). When enabled, the platform constructor arms a
  // NodeAutoscaler that grows/drains the fleet from placement pressure.
  AutoscalerOptions autoscaler;

  RuntimeCosts runtime;

  // The profiler-enabled Kubernetes token (§3): when true, invocations take
  // the ingress path and are traced.
  bool profiling_enabled = false;

  // --- Failure handling. All defaults are "off": with an empty FaultPlan,
  // no timeout, one attempt and no breaker, the invocation path is
  // event-for-event identical to a platform without this layer.
  // Client-observed deadline per attempt (0 = no timeout). Covers the full
  // round trip: gateway, queueing, cold start, execution, response path.
  SimDuration invocation_timeout = 0;
  RetryPolicy retry;
  CircuitBreakerConfig breaker;
  // Deterministic fault injection (network drops/delay, gateway 5xx,
  // spurious container crashes). Empty plan = disabled.
  FaultPlan fault_plan;

  // Rate card the platform's CostMeter bills every dispatch attempt under
  // (per-request fee, rounded GB-/vCPU-second windows, cold-start policy).
  PricingProfile pricing;

  // Typed validation of the knob surface: rejects a finite or elastic fleet
  // with non-positive node geometry, an out-of-range memory threshold, retry
  // and breaker values, negative autoscaler windows, and enabling both the
  // static fleet and the autoscaler at once.
  // The Platform constructor calls this and surfaces the error from Deploy/
  // UpdateFunction/Invoke instead of silently misbehaving.
  Status Validate() const;
};

struct DeploymentSpec {
  std::string handle;
  ContainerConfig container;
  int max_scale = 10;
  int warm_containers = 0;  // Containers created eagerly at deploy time.
  // Per-container in-flight cap (0 = platform default). Deployments that
  // know their per-request memory footprint (Quilt does; the naive CM
  // baseline does not) set this so containers never overcommit memory.
  int max_concurrent_requests = 0;
  // Handler is safe to re-execute: sync calls to this deployment may be
  // retried under the platform's RetryPolicy. Async calls are always
  // considered retry-safe (fire-and-forget semantics).
  bool idempotent = false;
  DeployedBehavior behavior;
};

struct DeploymentStats {
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cold_starts = 0;
  int64_t oom_kills = 0;
  int64_t crashes = 0;           // CrashStep faults + injected crashes.
  int64_t node_failure_kills = 0;  // Containers lost to worker-node failures.
  int64_t injected_faults = 0;   // Faults a FaultPlan charged to this deployment.
  int64_t containers_created = 0;
  int64_t stale_route_hits = 0;
  int64_t pending_peak = 0;

  // Failure-handling taxonomy.
  int64_t timeouts = 0;           // Attempts that hit the invocation timeout.
  int64_t retries = 0;            // Re-dispatched attempts.
  int64_t retries_exhausted = 0;  // Calls that failed after the last attempt.
  int64_t breaker_opens = 0;
  int64_t breaker_rejected = 0;        // Calls shed while the breaker was open.
  SimDuration breaker_open_ns = 0;     // Total time spent open (closed spans).
  // Failed attempts by status-code name ("UNAVAILABLE", "ABORTED", ...).
  std::map<std::string, int64_t> failures_by_cause;

  // Every counter is monotone; a negative value means a failure was charged
  // twice and then "rebalanced", which this taxonomy exists to prevent.
  void AssertNonNegative() const {
    assert(completed >= 0 && failed >= 0 && cold_starts >= 0);
    assert(oom_kills >= 0 && crashes >= 0 && injected_faults >= 0);
    assert(node_failure_kills >= 0);
    assert(containers_created >= 0 && stale_route_hits >= 0 && pending_peak >= 0);
    assert(timeouts >= 0 && retries >= 0 && retries_exhausted >= 0);
    assert(breaker_opens >= 0 && breaker_rejected >= 0 && breaker_open_ns >= 0);
  }
};

class Platform : public Invoker {
 public:
  Platform(Simulation* sim, PlatformConfig config);
  ~Platform() override;

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  // Attaches the span store traced invocations append to (required before
  // enabling profiling).
  void ConnectSpanStore(SpanStore* store) { span_store_ = store; }

  Status Deploy(DeploymentSpec spec);
  // Replaces an existing function with a new image/behavior; in-flight
  // requests finish on the old containers, new requests go to the new
  // version (§5.5). Also how merges are rolled back (§8). A staged canary
  // (if any) is aborted first: an explicit full update supersedes it.
  Status UpdateFunction(DeploymentSpec spec);
  Status RemoveFunction(const std::string& handle);
  bool HasDeployment(const std::string& handle) const;

  // --- Weighted two-version routing. A staged canary serves `fraction` of
  // the handle's traffic (deterministic weighted round-robin, no RNG) while
  // the current version keeps the rest; per-version counters accumulate so a
  // guard-window analyzer can compare the two. Promote makes the canary the
  // live version (old containers retire in-flight-safe, §5.5); abort drops
  // it and re-queues its pending requests onto the control version.
  Status StageCanary(DeploymentSpec spec, double fraction);
  Status PromoteCanary(const std::string& handle);
  Status AbortCanary(const std::string& handle);
  bool HasCanary(const std::string& handle) const;
  // Counters for requests the canary (resp. the control, since staging)
  // served; nullptr when no canary is staged.
  const DeploymentStats* CanaryStats(const std::string& handle) const;
  const DeploymentStats* CanaryControlStats(const std::string& handle) const;

  void SetProfiling(bool enabled);
  bool profiling() const { return config_.profiling_enabled; }

  // Invoker: the full client/function -> gateway -> container path. A
  // request with an invalid (default) parent context starts a new trace
  // (client entry); nested function-to-function calls carry their caller's
  // context so their spans join the root request's trace.
  void Invoke(InvokeRequest&& request) override;

  const DeploymentStats* StatsFor(const std::string& handle) const;
  // Cumulative breaker-open time including a currently-open span.
  SimDuration BreakerOpenNs(const std::string& handle) const;
  // Injection bookkeeping (how many faults the plan actually fired).
  const FaultStats& fault_stats() const { return injector_.stats(); }
  // Dollar-cost attribution: one MeterAttempt per dispatch attempt (retries
  // and failures included) under config().pricing, plus the per-function
  // vCPU-seconds ledger (§8 extension) the executor's bill_cpu hook feeds,
  // functions inside merged processes included.
  CostMeter& cost_meter() { return cost_meter_; }
  const CostMeter& cost_meter() const { return cost_meter_; }
  // Snapshot of all live containers (the cAdvisor sample source).
  std::vector<ResourceSample> SampleResources() const;
  double TotalMemoryInUseMb() const;
  int TotalContainers() const;

  // --- Worker-node model, configured once from PlatformConfig.
  const PlacementEngine& placement() const { return placement_; }
  // Per-node snapshot for the metrics pipeline (empty when the node model is
  // off; only nodes that ever hosted a container -- or failed -- emit rows).
  std::vector<NodeSample> SampleNodes() const;
  // Container spawns parked because every node was saturated or failed.
  int SpawnQueueDepth() const { return static_cast<int>(spawn_queue_.size()); }

  // --- Elastic fleet (autoscaler-facing surface; see autoscaler.h). All of
  // these are deterministic engine mutations plus the spawn-drain kick the
  // static path already uses, so autoscaler decisions replay byte-identically.
  // Aggregate resource demand parked in the spawn queue.
  struct SpawnDemand {
    int count = 0;
    double cpu = 0.0;
    double memory_mb = 0.0;
  };
  SpawnDemand QueuedSpawnDemand() const;
  // Adds one node to the elastic fleet; `ready == false` leaves it booting
  // until NodeReady. Returns the new node id.
  int ProvisionNode(bool ready);
  // Booted: the node joins the placeable set and queued spawns drain onto it.
  bool NodeReady(int node_id);
  bool CordonNode(int node_id);
  bool UncordonNode(int node_id);
  // Retires an empty, cordoned node (false while containers remain).
  bool RetireNode(int node_id);
  // Kills the node's idle containers (active_requests == 0, ready state)
  // through the version-retire path so pending work and stats are untouched;
  // busy containers finish their in-flight requests first.
  void DrainCordonedNode(int node_id);
  // Ready nodes currently hosting at least one container with an in-flight
  // request (the autoscaler's busy set).
  int BusyNodes() const;
  // The elastic fleet's controller; nullptr unless config().autoscaler is
  // enabled (the constructor arms it).
  NodeAutoscaler* autoscaler() { return autoscaler_.get(); }
  const NodeAutoscaler* autoscaler() const { return autoscaler_.get(); }

  // The typed verdict of PlatformConfig::Validate on the live config.
  const Status& config_status() const { return config_status_; }

  PlatformConfig& config() { return config_; }
  Simulation* sim() { return sim_; }

 private:
  // One logical invocation, possibly spanning several attempts. Carries the
  // invocation's span: segment counters accumulate across attempts, and the
  // span is recorded once, when the response is delivered to the caller.
  struct CallContext {
    HandleId callee_id = kInvalidHandle;  // Interned callee handle.
    Json payload;
    bool async = false;
    int attempt = 1;
    // Attempts settle by number: the first of {timeout, gateway rejection,
    // execution result} for attempt k settles it and later ones drop. Attempt
    // k + 1 begins only after attempt k settled.
    int settled_attempt = 0;
    bool shed = false;  // Current attempt was rejected by the circuit breaker.
    // Current attempt is one of the capped half-open probes; its settlement
    // must release the probe slot.
    bool half_open_probe = false;
    // Deployment version this call was routed to (0 = not yet routed). With
    // a staged canary, the weighted round-robin assigns either the control
    // or the canary version; queued requests only drain onto containers of
    // their assigned version.
    int64_t version = 0;
    SimDuration request_path = 0;   // Gateway-path latency each attempt pays.
    SimDuration response_path = 0;  // Paid once, by the settling attempt.
    std::function<void(Result<Json>)> done;  // The caller's continuation.

    // --- Tracing (only populated when the ingress path is active).
    bool traced = false;
    Span span;
    // Request-leg segment costs, re-paid by every attempt.
    SimDuration attempt_network = 0;
    SimDuration attempt_gateway = 0;
    bool gateway_fault = false;      // An injected gateway 5xx hit this call.
    bool retries_exhausted = false;  // Failed after the retry policy's last attempt.
  };

  // A queued attempt. An attempt that timed out while queued stays queued: it
  // still dispatches, runs and is billed, and its answer is dropped.
  struct PendingRequest {
    std::shared_ptr<CallContext> ctx;
    SimTime enqueued_at = 0;
    int attempt = 0;
  };

  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  // A staged second version of a deployment plus its traffic split and the
  // per-version counters of the guard window.
  struct CanaryTrack {
    DeploymentSpec spec;
    int64_t version = 0;
    double fraction = 0.0;
    double credit = 0.0;  // Weighted round-robin accumulator.
    DeploymentStats stats;          // Requests the canary version served.
    DeploymentStats control_stats;  // Requests the control served since staging.
  };

  // One deployment: the one owner of its versions and replicas. A version is
  // live while it is the control (`version`) or the staged canary; every
  // replica records the version it serves (Container::version).
  struct Deployment {
    HandleId id = kInvalidHandle;  // Interned spec.handle.
    DeploymentSpec spec;
    int64_t version = 1;
    // Monotone version-id source: updates and canaries each take a fresh id,
    // so an aborted canary's containers can never collide with a later
    // version and resurrect.
    int64_t version_counter = 1;
    std::unique_ptr<CanaryTrack> canary;
    // Replicas in creation order: routing's least-loaded tie-break and every
    // kill, retire and drain walk them in this order.
    std::vector<std::shared_ptr<Container>> containers;
    std::deque<PendingRequest> pending;
    SimTime last_routed = -1;
    DeploymentStats stats;
    bool draining = false;

    // Circuit-breaker state.
    BreakerState breaker_state = BreakerState::kClosed;
    int consecutive_failures = 0;
    SimTime breaker_opened_at = 0;
    SimTime breaker_open_until = 0;
    // In-flight half-open probes (capped at breaker.half_open_max_probes).
    int half_open_inflight = 0;

    // Spawns of this deployment parked in the platform's spawn queue
    // (bounds duplicate enqueues while the cluster is saturated).
    int queued_spawns = 0;

    bool IsCanary(int64_t v) const { return canary != nullptr && v == canary->version; }
    bool IsLive(int64_t v) const { return v == version || IsCanary(v); }
    const DeploymentSpec& SpecFor(int64_t v) const { return IsCanary(v) ? canary->spec : spec; }
    // Counts one event of version `v` in the deployment's totals and, while a
    // canary is staged, in the counters of the arm `v` belongs to.
    void Charge(int64_t v, int64_t DeploymentStats::*counter) {
      ++(stats.*counter);
      if (canary != nullptr) {
        ++((IsCanary(v) ? canary->stats : canary->control_stats).*counter);
      }
    }
    // Replicas of `v` that are not killed (cold-starting ones included).
    int LiveReplicas(int64_t v) const;
    bool HasQueued(int64_t v) const;
  };

  // --- Handle-interned deployment lookup. Invoke interns the callee once;
  // every later probe on the invocation path (attempt begin/settle, routing,
  // dispatch completion, kill attribution) is a vector index on the id --
  // no string hashing or std::map probes on the hot path.
  Deployment* DeploymentAt(HandleId id) const;
  Deployment* FindDeployment(std::string_view handle) const;
  // Interns `handle` and returns its (possibly fresh) deployment slot id.
  HandleId InternHandle(std::string_view handle);

  SimDuration ColdStartDelay(const DeploymentSpec& spec) const;
  std::shared_ptr<Container> SelectContainer(Deployment& dep, int64_t version) const;
  void CreateContainer(Deployment& dep, int64_t version);
  // Rule 2 of a version swap: a live version with queued requests always has
  // a replica or a parked spawn. Spawns one if it has neither.
  void EnsureReplica(Deployment& dep, int64_t version);
  // The version-change step UpdateFunction, PromoteCanary and AbortCanary
  // share. Each has just ended any canary, so the control is the one live
  // version. Rule 1: every queued request moves to the control. Then stale
  // replicas retire, the queue drains, and rule 2 holds for the control.
  void ChangeVersion(Deployment& dep);
  // --- Node-model plumbing (all no-ops with an infinite pool).
  // Parks a spawn that found no node with room; bounded per deployment.
  void EnqueueSpawn(Deployment& dep, int64_t version);
  // Frees the container's node capacity and, if spawns wait, schedules a
  // zero-delay drain (never synchronous: callers are mid-pass over replicas).
  void ReleaseNodeCapacity(const Container& container);
  void ScheduleSpawnDrain();
  void DrainSpawnQueue();
  // Scheduled NodeFailureEvent: kills every container on the node.
  void FailNode(int node_id);
  // Weighted round-robin version assignment for one routing decision.
  int64_t AssignVersion(Deployment& dep);
  void RouteRequest(Deployment& dep, std::shared_ptr<CallContext> ctx, int attempt);
  void Dispatch(Deployment& dep, const std::shared_ptr<Container>& container,
                const std::shared_ptr<CallContext>& ctx, SimTime enqueued_at, int attempt);
  void DrainPending(Deployment& dep);
  // The one replica-removal path: frees the node capacity, drops the replica
  // from the deployment, kills it (its in-flight requests fail with `cause`)
  // and restores rule 2 for its version. Kill, retire, drain and remove all
  // end here.
  void RemoveReplica(Deployment& dep, std::shared_ptr<Container> container,
                     ContainerKillCause cause);
  // A failure kill: charges the cause to the deployment and the replica's
  // arm, then removes the replica.
  void KillContainer(Deployment& dep, const std::shared_ptr<Container>& container,
                     KillReason reason);
  // Removes idle replicas of versions that no longer serve.
  void RetireStaleContainers(Deployment& dep);

  // Failure-handling path (timeout, retry, breaker, fault injection).
  void BeginAttempt(std::shared_ptr<CallContext> ctx);
  // Settles attempt `attempt` with `result` unless it already settled.
  void SettleAttempt(const std::shared_ptr<CallContext>& ctx, int attempt, Result<Json> result);
  void OnAttemptResult(const std::shared_ptr<CallContext>& ctx, Result<Json> result);
  // Answers the caller: the response leg, then the span and `done`.
  void Respond(const std::shared_ptr<CallContext>& ctx, Result<Json> result);
  // True when the deployment's breaker currently sheds this call. When the
  // call is admitted as a half-open probe, marks the context so settlement
  // releases the probe slot.
  bool BreakerRejects(Deployment& dep, CallContext& ctx);
  void RecordAttemptOutcome(Deployment& dep, const Status& status);
  void OpenBreaker(Deployment& dep);

  // Finalizes the invocation's span at response delivery and appends it to
  // the span store.
  void FinishSpan(CallContext& ctx, const Status& status);
  static SpanStatus ClassifySpanStatus(const CallContext& ctx, const Status& status);

  Simulation* sim_;
  PlatformConfig config_;
  SpanStore* span_store_ = nullptr;
  FaultInjector injector_;
  Rng failure_rng_;  // Retry-backoff jitter; independent of injection draws.
  // Handle intern table shared by deployments; deployments_ is a dense side
  // table indexed by HandleId (slots are nullptr for ids without a live
  // deployment). Billing moved into cost_meter_, which keeps its own table.
  StringInterner handles_;
  std::vector<std::unique_ptr<Deployment>> deployments_;
  CostMeter cost_meter_;
  // Worker-node fleet (empty = infinite pool) and the queue of container
  // spawns waiting for node capacity, drained (FIFO) as capacity frees.
  PlacementEngine placement_;
  std::unique_ptr<NodeAutoscaler> autoscaler_;
  Status config_status_;
  std::deque<std::pair<HandleId, int64_t>> spawn_queue_;  // (deployment, version).
  bool spawn_drain_scheduled_ = false;
  int64_t next_container_id_ = 1;
  int64_t next_trace_id_ = 1;  // Minted only for trace roots (client entries).
  int64_t next_span_id_ = 1;
};

}  // namespace quilt

#endif  // SRC_PLATFORM_PLATFORM_H_
