#include "src/platform/autoscaler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/strings.h"
#include "src/platform/platform.h"

namespace quilt {

Status AutoscalerOptions::Validate() const {
  if (!enabled) {
    return Status::Ok();
  }
  if (min_nodes < 0) {
    return InvalidArgumentError("autoscaler.min_nodes must be >= 0");
  }
  if (max_nodes < 0) {
    return InvalidArgumentError("autoscaler.max_nodes must be >= 0 (0 = uncapped)");
  }
  if (max_nodes > 0 && max_nodes < min_nodes) {
    return InvalidArgumentError("autoscaler.max_nodes must be >= min_nodes");
  }
  if (warm_pool < 0) {
    return InvalidArgumentError("autoscaler.warm_pool must be >= 0");
  }
  if (evaluate_interval <= 0) {
    return InvalidArgumentError("autoscaler.evaluate_interval must be positive");
  }
  if (provisioning_delay < 0) {
    return InvalidArgumentError("autoscaler.provisioning_delay must not be negative");
  }
  if (scale_down_idle_ticks < 1) {
    return InvalidArgumentError("autoscaler.scale_down_idle_ticks must be >= 1");
  }
  return Status::Ok();
}

std::string AutoscaleEventLine(const AutoscaleEvent& event) {
  return StrCat("t=", event.timestamp, " action=", event.action, " node=", event.node_id,
                " ready=", event.ready_nodes, " provisioning=", event.provisioning_nodes,
                " cordoned=", event.cordoned_nodes,
                " spawn_queue=", event.spawn_queue_depth);
}

NodeAutoscaler::NodeAutoscaler(Simulation* sim, Platform* platform, AutoscalerOptions options)
    : sim_(sim), platform_(platform), options_(options) {
  assert(options_.Validate().ok());
}

void NodeAutoscaler::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  // The floor boots instantly: min_nodes models capacity the operator keeps
  // provisioned before traffic arrives, not a cold ramp.
  for (int i = 0; i < options_.min_nodes; ++i) {
    const int id = platform_->ProvisionNode(/*ready=*/true);
    ++provisioned_total_;
    Record("provision", id);
    Record("ready", id);
  }
  sim_->Schedule(options_.evaluate_interval, [this] { Tick(); });
}

void NodeAutoscaler::Stop() { running_ = false; }

void NodeAutoscaler::Tick() {
  if (!running_) {
    return;
  }
  ++ticks_;
  DrainAndRetire();
  if (platform_->SpawnQueueDepth() > 0) {
    surplus_ticks_ = 0;
    window_busy_peak_ = 0;
    ScaleUp();
  } else {
    // Never drain while capacity is still booting: the in-flight provision
    // exists because of recent pressure, and racing it would flap the fleet.
    if (platform_->placement().ProvisioningNodes() == 0) {
      MaybeScaleDown();
    } else {
      surplus_ticks_ = 0;
      window_busy_peak_ = 0;
    }
  }
  sim_->Schedule(options_.evaluate_interval, [this] { Tick(); });
}

void NodeAutoscaler::DrainAndRetire() {
  const PlacementEngine& placement = platform_->placement();
  // Entries are mutated in place but never reallocated here, so iterating
  // the engine's vector while draining through the platform is safe.
  for (const WorkerNode& node : placement.nodes()) {
    if (!node.cordoned || node.retired || node.failed || node.provisioning) {
      continue;
    }
    platform_->DrainCordonedNode(node.id);
    if (node.containers == 0 && platform_->RetireNode(node.id)) {
      ++retired_total_;
      Record("retire", node.id);
    }
  }
}

void NodeAutoscaler::ScaleUp() {
  const PlacementEngine& placement = platform_->placement();
  const Platform::SpawnDemand demand = platform_->QueuedSpawnDemand();
  // The queue may be observed before same-instant drain events run, so count
  // the free capacity already standing on placeable nodes against the queued
  // demand; only the uncovered remainder justifies new hardware.
  double free_cpu = 0.0;
  double free_memory_mb = 0.0;
  for (const WorkerNode& node : placement.nodes()) {
    if (node.Available()) {
      free_cpu += std::max(0.0, node.cpu_capacity - node.cpu_used);
      free_memory_mb += std::max(0.0, node.memory_capacity_mb - node.memory_used_mb);
    }
  }
  const double uncovered_cpu = std::max(0.0, demand.cpu - free_cpu);
  const double uncovered_memory_mb = std::max(0.0, demand.memory_mb - free_memory_mb);
  if (uncovered_cpu <= 0.0 && uncovered_memory_mb <= 0.0) {
    return;
  }
  // Nodes needed to absorb the uncovered resource demand, at least one.
  int needed = 1;
  needed = std::max(
      needed, static_cast<int>(std::ceil(uncovered_cpu / placement.node_cpu())));
  needed = std::max(
      needed, static_cast<int>(std::ceil(uncovered_memory_mb / placement.node_memory_mb())));
  needed -= placement.ProvisioningNodes();
  // Flip drain candidates back first: uncordoning is free and instant,
  // provisioning costs a cold-node delay. Ascending id keeps it deterministic.
  for (const WorkerNode& node : placement.nodes()) {
    if (needed <= 0) {
      break;
    }
    if (node.cordoned && !node.retired && !node.failed && !node.provisioning) {
      if (platform_->UncordonNode(node.id)) {
        Record("uncordon", node.id);
        --needed;
      }
    }
  }
  if (options_.max_nodes > 0) {
    needed = std::min(needed, options_.max_nodes - placement.AliveNodes());
  }
  for (int i = 0; i < needed; ++i) {
    const bool instant = options_.provisioning_delay <= 0;
    const int id = platform_->ProvisionNode(/*ready=*/instant);
    ++provisioned_total_;
    Record("provision", id);
    if (instant) {
      Record("ready", id);
    } else {
      sim_->Schedule(options_.provisioning_delay, [this, id] {
        if (platform_->NodeReady(id)) {
          Record("ready", id);
        }
      });
    }
  }
}

void NodeAutoscaler::MaybeScaleDown() {
  const PlacementEngine& placement = platform_->placement();
  const int ready = placement.ReadyNodes();
  // Size the target against the busiest instant of the window, not this one:
  // at peak load the instantaneous busy set dips between requests, and
  // draining on a dip kills warm containers the very next burst needs.
  window_busy_peak_ = std::max(window_busy_peak_, platform_->BusyNodes());
  const int target = std::max(options_.min_nodes, window_busy_peak_ + options_.warm_pool);
  if (ready - target <= 0) {
    surplus_ticks_ = 0;
    window_busy_peak_ = 0;
    return;
  }
  if (++surplus_ticks_ < options_.scale_down_idle_ticks) {
    return;
  }
  surplus_ticks_ = 0;
  window_busy_peak_ = 0;
  // Drain candidate: fewest containers, lowest node id on ties. At most one
  // cordon per window keeps the drain gradual and the decision sequence
  // insensitive to how fast earlier drains complete.
  int candidate = -1;
  int fewest = 0;
  for (const WorkerNode& node : placement.nodes()) {
    if (!node.Available()) {
      continue;
    }
    if (candidate < 0 || node.containers < fewest) {
      candidate = node.id;
      fewest = node.containers;
    }
  }
  if (candidate >= 0 && platform_->CordonNode(candidate)) {
    Record("cordon", candidate);
  }
}

void NodeAutoscaler::Record(const char* action, int node_id) {
  const PlacementEngine& placement = platform_->placement();
  AutoscaleEvent event;
  event.timestamp = sim_->now();
  event.action = action;
  event.node_id = node_id;
  event.ready_nodes = placement.ReadyNodes();
  event.provisioning_nodes = placement.ProvisioningNodes();
  event.cordoned_nodes = placement.CordonedNodes();
  event.spawn_queue_depth = platform_->SpawnQueueDepth();
  events_.push_back(std::move(event));
}

}  // namespace quilt
