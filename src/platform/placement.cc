#include "src/platform/placement.h"

#include "src/common/strings.h"

namespace quilt {

const char* PlacementPolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return "first-fit";
    case PlacementPolicy::kBestFit:
      return "best-fit";
    case PlacementPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "unknown";
}

int PickNode(const std::vector<WorkerNode>& nodes, double cpu, double memory_mb,
             PlacementPolicy policy) {
  int best = -1;
  double best_cpu_key = 0.0;
  double best_mem_key = 0.0;
  for (const WorkerNode& node : nodes) {
    if (!node.Fits(cpu, memory_mb)) {
      continue;
    }
    if (policy == PlacementPolicy::kFirstFit) {
      return node.id;
    }
    // Candidate keys, minimized. Strict < keeps the lowest id on exact ties
    // (ascending iteration), so every policy is deterministic.
    double cpu_key = 0.0;
    double mem_key = 0.0;
    if (policy == PlacementPolicy::kBestFit) {
      cpu_key = node.cpu_free() - cpu;
      mem_key = node.memory_free_mb() - memory_mb;
    } else {  // kLeastLoaded
      cpu_key = node.cpu_capacity > 0.0 ? node.cpu_used / node.cpu_capacity : 0.0;
      mem_key = node.memory_capacity_mb > 0.0 ? node.memory_used_mb / node.memory_capacity_mb
                                              : 0.0;
    }
    if (best < 0 || cpu_key < best_cpu_key ||
        (cpu_key == best_cpu_key && mem_key < best_mem_key)) {
      best = node.id;
      best_cpu_key = cpu_key;
      best_mem_key = mem_key;
    }
  }
  return best;
}

std::string NodeStatsLine(const NodeStats& stats) {
  return StrCat("node=", stats.node_id, " cpu=", FormatDouble(stats.cpu_used, 3), "/",
                FormatDouble(stats.cpu_capacity, 3), " mem=",
                FormatDouble(stats.memory_used_mb, 3), "/",
                FormatDouble(stats.memory_capacity_mb, 3), " containers=", stats.containers,
                " placements=", stats.placements, " kills=", stats.kills,
                " failed=", stats.failed ? 1 : 0, " cordoned=", stats.cordoned ? 1 : 0,
                " provisioning=", stats.provisioning ? 1 : 0);
}

void PlacementEngine::Configure(double node_cpu, double node_memory_mb, int max_nodes,
                                PlacementPolicy policy) {
  policy_ = policy;
  enabled_ = max_nodes > 0;
  node_cpu_ = node_cpu;
  node_memory_mb_ = node_memory_mb;
  nodes_.clear();
  nodes_.reserve(max_nodes > 0 ? static_cast<size_t>(max_nodes) : 0);
  for (int id = 0; id < max_nodes; ++id) {
    WorkerNode node;
    node.id = id;
    node.cpu_capacity = node_cpu;
    node.memory_capacity_mb = node_memory_mb;
    nodes_.push_back(node);
  }
  total_placements_ = 0;
  deferrals_ = 0;
  unplaceable_ = 0;
}

void PlacementEngine::ConfigureElastic(double node_cpu, double node_memory_mb,
                                       PlacementPolicy policy) {
  Configure(node_cpu, node_memory_mb, /*max_nodes=*/0, policy);
  enabled_ = true;  // Enabled with an empty fleet; AddNode grows it.
}

int PlacementEngine::Place(double cpu, double memory_mb) {
  if (!enabled_) {
    return -1;
  }
  if (cpu > node_cpu_ || memory_mb > node_memory_mb_) {
    ++unplaceable_;
    return -1;
  }
  const int picked = PickNode(nodes_, cpu, memory_mb, policy_);
  if (picked < 0) {
    ++deferrals_;
    return -1;
  }
  nodes_[static_cast<size_t>(picked)].Assign(cpu, memory_mb);
  ++total_placements_;
  return picked;
}

void PlacementEngine::Release(int node_id, double cpu, double memory_mb) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (node.containers > 0) {
    --node.containers;
  }
  if (node.failed) {
    return;  // The machine is gone; its capacity never frees.
  }
  node.cpu_used -= cpu;
  node.memory_used_mb -= memory_mb;
  if (node.cpu_used < 0.0) {
    node.cpu_used = 0.0;
  }
  if (node.memory_used_mb < 0.0) {
    node.memory_used_mb = 0.0;
  }
}

void PlacementEngine::RecordKill(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return;
  }
  ++nodes_[static_cast<size_t>(node_id)].kills;
}

bool PlacementEngine::MarkFailed(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return false;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (node.failed || node.retired) {
    return false;
  }
  node.failed = true;
  return true;
}

int PlacementEngine::AddNode(bool ready) {
  WorkerNode node;
  node.id = static_cast<int>(nodes_.size());
  node.cpu_capacity = node_cpu_;
  node.memory_capacity_mb = node_memory_mb_;
  node.provisioning = !ready;
  node.managed = true;
  nodes_.push_back(node);
  return node.id;
}

bool PlacementEngine::SetReady(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return false;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (!node.provisioning || node.failed || node.retired) {
    return false;
  }
  node.provisioning = false;
  return true;
}

bool PlacementEngine::Cordon(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return false;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (node.cordoned || node.failed || node.retired) {
    return false;
  }
  node.cordoned = true;
  return true;
}

bool PlacementEngine::Uncordon(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return false;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (!node.cordoned || node.failed || node.retired) {
    return false;
  }
  node.cordoned = false;
  return true;
}

bool PlacementEngine::RetireNode(int node_id) {
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return false;
  }
  WorkerNode& node = nodes_[static_cast<size_t>(node_id)];
  if (node.retired || node.failed || node.containers != 0) {
    return false;
  }
  node.retired = true;
  node.cordoned = true;  // Retired implies no new placements, permanently.
  return true;
}

int PlacementEngine::ReadyNodes() const {
  int count = 0;
  for (const WorkerNode& node : nodes_) {
    if (node.Available()) {
      ++count;
    }
  }
  return count;
}

int PlacementEngine::ProvisioningNodes() const {
  int count = 0;
  for (const WorkerNode& node : nodes_) {
    if (node.provisioning && !node.failed && !node.retired) {
      ++count;
    }
  }
  return count;
}

int PlacementEngine::CordonedNodes() const {
  int count = 0;
  for (const WorkerNode& node : nodes_) {
    if (node.cordoned && !node.provisioning && !node.failed && !node.retired) {
      ++count;
    }
  }
  return count;
}

int PlacementEngine::AliveNodes() const {
  int count = 0;
  for (const WorkerNode& node : nodes_) {
    if (!node.failed && !node.retired) {
      ++count;
    }
  }
  return count;
}

std::vector<NodeStats> PlacementEngine::Snapshot() const {
  std::vector<NodeStats> snapshot;
  for (const WorkerNode& node : nodes_) {
    // Static fleets only report nodes that ever hosted a container (or
    // failed), so a 1000-node pool does not emit 1000 empty rows per tick.
    // Managed (elastic) nodes are paid for from the moment they are
    // provisioned, so they report from birth until retirement -- warm-pool
    // and booting nodes must show up as idle dollars in the billing path.
    if (node.managed ? node.retired : (node.placements == 0 && !node.failed)) {
      continue;
    }
    NodeStats stats;
    stats.node_id = node.id;
    stats.cpu_capacity = node.cpu_capacity;
    stats.memory_capacity_mb = node.memory_capacity_mb;
    stats.cpu_used = node.cpu_used;
    stats.memory_used_mb = node.memory_used_mb;
    stats.containers = node.containers;
    stats.placements = node.placements;
    stats.kills = node.kills;
    stats.failed = node.failed;
    stats.cordoned = node.cordoned;
    stats.provisioning = node.provisioning;
    stats.retired = node.retired;
    snapshot.push_back(stats);
  }
  return snapshot;
}

double PlacementEngine::StrandedCpuFraction() const {
  double total = 0.0;
  double free = 0.0;
  for (const WorkerNode& node : nodes_) {
    if (node.containers == 0 || node.failed) {
      continue;
    }
    total += node.cpu_capacity;
    free += node.cpu_free();
  }
  return total > 0.0 ? free / total : 0.0;
}

double PlacementEngine::StrandedMemoryFraction() const {
  double total = 0.0;
  double free = 0.0;
  for (const WorkerNode& node : nodes_) {
    if (node.containers == 0 || node.failed) {
      continue;
    }
    total += node.memory_capacity_mb;
    free += node.memory_free_mb();
  }
  return total > 0.0 ? free / total : 0.0;
}

}  // namespace quilt
