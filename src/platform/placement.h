// Worker-node model and live placement engine (§4, made live).
//
// The paper's fragmentation argument is a placement argument: heterogeneous
// containers bin-packed onto finite workers strand resources. The offline
// model (cluster.h) quantifies that for a static container mix; this engine
// puts the same packing core under the live Platform, so every container
// spawn debits a real node's capacity and merges pay their fragmentation
// cost in live latency and stranding numbers, not just in a detached bench.
//
// Determinism: every policy breaks ties by ascending node id, all capacity
// comparisons are exact (no epsilon), and the engine draws no randomness --
// the same spawn/release sequence produces byte-identical NodeStats.
#ifndef SRC_PLATFORM_PLACEMENT_H_
#define SRC_PLATFORM_PLACEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace quilt {

// How the engine picks a node for one container.
//   kFirstFit:    lowest-id node with room (the offline model's default).
//   kBestFit:     node whose remaining capacity after placing is smallest
//                 (cpu first, then memory) -- packs tight, strands less.
//   kLeastLoaded: node with the lowest cpu utilization fraction -- spreads
//                 load, trading stranding for headroom.
enum class PlacementPolicy { kFirstFit = 0, kBestFit, kLeastLoaded };

const char* PlacementPolicyName(PlacementPolicy policy);

// One finite-capacity worker node. `placements`/`kills` are cumulative over
// the node's lifetime; `containers` is the live count. A failed node keeps
// its capacity debited forever (the machine is gone, not drained).
//
// Lifecycle flags (autoscaler): a `provisioning` node is booting and invisible
// to the packer until SetReady; a `cordoned` node takes no new placements but
// keeps serving resident containers until drained; a `retired` node is
// permanently out of the fleet (its id is never reused). `managed` marks nodes
// created by AddNode (elastic fleet) rather than eagerly at Configure.
struct WorkerNode {
  int id = 0;
  double cpu_capacity = 0.0;
  double memory_capacity_mb = 0.0;
  double cpu_used = 0.0;
  double memory_used_mb = 0.0;
  int containers = 0;
  bool failed = false;
  bool cordoned = false;
  bool provisioning = false;
  bool retired = false;
  bool managed = false;
  int64_t placements = 0;
  int64_t kills = 0;

  double cpu_free() const { return cpu_capacity - cpu_used; }
  double memory_free_mb() const { return memory_capacity_mb - memory_used_mb; }
  // Ready to accept new containers (lifecycle gate, capacity aside).
  bool Available() const { return !failed && !cordoned && !provisioning && !retired; }
  bool Fits(double cpu, double memory_mb) const {
    return Available() && cpu_free() >= cpu && memory_free_mb() >= memory_mb;
  }
  void Assign(double cpu, double memory_mb) {
    cpu_used += cpu;
    memory_used_mb += memory_mb;
    ++containers;
    ++placements;
  }
};

// The shared packing core: picks the node for a (cpu, memory) demand under
// `policy`, or -1 when no node fits. Ties break toward the lower node id;
// iteration is always in ascending id order, so the choice is deterministic.
// Both the offline PlaceContainers model and the live engine route every
// placement decision through this one function.
int PickNode(const std::vector<WorkerNode>& nodes, double cpu, double memory_mb,
             PlacementPolicy policy);

// Snapshot of one node, exposed through Platform::SampleNodes and the
// metrics pipeline.
struct NodeStats {
  int node_id = 0;
  double cpu_capacity = 0.0;
  double memory_capacity_mb = 0.0;
  double cpu_used = 0.0;
  double memory_used_mb = 0.0;
  int containers = 0;
  int64_t placements = 0;
  int64_t kills = 0;
  bool failed = false;
  bool cordoned = false;
  bool provisioning = false;
  bool retired = false;
};

// Canonical one-line rendering (fixed precision, fixed field order): the
// determinism tests compare runs byte-for-byte through this.
std::string NodeStatsLine(const NodeStats& stats);

// Live placement state: a fixed fleet of identical nodes, created eagerly at
// Configure (a fleet of max_nodes empty nodes is indistinguishable from
// lazily-opened ones under every policy here, and eager creation keeps node
// ids stable for failure injection). max_nodes == 0 disables the engine --
// the platform then behaves as the pre-node-model infinite pool.
class PlacementEngine {
 public:
  void Configure(double node_cpu, double node_memory_mb, int max_nodes,
                 PlacementPolicy policy);
  // Elastic mode: enables the engine with the node geometry but an empty
  // fleet. Nodes arrive one at a time via AddNode (the autoscaler's
  // provision path) instead of eagerly at Configure.
  void ConfigureElastic(double node_cpu, double node_memory_mb, PlacementPolicy policy);

  bool enabled() const { return enabled_; }
  PlacementPolicy policy() const { return policy_; }
  double node_cpu() const { return node_cpu_; }
  double node_memory_mb() const { return node_memory_mb_; }
  const std::vector<WorkerNode>& nodes() const { return nodes_; }

  // Debits capacity on the chosen node and returns its id, or -1 when the
  // demand fits no live node right now (the caller queues the spawn). A
  // demand larger than an empty node can never place; it is counted
  // separately so saturation and impossibility are distinguishable.
  int Place(double cpu, double memory_mb);
  // Returns the capacity a dead/retired container held. No-op on a failed
  // node: its capacity is permanently lost.
  void Release(int node_id, double cpu, double memory_mb);
  // Charges one container kill to the node's cumulative counter.
  void RecordKill(int node_id);
  // Marks the node failed (capacity permanently stranded, no future
  // placements). False when the id is unknown or the node already failed.
  bool MarkFailed(int node_id);

  // --- Elastic node lifecycle (autoscaler) -------------------------------
  // Appends one node with the configured geometry; `ready` false leaves it
  // in the provisioning state (invisible to PickNode until SetReady).
  // Returns the new node id. Requires the engine to be enabled.
  int AddNode(bool ready);
  // Provisioning -> ready. False on unknown id or non-provisioning node.
  bool SetReady(int node_id);
  // Stops new placements on the node; resident containers keep running.
  bool Cordon(int node_id);
  bool Uncordon(int node_id);
  // Permanently removes an empty node from the fleet (id never reused).
  // False if the node still hosts containers, already retired, or failed.
  bool RetireNode(int node_id);

  // Fleet composition at this instant (retired/failed nodes excluded).
  int ReadyNodes() const;         // available for new placements
  int ProvisioningNodes() const;  // booting
  int CordonedNodes() const;      // draining
  int AliveNodes() const;         // ready + provisioning + cordoned

  // Only nodes that ever hosted a container (or failed) are reported; a
  // 1000-node fleet does not emit 1000 empty rows per sampler tick.
  std::vector<NodeStats> Snapshot() const;

  // Live stranding across non-empty, non-failed nodes: free capacity as a
  // fraction of their total capacity (the live counterpart of the offline
  // PlacementResult::Stranded*Fraction).
  double StrandedCpuFraction() const;
  double StrandedMemoryFraction() const;

  int64_t total_placements() const { return total_placements_; }
  // Spawns the engine could not serve because every node was saturated or
  // failed (they were queued by the caller).
  int64_t deferrals() const { return deferrals_; }
  // Spawns whose demand exceeds even an empty node (can never place).
  int64_t unplaceable() const { return unplaceable_; }

 private:
  std::vector<WorkerNode> nodes_;
  PlacementPolicy policy_ = PlacementPolicy::kFirstFit;
  bool enabled_ = false;
  double node_cpu_ = 0.0;
  double node_memory_mb_ = 0.0;
  int64_t total_placements_ = 0;
  int64_t deferrals_ = 0;
  int64_t unplaceable_ = 0;
};

}  // namespace quilt

#endif  // SRC_PLATFORM_PLACEMENT_H_
