// Deterministic, event-driven worker-node autoscaler (§4.14).
//
// PR 8 made the fleet finite and PR 9 priced it: a static `max_nodes` fleet
// either strands capacity under phased load (paid-but-idle node dollars) or
// saturates (spawn-queue deferrals). This closes the loop. Scale-up is driven
// by placement pressure -- every evaluation tick that finds spawns queued
// provisions for their aggregate resource demand -- and pays a configurable
// provisioning delay per cold node. Scale-down picks drain
// candidates (fewest containers, lowest node id tie-break), cordons them in
// the PlacementEngine so PickNode skips them, waits out or retires resident
// idle containers via the existing retire path, and retires the node.
//
// Determinism: the autoscaler draws no randomness, runs on the simulation's
// event loop (fixed tick interval), reads only engine/platform state that is
// itself deterministic, and breaks every tie by ascending node id. The same
// workload produces a byte-identical AutoscaleEvent log across runs and
// across `decision.grasp_threads` settings. With `enabled == false` the
// autoscaler schedules no events at all, so static-fleet and infinite-pool
// runs are event-for-event identical to a build without it.
#ifndef SRC_PLATFORM_AUTOSCALER_H_
#define SRC_PLATFORM_AUTOSCALER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/sim/simulation.h"

namespace quilt {

class Platform;

// Knobs for the elastic node pool. Defaults are conservative: a quarter-second
// control loop, eight idle ticks (~2s) before draining a surplus node. Every
// tick that finds the spawn queue non-empty scales up (capacity is the scarce
// resource).
struct AutoscalerOptions {
  bool enabled = false;
  // Fleet floor: nodes provisioned (ready) at Start and never drained below.
  int min_nodes = 1;
  // Fleet ceiling (alive nodes); 0 = uncapped.
  int max_nodes = 0;
  // Idle ready nodes kept beyond the busy set, so a burst lands on warm
  // capacity instead of waiting out a provisioning delay.
  int warm_pool = 0;
  // Control-loop tick.
  SimDuration evaluate_interval = Milliseconds(250);
  // Cold-node boot time: a provisioned node becomes placeable this much later.
  SimDuration provisioning_delay = Seconds(1);
  // Consecutive surplus ticks before cordoning one drain candidate.
  int scale_down_idle_ticks = 8;
  // Node geometry and packing policy are not repeated here: every node the
  // autoscaler provisions takes PlatformConfig::node_cpu/node_memory_mb/
  // placement_policy, the same fields the static fleet reads.

  // Rejects non-positive intervals and a ceiling below the floor. Always Ok
  // when `enabled` is false (an unused struct cannot be invalid).
  Status Validate() const;
};

// One autoscaler decision, with the fleet state after it was applied. The
// determinism tests and fig_autoscale compare runs through this log.
struct AutoscaleEvent {
  SimTime timestamp = 0;
  // "provision" | "ready" | "cordon" | "uncordon" | "retire".
  std::string action;
  int node_id = -1;
  int ready_nodes = 0;
  int provisioning_nodes = 0;
  int cordoned_nodes = 0;
  int64_t spawn_queue_depth = 0;
};

// Canonical one-line rendering (fixed field order) for byte comparison.
std::string AutoscaleEventLine(const AutoscaleEvent& event);

class NodeAutoscaler {
 public:
  // `sim` and `platform` must outlive the autoscaler. Requires
  // options.Validate().ok().
  NodeAutoscaler(Simulation* sim, Platform* platform, AutoscalerOptions options);

  // Switches the platform's placement engine to elastic mode, provisions
  // `min_nodes` ready nodes, and schedules the first evaluation tick. Must
  // run before any container exists.
  void Start();
  // Stops scheduling ticks; already-provisioning nodes still become ready.
  void Stop();

  const AutoscalerOptions& options() const { return options_; }
  const std::vector<AutoscaleEvent>& events() const { return events_; }
  int64_t ticks() const { return ticks_; }
  int64_t provisioned_total() const { return provisioned_total_; }
  int64_t retired_total() const { return retired_total_; }

 private:
  void Tick();
  // Drains cordoned nodes (kills their idle containers via the platform's
  // retire path) and retires the ones that emptied.
  void DrainAndRetire();
  // Provisions (or uncordons) enough nodes to absorb the queued demand.
  void ScaleUp();
  // Cordons one drain candidate when the ready fleet exceeds the busy set
  // plus the warm pool for long enough.
  void MaybeScaleDown();
  void Record(const char* action, int node_id);

  Simulation* sim_;
  Platform* platform_;
  AutoscalerOptions options_;
  bool running_ = false;
  int64_t ticks_ = 0;
  int surplus_ticks_ = 0;
  // Peak BusyNodes() observed across the current surplus window. Busy counts
  // sampled at tick instants are twitchy (requests are short relative to the
  // tick), so scale-down sizes the target against the window's peak demand
  // rather than one instant -- a node that does real work anywhere in the
  // window is not surplus.
  int window_busy_peak_ = 0;
  int64_t provisioned_total_ = 0;
  int64_t retired_total_ = 0;
  std::vector<AutoscaleEvent> events_;
};

}  // namespace quilt

#endif  // SRC_PLATFORM_AUTOSCALER_H_
