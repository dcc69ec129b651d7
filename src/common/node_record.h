// Telemetry for one worker node at one sampler tick (§4, live node model).
// Shared vocabulary between the platform (which snapshots its placement
// engine), the resource monitor (which samples on the cAdvisor tick) and the
// metrics store -- a flat struct with no dependencies beyond sim time, so
// every layer can speak it.
#ifndef SRC_COMMON_NODE_RECORD_H_
#define SRC_COMMON_NODE_RECORD_H_

#include <cstdint>
#include <string>

#include "src/common/sim_time.h"
#include "src/common/strings.h"

namespace quilt {

struct NodeSample {
  int node_id = 0;
  SimTime timestamp = 0;
  double cpu_capacity = 0.0;
  double memory_capacity_mb = 0.0;
  double cpu_used = 0.0;        // Capacity debited by placed containers.
  // CPU actually working at sample time: containers with in-flight requests
  // (or still cold-starting) count their limit; idle-warm containers hold an
  // allocation (cpu_used) but contribute nothing here.
  double cpu_busy = 0.0;
  double memory_used_mb = 0.0;
  int containers = 0;           // Live containers on the node.
  int64_t placements_cum = 0;   // Containers ever placed on the node.
  int64_t kills_cum = 0;        // Containers killed on the node.
  bool failed = false;
  bool cordoned = false;      // Draining: no new placements land here.
  bool provisioning = false;  // Booting: paid for, not yet placeable.
  // Cluster-wide spawn backlog at sample time (same value stamped on every
  // node's row of the tick): container spawns waiting for capacity.
  int64_t spawn_queue_depth = 0;

  // Share of the node doing actual work -- what infrastructure billing
  // treats as non-idle (allocation alone is paid-but-idle).
  double BusyFraction() const {
    return cpu_capacity > 0.0 ? cpu_busy / cpu_capacity : 0.0;
  }
};

// Canonical one-line rendering (fixed precision, fixed field order) for
// byte-identical comparison across runs.
inline std::string NodeSampleLine(const NodeSample& sample) {
  return StrCat("t=", sample.timestamp, " node=", sample.node_id, " cpu=",
                FormatDouble(sample.cpu_used, 3), "/", FormatDouble(sample.cpu_capacity, 3),
                " busy=", FormatDouble(sample.cpu_busy, 3),
                " mem=", FormatDouble(sample.memory_used_mb, 3), "/",
                FormatDouble(sample.memory_capacity_mb, 3),
                " containers=", sample.containers, " placements=", sample.placements_cum,
                " kills=", sample.kills_cum, " failed=", sample.failed ? 1 : 0,
                " cordoned=", sample.cordoned ? 1 : 0,
                " provisioning=", sample.provisioning ? 1 : 0,
                " spawn_queue=", sample.spawn_queue_depth);
}

}  // namespace quilt

#endif  // SRC_COMMON_NODE_RECORD_H_
