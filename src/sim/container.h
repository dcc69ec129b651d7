// A container instance: the isolation unit the platform schedules.
//
// Carries the cgroup CPU quota (CpuShare), the memory limit (exceeding it
// kills the container, as on Fission/Kubernetes), the resident base memory
// of the runtime image, and bookkeeping the resource monitor samples.
#ifndef SRC_SIM_CONTAINER_H_
#define SRC_SIM_CONTAINER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/common/status.h"
#include "src/sim/cpu_share.h"
#include "src/sim/simulation.h"

namespace quilt {

struct ContainerConfig {
  double cpu_limit = 2.0;         // vCPUs.
  double memory_limit_mb = 128.0;
  double base_memory_mb = 20.0;   // Runtime + shared libs resident at start.
  int64_t image_size_bytes = 0;   // Drives cold-start fetch time.
  int eager_libs = 0;             // Shared libs loaded at process start.
  int lazy_libs = 0;              // Implib-wrapped libs (loaded on first use).
};

enum class ContainerState { kColdStarting, kReady, kKilled };

// Why the container died, as observed by in-flight requests (their abort
// handlers read it to report OOM kills distinctly from crashes).
enum class ContainerKillCause { kNone, kOom, kCrash, kNodeFailure };

class Container {
 public:
  Container(Simulation* sim, std::string deployment_handle, int64_t id, ContainerConfig config,
            int64_t version = 1);

  int64_t id() const { return id_; }
  const std::string& deployment_handle() const { return deployment_handle_; }
  // The deployment version this replica serves, fixed for its lifetime.
  int64_t version() const { return version_; }
  // Worker node hosting this container (-1 = infinite pool, no node model).
  int node_id() const { return node_id_; }
  void set_node_id(int node_id) { node_id_ = node_id; }
  const ContainerConfig& config() const { return config_; }
  ContainerState state() const { return state_; }
  void set_state(ContainerState state);

  // Cold-start window: [created_at, ready_at). ready_at is 0 until the
  // container finishes cold-starting; the platform uses the window to split
  // a queued request's wait into cold-start vs. queueing time.
  SimTime created_at() const { return created_at_; }
  SimTime ready_at() const { return ready_at_; }

  CpuShare& cpu() { return cpu_; }
  const CpuShare& cpu() const { return cpu_; }

  // Memory accounting. Reserve fails with kResourceExhausted when the limit
  // would be exceeded -- the caller must then OOM-kill the container.
  Status ReserveMemory(double mb);
  void ReleaseMemory(double mb);
  double memory_in_use_mb() const { return memory_in_use_mb_; }
  double peak_memory_mb() const { return peak_memory_mb_; }

  // Request tracking (for routing and for failing in-flight work on kill).
  // The abort handler runs if the container dies mid-request.
  int64_t BeginRequest(std::function<void()> abort_handler);
  void EndRequest(int64_t request_token);
  int active_requests() const { return static_cast<int>(abort_handlers_.size()); }

  // Kills the container: cancels all CPU work and fires all abort handlers.
  // `cause` is what those handlers (and their requests' status) observe.
  void Kill(ContainerKillCause cause = ContainerKillCause::kNone);
  ContainerKillCause kill_cause() const { return kill_cause_; }

  // Wall-clock seconds during which >= 1 request was in flight. This is
  // what cAdvisor-style "busy" means to the profiler: avg CPU = cpu_seconds
  // / request_busy_seconds.
  double request_busy_seconds() const;

  // One-time lazy HTTP stack initialization (DelayHTTP'd libcurl): returns
  // the extra latency the current remote call must pay, 0 after first use.
  SimDuration ConsumeLazyHttpLoad(SimDuration per_lib_cost);

  int64_t oom_kills() const { return oom_kills_; }

 private:
  Simulation* sim_;
  std::string deployment_handle_;
  int64_t version_;
  int64_t id_;
  int node_id_ = -1;
  ContainerConfig config_;
  ContainerState state_ = ContainerState::kColdStarting;
  ContainerKillCause kill_cause_ = ContainerKillCause::kNone;
  SimTime created_at_ = 0;
  SimTime ready_at_ = 0;
  CpuShare cpu_;
  double memory_in_use_mb_;
  double peak_memory_mb_;
  bool http_loaded_ = false;
  void AccumulateBusy();

  std::map<int64_t, std::function<void()>> abort_handlers_;
  int64_t next_request_token_ = 1;
  int64_t oom_kills_ = 0;
  double request_busy_seconds_ = 0.0;
  SimTime last_busy_update_ = 0;
};

}  // namespace quilt

#endif  // SRC_SIM_CONTAINER_H_
