// Workload generation, mirroring the paper's use of wrk2 (§7.2): a
// closed-loop generator (fixed connection count, next request after the
// response) and an open-loop constant-throughput generator whose latency is
// measured from the *intended* send time (coordinated-omission-free).
#ifndef SRC_WORKLOAD_LOADGEN_H_
#define SRC_WORKLOAD_LOADGEN_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/runtime/executor.h"
#include "src/sim/simulation.h"

namespace quilt {

struct LoadResult {
  LatencyHistogram latency;
  int64_t completed = 0;
  int64_t failed = 0;
  // Failure taxonomy as the *client* sees it: failed responses bucketed by
  // status-code name ("UNAVAILABLE", "DEADLINE_EXCEEDED", ...). timeouts is
  // the DEADLINE_EXCEEDED subset, broken out because it is the headline
  // metric of the failure-handling layer.
  int64_t timeouts = 0;
  std::map<std::string, int64_t> failures_by_cause;
  SimDuration measured_duration = 0;
  double offered_rps = 0.0;

  double AchievedRps() const {
    const double seconds = ToSeconds(measured_duration);
    return seconds > 0.0 ? static_cast<double>(completed) / seconds : 0.0;
  }
  double FailureRate() const {
    const int64_t total = completed + failed;
    return total > 0 ? static_cast<double>(failed) / static_cast<double>(total) : 0.0;
  }
};

class ClosedLoopGenerator {
 public:
  struct Options {
    int connections = 1;
    SimDuration warmup = Seconds(5);
    SimDuration duration = Seconds(60);
    SimDuration think_time = 0;
    Json payload = Json::MakeObject();
    SimDuration drain_grace = Seconds(10);
  };

  // Drives the simulation until the run (plus drain grace) completes.
  LoadResult Run(Simulation* sim, Invoker* invoker, const std::string& target,
                 const Options& options);
};

// One segment of a phased open-loop run: its own arrival rate and payload
// shape for a bounded duration. Phases run back to back in one simulation
// run, so a workload shift (rate spike, payload drift) happens mid-run with
// all platform state (warm containers, deployed merges) carried across the
// boundary -- what an adaptation control loop has to react to.
struct LoadPhase {
  std::string name;
  double rps = 100.0;
  SimDuration duration = Seconds(30);
  Json payload = Json::MakeObject();
  // Optional per-request payload customization (overrides `payload`).
  std::function<Json(Rng&)> payload_fn;
};

// Result row for one phase. Responses are attributed to the phase whose
// window covers their *send* time, and only count if they also complete
// within that window (the same symmetric-drain rule as a plain run).
struct PhaseResult {
  std::string name;
  SimTime start = 0;  // Phase window in sim time.
  SimTime end = 0;
  LoadResult result;
};

class OpenLoopGenerator {
 public:
  struct Options {
    double rps = 100.0;
    SimDuration warmup = Seconds(5);
    SimDuration duration = Seconds(60);
    bool poisson = false;  // Exponential inter-arrivals instead of uniform.
    uint64_t seed = 1;
    Json payload = Json::MakeObject();
    SimDuration drain_grace = Seconds(10);
    // Optional per-request payload customization.
    std::function<Json(Rng&)> payload_fn;
  };

  // A one-phase RunPhased: `rps` from the start, measured after warmup.
  // rps <= 0 sends nothing and returns at warmup + duration + drain_grace.
  LoadResult Run(Simulation* sim, Invoker* invoker, const std::string& target,
                 const Options& options);

  struct PhasedOptions {
    SimDuration warmup = Seconds(5);  // Before the first phase; unmeasured,
                                      // sent at the first phase's rate/payload.
    bool poisson = false;
    uint64_t seed = 1;
    SimDuration drain_grace = Seconds(10);
    std::vector<LoadPhase> phases;
  };

  // Runs every phase back to back in one simulation run and returns one
  // LoadResult row per phase.
  std::vector<PhaseResult> RunPhased(Simulation* sim, Invoker* invoker,
                                     const std::string& target, const PhasedOptions& options);
};

}  // namespace quilt

#endif  // SRC_WORKLOAD_LOADGEN_H_
