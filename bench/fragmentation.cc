// Resource fragmentation vs merge granularity (§4, "Are container limits
// reasonable?") -- offline prediction vs live placement.
//
// For the compose-post workflow, sweeps merge granularity from "no merging"
// (11 small containers per replica) to "merge everything into one giant
// container with proportionally raised limits". Each granularity is packed
// twice onto 16-vCPU workers:
//   offline -- the PlaceContainers model (first-fit decreasing);
//   live    -- a real Platform sharded into finite WorkerNodes, warm
//              containers spawned through the PlacementEngine in the same
//              descending size order.
// Both paths route every decision through the shared PickNode packing core,
// so live stranding must land within a small tolerance of the offline
// prediction; the bench exits non-zero when it does not.
//
// Flags:
//   --smoke           fewer replicas (CI); same pipeline and checks.
#include <cstring>

#include "bench/bench_util.h"
#include "src/apps/deathstarbench.h"
#include "src/platform/cluster.h"

namespace quilt {
namespace bench {
namespace {

struct Scenario {
  const char* name;
  // Container shapes per workflow replica: (cpu, memory_mb, count).
  std::vector<std::tuple<double, double, int>> shapes;

  std::vector<ContainerRequest> PerReplica(int replicas) const {
    std::vector<ContainerRequest> requests;
    for (const auto& [cpu, mem, count] : shapes) {
      requests.push_back({"c", cpu, mem, count * replicas});
    }
    return requests;
  }
};

struct LiveOutcome {
  int nodes_used = 0;
  double stranded_cpu_fraction = 0.0;
  int64_t placements = 0;
  int64_t deferrals = 0;
};

// Spawns the scenario's container fleet through the live PlacementEngine:
// one deployment per shape, warm containers = the full replica demand,
// deployed in descending shape order so live first-fit walks the same item
// sequence as the offline first-fit-decreasing model.
LiveOutcome RunLive(const Scenario& scenario, const WorkerSpec& worker, int replicas,
                    int max_nodes) {
  PlatformConfig config;
  config.node_cpu = worker.cpu;
  config.node_memory_mb = worker.memory_mb;
  config.max_nodes = max_nodes;
  config.placement_policy = PlacementPolicy::kFirstFit;
  Simulation sim;
  Platform platform(&sim, config);

  std::vector<std::tuple<double, double, int>> shapes = scenario.shapes;
  std::sort(shapes.begin(), shapes.end(), [](const auto& a, const auto& b) {
    if (std::get<0>(a) != std::get<0>(b)) {
      return std::get<0>(a) > std::get<0>(b);
    }
    return std::get<1>(a) > std::get<1>(b);
  });
  int shape_index = 0;
  for (const auto& [cpu, mem, count] : shapes) {
    DeploymentSpec spec;
    spec.handle = StrCat("shape-", shape_index++);
    spec.max_scale = count * replicas;
    spec.warm_containers = count * replicas;
    spec.container.cpu_limit = cpu;
    spec.container.memory_limit_mb = mem;
    spec.container.base_memory_mb = 1.0;
    auto behavior = std::make_shared<FunctionBehavior>();
    behavior->handle = spec.handle;
    behavior->steps = {ComputeStep{0.1}};
    spec.behavior.single = std::move(behavior);
    const Status deployed = platform.Deploy(std::move(spec));
    if (!deployed.ok()) {
      std::printf("deploy failed: %s\n", deployed.ToString().c_str());
      std::exit(1);
    }
  }
  sim.Run();  // Settle the warm spawns.

  LiveOutcome outcome;
  for (const NodeStats& node : platform.placement().Snapshot()) {
    if (node.containers > 0) {
      ++outcome.nodes_used;
    }
  }
  outcome.stranded_cpu_fraction = platform.placement().StrandedCpuFraction();
  outcome.placements = platform.placement().total_placements();
  outcome.deferrals = platform.placement().deferrals();
  return outcome;
}

}  // namespace
}  // namespace bench
}  // namespace quilt

int main(int argc, char** argv) {
  using namespace quilt;
  using namespace quilt::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const WorkerSpec worker{16.0, 32768.0};
  const int replicas = smoke ? 8 : 40;
  const int max_nodes = 1000;
  // Shared packing core => live and offline should agree near-exactly; the
  // tolerance absorbs rounding in the stranded-fraction denominators.
  const double tolerance = 0.05;

  PrintHeader(StrCat(
      "Resource fragmentation vs merge granularity (compose-post, 16-vCPU workers)\n"
      "offline first-fit-decreasing vs live node placement, ",
      replicas, " workflow replicas"));

  // Granularities: the same total demand (~11 x 0.8 vCPU per replica),
  // consolidated into ever-larger containers with raised limits.
  const std::vector<Scenario> scenarios = {
      {"no merge (11 x 0.8 vCPU)", {{0.8, 512, 11}}},
      {"pairs (5 x 1.6 + 1 x 0.8)", {{1.6, 1024, 5}, {0.8, 512, 1}}},
      {"quarters (3 x 3 vCPU)", {{3.0, 2048, 3}}},
      {"halves (2 x 4.5 vCPU)", {{4.5, 3072, 2}}},
      {"merge all (1 x 9 vCPU)", {{9.0, 6144, 1}}},
      {"merge all, padded limits (1 x 12 vCPU)", {{12.0, 8192, 1}}},
  };

  std::printf("%-42s | %8s %8s | %9s %9s | %8s %8s | %9s\n", "granularity", "wrk/off",
              "wrk/live", "strd/off", "strd/live", "unplaced", "cap-exh", "deferrals");
  bool within_tolerance = true;
  for (const Scenario& scenario : scenarios) {
    const PlacementResult offline =
        PlaceContainers(scenario.PerReplica(replicas), worker, max_nodes);
    const LiveOutcome live = RunLive(scenario, worker, replicas, max_nodes);
    const double offline_stranded = offline.StrandedCpuFraction(worker);
    const double drift = std::abs(live.stranded_cpu_fraction - offline_stranded);
    if (drift > tolerance || live.nodes_used != offline.workers_used) {
      within_tolerance = false;
    }
    std::printf("%-42s | %8d %8d | %8.1f%% %8.1f%% | %8d %8d | %9lld\n", scenario.name,
                offline.workers_used, live.nodes_used, 100.0 * offline_stranded,
                100.0 * live.stranded_cpu_fraction, offline.containers_unplaced,
                offline.containers_capacity_exhausted,
                static_cast<long long>(live.deferrals));
  }

  std::printf(
      "\nShape check (§4): small containers pack at ~100%%; as merged containers grow\n"
      "toward worker size, stranded capacity rises -- the fragmentation cost that\n"
      "motivates constraint-aware merging instead of raising the limits. Live\n"
      "placement (shared PickNode core) must reproduce the offline prediction\n"
      "within %.0f%% stranding.\n",
      100.0 * tolerance);
  if (!within_tolerance) {
    std::printf("FAIL: live placement drifted from the offline prediction.\n");
    return 1;
  }
  std::printf("OK: live stranding matches the offline prediction on every scenario.\n");

  return 0;
}
