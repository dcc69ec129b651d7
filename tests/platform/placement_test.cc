// Node-aware placement: PlacementEngine behavior, policy determinism, node
// failures, spawn queueing, and the regression oracle pinning the
// infinite-pool (max_nodes unset) platform to the exact pre-node-model
// behavior.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/apps/deathstarbench.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/core/quilt_controller.h"
#include "src/platform/platform.h"
#include "src/tracing/span.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

// --- PlacementEngine unit behavior.

TEST(PlacementEngineTest, PoliciesPickDistinctNodes) {
  // Two 2-vCPU containers onto two 4-vCPU nodes: first-fit stacks them on
  // node 0, least-loaded spreads one per node.
  PlacementEngine first_fit;
  first_fit.Configure(4.0, 256.0, 2, PlacementPolicy::kFirstFit);
  EXPECT_EQ(first_fit.Place(2.0, 128.0), 0);
  EXPECT_EQ(first_fit.Place(2.0, 128.0), 0);

  PlacementEngine least_loaded;
  least_loaded.Configure(4.0, 256.0, 2, PlacementPolicy::kLeastLoaded);
  EXPECT_EQ(least_loaded.Place(2.0, 128.0), 0);
  EXPECT_EQ(least_loaded.Place(2.0, 128.0), 1);

  // Best-fit prefers the node left tightest: node 0 (2 free) over the empty
  // node 1 (4 free), then falls over to node 1 once node 0 is full.
  PlacementEngine best_fit;
  best_fit.Configure(4.0, 256.0, 2, PlacementPolicy::kBestFit);
  EXPECT_EQ(best_fit.Place(2.0, 128.0), 0);
  EXPECT_EQ(best_fit.Place(2.0, 128.0), 0);
  EXPECT_EQ(best_fit.Place(2.0, 128.0), 1);
}

TEST(PlacementEngineTest, SaturationDefersAndOversizedIsUnplaceable) {
  PlacementEngine engine;
  engine.Configure(4.0, 256.0, 1, PlacementPolicy::kFirstFit);
  EXPECT_EQ(engine.Place(2.0, 128.0), 0);
  EXPECT_EQ(engine.Place(2.0, 128.0), 0);
  // Saturated: deferred, not unplaceable.
  EXPECT_EQ(engine.Place(2.0, 128.0), -1);
  // Bigger than an empty node: can never place, counted separately.
  EXPECT_EQ(engine.Place(8.0, 64.0), -1);
  EXPECT_EQ(engine.total_placements(), 2);
  EXPECT_EQ(engine.deferrals(), 1);
  EXPECT_EQ(engine.unplaceable(), 1);

  // Capacity frees -> the same demand places again.
  engine.Release(0, 2.0, 128.0);
  EXPECT_EQ(engine.Place(2.0, 128.0), 0);
  EXPECT_EQ(engine.total_placements(), 3);
}

TEST(PlacementEngineTest, FailedNodeStrandsCapacityForever) {
  PlacementEngine engine;
  engine.Configure(4.0, 256.0, 2, PlacementPolicy::kFirstFit);
  EXPECT_EQ(engine.Place(2.0, 128.0), 0);
  EXPECT_EQ(engine.Place(2.0, 128.0), 0);
  EXPECT_TRUE(engine.MarkFailed(0));
  EXPECT_FALSE(engine.MarkFailed(0));  // Already failed.
  EXPECT_FALSE(engine.MarkFailed(7));  // Unknown node.
  engine.RecordKill(0);
  engine.RecordKill(0);

  // Releasing a dead container on a failed node is a no-op: the machine is
  // gone, its capacity stays debited.
  engine.Release(0, 2.0, 128.0);
  const std::vector<NodeStats> snapshot = engine.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);  // Node 1 never hosted anything.
  EXPECT_EQ(snapshot[0].node_id, 0);
  EXPECT_TRUE(snapshot[0].failed);
  EXPECT_DOUBLE_EQ(snapshot[0].cpu_used, 4.0);
  EXPECT_EQ(snapshot[0].kills, 2);

  // New demand routes around the corpse.
  EXPECT_EQ(engine.Place(2.0, 128.0), 1);
}

// Randomized place/release sequence through every policy: identical inputs
// must yield byte-identical NodeStats (the engine draws no randomness and
// breaks all ties by node id).
TEST(PlacementEngineTest, RandomizedWorkloadIsByteIdenticalAcrossRepeats) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit, PlacementPolicy::kLeastLoaded}) {
    auto run = [policy]() {
      PlacementEngine engine;
      engine.Configure(16.0, 32768.0, 8, policy);
      Rng rng(0x51u + static_cast<uint64_t>(policy));
      std::vector<std::pair<int, std::pair<double, double>>> placed;
      for (int op = 0; op < 400; ++op) {
        if (placed.empty() || rng.Bernoulli(0.7)) {
          const double cpu = rng.UniformDouble(0.5, 6.0);
          const double mem = rng.UniformDouble(64.0, 4096.0);
          const int node = engine.Place(cpu, mem);
          if (node >= 0) {
            placed.push_back({node, {cpu, mem}});
          }
        } else {
          const size_t victim =
              static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(placed.size()) - 1));
          engine.Release(placed[victim].first, placed[victim].second.first,
                         placed[victim].second.second);
          placed.erase(placed.begin() + static_cast<ptrdiff_t>(victim));
        }
      }
      std::string out = StrCat("policy=", PlacementPolicyName(policy),
                               " placements=", engine.total_placements(),
                               " deferrals=", engine.deferrals(),
                               " unplaceable=", engine.unplaceable(), "\n");
      for (const NodeStats& stats : engine.Snapshot()) {
        out += NodeStatsLine(stats);
        out += '\n';
      }
      return out;
    };
    const std::string reference = run();
    EXPECT_FALSE(reference.empty());
    EXPECT_GT(reference.size(), 100u);  // The workload actually placed things.
    EXPECT_EQ(run(), reference) << PlacementPolicyName(policy);
  }
}

// --- Live platform on a finite fleet.

DeploymentSpec NodeFunction(const std::string& handle, double compute_ms = 1.0,
                            int max_scale = 4) {
  DeploymentSpec spec;
  spec.handle = handle;
  spec.max_scale = max_scale;
  spec.container.cpu_limit = 2.0;
  spec.container.memory_limit_mb = 128.0;
  spec.container.base_memory_mb = 5.0;
  spec.container.image_size_bytes = 2 * 1024 * 1024;
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = handle;
  behavior->steps = {ComputeStep{compute_ms}};
  spec.behavior.single = std::move(behavior);
  return spec;
}

TEST(NodePlatformTest, QueuedSpawnMaterializesWhenCapacityFrees) {
  // One node with room for exactly one 2-vCPU/128MB container.
  PlatformConfig config;
  config.max_nodes = 1;
  config.node_cpu = 2.0;
  config.node_memory_mb = 128.0;
  Simulation sim;
  Platform platform(&sim, config);

  DeploymentSpec hog = NodeFunction("hog");
  hog.warm_containers = 1;
  ASSERT_TRUE(platform.Deploy(std::move(hog)).ok());
  ASSERT_TRUE(platform.Deploy(NodeFunction("late")).ok());
  sim.Run();
  EXPECT_EQ(platform.TotalContainers(), 1);

  bool responded = false;
  Result<Json> response = InternalError("pending");
  platform.Invoke({.caller = kClientCaller,
                   .callee = "late",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) {
    responded = true;
    response = std::move(r);
  }});
  sim.RunUntil(sim.now() + Seconds(1));

  // The cluster is saturated: the spawn parked, the request waits.
  EXPECT_FALSE(responded);
  EXPECT_EQ(platform.SpawnQueueDepth(), 1);
  EXPECT_EQ(platform.placement().deferrals(), 1);
  EXPECT_EQ(platform.StatsFor("late")->containers_created, 0);

  // Retiring the hog frees the node; the parked spawn materializes and the
  // queued request completes on the fresh (cold-started) container.
  ASSERT_TRUE(platform.RemoveFunction("hog").ok());
  sim.Run();
  ASSERT_TRUE(responded);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(platform.SpawnQueueDepth(), 0);
  const DeploymentStats* late = platform.StatsFor("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->containers_created, 1);
  EXPECT_EQ(late->cold_starts, 1);
  EXPECT_EQ(late->completed, 1);
}

TEST(NodePlatformTest, NodeFailureKillsOnlyThatNodesContainers) {
  // Two nodes, two 2-vCPU containers each: "a" fills node 0 (first-fit),
  // "b" fills node 1. Node 0 dies at t=1s.
  PlatformConfig config;
  config.max_nodes = 2;
  config.node_cpu = 4.0;
  config.node_memory_mb = 256.0;
  config.profiling_enabled = true;
  config.fault_plan.node_failures = {{0, Seconds(1)}};
  Simulation sim;
  Platform platform(&sim, config);
  SpanStore store;
  platform.ConnectSpanStore(&store);

  DeploymentSpec a = NodeFunction("a");
  a.warm_containers = 2;
  DeploymentSpec b = NodeFunction("b");
  b.warm_containers = 2;
  ASSERT_TRUE(platform.Deploy(std::move(a)).ok());
  ASSERT_TRUE(platform.Deploy(std::move(b)).ok());
  sim.RunUntil(Seconds(2));

  // Blast radius is exactly node 0: every container of "a" dies with the
  // node-failure kill reason, "b" is untouched.
  EXPECT_EQ(platform.fault_stats().node_failures, 1);
  EXPECT_EQ(platform.StatsFor("a")->node_failure_kills, 2);
  EXPECT_EQ(platform.StatsFor("b")->node_failure_kills, 0);
  EXPECT_EQ(platform.TotalContainers(), 2);

  bool found_failed = false;
  bool found_survivor = false;
  for (const NodeStats& node : platform.placement().Snapshot()) {
    if (node.node_id == 0) {
      found_failed = true;
      EXPECT_TRUE(node.failed);
      EXPECT_EQ(node.containers, 0);
      EXPECT_EQ(node.kills, 2);
      // The machine is gone: its capacity stays stranded, not reusable.
      EXPECT_DOUBLE_EQ(node.cpu_used, 4.0);
    } else if (node.node_id == 1) {
      found_survivor = true;
      EXPECT_FALSE(node.failed);
      EXPECT_EQ(node.containers, 2);
      EXPECT_EQ(node.kills, 0);
    }
  }
  EXPECT_TRUE(found_failed);
  EXPECT_TRUE(found_survivor);

  // The survivor keeps serving warm, and its span carries the node id.
  bool ok = false;
  platform.Invoke({.caller = kClientCaller,
                   .callee = "b",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) { ok = r.ok(); }});
  sim.Run();
  EXPECT_TRUE(ok);
  ASSERT_FALSE(store.spans().empty());
  EXPECT_EQ(store.spans().back().callee, "b");
  EXPECT_EQ(store.spans().back().node_id, 1);
}

// A saturated finite fleet under open-loop load: repeated runs of every
// policy must agree byte-for-byte on node state, spawn accounting and
// workload outcome.
TEST(NodePlatformTest, LiveRunIsByteIdenticalAcrossRepeats) {
  for (const PlacementPolicy policy :
       {PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit, PlacementPolicy::kLeastLoaded}) {
    auto run = [policy]() {
      PlatformConfig config;
      config.max_nodes = 2;
      config.node_cpu = 4.0;
      config.node_memory_mb = 512.0;
      config.placement_policy = policy;
      Simulation sim;
      Platform platform(&sim, config);
      EXPECT_TRUE(platform.Deploy(NodeFunction("worker", 6.0, 8)).ok());

      OpenLoopGenerator generator;
      OpenLoopGenerator::Options options;
      options.rps = 300.0;
      options.poisson = true;
      options.seed = 7;
      options.duration = Seconds(2);
      const LoadResult load = generator.Run(&sim, &platform, "worker", options);

      std::string out = StrCat(
          "policy=", PlacementPolicyName(policy), " completed=", load.completed,
          " failed=", load.failed, " placements=", platform.placement().total_placements(),
          " deferrals=", platform.placement().deferrals(),
          " queue=", platform.SpawnQueueDepth(), " end=", sim.now(), "\n");
      for (const NodeStats& stats : platform.placement().Snapshot()) {
        out += NodeStatsLine(stats);
        out += '\n';
      }
      return out;
    };
    const std::string reference = run();
    EXPECT_FALSE(reference.empty());
    EXPECT_EQ(run(), reference) << PlacementPolicyName(policy);
  }
}

// Node samples flowing through the controller's metrics pipeline must not
// depend on how many threads the decision engine uses. GRASP is forced: the
// exact solver the fan-out graph would get runs on one thread whatever the
// width. `decision` receives the last record.
TEST(NodePlatformTest, NodeSamplesDeterministicAcrossDecisionThreads) {
  auto run = [](int threads, DecisionRecord* decision = nullptr) {
    ControllerOptions options;
    options.container_memory_limit_mb = 256.0;
    options.decision.solver = SolverChoice::kGrasp;
    options.decision.grasp_threads = threads;
    PlatformConfig config;
    config.max_nodes = 6;
    config.node_cpu = 8.0;
    config.node_memory_mb = 2048.0;
    config.placement_policy = PlacementPolicy::kBestFit;
    Simulation sim;
    Platform platform(&sim, config);
    QuiltController controller(&sim, &platform, options);
    EXPECT_TRUE(controller.RegisterWorkflow(FanOutApp(4)).ok());

    controller.StartProfiling();
    OpenLoopGenerator generator;
    OpenLoopGenerator::Options load;
    load.rps = 20.0;
    load.warmup = 0;
    load.duration = Seconds(10);
    Json payload = Json::MakeObject();
    payload["num"] = 2;
    load.payload = std::move(payload);
    generator.Run(&sim, &platform, "fan-out-root", load);
    controller.StopProfiling();
    EXPECT_TRUE(controller.OptimizeWorkflow("fan-out-root").ok());
    if (decision != nullptr && !controller.metrics().decisions().empty()) {
      *decision = controller.metrics().decisions().back();
    }

    std::string out;
    for (const NodeSample& sample : controller.metrics_store()->node_samples()) {
      out += NodeSampleLine(sample);
      out += '\n';
    }
    return out;
  };
  const std::string reference = run(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run(2), reference);
  DecisionRecord decision;
  EXPECT_EQ(run(8, &decision), reference);
  // The widest run really ran GRASP's starts on several threads.
  EXPECT_EQ(decision.solver, "grasp");
  EXPECT_GT(decision.threads, 1);
}

// --- Regression oracle: with max_nodes unset the platform must reproduce
// the pre-node-model invocation path event-for-event. The goldens below were
// captured from the tree immediately before the placement engine landed; the
// workload deliberately avoids the (intentionally changed) breaker half-open
// and memory-admission edge cases, so any drift here means the node model
// leaked into the default path.
struct OracleOutcome {
  LoadResult load;
  DeploymentStats root;
  DeploymentStats leaf;
  SimTime end_time = 0;
  int total_containers = 0;
  double memory_mb = 0.0;
};

OracleOutcome RunOracleWorkload() {
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});

  DeploymentSpec root;
  root.handle = "oracle-root";
  root.max_scale = 3;
  root.container.base_memory_mb = 5.0;
  root.container.image_size_bytes = 2 * 1024 * 1024;
  auto root_behavior = std::make_shared<FunctionBehavior>();
  root_behavior->handle = "oracle-root";
  root_behavior->steps = {ComputeStep{1.0}, CallStep{{CallItem{"oracle-leaf"}}, false},
                          ComputeStep{0.5}};
  root.behavior.single = std::move(root_behavior);
  EXPECT_TRUE(platform.Deploy(std::move(root)).ok());

  DeploymentSpec leaf;
  leaf.handle = "oracle-leaf";
  leaf.max_scale = 2;
  leaf.container.base_memory_mb = 5.0;
  leaf.container.image_size_bytes = 1024 * 1024;
  auto leaf_behavior = std::make_shared<FunctionBehavior>();
  leaf_behavior->handle = "oracle-leaf";
  leaf_behavior->steps = {ComputeStep{4.0}, SleepStep{2.0}};
  leaf.behavior.single = std::move(leaf_behavior);
  EXPECT_TRUE(platform.Deploy(std::move(leaf)).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 400.0;
  options.poisson = true;
  options.seed = 11;
  options.warmup = Seconds(1);
  options.duration = Seconds(4);

  OracleOutcome outcome;
  outcome.load = generator.Run(&sim, &platform, "oracle-root", options);
  outcome.root = *platform.StatsFor("oracle-root");
  outcome.leaf = *platform.StatsFor("oracle-leaf");
  outcome.end_time = sim.now();
  outcome.total_containers = platform.TotalContainers();
  outcome.memory_mb = platform.TotalMemoryInUseMb();
  return outcome;
}

TEST(PlacementOracleTest, InfinitePoolReproducesPreNodeModelRun) {
  const OracleOutcome o = RunOracleWorkload();
  EXPECT_EQ(o.load.completed, 1590);
  EXPECT_EQ(o.load.failed, 0);
  EXPECT_EQ(o.load.latency.count(), 1590);
  EXPECT_EQ(o.load.latency.min(), 18160002);
  EXPECT_EQ(o.load.latency.max(), 26536316);
  EXPECT_EQ(o.load.latency.Median(), 18160002);
  EXPECT_EQ(o.load.latency.P99(), 22478848);
  EXPECT_DOUBLE_EQ(o.load.latency.Mean(), 18429079.80125786);

  EXPECT_EQ(o.root.completed, 1974);
  EXPECT_EQ(o.root.failed, 0);
  EXPECT_EQ(o.root.containers_created, 3);
  EXPECT_EQ(o.root.cold_starts, 3);
  EXPECT_EQ(o.root.pending_peak, 37);
  EXPECT_EQ(o.root.stale_route_hits, 1);

  EXPECT_EQ(o.leaf.completed, 1974);
  EXPECT_EQ(o.leaf.failed, 0);
  EXPECT_EQ(o.leaf.containers_created, 2);
  EXPECT_EQ(o.leaf.cold_starts, 2);
  EXPECT_EQ(o.leaf.pending_peak, 56);
  EXPECT_EQ(o.leaf.stale_route_hits, 1);

  EXPECT_EQ(o.end_time, 15000000000);
  EXPECT_EQ(o.total_containers, 5);
  EXPECT_DOUBLE_EQ(o.memory_mb, 25.0);

  // And with no node fleet configured, the placement machinery never arms.
  // (The engine stays disabled; no spawn ever queues.)
  // Note: deferrals/unplaceable are engine counters, zero by construction.
}

}  // namespace
}  // namespace quilt
