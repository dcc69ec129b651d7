// Elastic node-pool autoscaler (§4.14): option validation, scale-up under
// spawn-queue pressure with a provisioning delay, cordon/drain/retire
// scale-down back to the floor, the warm-pool floor, the max_nodes ceiling,
// byte-identical event logs across repeats, and the disabled path staying
// event-free.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/common/strings.h"
#include "src/platform/autoscaler.h"
#include "src/platform/platform.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

DeploymentSpec ElasticFunction(const std::string& handle, double compute_ms = 5.0,
                               int max_scale = 8) {
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

// An elastic config: small nodes so a modest burst needs several of them,
// fast control loop so tests stay short.
PlatformConfig ElasticConfig() {
  PlatformConfig config;
  config.node_cpu = 4.0;
  config.node_memory_mb = 512.0;
  config.autoscaler.enabled = true;
  config.autoscaler.min_nodes = 1;
  config.autoscaler.warm_pool = 0;
  config.autoscaler.evaluate_interval = Milliseconds(100);
  config.autoscaler.provisioning_delay = Milliseconds(500);
  config.autoscaler.scale_down_idle_ticks = 3;
  return config;
}

TEST(AutoscalerOptionsTest, ValidateGatesOnlyWhenEnabled) {
  AutoscalerOptions off;
  off.evaluate_interval = -1;  // Garbage, but the struct is unused while disabled.
  EXPECT_TRUE(off.Validate().ok());

  AutoscalerOptions on;
  on.enabled = true;
  EXPECT_TRUE(on.Validate().ok());

  on.evaluate_interval = 0;
  EXPECT_FALSE(on.Validate().ok());
  on.evaluate_interval = Milliseconds(250);
  on.min_nodes = 4;
  on.max_nodes = 2;  // Ceiling below the floor.
  EXPECT_FALSE(on.Validate().ok());
  on.max_nodes = 0;
  on.scale_down_idle_ticks = 0;
  EXPECT_FALSE(on.Validate().ok());
}

TEST(AutoscalerOptionsTest, ConfigValidateRejectsAutoscalerPlusStaticFleet) {
  PlatformConfig config = ElasticConfig();
  EXPECT_TRUE(config.Validate().ok());
  // The elastic fleet reads the platform's node geometry, so the platform
  // validates it whenever the autoscaler is on.
  config.node_cpu = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config.max_nodes = 4;  // Static fleet and elastic fleet are exclusive.
  config.node_cpu = 16.0;
  config.node_memory_mb = 32768.0;
  EXPECT_FALSE(config.Validate().ok());

  // An invalid config poisons the control plane, not just the constructor:
  // Deploy and Invoke both surface the validation error.
  Simulation sim;
  Platform platform(&sim, config);
  EXPECT_FALSE(platform.config_status().ok());
  EXPECT_FALSE(platform.Deploy(ElasticFunction("fn")).ok());
  Status invoke_status = Status::Ok();
  platform.Invoke({.caller = kClientCaller,
                   .callee = "fn",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) { invoke_status = r.status(); }});
  sim.Run();
  EXPECT_FALSE(invoke_status.ok());
}

TEST(NodeAutoscalerTest, BootsFloorAndScalesUpUnderPressure) {
  Simulation sim;
  Platform platform(&sim, ElasticConfig());
  ASSERT_NE(platform.autoscaler(), nullptr);
  ASSERT_TRUE(platform.Deploy(ElasticFunction("worker")).ok());

  // The floor is ready before any traffic: one node, no provisioning delay.
  EXPECT_EQ(platform.placement().ReadyNodes(), 1);

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 400.0;
  options.poisson = true;
  options.seed = 5;
  options.duration = Seconds(3);
  const LoadResult load = generator.Run(&sim, &platform, "worker", options);

  // The single floor node (4 vCPU / 2-vCPU containers) cannot host the burst:
  // spawns queue, the autoscaler provisions, and the queue eventually drains.
  const NodeAutoscaler& autoscaler = *platform.autoscaler();
  EXPECT_GT(autoscaler.provisioned_total(), 1);
  int peak_ready = 0;
  for (const AutoscaleEvent& event : autoscaler.events()) {
    peak_ready = std::max(peak_ready, event.ready_nodes);
  }
  EXPECT_GT(peak_ready, 1);
  EXPECT_GT(load.completed, 0);
  EXPECT_EQ(load.failed, 0);
  EXPECT_EQ(platform.SpawnQueueDepth(), 0);

  // Provisioned capacity paid the configured cold-node delay: every "ready"
  // event for a pressure-provisioned node trails its "provision" by exactly
  // the provisioning delay.
  int delayed_ready = 0;
  for (const AutoscaleEvent& event : autoscaler.events()) {
    if (event.action != "provision" || event.timestamp == 0) {
      continue;
    }
    for (const AutoscaleEvent& ready : autoscaler.events()) {
      if (ready.action == "ready" && ready.node_id == event.node_id) {
        EXPECT_EQ(ready.timestamp - event.timestamp, Milliseconds(500));
        ++delayed_ready;
      }
    }
  }
  EXPECT_GT(delayed_ready, 0);
}

TEST(NodeAutoscalerTest, DrainsCordonsAndRetiresBackToFloor) {
  Simulation sim;
  Platform platform(&sim, ElasticConfig());
  ASSERT_TRUE(platform.Deploy(ElasticFunction("worker")).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 400.0;
  options.poisson = true;
  options.seed = 5;
  options.duration = Seconds(3);
  generator.Run(&sim, &platform, "worker", options);
  const NodeAutoscaler& autoscaler = *platform.autoscaler();
  ASSERT_GT(autoscaler.provisioned_total(), 1);

  // Load stops; surplus nodes are cordoned one per idle window, drained of
  // their idle-warm containers, and retired. The fleet settles at the floor.
  sim.RunUntil(sim.now() + Seconds(30));
  EXPECT_EQ(platform.placement().ReadyNodes(), 1);
  EXPECT_EQ(platform.placement().CordonedNodes(), 0);
  EXPECT_EQ(autoscaler.retired_total(), autoscaler.provisioned_total() - 1);

  bool saw_cordon = false;
  bool saw_retire = false;
  for (const AutoscaleEvent& event : autoscaler.events()) {
    saw_cordon |= event.action == "cordon";
    saw_retire |= event.action == "retire";
  }
  EXPECT_TRUE(saw_cordon);
  EXPECT_TRUE(saw_retire);

  // Retired nodes leave the snapshot (they stop billing); the floor node and
  // only the floor node remains.
  int alive = 0;
  for (const NodeStats& node : platform.placement().Snapshot()) {
    EXPECT_FALSE(node.retired);
    ++alive;
  }
  EXPECT_EQ(alive, 1);

  // The fleet still serves after the drain: warm or cold, a request lands.
  bool ok = false;
  platform.Invoke({.caller = kClientCaller,
                   .callee = "worker",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) { ok = r.ok(); }});
  // The autoscaler keeps ticking forever, so run bounded, not to quiescence.
  sim.RunUntil(sim.now() + Seconds(5));
  EXPECT_TRUE(ok);
}

TEST(NodeAutoscalerTest, WarmPoolHoldsIdleNodesAboveFloor) {
  PlatformConfig config = ElasticConfig();
  config.autoscaler.warm_pool = 2;
  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(ElasticFunction("worker")).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 400.0;
  options.poisson = true;
  options.seed = 5;
  options.duration = Seconds(2);
  generator.Run(&sim, &platform, "worker", options);
  sim.RunUntil(sim.now() + Seconds(30));

  // Idle fleet: busy=0, so the target is max(min_nodes, 0 + warm_pool) = 2.
  EXPECT_EQ(platform.placement().ReadyNodes(), 2);
}

TEST(NodeAutoscalerTest, MaxNodesCapsTheFleet) {
  PlatformConfig config = ElasticConfig();
  config.autoscaler.max_nodes = 2;
  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(ElasticFunction("worker", 5.0, 32)).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 800.0;
  options.poisson = true;
  options.seed = 9;
  options.duration = Seconds(3);
  generator.Run(&sim, &platform, "worker", options);

  // However hard the burst pushes, the fleet never exceeds the ceiling.
  EXPECT_LE(platform.placement().AliveNodes(), 2);
  EXPECT_EQ(platform.autoscaler()->provisioned_total(), 2);
}

TEST(NodeAutoscalerTest, EventLogByteIdenticalAcrossRepeats) {
  auto run = [] {
    Simulation sim;
    Platform platform(&sim, ElasticConfig());
    EXPECT_TRUE(platform.Deploy(ElasticFunction("worker")).ok());

    OpenLoopGenerator generator;
    OpenLoopGenerator::Options options;
    options.rps = 400.0;
    options.poisson = true;
    options.seed = 13;
    options.duration = Seconds(3);
    const LoadResult load = generator.Run(&sim, &platform, "worker", options);
    sim.RunUntil(sim.now() + Seconds(20));

    std::string out = StrCat("completed=", load.completed, " failed=", load.failed,
                             " provisioned=", platform.autoscaler()->provisioned_total(),
                             " retired=", platform.autoscaler()->retired_total(), "\n");
    for (const AutoscaleEvent& event : platform.autoscaler()->events()) {
      out += AutoscaleEventLine(event);
      out += '\n';
    }
    for (const NodeStats& stats : platform.placement().Snapshot()) {
      out += NodeStatsLine(stats);
      out += '\n';
    }
    return out;
  };
  const std::string reference = run();
  EXPECT_GT(reference.size(), 100u);
  EXPECT_EQ(run(), reference);
}

TEST(NodeAutoscalerTest, DisabledAutoscalerStaysInert) {
  // Default config: no autoscaler object, no elastic engine, no events.
  Simulation sim;
  Platform platform(&sim, PlatformConfig{});
  EXPECT_EQ(platform.autoscaler(), nullptr);
  EXPECT_FALSE(platform.placement().enabled());
  sim.Run();
  EXPECT_EQ(sim.events_processed(), 0);

  // The constructor is the only place the autoscaler is armed.
  Simulation sim2;
  Platform elastic(&sim2, ElasticConfig());
  ASSERT_NE(elastic.autoscaler(), nullptr);
  EXPECT_TRUE(elastic.placement().enabled());
  EXPECT_EQ(elastic.placement().node_cpu(), 4.0);
}

}  // namespace
}  // namespace quilt
