#include <gtest/gtest.h>

#include "src/platform/platform.h"
#include "src/tracing/span.h"
#include "src/tracing/span_store.h"

namespace quilt {
namespace {

// Versions are told apart by their warm end-to-end time: with the platform's
// ~5.3ms fixed overhead (network + gateway + response path), a `compute_ms`
// = 1 version answers in ~6.3ms and a 5ms version in ~10.3ms, so an 8ms
// cutoff separates them cleanly (cold starts land far above both).
DeploymentSpec FixedFunction(const std::string& handle, double compute_ms) {
  DeploymentSpec spec;
  spec.handle = handle;
  spec.max_scale = 4;
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

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  SpanStore store;

  Harness() { platform.ConnectSpanStore(&store); }

  // Sends `n` sequential requests; returns how many took >= `slow_cutoff`
  // end to end (i.e. were served by the slow version). The response time is
  // captured in the callback: sim.Run() drains unrelated bookkeeping events
  // (route-cache expiry etc.) past the reply, so now()-after-Run overshoots.
  int64_t CountSlow(const std::string& handle, int n,
                    SimDuration slow_cutoff = Milliseconds(8)) {
    int64_t slow = 0;
    for (int i = 0; i < n; ++i) {
      const SimTime sent = sim.now();
      SimTime finished = sent;
      bool done = false;
      platform.Invoke({.caller = kClientCaller,
                       .callee = handle,
                       .parent = {},
                       .payload = Json::MakeObject(),
                       .async = false,
                       .done = [&](Result<Json> r) {
                        EXPECT_TRUE(r.ok()) << r.status().ToString();
                        finished = sim.now();
                        done = true;
                      }});
      sim.Run();
      EXPECT_TRUE(done);
      slow += finished - sent >= slow_cutoff ? 1 : 0;
    }
    return slow;
  }

  void Warm(const std::string& handle) { (void)CountSlow(handle, 2); }
};

TEST(CanaryRoutingTest, StageValidation) {
  Harness h;
  EXPECT_EQ(h.platform.StageCanary(FixedFunction("ghost", 1.0), 0.5).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  // Fraction outside (0, 1].
  EXPECT_EQ(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.0).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(h.platform.StageCanary(FixedFunction("fn", 5.0), 1.5).code(),
            StatusCode::kInvalidArgument);
  // First stage ok; a second while one is in flight is rejected.
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.25).ok());
  EXPECT_TRUE(h.platform.HasCanary("fn"));
  EXPECT_EQ(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.25).code(),
            StatusCode::kAlreadyExists);
}

TEST(CanaryRoutingTest, WeightedSplitMatchesFractionExactly) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  h.Warm("fn");
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.25).ok());

  // Weighted round-robin, no RNG: exactly 25% of 40 requests hit the canary,
  // and the per-version counters agree with the observed service times.
  const int64_t slow = h.CountSlow("fn", 40);
  EXPECT_EQ(slow, 10);
  const DeploymentStats* canary = h.platform.CanaryStats("fn");
  const DeploymentStats* control = h.platform.CanaryControlStats("fn");
  ASSERT_NE(canary, nullptr);
  ASSERT_NE(control, nullptr);
  EXPECT_EQ(canary->completed, 10);
  EXPECT_EQ(control->completed, 30);
}

TEST(CanaryRoutingTest, PromoteMakesCanaryTheOnlyVersion) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  h.Warm("fn");
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.5).ok());
  ASSERT_TRUE(h.platform.PromoteCanary("fn").ok());
  EXPECT_FALSE(h.platform.HasCanary("fn"));
  EXPECT_EQ(h.platform.CanaryStats("fn"), nullptr);
  EXPECT_EQ(h.CountSlow("fn", 8), 8);  // Every request on the promoted 5ms version.
}

TEST(CanaryRoutingTest, AbortRestoresControlOnly) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  h.Warm("fn");
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.5).ok());
  ASSERT_TRUE(h.platform.AbortCanary("fn").ok());
  EXPECT_FALSE(h.platform.HasCanary("fn"));
  EXPECT_EQ(h.CountSlow("fn", 8), 0);  // Back on the 1ms control version.
  // Promote/abort without a staged canary are typed failures.
  EXPECT_EQ(h.platform.PromoteCanary("fn").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(h.platform.AbortCanary("fn").code(), StatusCode::kFailedPrecondition);
}

TEST(CanaryRoutingTest, UpdateFunctionSupersedesStagedCanary) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  h.Warm("fn");
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.5).ok());
  ASSERT_TRUE(h.platform.UpdateFunction(FixedFunction("fn", 1.0)).ok());
  EXPECT_FALSE(h.platform.HasCanary("fn"));
  h.Warm("fn");  // The updated version's first container cold-starts.
  EXPECT_EQ(h.CountSlow("fn", 6), 0);
}

// Spawns and kills are charged to the arm of the replica's version. The two
// scheduled crashes take the oldest live replica each time: the control's
// warm one (created before staging, so on no arm), then the canary's warm
// one. One request per arm then spawns a fresh replica on node 0, and the
// node failure kills both.
TEST(CanaryRoutingTest, KillsAndSpawnsChargeTheReplicasArm) {
  PlatformConfig config;
  config.max_nodes = 2;
  config.fault_plan.crashes = {CrashEvent{"fn", Milliseconds(10)},
                               CrashEvent{"fn", Milliseconds(20)}};
  config.fault_plan.node_failures = {NodeFailureEvent{0, Seconds(1)}};
  Simulation sim;
  Platform platform(&sim, config);
  DeploymentSpec control = FixedFunction("fn", 1.0);
  control.warm_containers = 1;
  ASSERT_TRUE(platform.Deploy(control).ok());
  DeploymentSpec canary = FixedFunction("fn", 5.0);
  canary.warm_containers = 1;
  ASSERT_TRUE(platform.StageCanary(canary, 0.5).ok());

  // At fraction 0.5 the round-robin sends the first request to the control
  // and the second to the canary.
  int64_t ok = 0;
  sim.Schedule(Milliseconds(100), [&] {
    for (int i = 0; i < 2; ++i) {
      platform.Invoke({.caller = kClientCaller,
                       .callee = "fn",
                       .parent = {},
                       .payload = Json::MakeObject(),
                       .async = false,
                       .done = [&ok](Result<Json> r) { ok += r.ok() ? 1 : 0; }});
    }
  });
  sim.Run();
  EXPECT_EQ(ok, 2);

  const DeploymentStats* canary_arm = platform.CanaryStats("fn");
  const DeploymentStats* control_arm = platform.CanaryControlStats("fn");
  ASSERT_NE(canary_arm, nullptr);
  ASSERT_NE(control_arm, nullptr);
  EXPECT_EQ(canary_arm->containers_created, 2);
  EXPECT_EQ(canary_arm->cold_starts, 2);
  EXPECT_EQ(canary_arm->crashes, 1);
  EXPECT_EQ(canary_arm->node_failure_kills, 1);
  EXPECT_EQ(canary_arm->completed, 1);
  EXPECT_EQ(control_arm->containers_created, 1);
  EXPECT_EQ(control_arm->cold_starts, 1);
  EXPECT_EQ(control_arm->crashes, 1);
  EXPECT_EQ(control_arm->node_failure_kills, 1);
  EXPECT_EQ(control_arm->completed, 1);

  const DeploymentStats* total = platform.StatsFor("fn");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->containers_created, 4);
  EXPECT_EQ(total->cold_starts, 4);
  EXPECT_EQ(total->crashes, 2);
  EXPECT_EQ(total->node_failure_kills, 2);
  EXPECT_EQ(platform.TotalContainers(), 0);
}

TEST(CanaryRoutingTest, CanarySpansCarryTheCanaryFlag) {
  Harness h;
  h.platform.SetProfiling(true);
  ASSERT_TRUE(h.platform.Deploy(FixedFunction("fn", 1.0)).ok());
  ASSERT_TRUE(h.platform.StageCanary(FixedFunction("fn", 5.0), 0.5).ok());
  (void)h.CountSlow("fn", 10);

  int64_t canary_spans = 0;
  int64_t control_spans = 0;
  for (const Span& span : h.store.spans()) {
    (span.canary ? canary_spans : control_spans) += 1;
  }
  EXPECT_EQ(canary_spans, 5);
  EXPECT_EQ(control_spans, 5);
}

}  // namespace
}  // namespace quilt
