#include "src/platform/platform.h"

#include <gtest/gtest.h>

#include "src/tracing/span.h"

namespace quilt {
namespace {

DeploymentSpec SimpleFunction(const std::string& handle, double compute_ms = 1.0,
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

struct Harness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  SpanStore store;

  Harness() { platform.ConnectSpanStore(&store); }

  Result<Json> InvokeAndWait(const std::string& handle, Json payload = Json::MakeObject()) {
    Result<Json> response = InternalError("no response");
    platform.Invoke({.caller = kClientCaller,
                     .callee = handle,
                     .parent = {},
                     .payload = payload,
                     .async = false,
                     .done = [&](Result<Json> r) { response = std::move(r); }});
    sim.Run();
    return response;
  }
};

TEST(PlatformTest, DeployValidation) {
  Harness h;
  DeploymentSpec empty;
  EXPECT_FALSE(h.platform.Deploy(empty).ok());
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  EXPECT_TRUE(h.platform.HasDeployment("fn"));
  EXPECT_EQ(h.platform.Deploy(SimpleFunction("fn")).code(), StatusCode::kAlreadyExists);
}

TEST(PlatformTest, InvokeUnknownFunctionFails) {
  Harness h;
  const Result<Json> response = h.InvokeAndWait("ghost");
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
}

TEST(PlatformTest, FirstInvocationPaysColdStart) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  const Result<Json> response = h.InvokeAndWait("fn");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  // Cold start base is 80ms; total must exceed it.
  EXPECT_GT(h.sim.now(), Milliseconds(80));
  const DeploymentStats* stats = h.platform.StatsFor("fn");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->cold_starts, 1);
  EXPECT_EQ(stats->completed, 1);
}

TEST(PlatformTest, WarmInvocationIsMilliseconds) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());  // Warm the container.
  const SimTime before = h.sim.now();
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  const SimDuration warm_latency = h.sim.now() - before;
  EXPECT_LT(warm_latency, Milliseconds(10));
  EXPECT_GT(warm_latency, Milliseconds(1));  // Network + gateway + exec.
}

TEST(PlatformTest, WarmContainersSkipFirstColdStart) {
  Harness h;
  DeploymentSpec spec = SimpleFunction("fn");
  spec.warm_containers = 1;
  ASSERT_TRUE(h.platform.Deploy(spec).ok());
  h.sim.Run();  // Let the warm container boot.
  const SimTime before = h.sim.now();
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  EXPECT_LT(h.sim.now() - before, Milliseconds(10));
}

TEST(PlatformTest, ScalesOutUnderParallelLoad) {
  Harness h;
  // Long function so requests overlap; the utilization threshold forces new
  // containers.
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn", /*compute_ms=*/50.0, /*max_scale=*/3)).ok());
  int completed = 0;
  for (int i = 0; i < 6; ++i) {
    h.platform.Invoke({.caller = kClientCaller,
                       .callee = "fn",
                       .parent = {},
                       .payload = Json::MakeObject(),
                       .async = false,
                       .done = [&](Result<Json> r) { completed += r.ok() ? 1 : 0; }});
  }
  h.sim.Run();
  EXPECT_EQ(completed, 6);
  const DeploymentStats* stats = h.platform.StatsFor("fn");
  EXPECT_GT(stats->containers_created, 1);
  EXPECT_LE(stats->containers_created, 3);  // Bounded by max_scale.
}

TEST(PlatformTest, MaxScaleQueuesExcessRequests) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn", 50.0, /*max_scale=*/1)).ok());
  int completed = 0;
  for (int i = 0; i < 5; ++i) {
    h.platform.Invoke({.caller = kClientCaller,
                       .callee = "fn",
                       .parent = {},
                       .payload = Json::MakeObject(),
                       .async = false,
                       .done = [&](Result<Json> r) { completed += r.ok() ? 1 : 0; }});
  }
  h.sim.Run();
  EXPECT_EQ(completed, 5);  // All served eventually.
  const DeploymentStats* stats = h.platform.StatsFor("fn");
  EXPECT_EQ(stats->containers_created, 1);
  EXPECT_GT(stats->pending_peak, 0);
}

TEST(PlatformTest, ProfilingEmitsSpans) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  EXPECT_EQ(h.store.size(), 0);  // Profiling off: path 1 in Figure 2.

  h.platform.SetProfiling(true);
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  ASSERT_EQ(h.store.size(), 1);
  EXPECT_EQ(h.store.spans()[0].caller, kClientCaller);
  EXPECT_EQ(h.store.spans()[0].callee, "fn");
}

TEST(PlatformTest, FunctionToFunctionInvocation) {
  Harness h;
  DeploymentSpec caller = SimpleFunction("caller");
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = "caller";
  behavior->steps = {CallStep{{CallItem{"callee", 1, false}}, false}};
  caller.behavior.single = std::move(behavior);
  ASSERT_TRUE(h.platform.Deploy(caller).ok());
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("callee")).ok());

  h.platform.SetProfiling(true);
  ASSERT_TRUE(h.InvokeAndWait("caller").ok());
  ASSERT_EQ(h.store.size(), 2);
  EXPECT_EQ(h.store.spans()[1].caller, "caller");
  EXPECT_EQ(h.store.spans()[1].callee, "callee");
  EXPECT_EQ(h.platform.StatsFor("callee")->completed, 1);
}

TEST(PlatformTest, UpdateFunctionSwitchesBehavior) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn", 1.0)).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());

  DeploymentSpec updated = SimpleFunction("fn", 1.0);
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = "fn";
  behavior->steps = {SleepStep{123.0}};  // Distinguishable latency.
  updated.behavior.single = std::move(behavior);
  ASSERT_TRUE(h.platform.UpdateFunction(updated).ok());

  const SimTime before = h.sim.now();
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  EXPECT_GT(h.sim.now() - before, Milliseconds(123));  // New behavior + cold start.
  EXPECT_EQ(h.platform.UpdateFunction(SimpleFunction("ghost")).code(), StatusCode::kNotFound);
}

TEST(PlatformTest, RemoveFunction) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  ASSERT_TRUE(h.platform.RemoveFunction("fn").ok());
  EXPECT_FALSE(h.platform.HasDeployment("fn"));
  EXPECT_FALSE(h.InvokeAndWait("fn").ok());
  EXPECT_EQ(h.platform.RemoveFunction("fn").code(), StatusCode::kNotFound);
}

TEST(PlatformTest, OomKillCountsAndRecovers) {
  Harness h;
  DeploymentSpec spec = SimpleFunction("pig");
  spec.container.memory_limit_mb = 16.0;
  spec.container.base_memory_mb = 5.0;
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = "pig";
  behavior->request_memory_mb = 2.0;
  behavior->steps = {AllocStep{50.0}};
  spec.behavior.single = std::move(behavior);
  ASSERT_TRUE(h.platform.Deploy(spec).ok());

  EXPECT_FALSE(h.InvokeAndWait("pig").ok());
  const DeploymentStats* stats = h.platform.StatsFor("pig");
  EXPECT_EQ(stats->oom_kills, 1);
  EXPECT_EQ(stats->failed, 1);
  // A fresh request cold-starts a replacement container (and OOMs again).
  EXPECT_FALSE(h.InvokeAndWait("pig").ok());
  EXPECT_EQ(stats->oom_kills, 2);
}

TEST(PlatformTest, ResourceSamplesCoverContainers) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  const std::vector<ResourceSample> samples = h.platform.SampleResources();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].handle, "fn");
  EXPECT_GT(samples[0].cpu_seconds_cum, 0.0);
  EXPECT_GT(samples[0].peak_memory_mb, 0.0);
  EXPECT_GT(h.platform.TotalMemoryInUseMb(), 0.0);
  EXPECT_EQ(h.platform.TotalContainers(), 1);
}

TEST(PlatformTest, StaleRoutePenaltyAppliesAtLowRate) {
  Harness h;
  ASSERT_TRUE(h.platform.Deploy(SimpleFunction("fn")).ok());
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  const DeploymentStats* stats = h.platform.StatsFor("fn");
  const int64_t initial_hits = stats->stale_route_hits;

  // Rapid back-to-back requests: cache warm, no penalty.
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  EXPECT_EQ(stats->stale_route_hits, initial_hits);

  // After a long idle gap the cache is stale again.
  h.sim.Schedule(Seconds(10), [] {});
  h.sim.Run();
  ASSERT_TRUE(h.InvokeAndWait("fn").ok());
  EXPECT_EQ(stats->stale_route_hits, initial_hits + 1);
}

}  // namespace
}  // namespace quilt
