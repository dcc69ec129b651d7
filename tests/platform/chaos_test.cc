// Chaos tests for the deterministic fault-injection + failure-handling
// layer: retries recovering injected transient faults, the blast radius of
// a container crash under merged vs. per-function deployment, circuit
// breaker shed/recover cycles, and bit-identical reproducibility of a
// faulty run under a fixed seed.
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/platform/platform.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

DeploymentSpec ComputeFunction(const std::string& handle, double compute_ms,
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

// A function that sleeps (no CPU) -- wide, contention-free in-flight windows
// so scheduled CrashEvents land mid-request by construction.
DeploymentSpec SleepFunction(const std::string& handle, double sleep_ms) {
  DeploymentSpec spec;
  spec.handle = handle;
  spec.max_scale = 4;
  spec.warm_containers = 1;
  spec.container.cpu_limit = 2.0;
  spec.container.memory_limit_mb = 128.0;
  spec.container.base_memory_mb = 5.0;
  spec.container.image_size_bytes = 2 * 1024 * 1024;
  auto behavior = std::make_shared<FunctionBehavior>();
  behavior->handle = handle;
  behavior->steps = {SleepStep{sleep_ms}};
  spec.behavior.single = std::move(behavior);
  return spec;
}

// --- Acceptance (a): retries + backoff recover >= 95% of injected transient
// gateway failures at a ~1% injection rate.

TEST(ChaosTest, RetriesRecoverInjectedTransientGatewayFaults) {
  PlatformConfig config;
  config.invocation_timeout = Milliseconds(500);
  config.retry.max_attempts = 4;
  config.retry.initial_backoff = Milliseconds(5);

  FaultRule gateway_5xx;
  gateway_5xx.kind = FaultKind::kGatewayError;
  gateway_5xx.probability = 0.005;
  FaultRule drop;
  drop.kind = FaultKind::kNetworkDrop;
  drop.probability = 0.005;
  config.fault_plan.seed = 7;
  config.fault_plan.rules = {gateway_5xx, drop};

  Simulation sim;
  Platform platform(&sim, config);
  DeploymentSpec spec = ComputeFunction("chaos-fn", 1.0);
  spec.idempotent = true;  // Sync calls may be retried.
  ASSERT_TRUE(platform.Deploy(std::move(spec)).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 200.0;
  options.warmup = Seconds(2);
  options.duration = Seconds(30);
  options.seed = 11;
  const LoadResult result = generator.Run(&sim, &platform, "chaos-fn", options);

  const FaultStats& faults = platform.fault_stats();
  const int64_t injected = faults.network_drops + faults.gateway_errors;
  // ~6400 attempts at 1% combined probability: injection really happened.
  EXPECT_GT(injected, 30) << "fault plan never fired";
  EXPECT_GT(result.completed, 5500);

  // >= 95% of injected transient faults recovered: the client sees at most
  // 5% of them as failures. (With 4 attempts the expected count is ~0.)
  EXPECT_LE(result.failed * 20, injected)
      << "failed=" << result.failed << " injected=" << injected;

  const DeploymentStats* stats = platform.StatsFor("chaos-fn");
  ASSERT_NE(stats, nullptr);
  EXPECT_GT(stats->retries, 0);
  EXPECT_GT(stats->timeouts, 0);  // Drops surface as per-attempt deadline hits.
  EXPECT_EQ(stats->breaker_opens, 0);
  EXPECT_GT(stats->failures_by_cause.count("UNAVAILABLE"), 0u);
}

// --- Acceptance (b): blast radius. The same workload and the same crash
// instant; only the deployment shape differs.
//
// Workload: root sleeps 50ms then calls leaf (sleeps 100ms). R1 is sent at
// t=500ms (inside the leaf at t=600ms), R2 at t=560ms (inside the root at
// t=600ms). A CrashEvent fires at exactly t=600ms.

struct BlastResponses {
  Result<Json> r1 = InternalError("pending");
  Result<Json> r2 = InternalError("pending");
  bool r1_done = false;
  bool r2_done = false;
};

BlastResponses RunBlastWorkload(Simulation& sim, Platform& platform,
                                const std::string& target) {
  BlastResponses out;
  sim.RunUntil(Milliseconds(500));
  platform.Invoke({.caller = kClientCaller,
                   .callee = target,
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) {
    out.r1 = std::move(r);
    out.r1_done = true;
  }});
  sim.RunUntil(Milliseconds(560));
  platform.Invoke({.caller = kClientCaller,
                   .callee = target,
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) {
    out.r2 = std::move(r);
    out.r2_done = true;
  }});
  sim.Run();
  return out;
}

TEST(ChaosTest, UnmergedCrashFailsOnlyTheCrashedFunctionsRequest) {
  PlatformConfig config;
  config.fault_plan.crashes = {CrashEvent{"blast-leaf", Milliseconds(600)}};

  Simulation sim;
  Platform platform(&sim, config);

  DeploymentSpec root = SleepFunction("blast-root", 50.0);
  auto root_behavior = std::make_shared<FunctionBehavior>();
  root_behavior->handle = "blast-root";
  root_behavior->steps = {SleepStep{50.0},
                          CallStep{{CallItem{"blast-leaf", 1, false}}, /*parallel=*/false}};
  root.behavior.single = std::move(root_behavior);
  ASSERT_TRUE(platform.Deploy(std::move(root)).ok());
  ASSERT_TRUE(platform.Deploy(SleepFunction("blast-leaf", 100.0)).ok());

  const BlastResponses out = RunBlastWorkload(sim, platform, "blast-root");
  ASSERT_TRUE(out.r1_done);
  ASSERT_TRUE(out.r2_done);

  // R1 was executing inside the crashed leaf: it fails. R2 was still in the
  // root; its later leaf call cold-starts a fresh container and succeeds.
  EXPECT_FALSE(out.r1.ok());
  EXPECT_TRUE(out.r2.ok()) << out.r2.status().ToString();

  EXPECT_EQ(platform.StatsFor("blast-leaf")->crashes, 1);
  EXPECT_EQ(platform.StatsFor("blast-leaf")->injected_faults, 1);
  EXPECT_EQ(platform.StatsFor("blast-root")->crashes, 0);
  EXPECT_EQ(platform.fault_stats().container_crashes, 1);
}

TEST(ChaosTest, MergedCrashFailsAllCoLocatedInFlightRequests) {
  PlatformConfig config;
  config.fault_plan.crashes = {CrashEvent{"blast-root", Milliseconds(600)}};

  Simulation sim;
  Platform platform(&sim, config);

  auto merged = std::make_shared<MergedBehavior>();
  merged->mode = MergedBehavior::Mode::kQuilt;
  merged->root_handle = "blast-root";
  FunctionBehavior root;
  root.handle = "blast-root";
  root.steps = {SleepStep{50.0},
                CallStep{{CallItem{"blast-leaf", 1, false}}, /*parallel=*/false}};
  FunctionBehavior leaf;
  leaf.handle = "blast-leaf";
  leaf.steps = {SleepStep{100.0}};
  merged->functions = {{"blast-root", root}, {"blast-leaf", leaf}};
  merged->edge_budgets[MergedBehavior::EdgeKey("blast-root", "blast-leaf")] = 0;

  DeploymentSpec spec;
  spec.handle = "blast-root";
  spec.max_scale = 1;  // Both requests share the single merged container.
  spec.warm_containers = 1;
  spec.container.cpu_limit = 2.0;
  spec.container.memory_limit_mb = 128.0;
  spec.container.base_memory_mb = 5.0;
  spec.container.image_size_bytes = 2 * 1024 * 1024;
  spec.behavior.merged = std::move(merged);
  ASSERT_TRUE(platform.Deploy(std::move(spec)).ok());

  const BlastResponses out = RunBlastWorkload(sim, platform, "blast-root");
  ASSERT_TRUE(out.r1_done);
  ASSERT_TRUE(out.r2_done);

  // The leaf's crash became a workflow crash: R1 (inside the local leaf
  // call) AND the innocent R2 (still in the root's own sleep) both die.
  EXPECT_FALSE(out.r1.ok());
  EXPECT_FALSE(out.r2.ok());

  EXPECT_EQ(platform.StatsFor("blast-root")->crashes, 1);
  EXPECT_EQ(platform.StatsFor("blast-root")->injected_faults, 1);

  // The deployment recovers: a fresh request cold-starts a new container.
  Result<Json> after = InternalError("pending");
  platform.Invoke({.caller = kClientCaller,
                   .callee = "blast-root",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) { after = std::move(r); }});
  sim.Run();
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

// --- Circuit breaker: opens under sustained failures, sheds load while
// open, probes half-open, and closes again once the fault clears.

TEST(ChaosTest, CircuitBreakerShedsAndRecovers) {
  PlatformConfig config;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration = Milliseconds(500);

  FaultRule outage;  // Total gateway outage for 2 virtual seconds.
  outage.kind = FaultKind::kGatewayError;
  outage.probability = 1.0;
  outage.window_start = Seconds(2);
  outage.window_end = Seconds(4);
  config.fault_plan.rules = {outage};

  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(ComputeFunction("breaker-fn", 0.5)).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 100.0;
  options.warmup = 0;
  options.duration = Seconds(8);
  const LoadResult result = generator.Run(&sim, &platform, "breaker-fn", options);

  const DeploymentStats* stats = platform.StatsFor("breaker-fn");
  ASSERT_NE(stats, nullptr);
  // The outage re-opens the breaker after every failed half-open probe.
  EXPECT_GE(stats->breaker_opens, 2);
  EXPECT_GT(stats->breaker_rejected, 50);  // Most outage-window traffic shed.
  EXPECT_GT(platform.BreakerOpenNs("breaker-fn"), 0);
  EXPECT_GT(stats->failures_by_cause.at("BREAKER_OPEN"), 0);
  EXPECT_GT(stats->failures_by_cause.at("UNAVAILABLE"), 0);

  // Traffic outside the outage window succeeds: the breaker closed again.
  EXPECT_GT(result.completed, 400);
  EXPECT_GT(result.failures_by_cause.at("UNAVAILABLE"), 0);
  const double outage_fraction = 2.0 / 8.0;
  EXPECT_LT(result.FailureRate(), outage_fraction + 0.05);
}

// Regression: on cooldown expiry the breaker used to admit unbounded
// concurrent traffic until the first half-open probe responded -- a probe
// storm straight into the deployment it was protecting. Now at most
// half_open_max_probes (default 1) requests are in flight half-open; the
// rest of a burst is shed as breaker-rejected.
TEST(ChaosTest, HalfOpenBreakerCapsProbeBurst) {
  PlatformConfig config;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration = Milliseconds(500);

  FaultRule outage;  // Total gateway outage for the first 100ms.
  outage.kind = FaultKind::kGatewayError;
  outage.probability = 1.0;
  outage.window_start = 0;
  outage.window_end = Milliseconds(100);
  config.fault_plan.rules = {outage};

  Simulation sim;
  Platform platform(&sim, config);
  // A slow handler: the probe is still in flight when the burst lands.
  ASSERT_TRUE(platform.Deploy(SleepFunction("probe-fn", 50.0)).ok());

  // Three failures during the outage trip the breaker.
  for (int i = 0; i < 3; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = "probe-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [](Result<Json>) {}});
  }
  sim.RunUntil(Milliseconds(100));
  const DeploymentStats* stats = platform.StatsFor("probe-fn");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->breaker_opens, 1);
  ASSERT_EQ(stats->completed, 0);

  // Past the cooldown, fire a burst into the now-half-open breaker. Exactly
  // one request may probe; the other nine are shed immediately (pre-fix, all
  // ten sailed through).
  sim.RunUntil(Seconds(1));
  const int64_t rejected_before = stats->breaker_rejected;
  int burst_ok = 0;
  int burst_shed = 0;
  for (int i = 0; i < 10; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = "probe-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&](Result<Json> r) {
      if (r.ok()) {
        ++burst_ok;
      } else if (r.status().code() == StatusCode::kUnavailable) {
        ++burst_shed;
      }
    }});
  }
  sim.Run();
  EXPECT_EQ(burst_ok, 1);
  EXPECT_EQ(burst_shed, 9);
  EXPECT_EQ(stats->breaker_rejected, rejected_before + 9);
  EXPECT_EQ(stats->completed, 1);

  // The successful probe closed the breaker: traffic flows again.
  bool after_ok = false;
  platform.Invoke({.caller = kClientCaller,
                   .callee = "probe-fn",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) { after_ok = r.ok(); }});
  sim.Run();
  EXPECT_TRUE(after_ok);
  EXPECT_EQ(stats->breaker_opens, 1);  // Never re-opened.
}

// A wider probe allowance admits exactly that many concurrent probes.
TEST(ChaosTest, HalfOpenProbeAllowanceIsConfigurable) {
  PlatformConfig config;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.open_duration = Milliseconds(500);
  config.breaker.half_open_max_probes = 3;

  FaultRule outage;
  outage.kind = FaultKind::kGatewayError;
  outage.probability = 1.0;
  outage.window_start = 0;
  outage.window_end = Milliseconds(100);
  config.fault_plan.rules = {outage};

  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(SleepFunction("probe-fn", 50.0)).ok());
  for (int i = 0; i < 3; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = "probe-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [](Result<Json>) {}});
  }
  sim.RunUntil(Seconds(1));

  int burst_ok = 0;
  for (int i = 0; i < 10; ++i) {
    platform.Invoke({.caller = kClientCaller,
                     .callee = "probe-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&](Result<Json> r) { burst_ok += r.ok() ? 1 : 0; }});
  }
  sim.Run();
  EXPECT_EQ(burst_ok, 3);
  EXPECT_EQ(platform.StatsFor("probe-fn")->breaker_rejected, 7);  // 10 - 3 probes.
}

// --- Client-side invocation timeout.

TEST(ChaosTest, InvocationTimeoutFailsSlowCall) {
  PlatformConfig config;
  config.invocation_timeout = Milliseconds(100);

  Simulation sim;
  Platform platform(&sim, config);
  ASSERT_TRUE(platform.Deploy(SleepFunction("slow-fn", 300.0)).ok());
  sim.RunUntil(Milliseconds(200));  // Let the warm container boot.

  Result<Json> response = InternalError("pending");
  SimTime responded_at = 0;
  const SimTime sent_at = sim.now();
  platform.Invoke({.caller = kClientCaller,
                   .callee = "slow-fn",
                   .parent = {},
                   .payload = Json::MakeObject(),
                   .async = false,
                   .done = [&](Result<Json> r) {
    response = std::move(r);
    responded_at = sim.now();
  }});
  sim.Run();

  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  // The client hears back at the deadline plus the response-path hop, not
  // after the 300ms sleep.
  EXPECT_GE(responded_at - sent_at, Milliseconds(100));
  EXPECT_LT(responded_at - sent_at, Milliseconds(110));

  const DeploymentStats* stats = platform.StatsFor("slow-fn");
  EXPECT_EQ(stats->timeouts, 1);
  EXPECT_EQ(stats->failures_by_cause.at("DEADLINE_EXCEEDED"), 1);
}

// --- Injected network delay shifts latency by exactly the configured extra
// delay (and nothing else changes: the injection path is surgical).

TEST(ChaosTest, InjectedDelayAddsExactLatency) {
  auto warm_latency = [](const FaultPlan& plan) {
    PlatformConfig config;
    config.fault_plan = plan;
    Simulation sim;
    Platform platform(&sim, config);
    EXPECT_TRUE(platform.Deploy(ComputeFunction("delay-fn", 1.0)).ok());
    Result<Json> warm = InternalError("pending");
    platform.Invoke({.caller = kClientCaller,
                     .callee = "delay-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&](Result<Json> r) { warm = std::move(r); }});
    sim.Run();
    EXPECT_TRUE(warm.ok());
    const SimTime before = sim.now();
    Result<Json> again = InternalError("pending");
    platform.Invoke({.caller = kClientCaller,
                     .callee = "delay-fn",
                     .parent = {},
                     .payload = Json::MakeObject(),
                     .async = false,
                     .done = [&](Result<Json> r) { again = std::move(r); }});
    sim.Run();
    EXPECT_TRUE(again.ok());
    return sim.now() - before;
  };

  FaultPlan delayed;
  FaultRule rule;
  rule.kind = FaultKind::kNetworkDelay;
  rule.probability = 1.0;
  rule.extra_delay = Milliseconds(5);
  delayed.rules = {rule};

  const SimDuration baseline = warm_latency(FaultPlan{});
  const SimDuration with_delay = warm_latency(delayed);
  EXPECT_EQ(with_delay - baseline, Milliseconds(5));
}

// --- Fault-layer determinism: the same FaultPlan + seeds reproduce a
// bit-identical LoadResult and fault/deployment statistics.

struct ChaosRun {
  LoadResult result;
  FaultStats faults;
  DeploymentStats stats;
  int64_t billed_nanos = 0;
  int64_t billed_attempts = 0;
};

ChaosRun RunSeededChaos() {
  PlatformConfig config;
  config.invocation_timeout = Milliseconds(400);
  config.retry.max_attempts = 3;
  config.breaker.enabled = true;
  config.breaker.failure_threshold = 10;

  FaultRule gateway_5xx;
  gateway_5xx.kind = FaultKind::kGatewayError;
  gateway_5xx.probability = 0.02;
  FaultRule drop;
  drop.kind = FaultKind::kNetworkDrop;
  drop.probability = 0.01;
  FaultRule delay;
  delay.kind = FaultKind::kNetworkDelay;
  delay.probability = 0.05;
  delay.extra_delay = Milliseconds(2);
  config.fault_plan.seed = 99;
  config.fault_plan.rules = {gateway_5xx, drop, delay};
  config.fault_plan.crashes = {CrashEvent{"chaos-fn", Seconds(6)}};

  Simulation sim;
  Platform platform(&sim, config);
  DeploymentSpec spec = ComputeFunction("chaos-fn", 1.0);
  spec.idempotent = true;
  EXPECT_TRUE(platform.Deploy(std::move(spec)).ok());

  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = 100.0;
  options.warmup = Seconds(1);
  options.duration = Seconds(10);
  options.poisson = true;
  options.seed = 5;

  ChaosRun run;
  run.result = generator.Run(&sim, &platform, "chaos-fn", options);
  run.faults = platform.fault_stats();
  run.stats = *platform.StatsFor("chaos-fn");
  run.billed_nanos = platform.cost_meter().TotalNanos();
  run.billed_attempts = platform.cost_meter().TotalAttempts();
  return run;
}

TEST(ChaosTest, SamePlanAndSeedIsBitIdentical) {
  const ChaosRun a = RunSeededChaos();
  const ChaosRun b = RunSeededChaos();

  // Client view.
  EXPECT_EQ(a.result.completed, b.result.completed);
  EXPECT_EQ(a.result.failed, b.result.failed);
  EXPECT_EQ(a.result.timeouts, b.result.timeouts);
  EXPECT_EQ(a.result.failures_by_cause, b.result.failures_by_cause);
  EXPECT_EQ(a.result.latency.count(), b.result.latency.count());
  EXPECT_EQ(a.result.latency.min(), b.result.latency.min());
  EXPECT_EQ(a.result.latency.max(), b.result.latency.max());
  EXPECT_EQ(a.result.latency.Median(), b.result.latency.Median());
  EXPECT_EQ(a.result.latency.P99(), b.result.latency.P99());
  EXPECT_DOUBLE_EQ(a.result.latency.Mean(), b.result.latency.Mean());

  // Injection bookkeeping.
  EXPECT_EQ(a.faults.network_drops, b.faults.network_drops);
  EXPECT_EQ(a.faults.network_delays, b.faults.network_delays);
  EXPECT_EQ(a.faults.gateway_errors, b.faults.gateway_errors);
  EXPECT_EQ(a.faults.container_crashes, b.faults.container_crashes);
  EXPECT_GT(a.faults.total(), 0);

  // Deployment-side failure taxonomy.
  EXPECT_EQ(a.stats.completed, b.stats.completed);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.timeouts, b.stats.timeouts);
  EXPECT_EQ(a.stats.retries, b.stats.retries);
  EXPECT_EQ(a.stats.retries_exhausted, b.stats.retries_exhausted);
  EXPECT_EQ(a.stats.injected_faults, b.stats.injected_faults);
  EXPECT_EQ(a.stats.crashes, b.stats.crashes);
  EXPECT_EQ(a.stats.failures_by_cause, b.stats.failures_by_cause);
}

// The same run pinned as literals. The self-comparison above cannot see a
// change that moves both runs alike; these values cover the timeout, retry,
// breaker, injected-fault and scheduled-crash paths as the client, the
// deployment and the bill see them.
TEST(ChaosTest, SeededChaosMatchesPinnedValues) {
  const ChaosRun run = RunSeededChaos();

  // Client view: retries absorb every injected fault.
  EXPECT_EQ(run.result.completed, 1005);
  EXPECT_EQ(run.result.failed, 0);
  EXPECT_EQ(run.result.timeouts, 0);
  EXPECT_TRUE(run.result.failures_by_cause.empty());
  EXPECT_EQ(run.result.latency.count(), 1005);
  EXPECT_EQ(run.result.latency.min(), 6270002);
  EXPECT_EQ(run.result.latency.max(), 418260998);
  EXPECT_EQ(run.result.latency.Median(), 6275072);
  EXPECT_EQ(run.result.latency.P99(), 20643840);

  EXPECT_EQ(run.faults.network_drops, 8);
  EXPECT_EQ(run.faults.network_delays, 58);
  EXPECT_EQ(run.faults.gateway_errors, 22);
  EXPECT_EQ(run.faults.container_crashes, 1);

  // Deployment view: the 8 drops surface as attempt deadlines.
  EXPECT_EQ(run.stats.completed, 1102);
  EXPECT_EQ(run.stats.failed, 0);
  EXPECT_EQ(run.stats.timeouts, 8);
  EXPECT_EQ(run.stats.retries, 30);
  EXPECT_EQ(run.stats.retries_exhausted, 0);
  EXPECT_EQ(run.stats.injected_faults, 87);
  EXPECT_EQ(run.stats.crashes, 1);
  EXPECT_EQ(run.stats.breaker_opens, 0);
  EXPECT_EQ(run.stats.breaker_rejected, 0);
  EXPECT_EQ(run.stats.failures_by_cause,
            (std::map<std::string, int64_t>{{"DEADLINE_EXCEEDED", 8}, {"UNAVAILABLE", 22}}));

  EXPECT_EQ(run.billed_nanos, 224808);
  EXPECT_EQ(run.billed_attempts, 1102);
}

// --- Out-of-range retry and breaker values fail validation instead of
// being clamped: one row per rejected value.

TEST(ChaosTest, ConfigValidateRejectsOutOfRangeRetryAndBreaker) {
  const std::vector<std::pair<std::string, std::function<void(PlatformConfig&)>>> rows = {
      {"breaker.failure_threshold = 0",
       [](PlatformConfig& c) { c.breaker.failure_threshold = 0; }},
      {"breaker.half_open_max_probes = 0",
       [](PlatformConfig& c) { c.breaker.half_open_max_probes = 0; }},
      {"breaker.open_duration < 0", [](PlatformConfig& c) { c.breaker.open_duration = -1; }},
      {"retry.initial_backoff < 0", [](PlatformConfig& c) { c.retry.initial_backoff = -1; }},
      {"retry.max_backoff < 0", [](PlatformConfig& c) { c.retry.max_backoff = -1; }},
      {"retry.backoff_multiplier = 0",
       [](PlatformConfig& c) { c.retry.backoff_multiplier = 0.0; }},
  };
  for (const auto& [name, mutate] : rows) {
    PlatformConfig config;
    mutate(config);
    EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument) << name;
  }
  // The zero boundaries stay valid.
  PlatformConfig zero;
  zero.breaker.open_duration = 0;
  zero.retry.initial_backoff = 0;
  zero.retry.max_backoff = 0;
  EXPECT_TRUE(zero.Validate().ok());
}

// --- Zero-cost-when-off: with every failure-handling knob at its default,
// a workload is bit-identical to one run on a config that never mentions
// the failure layer (the struct defaults ARE "off").

TEST(ChaosTest, DefaultConfigHasNoFailureLayerSideEffects) {
  auto run = [] {
    Simulation sim;
    Platform platform(&sim, PlatformConfig{});
    EXPECT_TRUE(platform.Deploy(ComputeFunction("plain-fn", 1.0)).ok());
    OpenLoopGenerator generator;
    OpenLoopGenerator::Options options;
    options.rps = 100.0;
    options.warmup = Seconds(1);
    options.duration = Seconds(5);
    return generator.Run(&sim, &platform, "plain-fn", options);
  };
  const LoadResult a = run();
  const LoadResult b = run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, 0);
  EXPECT_TRUE(a.failures_by_cause.empty());
  EXPECT_EQ(a.latency.Median(), b.latency.Median());
  EXPECT_EQ(a.latency.P99(), b.latency.P99());
}

}  // namespace
}  // namespace quilt
