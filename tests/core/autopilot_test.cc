// Autopilot closed-loop adaptation (§4.9): lifecycle under load, quiet
// windows, OOM-storm rollback, record determinism across decision-thread
// counts, and the controller edge cases the canary plumbing introduced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/apps/deathstarbench.h"
#include "src/autopilot/autopilot.h"
#include "src/workload/loadgen.h"

namespace quilt {
namespace {

constexpr char kRoot[] = "fan-out-root";

ControllerOptions FanOutOptions(int threads = 1) {
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  options.decision.grasp_threads = threads;
  return options;
}

AutopilotOptions FastPilotOptions() {
  AutopilotOptions options;
  options.min_window_traces = 10;
  options.canary_min_traces = 8;
  options.canary_fraction = 0.3;
  return options;
}

struct Harness {
  Simulation sim;
  Platform platform;
  QuiltController controller;
  Autopilot pilot;

  explicit Harness(ControllerOptions options = FanOutOptions(),
                   PlatformConfig config = {},
                   AutopilotOptions pilot_options = FastPilotOptions())
      : platform(&sim, config),
        controller(&sim, &platform, options),
        pilot(&sim, &controller, pilot_options) {}

  // Steady open-loop fan-out load (payload num=2) for `duration`.
  void DriveLoad(SimDuration duration, double rps = 8.0) {
    OpenLoopGenerator generator;
    OpenLoopGenerator::Options load;
    load.rps = rps;
    load.warmup = 0;
    load.duration = duration;
    load.drain_grace = Seconds(5);
    Json payload = Json::MakeObject();
    payload["num"] = 2;
    load.payload = std::move(payload);
    generator.Run(&sim, &platform, kRoot, load);
  }

  std::vector<std::string> Actions() const {
    std::vector<std::string> actions;
    for (const AdaptationRecord& r : controller.metrics_store()->adaptations()) {
      actions.push_back(r.action);
    }
    return actions;
  }

  std::string Serialized() const {
    std::string out;
    for (const AdaptationRecord& r : controller.metrics_store()->adaptations()) {
      out += AdaptationRecordLine(r);
      out += '\n';
    }
    return out;
  }
};

TEST(AutopilotTest, EnrollValidation) {
  Harness h;
  EXPECT_EQ(h.pilot.Enroll("ghost").code(), StatusCode::kNotFound);
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  ASSERT_TRUE(h.pilot.Enroll(kRoot).ok());
  EXPECT_EQ(h.pilot.Enroll(kRoot).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(h.pilot.StateOf("ghost").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(h.pilot.StateOf(kRoot).ok());
  EXPECT_EQ(*h.pilot.StateOf(kRoot), WorkflowState::kRegistered);
}

TEST(AutopilotTest, InvalidOptionsBlockEnrollAndStart) {
  struct Row {
    const char* name;
    void (*set)(AutopilotOptions& options);
  };
  const Row rows[] = {
      // A guard tick with zero canary traces would divide by zero.
      {"canary_min_traces = 0", [](AutopilotOptions& o) { o.canary_min_traces = 0; }},
      {"canary_fraction = 0", [](AutopilotOptions& o) { o.canary_fraction = 0.0; }},
      {"canary_fraction > 1", [](AutopilotOptions& o) { o.canary_fraction = 1.5; }},
      {"min_window_traces < 0", [](AutopilotOptions& o) { o.min_window_traces = -1; }},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    AutopilotOptions options = FastPilotOptions();
    row.set(options);
    Harness h(FanOutOptions(), {}, options);
    ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
    EXPECT_EQ(h.pilot.Enroll(kRoot).code(), StatusCode::kInvalidArgument);
    h.pilot.Start();
    EXPECT_FALSE(h.pilot.running());
    h.sim.RunUntil(Seconds(30));
    EXPECT_EQ(h.pilot.ticks(), 0);
  }
  // The cost tolerance is free: a negative one demands a cheaper canary.
  AutopilotOptions options = FastPilotOptions();
  options.canary_cost_tolerance = -1.0;
  Harness h(FanOutOptions(), {}, options);
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  EXPECT_TRUE(h.pilot.Enroll(kRoot).ok());
}

TEST(AutopilotTest, LifecyclePromotesUnderLoad) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  ASSERT_TRUE(h.pilot.Enroll(kRoot).ok());
  h.pilot.Start();
  h.DriveLoad(Seconds(25));
  h.pilot.Stop();

  ASSERT_TRUE(h.pilot.StateOf(kRoot).ok());
  EXPECT_EQ(*h.pilot.StateOf(kRoot), WorkflowState::kMonitoring);
  // The lifecycle prefix is fixed: enroll, first tick starts profiling, a
  // full window decides + stages, the guard window promotes.
  const std::vector<std::string> actions = h.Actions();
  ASSERT_GE(actions.size(), 5u);
  EXPECT_EQ(actions[0], "register");
  EXPECT_EQ(actions[1], "profile");
  EXPECT_EQ(actions[2], "decide");
  EXPECT_EQ(actions[3], "stage-canary");
  EXPECT_EQ(actions[4], "promote");
  EXPECT_TRUE(h.controller.HasMergedDeployment(kRoot));
  EXPECT_FALSE(h.controller.HasStagedCanary(kRoot));
}

TEST(AutopilotTest, QuietWindowsHoldInProfiling) {
  Harness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  ASSERT_TRUE(h.pilot.Enroll(kRoot).ok());
  h.pilot.Start();
  h.sim.RunUntil(h.sim.now() + Seconds(30));  // No traffic at all.
  h.pilot.Stop();

  ASSERT_TRUE(h.pilot.StateOf(kRoot).ok());
  EXPECT_EQ(*h.pilot.StateOf(kRoot), WorkflowState::kProfiling);
  for (const std::string& action : h.Actions()) {
    EXPECT_TRUE(action == "register" || action == "profile") << action;
  }
  EXPECT_FALSE(h.controller.HasMergedDeployment(kRoot));
}

TEST(AutopilotTest, OomStormRollsBackAutomatically) {
  PlatformConfig config;
  FaultRule rule;
  rule.kind = FaultKind::kOomKill;
  rule.deployment = kRoot;
  rule.probability = 1.0;
  rule.window_start = Seconds(20);  // After the expected promote (~15s).
  rule.window_end = Seconds(30);
  rule.max_faults = 4;
  config.fault_plan.seed = 3;
  config.fault_plan.rules = {rule};

  Harness h(FanOutOptions(), config);
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  ASSERT_TRUE(h.pilot.Enroll(kRoot).ok());
  h.pilot.Start();
  h.DriveLoad(Seconds(30));
  h.pilot.Stop();

  const std::vector<AdaptationRecord> records = h.controller.metrics_store()->adaptations();
  const AdaptationRecord* promote = nullptr;
  const AdaptationRecord* rollback = nullptr;
  for (const AdaptationRecord& r : records) {
    if (promote == nullptr && r.action == "promote") {
      promote = &r;
    }
    if (rollback == nullptr && r.action == "rollback") {
      rollback = &r;
    }
  }
  ASSERT_NE(promote, nullptr);
  ASSERT_NE(rollback, nullptr);
  EXPECT_EQ(rollback->detector, "oom-kill");
  EXPECT_GT(rollback->virtual_time, promote->virtual_time);
  // Bounded reaction: within 3 control ticks of the storm opening.
  EXPECT_LE(rollback->virtual_time, rule.window_start + 3 * kAutopilotTick);
  EXPECT_FALSE(h.controller.HasMergedDeployment(kRoot));
}

TEST(AutopilotTest, RecordsDeterministicAcrossDecisionThreads) {
  // GRASP is forced: the exact solver the fan-out graph would get runs on
  // one thread whatever the width. `decision` receives the last record.
  auto run = [](int threads, DecisionRecord* decision = nullptr) {
    ControllerOptions options = FanOutOptions(threads);
    options.decision.solver = SolverChoice::kGrasp;
    Harness h(options);
    EXPECT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
    EXPECT_TRUE(h.pilot.Enroll(kRoot).ok());
    h.pilot.Start();
    h.DriveLoad(Seconds(25));
    h.pilot.Stop();
    if (decision != nullptr && !h.controller.metrics().decisions().empty()) {
      *decision = h.controller.metrics().decisions().back();
    }
    return h.Serialized();
  };
  const std::string reference = run(1);
  EXPECT_FALSE(reference.empty());
  EXPECT_EQ(run(1), reference);  // Repeatable at the same width.
  EXPECT_EQ(run(2), reference);
  DecisionRecord decision;
  EXPECT_EQ(run(8, &decision), reference);
  // The widest run really ran GRASP's starts on several threads.
  EXPECT_EQ(decision.solver, "grasp");
  EXPECT_GT(decision.threads, 1);
}

// --- Controller edge cases around the canary plumbing.

struct ControllerHarness {
  Simulation sim;
  Platform platform{&sim, PlatformConfig{}};
  QuiltController controller;
  explicit ControllerHarness(ControllerOptions options = FanOutOptions())
      : controller(&sim, &platform, options) {}

  void ProfileFanOut(int num, int requests = 40) {
    controller.StartProfiling();
    Json payload = Json::MakeObject();
    payload["num"] = num;
    for (int i = 0; i < requests; ++i) {
      platform.Invoke({.caller = kClientCaller,
                       .callee = kRoot,
                       .parent = {},
                       .payload = payload,
                       .async = false,
                       .done = [](Result<Json>) {}});
    }
    sim.RunUntil(sim.now() + Seconds(5));
    controller.StopProfiling();
  }

  // Proposes and stages a canary from a fresh profile window.
  void StageCanaryFromProfile(int num) {
    ProfileFanOut(num);
    Result<QuiltController::ProposedPlan> plan = controller.ProposePlan(kRoot);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(plan->changed);
    ASSERT_TRUE(controller.StageCanaryPlan(kRoot, *plan, 0.3).ok());
  }
};

TEST(ReconsiderEdgeTest, BlockedWhileCanaryInFlight) {
  ControllerHarness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  h.StageCanaryFromProfile(2);
  ASSERT_TRUE(h.controller.HasStagedCanary(kRoot));

  // ProposePlan promoted nothing yet: no merged deployment, and the in-flight
  // guard window blocks a manual reconsider from racing it.
  const Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow(kRoot);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(h.controller.PromoteCanaryPlan(kRoot).ok());
  EXPECT_FALSE(h.controller.HasStagedCanary(kRoot));
  EXPECT_TRUE(h.controller.HasMergedDeployment(kRoot));
  h.ProfileFanOut(2);
  EXPECT_TRUE(h.controller.ReconsiderWorkflow(kRoot).ok());
}

TEST(ReconsiderEdgeTest, RevokingPermissionAbortsStagedCanary) {
  ControllerHarness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  h.StageCanaryFromProfile(2);
  ASSERT_TRUE(h.controller.HasStagedCanary(kRoot));

  ASSERT_TRUE(h.controller.RevokeMergePermission("fan-callee").ok());
  EXPECT_FALSE(h.controller.HasStagedCanary(kRoot));
  // The baseline keeps serving after the abort.
  bool ok = false;
  Json payload = Json::MakeObject();
  payload["num"] = 2;
  h.platform.Invoke({.caller = kClientCaller,
                     .callee = kRoot,
                     .parent = {},
                     .payload = payload,
                     .async = false,
                     .done = [&](Result<Json> r) { ok = r.ok(); }});
  h.sim.RunUntil(h.sim.now() + Seconds(5));
  EXPECT_TRUE(ok);
}

TEST(ReconsiderEdgeTest, EmptyProfileWindowKeepsMergeQuietly) {
  ControllerHarness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  h.ProfileFanOut(2);
  ASSERT_TRUE(h.controller.OptimizeWorkflow(kRoot).ok());

  // A window with zero traffic must not be read as drift (or worse, as
  // misbehavior): the deployed graph stands in for the missing observations.
  h.controller.StartProfiling();
  h.sim.RunUntil(h.sim.now() + Seconds(5));
  h.controller.StopProfiling();
  const Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow(kRoot);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->redeployed);
  EXPECT_FALSE(report->rolled_back);
}

TEST(ReconsiderEdgeTest, UnchangedSignatureIsANoOp) {
  ControllerHarness h;
  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  h.ProfileFanOut(2);
  ASSERT_TRUE(h.controller.OptimizeWorkflow(kRoot).ok());

  // Same workload shape re-profiled: the proposed plan's signature matches
  // the deployed one, so ProposePlan reports "unchanged" and a manual
  // reconsider neither redeploys nor rolls back.
  h.ProfileFanOut(2);
  Result<QuiltController::ProposedPlan> plan = h.controller.ProposePlan(kRoot);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->changed);
  EXPECT_EQ(h.controller.StageCanaryPlan(kRoot, *plan, 0.3).code(),
            StatusCode::kFailedPrecondition);
  const Result<QuiltController::ReconsiderReport> report =
      h.controller.ReconsiderWorkflow(kRoot);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->redeployed);
  EXPECT_FALSE(report->rolled_back);
}

TEST(SummaryStatusTest, TypedStatusesForLatencySummary) {
  ControllerHarness h;
  // Unknown workflow: not found.
  EXPECT_EQ(h.controller.metrics().SummarizeWorkflowLatency("ghost").status().code(),
            StatusCode::kNotFound);

  ASSERT_TRUE(h.controller.RegisterWorkflow(FanOutApp(4)).ok());
  // Registered but an empty window: "wait", not an alarm.
  h.controller.StartProfiling();
  const Result<WorkflowLatencySummary> empty =
      h.controller.metrics().SummarizeWorkflowLatency(kRoot);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kUnavailable);

  // With traffic, the unfiltered summary works; the canary-only view of an
  // all-control window is unavailable (no canary traffic), not an error.
  h.controller.StopProfiling();
  h.ProfileFanOut(2);
  const Result<WorkflowLatencySummary> all = h.controller.metrics().SummarizeWorkflowLatency(kRoot);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  EXPECT_GT(all->traces, 0);
  EXPECT_EQ(all->version, "all");
  const Result<WorkflowLatencySummary> canary_only =
      h.controller.metrics().SummarizeWorkflowLatency(kRoot, TraceVersionFilter::kCanary);
  ASSERT_FALSE(canary_only.ok());
  EXPECT_EQ(canary_only.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(canary_only.status().message().find("canary"), std::string::npos);
}

}  // namespace
}  // namespace quilt
