// Autopilot closed-loop adaptation (§4.9): the control plane re-merges on a
// workload shift and rolls back on an OOM storm with zero manual calls.
//
// Scenario A (shift): the fan-out workflow runs a phased open loop -- a
// steady phase profiled and merged by the autopilot, then a payload shift
// that blows past the deployed conditional-invocation budgets. A drift/SLO
// detector trips, the autopilot re-decides, stages the new plan as a
// weighted canary and promotes it. Expected: >= 2 promotions, the second
// driven by a detector, final state "monitoring".
//
// Scenario B (storm): steady load with a fault-injected OOM-kill window
// that opens after the merge is promoted. Expected: an automatic rollback
// (detector "oom-kill") within a bounded number of control ticks of the
// storm starting.
//
// Both scenarios assert determinism: the serialized AdaptationRecord
// sequence is byte-identical across repeated runs at the same seed and
// across decision_threads = 1 / 2 / 8 (records carry no wall-clock fields).
// Decisions are forced onto GRASP, so the wider settings really run the
// solver on several threads.
//
// Flags:
//   --smoke           short runs (CI); same pipeline, fewer thread configs.
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/deathstarbench.h"
#include "src/autopilot/autopilot.h"

namespace quilt {
namespace bench {
namespace {

constexpr char kRoot[] = "fan-out-root";

struct ScenarioRun {
  std::vector<AdaptationRecord> records;
  std::string serialized;
  std::string final_state;
};

std::string SerializeRecords(const std::vector<AdaptationRecord>& records) {
  std::string out;
  for (const AdaptationRecord& record : records) {
    out += AdaptationRecordLine(record);
    out += '\n';
  }
  return out;
}

int64_t CountAction(const ScenarioRun& run, const std::string& action) {
  int64_t count = 0;
  for (const AdaptationRecord& record : run.records) {
    count += record.action == action ? 1 : 0;
  }
  return count;
}

ControllerOptions MakeControllerOptions(int threads) {
  ControllerOptions options;
  options.container_memory_limit_mb = 256.0;
  // kAuto would hand the small fan-out graph to the single-threaded exact
  // solver, and the thread sweep would compare identical decisions.
  options.decision.solver = SolverChoice::kGrasp;
  options.decision.grasp_threads = threads;
  return options;
}

AutopilotOptions MakePilotOptions() {
  AutopilotOptions options;
  options.min_window_traces = 10;
  options.canary_min_traces = 8;
  options.canary_fraction = 0.3;
  return options;
}

Json NumPayload(int num) {
  Json payload = Json::MakeObject();
  payload["num"] = num;
  return payload;
}

// Scenario A: steady traffic (num=2), then the per-request fan-out shifts to
// num=4 -- over the deployed budgets (so fallback invocations surface at the
// ingress) but still worth merging, so a detector re-triggers the merge
// pipeline and the refreshed plan canary-promotes.
ScenarioRun RunShiftScenario(bool smoke, int threads) {
  Env env(MakeControllerOptions(threads));
  Status registered = env.controller.RegisterWorkflow(FanOutApp(4));
  if (!registered.ok()) {
    std::printf("!! register: %s\n", registered.ToString().c_str());
    return {};
  }
  Autopilot pilot(&env.sim, &env.controller, MakePilotOptions());
  (void)pilot.Enroll(kRoot);
  pilot.Start();

  OpenLoopGenerator generator;
  OpenLoopGenerator::PhasedOptions load;
  load.warmup = Seconds(2);
  load.seed = 7;
  LoadPhase steady;
  steady.name = "steady";
  steady.rps = 8.0;
  steady.duration = smoke ? Seconds(45) : Seconds(75);
  steady.payload = NumPayload(2);
  LoadPhase shifted = steady;
  shifted.name = "shifted";
  shifted.duration = smoke ? Seconds(60) : Seconds(90);
  shifted.payload = NumPayload(4);
  load.phases = {steady, shifted};
  generator.RunPhased(&env.sim, &env.platform, kRoot, load);
  pilot.Stop();

  ScenarioRun run;
  run.records = env.controller.metrics_store()->adaptations();
  run.serialized = SerializeRecords(run.records);
  Result<WorkflowState> state = pilot.StateOf(kRoot);
  run.final_state = state.ok() ? WorkflowStateName(*state) : "unknown";
  return run;
}

// Scenario B: steady traffic with a fault-injection window that OOM-kills
// every dispatch to the merged root for a bounded period after promotion.
ScenarioRun RunOomScenario(bool smoke, int threads, SimTime* storm_start) {
  PlatformConfig config;
  FaultRule rule;
  rule.kind = FaultKind::kOomKill;
  rule.deployment = kRoot;
  rule.probability = 1.0;
  rule.window_start = smoke ? Seconds(50) : Seconds(70);
  rule.window_end = rule.window_start + Seconds(10);
  rule.max_faults = 6;
  config.fault_plan.seed = 11;
  config.fault_plan.rules = {rule};
  *storm_start = rule.window_start;

  Env env(MakeControllerOptions(threads), config);
  Status registered = env.controller.RegisterWorkflow(FanOutApp(4));
  if (!registered.ok()) {
    std::printf("!! register: %s\n", registered.ToString().c_str());
    return {};
  }
  Autopilot pilot(&env.sim, &env.controller, MakePilotOptions());
  (void)pilot.Enroll(kRoot);
  pilot.Start();

  OpenLoopGenerator generator;
  OpenLoopGenerator::PhasedOptions load;
  load.warmup = Seconds(2);
  load.seed = 7;
  LoadPhase steady;
  steady.name = "steady";
  steady.rps = 8.0;
  steady.duration = rule.window_end - Seconds(2) + Seconds(25);  // Past the storm.
  steady.payload = NumPayload(2);
  load.phases = {steady};
  generator.RunPhased(&env.sim, &env.platform, kRoot, load);
  pilot.Stop();

  ScenarioRun run;
  run.records = env.controller.metrics_store()->adaptations();
  run.serialized = SerializeRecords(run.records);
  Result<WorkflowState> state = pilot.StateOf(kRoot);
  run.final_state = state.ok() ? WorkflowStateName(*state) : "unknown";
  return run;
}

void PrintRecords(const ScenarioRun& run) {
  for (const AdaptationRecord& record : run.records) {
    std::printf("  %s\n", AdaptationRecordLine(record).c_str());
  }
  std::printf("  final state: %s\n", run.final_state.c_str());
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

  PrintHeader(
      "Autopilot adaptation: canary re-merge on workload shift,\n"
      "automatic rollback on an injected OOM storm (zero manual calls)");

  const std::vector<int> thread_configs = smoke ? std::vector<int>{1, 2}
                                                : std::vector<int>{1, 2, 8};
  bool ok = true;

  // --- Scenario A at every decision-thread width, plus a repeat at width 1.
  std::printf("\n[scenario A] workload shift -> detector-driven canary re-merge\n");
  ScenarioRun reference = RunShiftScenario(smoke, thread_configs[0]);
  PrintRecords(reference);

  const int64_t promotes = CountAction(reference, "promote");
  bool detector_driven = false;
  for (const AdaptationRecord& record : reference.records) {
    if (record.action == "decide" && !record.detector.empty()) {
      detector_driven = true;
    }
  }
  if (promotes < 2) {
    std::printf("!! scenario A: expected >= 2 promotions, saw %lld\n",
                static_cast<long long>(promotes));
    ok = false;
  }
  if (!detector_driven) {
    std::printf("!! scenario A: no detector-driven re-decision recorded\n");
    ok = false;
  }
  if (reference.final_state != "monitoring") {
    std::printf("!! scenario A: final state %s (want monitoring)\n",
                reference.final_state.c_str());
    ok = false;
  }

  const ScenarioRun repeat = RunShiftScenario(smoke, thread_configs[0]);
  if (repeat.serialized != reference.serialized) {
    std::printf("!! scenario A: record sequence differs across repeated runs\n");
    ok = false;
  }
  for (size_t i = 1; i < thread_configs.size(); ++i) {
    const ScenarioRun threaded = RunShiftScenario(smoke, thread_configs[i]);
    const bool identical = threaded.serialized == reference.serialized;
    std::printf("  decision_threads=%d: %lld records, %s\n", thread_configs[i],
                static_cast<long long>(threaded.records.size()),
                identical ? "byte-identical" : "DIVERGED");
    if (!identical) {
      ok = false;
    }
  }

  // --- Scenario B: OOM storm -> bounded-time automatic rollback.
  std::printf("\n[scenario B] injected OOM storm -> automatic rollback\n");
  SimTime storm_start = 0;
  const ScenarioRun storm = RunOomScenario(smoke, thread_configs[0], &storm_start);
  PrintRecords(storm);

  const AdaptationRecord* rollback = nullptr;
  bool promoted_before_storm = false;
  for (const AdaptationRecord& record : storm.records) {
    if (record.action == "promote" && record.virtual_time < storm_start) {
      promoted_before_storm = true;
    }
    if (rollback == nullptr && record.action == "rollback" &&
        record.detector == "oom-kill") {
      rollback = &record;
    }
  }
  if (!promoted_before_storm) {
    std::printf("!! scenario B: no promotion before the storm window\n");
    ok = false;
  }
  if (rollback == nullptr) {
    std::printf("!! scenario B: no oom-kill rollback recorded\n");
    ok = false;
  } else {
    // Bounded reaction: the rollback lands within 3 control ticks of the
    // storm opening.
    const SimTime bound = storm_start + 3 * kAutopilotTick;
    if (rollback->virtual_time > bound) {
      std::printf("!! scenario B: rollback at t=%lld ns, after the bound %lld ns\n",
                  static_cast<long long>(rollback->virtual_time),
                  static_cast<long long>(bound));
      ok = false;
    } else {
      std::printf("  rollback within %.0f s of the storm opening\n",
                  ToSeconds(rollback->virtual_time - storm_start));
    }
  }

  SimTime repeat_start = 0;
  const ScenarioRun storm_repeat = RunOomScenario(smoke, thread_configs[0], &repeat_start);
  if (storm_repeat.serialized != storm.serialized) {
    std::printf("!! scenario B: record sequence differs across repeated runs\n");
    ok = false;
  }
  for (size_t i = 1; i < thread_configs.size(); ++i) {
    SimTime start = 0;
    const ScenarioRun threaded = RunOomScenario(smoke, thread_configs[i], &start);
    const bool identical = threaded.serialized == storm.serialized;
    std::printf("  decision_threads=%d: %lld records, %s\n", thread_configs[i],
                static_cast<long long>(threaded.records.size()),
                identical ? "byte-identical" : "DIVERGED");
    if (!identical) {
      ok = false;
    }
  }

  std::printf("\n%s\n", ok ? "all autopilot adaptation checks passed"
                           : "AUTOPILOT ADAPTATION CHECKS FAILED");
  return ok ? 0 : 1;
}
