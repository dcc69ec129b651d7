// Elastic node-pool autoscaler vs a peak-sized static fleet (§4.14) under
// phased load: peak -> medium -> trough, all in one simulated run.
//
// The static fleet must be provisioned for the peak phase, so every node it
// paid for during the medium and trough phases bills mostly idle. The
// autoscaler starts from a one-node floor, ramps up during the (unmeasured)
// warmup at peak rate, then cordons, drains and retires surplus nodes as the
// rate falls -- retired nodes stop emitting node samples, so they stop
// billing. The figure compares the two fleets' infrastructure dollars and
// per-phase tail latency.
//
// Checks (exit non-zero on violation):
//   * savings: the elastic fleet cuts paid-but-idle node dollars by at least
//     `idle_cut_floor` (30%) over the whole run;
//   * latency: each phase's elastic p99 stays within `p99_tolerance` (5%) of
//     the static fleet's -- the savings are not bought with tail latency;
//   * determinism: the elastic run's full observable state (autoscale event
//     log, node-sample stream, per-phase latency rows) is byte-identical at
//     decision_threads 1, 2 and 8.
//
// Flags:
//   --smoke           shorter phases (CI); same checks.
#include <cstdlib>
#include <cstring>

#include "bench/bench_util.h"
#include "src/platform/autoscaler.h"

namespace quilt {
namespace bench {
namespace {

constexpr char kRoot[] = "scale-root";
constexpr char kLeaf[] = "scale-leaf";

constexpr double kNodeCpu = 4.0;
constexpr double kNodeMemoryMb = 1024.0;
constexpr int kStaticNodes = 6;  // Peak-sized static fleet.

// Two functions, so OptimizeWorkflow makes a real (if small) decision. The
// scenario forces GRASP, which a 2-node graph would otherwise skip for the
// single-threaded exact solver, so the determinism sweep over
// decision_threads runs the decision on 1, 2 and 8 threads.
WorkflowApp ScaleApp() {
  WorkflowApp app;
  app.name = "autoscale";
  app.root_handle = kRoot;

  AppFunctionSpec root;
  root.handle = kRoot;
  root.request_memory_mb = 20.0;
  root.steps = {ComputeStep{2.0}, CallStep{{{kLeaf, 1, false}}, false}};
  app.functions.push_back(root);

  AppFunctionSpec leaf;
  leaf.handle = kLeaf;
  leaf.request_memory_mb = 20.0;
  leaf.steps = {ComputeStep{4.0}};
  app.functions.push_back(leaf);
  return app;
}

struct PhaseRow {
  std::string name;
  double rps = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t p50 = 0;
  int64_t p99 = 0;
};

struct ScenarioResult {
  bool ok = false;
  std::vector<PhaseRow> phases;
  int64_t infra_nanos = 0;       // Paid node uptime, whole run.
  int64_t infra_idle_nanos = 0;  // ... of which the CPUs sat idle.
  int64_t provisioned = 0;       // Elastic only: nodes booted / retired.
  int64_t retired = 0;
  std::string canonical;  // Byte-comparable observable state (elastic).
};

ScenarioResult RunScenario(bool elastic, int decision_threads, bool smoke) {
  ScenarioResult result;

  ControllerOptions options;
  options.decision.solver = SolverChoice::kGrasp;
  options.decision.grasp_threads = decision_threads;
  // Same container-scaling ceiling for both fleets: 6 replicas per function
  // is 12 containers at 2 vCPU each -- exactly the 6-node static fleet's
  // capacity, so "peak-sized" is literal and the fleets differ only in how
  // they pay for the medium and trough phases.
  options.max_scale = kStaticNodes;
  PlatformConfig config;
  config.pricing = PricingProfile::PerMillisecond();
  config.node_cpu = kNodeCpu;
  config.node_memory_mb = kNodeMemoryMb;
  if (elastic) {
    config.autoscaler.enabled = true;
    config.autoscaler.min_nodes = 1;
    config.autoscaler.max_nodes = kStaticNodes;
    config.autoscaler.warm_pool = 1;
    config.autoscaler.evaluate_interval = Milliseconds(250);
    config.autoscaler.provisioning_delay = Seconds(1);
    config.autoscaler.scale_down_idle_ticks = 4;  // ~1 s of surplus per shed.
  } else {
    config.max_nodes = kStaticNodes;
  }
  Env env(options, config);

  const Status registered = env.controller.RegisterWorkflow(ScaleApp());
  if (!registered.ok()) {
    std::printf("FAIL: register: %s\n", registered.ToString().c_str());
    return result;
  }
  // The monitor must run for the whole phased load: node samples are both
  // the billing evidence (InfraCostFromNodes) and the determinism log.
  env.controller.StartProfiling();

  OpenLoopGenerator generator;
  OpenLoopGenerator::PhasedOptions phased;
  phased.poisson = true;
  phased.seed = 17;
  // Warmup runs at the first phase's rate: the elastic fleet ramps to peak
  // capacity before measurement starts, so scale-up cold nodes are not
  // billed against the peak phase's tail.
  phased.warmup = Seconds(10);
  const SimDuration phase_len = smoke ? Seconds(12) : Seconds(30);
  phased.phases = {{"peak", 400.0, phase_len, Json::MakeObject(), nullptr},
                   {"medium", 90.0, phase_len, Json::MakeObject(), nullptr},
                   {"trough", 15.0, phase_len, Json::MakeObject(), nullptr}};
  const std::vector<PhaseResult> load = generator.RunPhased(&env.sim, &env.platform, kRoot, phased);
  env.controller.StopProfiling();

  // Engage the decision engine: a real solve under each thread setting.
  const Result<MergeSolution> solution = env.controller.OptimizeWorkflow(kRoot);
  if (!solution.ok()) {
    std::printf("FAIL: optimize: %s\n", solution.status().ToString().c_str());
    return result;
  }

  for (size_t i = 0; i < load.size(); ++i) {
    PhaseRow row;
    row.name = load[i].name;
    row.rps = phased.phases[i].rps;
    row.completed = load[i].result.completed;
    row.failed = load[i].result.failed;
    row.p50 = load[i].result.latency.Median();
    row.p99 = load[i].result.latency.P99();
    result.phases.push_back(row);
  }

  // Everything observability flows through the controller's metrics view.
  MetricsView metrics = env.controller.metrics();
  const QuiltController::CostReport report = metrics.CollectCostReport();
  result.infra_nanos = report.infra_nanos;
  result.infra_idle_nanos = report.infra_idle_nanos;

  std::string canonical;
  for (const PhaseRow& row : result.phases) {
    StrAppend(&canonical, row.name, " completed=", row.completed, " failed=", row.failed,
              " p50=", row.p50, " p99=", row.p99, "\n");
  }
  for (const NodeSample& sample : metrics.node_samples()) {
    StrAppend(&canonical, NodeSampleLine(sample), "\n");
  }
  if (const NodeAutoscaler* autoscaler = env.platform.autoscaler()) {
    result.provisioned = autoscaler->provisioned_total();
    result.retired = autoscaler->retired_total();
    for (const AutoscaleEvent& event : autoscaler->events()) {
      StrAppend(&canonical, AutoscaleEventLine(event), "\n");
    }
  }
  result.canonical = std::move(canonical);
  result.ok = true;
  return result;
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

  const double idle_cut_floor = 0.30;
  const double p99_tolerance = 0.05;

  PrintHeader(StrCat(
      "Elastic autoscaler vs a peak-sized static fleet (", kStaticNodes,
      " nodes) under phased\nload: paid-but-idle node dollars and per-phase p99"));

  const ScenarioResult fixed = RunScenario(/*elastic=*/false, /*decision_threads=*/1, smoke);
  const ScenarioResult auto1 = RunScenario(/*elastic=*/true, /*decision_threads=*/1, smoke);
  if (!fixed.ok || !auto1.ok) {
    return 1;
  }

  std::printf("%-8s | %6s | %-7s %9s %9s %10s %10s\n", "phase", "rps", "fleet", "requests",
              "failed", "p50", "p99");
  bool p99_ok = true;
  for (size_t i = 0; i < fixed.phases.size(); ++i) {
    const PhaseRow& s = fixed.phases[i];
    const PhaseRow& a = auto1.phases[i];
    std::printf("%-8s | %6s | %-7s %9lld %9lld %10s %10s\n", s.name.c_str(),
                FormatDouble(s.rps, 0).c_str(), "static", static_cast<long long>(s.completed),
                static_cast<long long>(s.failed), FormatDuration(s.p50).c_str(),
                FormatDuration(s.p99).c_str());
    std::printf("%-8s | %6s | %-7s %9lld %9lld %10s %10s\n", "", "", "elastic",
                static_cast<long long>(a.completed), static_cast<long long>(a.failed),
                FormatDuration(a.p50).c_str(), FormatDuration(a.p99).c_str());
    const bool within =
        static_cast<double>(a.p99) <= static_cast<double>(s.p99) * (1.0 + p99_tolerance);
    p99_ok = p99_ok && within && a.failed == 0;
  }

  const double idle_cut =
      fixed.infra_idle_nanos > 0
          ? 1.0 - static_cast<double>(auto1.infra_idle_nanos) /
                      static_cast<double>(fixed.infra_idle_nanos)
          : 0.0;
  std::printf("\n%-8s %14s %14s %12s\n", "fleet", "node $", "idle $", "idle share");
  std::printf("%-8s %14s %14s %12s\n", "static", FormatNanodollars(fixed.infra_nanos).c_str(),
              FormatNanodollars(fixed.infra_idle_nanos).c_str(),
              FormatDouble(fixed.infra_nanos > 0
                               ? static_cast<double>(fixed.infra_idle_nanos) /
                                     static_cast<double>(fixed.infra_nanos)
                               : 0.0,
                           3)
                  .c_str());
  std::printf("%-8s %14s %14s %12s   (provisioned %lld, retired %lld)\n", "elastic",
              FormatNanodollars(auto1.infra_nanos).c_str(),
              FormatNanodollars(auto1.infra_idle_nanos).c_str(),
              FormatDouble(auto1.infra_nanos > 0
                               ? static_cast<double>(auto1.infra_idle_nanos) /
                                     static_cast<double>(auto1.infra_nanos)
                               : 0.0,
                           3)
                  .c_str(),
              static_cast<long long>(auto1.provisioned), static_cast<long long>(auto1.retired));
  std::printf("idle-dollar cut: %s%% (floor %s%%)\n", FormatDouble(100.0 * idle_cut, 1).c_str(),
              FormatDouble(100.0 * idle_cut_floor, 0).c_str());

  // Determinism: the elastic run's observable state must not depend on how
  // many threads the decision engine uses.
  if (std::getenv("FIG_AUTOSCALE_EVENTS") != nullptr) {
    std::printf("%s", auto1.canonical.c_str());
  }
  const ScenarioResult auto2 = RunScenario(/*elastic=*/true, /*decision_threads=*/2, smoke);
  const ScenarioResult auto8 = RunScenario(/*elastic=*/true, /*decision_threads=*/8, smoke);
  if (!auto2.ok || !auto8.ok) {
    return 1;
  }
  const bool deterministic =
      auto1.canonical == auto2.canonical && auto1.canonical == auto8.canonical;
  std::printf("determinism across decision_threads {1,2,8}: %s\n",
              deterministic ? "byte-identical" : "DIVERGED");

  bool failed = false;
  if (!deterministic) {
    std::printf("FAIL: elastic run diverged across decision_threads.\n");
    failed = true;
  }
  if (!p99_ok) {
    std::printf("FAIL: elastic p99 exceeded the static fleet's by more than %.0f%% "
                "(or requests failed).\n",
                100.0 * p99_tolerance);
    failed = true;
  }
  if (idle_cut < idle_cut_floor) {
    std::printf("FAIL: idle-dollar cut %.1f%% is below the %.0f%% floor.\n", 100.0 * idle_cut,
                100.0 * idle_cut_floor);
    failed = true;
  }
  if (failed) {
    return 1;
  }
  std::printf("OK: the autoscaler cuts idle node dollars at equal-or-better tail latency.\n");

  return 0;
}
