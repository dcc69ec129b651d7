// Billing engine λ sweep: dollars per million requests vs workflow latency
// as the decision objective slides from pure latency (λ = 1, the seed
// objective) to pure cost (λ = 0) under a provider rate card.
//
// Workload: a three-function workflow that cannot merge whole under the
// container memory limit, so every plan must cut one edge:
//   root -> fastpath   every request, ~0.05 ms of compute;
//   root -> renderer   90% of requests (payload-dependent), ~80 ms, mostly
//                      fake-DB wait.
// Latency-only cuts the lighter edge (renderer): remote-invoking the long
// function double-bills its 80 ms window -- the caller's container is
// blocked-and-billed during the sync call whether it is local or remote,
// and the remote callee bills the same 80 ms again in its own container.
// The cost-aware objective cuts the fastpath edge instead: its remote
// window rounds up to the 1 ms billing granularity, a tiny waste next to
// 80 ms. The sweep measures the live bill of each plan with the CostMeter.
//
// Checks (exit non-zero on violation):
//   * integer exactness: the per-handle CostRecords sum to the meter's
//     aggregate bill, attempt for attempt and nanodollar for nanodollar,
//     and each record's fee + compute subtotals equal its total;
//   * Pareto: some λ < 1 strictly reduces $/1M requests vs λ = 1 while p99
//     stays within `p99_tolerance` of the λ = 1 plan.
//
// Flags:
//   --smoke           fewer λ points and shorter runs (CI); same checks.
#include <cstring>

#include "bench/bench_util.h"
#include "src/billing/cost_meter.h"

namespace quilt {
namespace bench {
namespace {

constexpr char kRoot[] = "cost-root";
constexpr char kFastpath[] = "cost-fastpath";
constexpr char kRenderer[] = "cost-renderer";

// ~0.9 calls per request: the renderer call count comes from the payload
// field "num" (CallItem.data_dependent), drawn 1 with probability 0.9.
Json DrawPayload(Rng& rng) {
  Json payload = Json::MakeObject();
  payload["num"] = rng.Bernoulli(0.9) ? 1 : 0;
  return payload;
}

WorkflowApp CostSweepApp() {
  WorkflowApp app;
  app.name = "cost-sweep";
  app.root_handle = kRoot;

  AppFunctionSpec root;
  root.handle = kRoot;
  root.request_memory_mb = 10.0;
  root.steps = {ComputeStep{0.3}, CallStep{{{kFastpath, 1, false}}, false},
                CallStep{{{kRenderer, 1, true}}, false}};
  app.functions.push_back(root);

  AppFunctionSpec fastpath;
  fastpath.handle = kFastpath;
  fastpath.request_memory_mb = 55.0;
  fastpath.steps = {ComputeStep{0.05}};
  app.functions.push_back(fastpath);

  AppFunctionSpec renderer;
  renderer.handle = kRenderer;
  renderer.request_memory_mb = 55.0;
  renderer.steps = {ComputeStep{6.0}, SleepStep{74.0}};
  app.functions.push_back(renderer);
  return app;
}

LoadResult RunLoad(Env& env, double rps, SimDuration duration, SimDuration warmup) {
  OpenLoopGenerator generator;
  OpenLoopGenerator::Options options;
  options.rps = rps;
  options.warmup = warmup;
  options.duration = duration;
  options.payload_fn = DrawPayload;
  return generator.Run(&env.sim, &env.platform, kRoot, options);
}

// Which edges the plan cuts, e.g. "root->fastpath" -- the bench's one-line
// description of a decision.
std::string CutEdges(const CallGraph& graph, const MergeSolution& solution) {
  std::string cuts;
  for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
    const CallEdge& edge = graph.edge(eid);
    bool local = false;
    for (const MergeGroup& group : solution.groups) {
      if (group.Contains(edge.from) && group.Contains(edge.to)) {
        local = true;
        break;
      }
    }
    if (!local) {
      StrAppend(&cuts, cuts.empty() ? "" : ", ", graph.node(edge.from).name, "->",
                graph.node(edge.to).name);
    }
  }
  return cuts.empty() ? "(none)" : cuts;
}

// The meter's aggregate bill must equal the sum of its per-handle records
// exactly -- nanodollar for nanodollar, attempt for attempt. Every charge is
// an int64 added to both sides, so any drift is a real accounting bug.
bool CheckExactSum(CostMeter& meter) {
  int64_t sum_nanos = 0;
  int64_t sum_attempts = 0;
  for (const CostRecord& record : meter.Records()) {
    if (record.request_fee_nanos + record.compute_nanos != record.total_nanos) {
      std::printf("FAIL: record %s: fee %lld + compute %lld != total %lld\n",
                  record.handle.c_str(), static_cast<long long>(record.request_fee_nanos),
                  static_cast<long long>(record.compute_nanos),
                  static_cast<long long>(record.total_nanos));
      return false;
    }
    sum_nanos += record.total_nanos;
    sum_attempts += record.attempts;
  }
  if (sum_nanos != meter.TotalNanos() || sum_attempts != meter.TotalAttempts()) {
    std::printf("FAIL: record sums (%lld nanos, %lld attempts) != aggregate "
                "(%lld nanos, %lld attempts)\n",
                static_cast<long long>(sum_nanos), static_cast<long long>(sum_attempts),
                static_cast<long long>(meter.TotalNanos()),
                static_cast<long long>(meter.TotalAttempts()));
    return false;
  }
  return true;
}

struct SweepRow {
  double lambda = 1.0;
  std::string cuts;
  int groups = 0;
  int64_t completed = 0;
  int64_t attempts = 0;
  int64_t total_nanos = 0;
  double dollars_per_million = 0.0;
  int64_t p99 = 0;
  bool exact = false;
};

SweepRow RunLambda(double lambda, const PricingProfile& card, double profile_rps, double rps,
                   SimDuration profile_duration, SimDuration measure_duration) {
  SweepRow row;
  row.lambda = lambda;

  ControllerOptions options;
  options.container_cpu_limit = 4.0;
  options.container_memory_limit_mb = 100.0;
  options.cost.cost_weight = lambda;
  options.cost.profile = card;
  PlatformConfig config;
  config.pricing = card;
  Env env(options, config);

  Status registered = env.controller.RegisterWorkflow(CostSweepApp());
  if (!registered.ok()) {
    std::printf("FAIL: register: %s\n", registered.ToString().c_str());
    return row;
  }

  // Profile -> decide (blended objective) -> merge -> deploy. Profiling
  // runs at low rps (~1 request in flight) so the measured cpu/memory node
  // labels are per-request, not inflated by concurrent requests sharing a
  // container.
  env.controller.StartProfiling();
  RunLoad(env, profile_rps, profile_duration, Seconds(5));
  env.controller.StopProfiling();
  Result<CallGraph> graph = env.controller.BuildCallGraph(kRoot);
  Result<MergeSolution> solution = env.controller.OptimizeWorkflow(kRoot);
  if (!graph.ok() || !solution.ok()) {
    std::printf("FAIL: optimize at lambda %.2f: %s\n", lambda,
                (graph.ok() ? solution.status() : graph.status()).ToString().c_str());
    return row;
  }
  row.groups = solution->num_groups();
  row.cuts = CutEdges(*graph, *solution);

  // Measure the deployed plan's live bill from a clean meter (the profiling
  // phase's spend belongs to the baseline deployment, not this plan).
  env.platform.cost_meter().Clear();
  const LoadResult measured = RunLoad(env, rps, measure_duration, Seconds(2));
  row.completed = measured.completed;
  row.p99 = measured.latency.P99();
  row.exact = CheckExactSum(env.platform.cost_meter());

  const QuiltController::CostReport report = env.controller.metrics().CollectCostReport();
  row.total_nanos = report.invocation_nanos;
  row.attempts = report.invocation_attempts;
  if (measured.completed > 0) {
    row.dollars_per_million = static_cast<double>(report.invocation_nanos) * 1e-9 /
                              static_cast<double>(measured.completed) * 1e6;
  }
  return row;
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

  const PricingProfile card = PricingProfile::PerMillisecond();
  const double profile_rps = 4.0;
  const double rps = smoke ? 50.0 : 100.0;
  const SimDuration profile_duration = smoke ? Seconds(20) : Seconds(40);
  const SimDuration measure_duration = smoke ? Seconds(10) : Seconds(20);
  const double p99_tolerance = 0.25;
  const std::vector<double> lambdas =
      smoke ? std::vector<double>{1.0, 0.5, 0.0}
            : std::vector<double>{1.0, 0.75, 0.5, 0.25, 0.0};

  PrintHeader(StrCat(
      "Billing λ sweep: $/1M requests vs p99 as the objective blends\n"
      "λ·latency + (1-λ)·$ (rate card '", card.name, "', ", FormatDouble(rps, 0),
      " rps open loop)"));

  std::printf("%-6s | %-30s %3s | %9s %9s | %12s %10s | %s\n", "lambda", "cut edges", "grp",
              "requests", "attempts", "$/1M req", "p99", "exact-sum");

  std::vector<SweepRow> rows;
  bool all_exact = true;
  for (double lambda : lambdas) {
    const SweepRow row =
        RunLambda(lambda, card, profile_rps, rps, profile_duration, measure_duration);
    if (row.completed == 0) {
      return 1;  // RunLambda already printed the FAIL line.
    }
    all_exact = all_exact && row.exact;
    std::printf("%-6s | %-30s %3d | %9lld %9lld | %12s %10s | %s\n",
                FormatDouble(row.lambda, 2).c_str(), row.cuts.c_str(), row.groups,
                static_cast<long long>(row.completed), static_cast<long long>(row.attempts),
                FormatDouble(row.dollars_per_million, 2).c_str(),
                FormatDuration(row.p99).c_str(), row.exact ? "ok" : "VIOLATED");

    rows.push_back(row);
  }

  if (!all_exact) {
    std::printf("FAIL: per-invocation costs do not sum exactly to the aggregate bill.\n");
    return 1;
  }

  // Pareto check: λ = 1 is the seed objective; some λ < 1 must buy a
  // strictly cheaper plan without giving up more than p99_tolerance of tail
  // latency.
  const SweepRow& base = rows.front();
  bool pareto = false;
  for (const SweepRow& row : rows) {
    if (row.lambda < 1.0 && row.dollars_per_million < base.dollars_per_million &&
        static_cast<double>(row.p99) <=
            static_cast<double>(base.p99) * (1.0 + p99_tolerance)) {
      pareto = true;
    }
  }
  std::printf(
      "\nShape check: λ = 1 reproduces the latency-only plan; lowering λ must find a\n"
      "plan that bills strictly less per request with p99 within %.0f%% of it.\n",
      100.0 * p99_tolerance);
  if (!pareto) {
    std::printf("FAIL: no λ < 1 reduced $/1M requests within the p99 tolerance.\n");
    return 1;
  }
  std::printf("OK: cost-aware decisions trade within the stated p99 tolerance.\n");

  return 0;
}
