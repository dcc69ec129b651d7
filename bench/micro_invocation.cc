// Microbenchmarks (google-benchmark): host-time costs of the payload,
// histogram and decision-machinery hot paths. The simulated local-vs-remote
// call cost behind the paper's headline claim (§1) is measured end to end by
// fig1_latency_breakdown; the event core by micro_eventloop.
#include <benchmark/benchmark.h>

#include "src/common/histogram.h"
#include "src/common/json.h"
#include "src/graph/descendants.h"
#include "src/graph/random_dag.h"
#include "src/ilp/ilp_solver.h"
#include "src/partition/ilp_encoding.h"
#include "src/partition/scorers.h"

namespace quilt {
namespace {

void BM_JsonPayloadRoundTrip(benchmark::State& state) {
  Json payload = Json::MakeObject();
  payload["user"] = "alice";
  payload["text"] = "a review body with some characters in it";
  payload["rating"] = 5;
  const std::string text = payload.Dump();
  for (auto _ : state) {
    Result<Json> parsed = Json::Parse(text);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_JsonPayloadRoundTrip);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram histogram;
  int64_t v = 1;
  for (auto _ : state) {
    histogram.Record(v);
    v = v * 1664525 + 1013904223;
    v &= 0xFFFFFFF;
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_DescendantAnalysis(benchmark::State& state) {
  Rng rng(1);
  RandomDagOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  const CallGraph graph = GenerateRandomRdag(options, rng);
  for (auto _ : state) {
    DescendantAnalysis analysis(graph);
    benchmark::DoNotOptimize(analysis.DownstreamCpu(0));
  }
}
BENCHMARK(BM_DescendantAnalysis)->Arg(50)->Arg(200)->Arg(800);

void BM_DihScoring(benchmark::State& state) {
  Rng rng(2);
  RandomDagOptions options;
  options.num_nodes = static_cast<int>(state.range(0));
  const CallGraph graph = GenerateRandomRdag(options, rng);
  MergeProblem problem{&graph, 100.0, 10000.0};
  DownstreamImpactScorer scorer;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scorer.Score(problem));
  }
}
BENCHMARK(BM_DihScoring)->Arg(50)->Arg(200)->Arg(800);

void BM_Phase2IlpSmall(benchmark::State& state) {
  Rng rng(3);
  RandomDagOptions options;
  options.num_nodes = 10;
  const CallGraph graph = GenerateRandomRdag(options, rng);
  double total_mem = 0.0;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    total_mem += graph.node(id).memory;
  }
  MergeProblem problem{&graph, 1e9, total_mem * 0.5};
  const std::vector<NodeId> roots = {graph.root(), 3, 7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveForRoots(problem, roots));
  }
}
BENCHMARK(BM_Phase2IlpSmall);

}  // namespace
}  // namespace quilt

BENCHMARK_MAIN();
