// Container resource monitoring (§3): the cAdvisor + InfluxDB substrate.
//
// A periodic sampler reads cumulative CPU time and memory of every container
// and appends the samples to a time-series store. Quilt aggregates per
// function: average CPU (vCPUs while active) and peak memory, the node
// labels of the call graph (§4.1).
#ifndef SRC_TRACING_RESOURCE_MONITOR_H_
#define SRC_TRACING_RESOURCE_MONITOR_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "src/common/adaptation_record.h"
#include "src/common/compile_record.h"
#include "src/common/cost_record.h"
#include "src/common/decision_record.h"
#include "src/common/node_record.h"
#include "src/sim/simulation.h"

namespace quilt {

struct ResourceSample {
  std::string handle;        // Deployment (function) the container serves.
  int64_t container_id = 0;
  SimTime timestamp = 0;
  double cpu_seconds_cum = 0.0;   // Cumulative vCPU-seconds (cgroup cpuacct).
  double busy_seconds_cum = 0.0;  // Wall-clock seconds with active work.
  double memory_mb = 0.0;
  double peak_memory_mb = 0.0;
};

// Per-workflow latency decomposition summary (§2's invocation-overhead
// motivation, measured): percentiles over the assembled traces of one
// profile window, per segment. Produced by SummarizeWorkflowLatency in
// src/tracing/trace_assembler.h and stored here so the decision loop can
// watch overhead share over time.
struct SegmentPercentiles {
  SimDuration p50 = 0;
  SimDuration p95 = 0;
  SimDuration p99 = 0;
  double mean = 0.0;   // Mean ns per trace.
  double share = 0.0;  // mean / mean end-to-end (1.0 for end_to_end itself).
};

struct WorkflowLatencySummary {
  std::string workflow;  // Root handle of the workflow.
  // Which deployment version's traces the summary covers: "all" (default),
  // "control" or "canary" (two-version routing during a canary guard window).
  std::string version = "all";
  SimTime timestamp = 0;
  int64_t traces = 0;     // Complete traces the summary aggregates.
  int64_t ok_traces = 0;  // Subset whose root span finished kOk.
  SegmentPercentiles end_to_end;
  SegmentPercentiles network;
  SegmentPercentiles gateway;
  SegmentPercentiles queueing;
  SegmentPercentiles cold_start;
  SegmentPercentiles compute;
  // Mean fraction of end-to-end latency spent outside compute -- the
  // number merging exists to shrink.
  double overhead_share = 0.0;
};

// Time-series storage ("InfluxDB"): append-only series in arrival order.
// Whole sampler ticks arrive via AddBatch, once per simulated second.
class MetricsStore {
 public:
  struct FunctionUsage {
    double avg_cpu = 0.0;         // vCPUs while executing.
    double peak_memory_mb = 0.0;  // Max container memory seen.
  };

  void Add(ResourceSample sample) { samples_.push_back(std::move(sample)); }
  // One sampler tick's worth of samples, appended as a unit.
  void AddBatch(std::vector<ResourceSample> batch);
  const std::vector<ResourceSample>& samples() const { return samples_; }
  // Per-worker-node utilization/stranding snapshots (§4, live node model),
  // sampled on the same tick as resources.
  void AddNode(NodeSample sample) { node_samples_.push_back(std::move(sample)); }
  void AddNodeBatch(std::vector<NodeSample> batch);
  const std::vector<NodeSample>& node_samples() const { return node_samples_; }
  // Decision telemetry (§4): one record per Decide/ReconsiderWorkflow run.
  void AddDecision(DecisionRecord record) { decisions_.push_back(std::move(record)); }
  const std::vector<DecisionRecord>& decisions() const { return decisions_; }
  // Latency decomposition (§3): one record per summarized profile window.
  void AddWorkflowLatency(WorkflowLatencySummary summary) {
    workflow_latency_.push_back(std::move(summary));
  }
  const std::vector<WorkflowLatencySummary>& workflow_latency() const {
    return workflow_latency_;
  }
  // Autopilot telemetry (§4.9): one record per adaptation event (state
  // transition, canary verdict, redeploy, rollback).
  void AddAdaptation(AdaptationRecord record) { adaptations_.push_back(std::move(record)); }
  const std::vector<AdaptationRecord>& adaptations() const { return adaptations_; }
  // Compile telemetry (§5): one record per artifact the CompileService
  // produced for a controller deploy/reconsider/canary/direct path.
  void AddCompile(CompileRecord record) { compiles_.push_back(std::move(record)); }
  const std::vector<CompileRecord>& compiles() const { return compiles_; }
  // Billing telemetry: one canonical per-handle bill line per
  // CollectCostReport call (billing engine).
  void AddCost(CostRecord record) { cost_records_.push_back(std::move(record)); }
  const std::vector<CostRecord>& cost_records() const { return cost_records_; }
  void Clear() {
    samples_.clear();
    node_samples_.clear();
    decisions_.clear();
    workflow_latency_.clear();
    adaptations_.clear();
    compiles_.clear();
    cost_records_.clear();
  }

  // Aggregates the latest sample of each container, per function handle.
  std::map<std::string, FunctionUsage> Aggregate() const;

 private:
  std::vector<ResourceSample> samples_;
  std::vector<NodeSample> node_samples_;
  std::vector<DecisionRecord> decisions_;
  std::vector<WorkflowLatencySummary> workflow_latency_;
  std::vector<AdaptationRecord> adaptations_;
  std::vector<CompileRecord> compiles_;
  std::vector<CostRecord> cost_records_;
};

// Periodic sampler ("cAdvisor"). The source callback snapshots all live
// containers; the platform provides it.
class ResourceMonitor {
 public:
  using SampleSource = std::function<std::vector<ResourceSample>()>;
  using NodeSource = std::function<std::vector<NodeSample>()>;

  ResourceMonitor(Simulation* sim, MetricsStore* store, SampleSource source,
                  SimDuration interval = Seconds(1));

  // Optional second source: per-worker-node snapshots (empty while the
  // platform runs the infinite pool, so enabling it costs nothing then).
  void set_node_source(NodeSource source) { node_source_ = std::move(source); }

  void Start();
  void Stop() { running_ = false; }
  bool running() const { return running_; }

 private:
  void Tick();

  Simulation* sim_;
  MetricsStore* store_;
  SampleSource source_;
  NodeSource node_source_;
  SimDuration interval_;
  bool running_ = false;
};

}  // namespace quilt

#endif  // SRC_TRACING_RESOURCE_MONITOR_H_
