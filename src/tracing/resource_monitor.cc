#include "src/tracing/resource_monitor.h"

#include <algorithm>
#include <iterator>

namespace quilt {

void MetricsStore::AddBatch(std::vector<ResourceSample> batch) {
  samples_.insert(samples_.end(), std::make_move_iterator(batch.begin()),
                  std::make_move_iterator(batch.end()));
}

void MetricsStore::AddNodeBatch(std::vector<NodeSample> batch) {
  node_samples_.insert(node_samples_.end(), std::make_move_iterator(batch.begin()),
                       std::make_move_iterator(batch.end()));
}

std::map<std::string, MetricsStore::FunctionUsage> MetricsStore::Aggregate() const {
  // Latest sample per (handle, container).
  struct Latest {
    double cpu = 0.0;
    double busy = 0.0;
    double peak_mem = 0.0;
  };
  std::map<std::pair<std::string, int64_t>, Latest> latest;
  for (const ResourceSample& sample : samples_) {
    Latest& entry = latest[{sample.handle, sample.container_id}];
    entry.cpu = std::max(entry.cpu, sample.cpu_seconds_cum);
    entry.busy = std::max(entry.busy, sample.busy_seconds_cum);
    entry.peak_mem = std::max(entry.peak_mem, sample.peak_memory_mb);
  }
  std::map<std::string, FunctionUsage> result;
  std::map<std::string, std::pair<double, double>> totals;  // handle -> (cpu, busy)
  for (const auto& [key, entry] : latest) {
    const std::string& handle = key.first;
    totals[handle].first += entry.cpu;
    totals[handle].second += entry.busy;
    result[handle].peak_memory_mb = std::max(result[handle].peak_memory_mb, entry.peak_mem);
  }
  for (auto& [handle, usage] : result) {
    const auto& [cpu, busy] = totals[handle];
    usage.avg_cpu = busy > 0.0 ? cpu / busy : 0.0;
  }
  return result;
}

ResourceMonitor::ResourceMonitor(Simulation* sim, MetricsStore* store, SampleSource source,
                                 SimDuration interval)
    : sim_(sim), store_(store), source_(std::move(source)), interval_(interval) {}

void ResourceMonitor::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  Tick();
}

void ResourceMonitor::Tick() {
  if (!running_) {
    return;
  }
  // Each tick hands its whole sample vector to the store as one batch.
  store_->AddBatch(source_());
  if (node_source_) {
    store_->AddNodeBatch(node_source_());
  }
  sim_->Schedule(interval_, [this] { Tick(); });
}

}  // namespace quilt
