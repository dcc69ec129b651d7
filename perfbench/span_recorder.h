// Host-time spans recorded by the benchmark around its calls into the Quilt
// modules. Nothing here reaches inside src/: a span brackets one public call
// (Platform::Invoke, DecisionEngine::Decide, CompileService::MergeSolution,
// ...), is tagged with the module ("layer") that owns the call and with the
// benchmark section that made it, and nests under whatever span was open
// when it began. A layer's self time is its spans' durations minus the part
// covered by their child spans.
//
// Spans live in memory while the benchmark runs and are written out as JSON
// lines when it ends. With no recorder (the untraced run) every ScopedSpan is
// a no-op that reads no clock.
#ifndef PERFBENCH_SPAN_RECORDER_H_
#define PERFBENCH_SPAN_RECORDER_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    const char* name;   // Static string: the call the span brackets.
    const char* layer;  // Module that owns the call.
    int section;        // Index into sections_.
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // Index of the enclosing span, -1 at top level.
  };

  // One reading of the traced run's simulation probe.
  struct ProbeSample {
    int64_t sim_ns;  // Simulated time of the reading.
    double slice_host_ms;  // Host ms since the previous reading.
    int64_t pending_events;
    int containers;
    int spawn_queue;
    int nodes;
  };

  SpanRecorder() : origin_ns_(NowNs()) {}

  void AddProbe(const ProbeSample& sample) { probes_.push_back({section_, sample}); }

  // Later spans are attributed to `section` (e.g. "saturated", "decide").
  void SetSection(const std::string& section) {
    for (size_t i = 0; i < sections_.size(); ++i) {
      if (sections_[i] == section) {
        section_ = static_cast<int>(i);
        return;
      }
    }
    sections_.push_back(section);
    section_ = static_cast<int>(sections_.size()) - 1;
  }

  int Begin(const char* name, const char* layer) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, layer, section_, NowNs(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    if (!stack_.empty() && stack_.back() == id) {
      stack_.pop_back();
    }
  }

  // Self time in ms per (section, layer).
  std::map<std::pair<std::string, std::string>, double> SelfMs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
      }
    }
    std::map<std::pair<std::string, std::string>, double> self;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      const int64_t own = span.end_ns - span.start_ns - child_ns[i];
      self[{SectionName(span.section), span.layer}] += static_cast<double>(own) / 1e6;
    }
    return self;
  }

  // One JSON object per span (name, layer, section, start/end in ns since
  // the recorder was created, the parent span's index), then one per probe
  // reading.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      return false;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(out,
                   "{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\",\"section\":\"%s\","
                   "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d}\n",
                   i, span.name, span.layer, SectionName(span.section).c_str(),
                   static_cast<long long>(span.start_ns - origin_ns_),
                   static_cast<long long>(span.end_ns - origin_ns_), span.parent);
    }
    for (const auto& [section, probe] : probes_) {
      std::fprintf(out,
                   "{\"probe\":true,\"section\":\"%s\",\"sim_ns\":%lld,"
                   "\"slice_host_ms\":%.6f,\"pending_events\":%lld,\"containers\":%d,"
                   "\"spawn_queue\":%d,\"nodes\":%d}\n",
                   SectionName(section).c_str(), static_cast<long long>(probe.sim_ns),
                   probe.slice_host_ms, static_cast<long long>(probe.pending_events),
                   probe.containers, probe.spawn_queue, probe.nodes);
    }
    return std::fclose(out) == 0;
  }

 private:
  std::string SectionName(int section) const {
    return section >= 0 ? sections_[static_cast<size_t>(section)] : std::string("none");
  }

  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<std::pair<int, ProbeSample>> probes_;  // (section, reading).
  std::vector<int> stack_;
  std::vector<std::string> sections_;
  int section_ = -1;
};

// Records one span for its lifetime when a recorder is present.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, const char* layer)
      : recorder_(recorder), id_(recorder != nullptr ? recorder->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_RECORDER_H_
