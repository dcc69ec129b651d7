// Trace collection pipeline (§3, Figure 2): the ingress's OpenTelemetry
// module batches spans and periodically exports them to the span store
// (Grafana Tempo in the paper), which Quilt later queries.
#ifndef SRC_TRACING_TRACER_H_
#define SRC_TRACING_TRACER_H_

#include <vector>

#include "src/sim/simulation.h"
#include "src/tracing/span.h"

namespace quilt {

// Queryable span storage ("Tempo"). The write path is a plain O(1) append
// into a pending buffer; ordering work (sort by start timestamp, stable on
// ties by arrival, plus retention eviction) is deferred to the first read
// and amortized over the whole batch — ingest never pays a per-span binary
// search or mid-vector insert. Reads observe exactly the same sorted store
// the eager implementation produced, so range queries stay binary searches.
class SpanStore {
 public:
  void Add(Span span);
  const std::vector<Span>& spans() const {
    FlushPending();
    return spans_;
  }
  // Spans with start timestamp in [from, to).
  std::vector<Span> Query(SimTime from, SimTime to) const;
  void Clear() {
    spans_.clear();
    pending_.clear();
  }
  // Folds pending spans first so retention eviction is reflected, exactly
  // as the eager write path reported it.
  int64_t size() const {
    FlushPending();
    return static_cast<int64_t>(spans_.size());
  }

  // Optional retention horizon: spans whose start timestamp has fallen more
  // than `horizon` behind the newest start seen are evicted (Tempo's block
  // retention), applied when the pending buffer is folded in. 0 = keep
  // everything.
  void set_retention_window(SimDuration horizon) { retention_ = horizon; }
  SimDuration retention_window() const { return retention_; }
  int64_t evicted() const {
    FlushPending();
    return evicted_;
  }

 private:
  // Folds pending_ into the sorted store: stable sort (ties keep arrival
  // order), merge, then retention eviction. Conceptually const — reads see
  // the same state the eager write path maintained.
  void FlushPending() const;

  mutable std::vector<Span> spans_;    // Sorted by start timestamp.
  mutable std::vector<Span> pending_;  // Unsorted write buffer.
  SimDuration retention_ = 0;
  SimTime latest_start_ = 0;
  mutable int64_t evicted_ = 0;
};

// Batching exporter ("otel-collector"): spans buffer locally and flush to
// the store on a timer, like the paper's periodic batched export. The
// destructor flushes, so run teardown never strands the final batch in the
// buffer.
class Tracer {
 public:
  Tracer(Simulation* sim, SpanStore* store, SimDuration batch_interval = Seconds(1));
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void Record(Span span);
  // Force-export everything buffered (used before querying mid-run).
  void Flush();

  int64_t recorded() const { return recorded_; }

 private:
  void ScheduleFlush();

  Simulation* sim_;
  SpanStore* store_;
  SimDuration batch_interval_;
  std::vector<Span> buffer_;
  bool flush_scheduled_ = false;
  int64_t recorded_ = 0;
};

}  // namespace quilt

#endif  // SRC_TRACING_TRACER_H_
