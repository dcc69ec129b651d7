// Span storage (§3, Figure 2): the store the paper's ingress exports spans to
// (Grafana Tempo there), which Quilt later queries. The platform appends each
// traced invocation's span when the invocation answers.
#ifndef SRC_TRACING_SPAN_STORE_H_
#define SRC_TRACING_SPAN_STORE_H_

#include <cstdint>
#include <vector>

#include "src/common/sim_time.h"
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

}  // namespace quilt

#endif  // SRC_TRACING_SPAN_STORE_H_
