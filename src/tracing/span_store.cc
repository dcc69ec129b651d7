#include "src/tracing/span_store.h"

#include <algorithm>
#include <iterator>

namespace quilt {

namespace {

// Heterogeneous comparator for binary searches over the sorted span vector.
struct StartsBefore {
  bool operator()(const Span& span, SimTime t) const { return span.timestamp < t; }
  bool operator()(SimTime t, const Span& span) const { return t < span.timestamp; }
};

}  // namespace

void SpanStore::Add(Span span) {
  latest_start_ = std::max(latest_start_, span.timestamp);
  pending_.push_back(std::move(span));
}

void SpanStore::FlushPending() const {
  if (pending_.empty()) {
    return;
  }
  // Stable sort: equal timestamps keep arrival order, so platform tests can
  // index spans deterministically (same tie rule as the eager upper_bound
  // insert this replaces).
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Span& a, const Span& b) { return a.timestamp < b.timestamp; });
  const size_t old_size = spans_.size();
  spans_.reserve(old_size + pending_.size());
  std::move(pending_.begin(), pending_.end(), std::back_inserter(spans_));
  pending_.clear();
  if (old_size > 0 && spans_[old_size].timestamp < spans_[old_size - 1].timestamp) {
    // Out-of-order arrivals across the batch boundary (hand-built tests);
    // inplace_merge is stable, so earlier-arrived spans still precede
    // later-arrived ones on timestamp ties.
    std::inplace_merge(
        spans_.begin(), spans_.begin() + static_cast<std::ptrdiff_t>(old_size), spans_.end(),
        [](const Span& a, const Span& b) { return a.timestamp < b.timestamp; });
  }
  if (retention_ > 0 && latest_start_ - retention_ > spans_.front().timestamp) {
    const SimTime horizon = latest_start_ - retention_;
    auto keep = std::lower_bound(spans_.begin(), spans_.end(), horizon, StartsBefore{});
    evicted_ += keep - spans_.begin();
    spans_.erase(spans_.begin(), keep);
  }
}

std::vector<Span> SpanStore::Query(SimTime from, SimTime to) const {
  FlushPending();
  if (from >= to) {
    return {};
  }
  auto first = std::lower_bound(spans_.begin(), spans_.end(), from, StartsBefore{});
  auto last = std::lower_bound(first, spans_.end(), to, StartsBefore{});
  return std::vector<Span>(first, last);
}

}  // namespace quilt
