#include "src/partition/ilp_solve_cache.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace quilt {

IlpSolveCache::IlpSolveCache(size_t capacity) : lru_(capacity == 0 ? 1 : capacity) {}

std::string IlpSolveCache::Key(uint64_t problem_fingerprint, std::vector<NodeId> roots,
                               double mip_gap, int64_t max_nodes) {
  std::sort(roots.begin(), roots.end());
  std::string key = StrCat(problem_fingerprint, "|g", mip_gap, "|n", max_nodes, "|");
  for (NodeId r : roots) {
    key += StrCat(r, ",");
  }
  return key;
}

std::optional<IlpSolveCache::Entry> IlpSolveCache::Lookup(const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  const Entry* entry = lru_.Lookup(key);
  if (entry == nullptr) {
    return std::nullopt;
  }
  ++stats_.hits;
  return *entry;
}

void IlpSolveCache::Insert(const std::string& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lru_.Insert(key, std::move(entry))) {
    ++stats_.insertions;
  }
}

void IlpSolveCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.Clear();
  stats_ = Stats{};
}

size_t IlpSolveCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

IlpSolveCache::Stats IlpSolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats out = stats_;
  out.evictions = lru_.evictions();
  return out;
}

}  // namespace quilt
