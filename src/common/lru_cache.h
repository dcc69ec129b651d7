// A map with a fixed entry capacity that evicts the least recently used
// entry: a list in recency order plus a hash index into it. Not thread-safe;
// a cache shared across threads holds its own lock around it.
#ifndef SRC_COMMON_LRU_CACHE_H_
#define SRC_COMMON_LRU_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>

namespace quilt {

template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  // The cached value, which becomes the most recent entry; nullptr on a miss.
  // The pointer is valid until the next Insert or Clear.
  const Value* Lookup(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return nullptr;
    }
    entries_.splice(entries_.begin(), entries_, it->second);
    return &it->second->second;
  }

  // Stores `value` under `key` as the most recent entry, replacing the value
  // of an existing key, and evicts the least recent entries beyond capacity.
  // Returns whether the key was new.
  bool Insert(const Key& key, Value value) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return false;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
    while (entries_.size() > capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
    return true;
  }

  void Clear() {
    entries_.clear();
    index_.clear();
    evictions_ = 0;
  }

  size_t size() const { return entries_.size(); }
  int64_t evictions() const { return evictions_; }

 private:
  using Entries = std::list<std::pair<Key, Value>>;

  size_t capacity_;
  int64_t evictions_ = 0;
  Entries entries_;  // Front = most recently used.
  std::unordered_map<Key, typename Entries::iterator> index_;
};

}  // namespace quilt

#endif  // SRC_COMMON_LRU_CACHE_H_
