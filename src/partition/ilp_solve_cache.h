// Memoization of Phase-2 ILP solves (§4.2/§4.3 inner loop).
//
// The k-sweep of the heuristic solver, the draws and refinement scans of
// GRASP, multi-start GRASP, and above all *recurring* decisions (the merge
// monitor re-runs Decide on every reconsideration, Fusionize/Konflux-style)
// repeatedly pose Phase-2 ILPs for overlapping (problem, root set) pairs.
// This cache keys a solve by a canonical encoding of
// (problem fingerprint, sorted root set, mip_gap, node budget) and stores the
// cutoff-free outcome — feasible solution or infeasibility — so any later
// query with any cutoff can be answered from the entry.
//
// Thread-safe (one mutex around an LruCache; entries are small).
#ifndef SRC_PARTITION_ILP_SOLVE_CACHE_H_
#define SRC_PARTITION_ILP_SOLVE_CACHE_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/lru_cache.h"
#include "src/graph/call_graph.h"
#include "src/partition/problem.h"

namespace quilt {

class IlpSolveCache {
 public:
  struct Entry {
    bool feasible = false;
    MergeSolution solution;  // Meaningful only when feasible.
  };

  struct Stats {
    int64_t lookups = 0;
    int64_t hits = 0;
    int64_t insertions = 0;
    int64_t evictions = 0;
    double hit_rate() const {
      return lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups) : 0.0;
    }
  };

  explicit IlpSolveCache(size_t capacity = 4096);

  // Canonical key: fingerprint, sorted roots, and the solve knobs that shape
  // the result. The cutoff is deliberately absent (see file comment).
  static std::string Key(uint64_t problem_fingerprint, std::vector<NodeId> roots,
                         double mip_gap, int64_t max_nodes);

  std::optional<Entry> Lookup(const std::string& key);
  // Concurrent starts can race to compute the same key; values are pure
  // functions of the key, so a repeated insert stores an equal value.
  void Insert(const std::string& key, Entry entry);
  void Clear();

  size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  LruCache<std::string, Entry> lru_;
  Stats stats_;  // Evictions are read from lru_.
};

}  // namespace quilt

#endif  // SRC_PARTITION_ILP_SOLVE_CACHE_H_
