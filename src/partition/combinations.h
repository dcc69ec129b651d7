// Enumeration of k-combinations, used by the root-set sweep of the exact and
// DIH merge decisions to walk candidate root sets (§4.2 Phase 1).
#ifndef SRC_PARTITION_COMBINATIONS_H_
#define SRC_PARTITION_COMBINATIONS_H_

#include <cstdint>
#include <vector>

namespace quilt {

// Invokes fn(indices) for every k-combination of {0, ..., n-1} in
// lexicographic order; fn returns false to abort enumeration early.
// Returns false if enumeration was aborted.
template <typename Fn>
bool ForEachCombination(int n, int k, Fn&& fn) {
  if (k < 0 || k > n) {
    return true;
  }
  std::vector<int> indices(k);
  for (int i = 0; i < k; ++i) {
    indices[i] = i;
  }
  while (true) {
    if (!fn(static_cast<const std::vector<int>&>(indices))) {
      return false;
    }
    // Advance to the next combination.
    int i = k - 1;
    while (i >= 0 && indices[i] == n - k + i) {
      --i;
    }
    if (i < 0) {
      return true;
    }
    ++indices[i];
    for (int j = i + 1; j < k; ++j) {
      indices[j] = indices[j - 1] + 1;
    }
  }
}

// C(n, k) with saturation to avoid overflow.
int64_t BinomialCoefficient(int n, int k);

}  // namespace quilt

#endif  // SRC_PARTITION_COMBINATIONS_H_
