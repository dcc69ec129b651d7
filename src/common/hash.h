// FNV-1a over 64-bit words: the content hash behind merge-problem
// fingerprints (src/partition) and compile fingerprints (src/quiltc).
#ifndef SRC_COMMON_HASH_H_
#define SRC_COMMON_HASH_H_

#include <cstdint>

namespace quilt {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

// One FNV-1a step that folds a whole 64-bit word.
inline uint64_t MixWord(uint64_t hash, uint64_t word) {
  hash ^= word;
  hash *= 0x100000001b3ull;
  return hash;
}

}  // namespace quilt

#endif  // SRC_COMMON_HASH_H_
