// Common result type for Quilt's IR passes (the equivalents of the paper's
// 1.8K lines of LLVM passes, §6).
#ifndef SRC_PASSES_PASS_H_
#define SRC_PASSES_PASS_H_

#include <cstdint>
#include <map>
#include <string>

namespace quilt {

struct PassStats {
  std::string pass_name;
  bool changed = false;
  // Real wall-clock the pass took, filled by the CompileService when it runs
  // the pass. Excluded from artifact signatures and records: it is the one
  // field that is NOT a pure function of the inputs.
  double wall_ms = 0.0;
  // Named counters, e.g. "calls_localized", "functions_removed".
  std::map<std::string, int64_t> counters;

  int64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it != counters.end() ? it->second : 0;
  }
};

}  // namespace quilt

#endif  // SRC_PASSES_PASS_H_
