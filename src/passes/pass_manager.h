// Uniform pass interface + pipeline runner for Quilt's IR passes (§5.2).
//
// The five passes (RenameFunc, MergeFunc, DelayHTTP, DCE, ImplibWrap) are
// implemented as free functions with pass-specific option structs. A Pass
// wraps one configured invocation behind a common Run(IrModule&) interface
// so the compile service can assemble pipelines declaratively, and the
// PassManager runs a pipeline while
//   - recording per-pass wall-clock timing and PassStats in order, and
//   - (opt-in) running IrModule::Verify() after every pass, so a pass that
//     corrupts the module is diagnosed at the offending pass instead of at
//     the single end-of-pipeline verify rounds later.
#ifndef SRC_PASSES_PASS_MANAGER_H_
#define SRC_PASSES_PASS_MANAGER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/ir/ir_module.h"
#include "src/passes/dce.h"
#include "src/passes/merge_func.h"
#include "src/passes/pass.h"

namespace quilt {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const std::string& name() const = 0;
  virtual Result<PassStats> Run(IrModule& module) = 0;
};

// Adapters over the existing free-function passes. Each factory captures the
// pass's options at construction; Run applies them to the given module.
std::unique_ptr<Pass> MakeRenameFuncPass(std::string suffix);
std::unique_ptr<Pass> MakeMergeFuncPass(MergeFuncOptions options);

// Generic adapter: wraps any Result<PassStats>(IrModule&) callable. Used by
// tests to inject corrupting/counting passes and by callers with one-off
// transformations.
std::unique_ptr<Pass> MakeFunctionPass(std::string name,
                                       std::function<Result<PassStats>(IrModule&)> fn);

// Which of the post-merge optimization passes to run (§5.2 steps 6-10).
// Mirrors the QuiltcOptions toggles; the quiltc layer maps one onto the
// other so the pipeline shape is decided here, next to the passes.
struct PostMergePipelineOptions {
  bool delay_http = true;
  bool dce = true;
  bool implib_wrap = true;
  std::vector<std::string> dce_extra_roots;  // e.g. the merged scaffold main.
};

struct PassManagerOptions {
  // Run IrModule::Verify() after every pass; a failure is attributed to the
  // pass that just ran ("after pass 'X': ...").
  bool verify_each_pass = false;
};

class PassManager {
 public:
  explicit PassManager(PassManagerOptions options = {}) : options_(options) {}

  PassManager(PassManager&&) = default;
  PassManager& operator=(PassManager&&) = default;

  void Add(std::unique_ptr<Pass> pass) { passes_.push_back(std::move(pass)); }
  size_t num_passes() const { return passes_.size(); }
  std::vector<std::string> pass_names() const;

  // Runs every pass in order against `module`. Each pass's PassStats (with
  // wall_ms filled) is appended to `stats_out` (when non-null) as it
  // completes, so on error the stats of the passes that already ran are
  // still there. Stops at the first failing pass or failing verify.
  Status Run(IrModule& module, std::vector<PassStats>* stats_out = nullptr);

  const PassManagerOptions& options() const { return options_; }

 private:
  PassManagerOptions options_;
  std::vector<std::unique_ptr<Pass>> passes_;
};

// The post-merge optimization pipeline in canonical order: DelayHTTP ->
// DCE/debloat -> ImplibWrap, honoring the toggles.
PassManager BuildPostMergePipeline(const PostMergePipelineOptions& pipeline);

}  // namespace quilt

#endif  // SRC_PASSES_PASS_MANAGER_H_
