#include "src/passes/pass_manager.h"

#include <chrono>
#include <utility>

#include "src/common/strings.h"
#include "src/passes/delay_http.h"
#include "src/passes/implib_wrap.h"
#include "src/passes/rename_func.h"

namespace quilt {

namespace {

// All adapters share this shape: a name plus a callable over the module.
class FunctionPass final : public Pass {
 public:
  FunctionPass(std::string name, std::function<Result<PassStats>(IrModule&)> fn)
      : name_(std::move(name)), fn_(std::move(fn)) {}

  const std::string& name() const override { return name_; }
  Result<PassStats> Run(IrModule& module) override { return fn_(module); }

 private:
  std::string name_;
  std::function<Result<PassStats>(IrModule&)> fn_;
};

}  // namespace

std::unique_ptr<Pass> MakeFunctionPass(std::string name,
                                       std::function<Result<PassStats>(IrModule&)> fn) {
  return std::make_unique<FunctionPass>(std::move(name), std::move(fn));
}

std::unique_ptr<Pass> MakeRenameFuncPass(std::string suffix) {
  return MakeFunctionPass("RenameFunc", [suffix = std::move(suffix)](IrModule& module) {
    Result<RenameResult> renamed = RunRenameFuncPass(module, suffix);
    if (!renamed.ok()) {
      return Result<PassStats>(renamed.status());
    }
    return Result<PassStats>(renamed->stats);
  });
}

std::unique_ptr<Pass> MakeMergeFuncPass(MergeFuncOptions options) {
  return MakeFunctionPass("MergeFunc", [options = std::move(options)](IrModule& module) {
    return RunMergeFuncPass(module, options);
  });
}

namespace {

// The post-merge pipeline's adapters (BuildPostMergePipeline below).
std::unique_ptr<Pass> MakeDelayHttpPass() {
  return MakeFunctionPass("DelayHTTP",
                          [](IrModule& module) { return RunDelayHttpPass(module); });
}

std::unique_ptr<Pass> MakeDcePass(DceOptions options) {
  return MakeFunctionPass("DCE", [options = std::move(options)](IrModule& module) {
    return RunDcePass(module, options);
  });
}

std::unique_ptr<Pass> MakeImplibWrapPass() {
  return MakeFunctionPass("ImplibWrap",
                          [](IrModule& module) { return RunImplibWrapPass(module); });
}

}  // namespace

std::vector<std::string> PassManager::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) {
    names.push_back(pass->name());
  }
  return names;
}

Status PassManager::Run(IrModule& module, std::vector<PassStats>* stats_out) {
  for (const auto& pass : passes_) {
    const auto start = std::chrono::steady_clock::now();
    Result<PassStats> stats = pass->Run(module);
    if (!stats.ok()) {
      return Status(stats.status().code(),
                    StrCat("pass '", pass->name(), "': ", stats.status().message()));
    }
    stats->wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    if (stats_out != nullptr) {
      stats_out->push_back(std::move(stats).value());
    }
    if (options_.verify_each_pass) {
      const Status verified = module.Verify();
      if (!verified.ok()) {
        return Status(verified.code(), StrCat("module corrupt after pass '", pass->name(),
                                              "': ", verified.message()));
      }
    }
  }
  return Status::Ok();
}

PassManager BuildPostMergePipeline(const PostMergePipelineOptions& pipeline) {
  PassManager manager;
  if (pipeline.delay_http) {
    manager.Add(MakeDelayHttpPass());
  }
  if (pipeline.dce) {
    DceOptions dce;
    dce.extra_roots = pipeline.dce_extra_roots;
    manager.Add(MakeDcePass(std::move(dce)));
  }
  if (pipeline.implib_wrap) {
    manager.Add(MakeImplibWrapPass());
  }
  return manager;
}

}  // namespace quilt
