// Synthetic language frontends: lower a SourceFunction into Quilt's mini-IR
// the way rustc/clang/gollvm/swiftc lower real sources into LLVM bitcode
// (§5.1 step 1).
//
// Each emitted module contains the serverless scaffold the paper describes:
// a main loop (get_req -> handler -> send_res), the handler with its
// sync_inv/async_inv call sites, generically-named internal helpers (which
// is why the RenameFunc pass is needed before linking two functions), the
// language runtime and JSON/HTTP dependency code as origin-tagged library
// functions (deduplicated by the linker), the libcurl shared-library
// dependency, and the curl_global_init global constructor that the
// DelayHTTP pass later relocates.
#ifndef SRC_FRONTEND_FRONTEND_H_
#define SRC_FRONTEND_FRONTEND_H_

#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/frontend/source_function.h"
#include "src/ir/ir_module.h"

namespace quilt {

// Mangled symbol for a user item in a function's module, following each
// language's scheme (simplified but distinctive).
std::string MangleSymbol(Lang lang, const std::string& handle, const std::string& item);

// Compiles a source function to an IR module. Deterministic.
Result<IrModule> CompileToIr(const SourceFunction& fn);

// Modeled wall-clock cost of running the real frontend (rustc and friends).
// Dominated by dependency compilation; Quilt compiles shared dependencies
// once per pipeline run (§5.2), so callers split the cost accordingly.
SimDuration EstimateDependencyCompileTime(Lang lang, int num_dependencies);
SimDuration EstimateCodegenTime(const SourceFunction& fn);

}  // namespace quilt

#endif  // SRC_FRONTEND_FRONTEND_H_
