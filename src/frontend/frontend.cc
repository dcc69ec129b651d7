#include "src/frontend/frontend.h"

#include <cstdio>

#include "src/common/strings.h"

namespace quilt {

namespace {

// Library origins (crate/package name + version) used for link-time dedup.
std::string RuntimeOrigin(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return "glibc-static-2.39";
    case Lang::kCpp:
      return "libstdc++-14";
    case Lang::kRust:
      return "libstd-1.79-nightly-bitcode";
    case Lang::kGo:
      return "libgo-gollvm-18";
    case Lang::kSwift:
      return "libswiftCore-6.0";
  }
  return "?";
}

std::string SerdeOrigin(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return "cjson-1.7";
    case Lang::kCpp:
      return "nlohmann-json-3.11";
    case Lang::kRust:
      return "serde_json-1.0";
    case Lang::kGo:
      return "encoding-json-gollvm-18";
    case Lang::kSwift:
      return "foundation-json-6.0";
  }
  return "?";
}

std::string InvokeOrigin(Lang lang) {
  // All languages' invoke glue wraps libcurl in this model.
  return StrCat("quilt-invoke-", LangName(lang), "-1.0");
}

int64_t SerdeCodeSize(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return 60 * 1024;
    case Lang::kCpp:
      return 190 * 1024;
    case Lang::kRust:
      return 180 * 1024;
    case Lang::kGo:
      return 210 * 1024;
    case Lang::kSwift:
      return 150 * 1024;
  }
  return 0;
}

int64_t InvokeGlueCodeSize(Lang lang) { return 120 * 1024; }

// Static sizes of the runtime/library code a module of this language links.
int64_t RuntimeCodeSize(Lang lang) {
  switch (lang) {
    case Lang::kC:
      return 90 * 1024;  // Static parts beyond the shared libc.
    case Lang::kCpp:
      return 320 * 1024;
    case Lang::kRust:
      return 960 * 1024;  // libstd compiled to bitcode (§5.2).
    case Lang::kGo:
      return 1500 * 1024;  // Go runtime (scheduler, GC) is statically linked.
    case Lang::kSwift:
      return 640 * 1024;
  }
  return 0;
}

}  // namespace

std::string MangleSymbol(Lang lang, const std::string& handle, const std::string& item) {
  // Handles contain '-', which no mangling scheme passes through.
  std::string flat = handle;
  for (char& c : flat) {
    if (c == '-') {
      c = '_';
    }
  }
  switch (lang) {
    case Lang::kC:
      return StrCat(flat, "_", item);
    case Lang::kCpp:
      return StrCat("_Z", flat.size(), flat, item.size(), item, "v");
    case Lang::kRust:
      return StrCat("_RN", flat, "_", item, "17h0f", flat.size(), item.size(), "E");
    case Lang::kGo:
      return StrCat("main_", flat, ".", item);
    case Lang::kSwift:
      return StrCat("$s", flat, item, "yF");
  }
  return StrCat(flat, "_", item);
}

SimDuration EstimateDependencyCompileTime(Lang lang, int num_dependencies) {
  // Fetch + compile dependency crates/packages; rustc nightly also compiles
  // libstd to bitcode, which dominates (§7.5.3: ~1.5 min total).
  double base_s = 0.0;
  double per_dep_s = 0.0;
  switch (lang) {
    case Lang::kC:
      base_s = 4.0;
      per_dep_s = 0.8;
      break;
    case Lang::kCpp:
      base_s = 9.0;
      per_dep_s = 2.2;
      break;
    case Lang::kRust:
      base_s = 38.0;  // libstd-to-bitcode plus cargo dependency graph.
      per_dep_s = 4.5;
      break;
    case Lang::kGo:
      base_s = 14.0;
      per_dep_s = 1.6;
      break;
    case Lang::kSwift:
      base_s = 20.0;
      per_dep_s = 3.0;
      break;
  }
  return Seconds(base_s + per_dep_s * num_dependencies);
}

SimDuration EstimateCodegenTime(const SourceFunction& fn) {
  // User-code lowering: roughly proportional to emitted code.
  const double kb = static_cast<double>(fn.user_code_bytes) / 1024.0;
  return Seconds(0.8 + kb * 0.035);
}

Result<IrModule> CompileToIr(const SourceFunction& fn) {
  if (fn.handle.empty()) {
    return InvalidArgumentError("source function needs a handle");
  }
  IrModule module(fn.handle);
  const StringKind str = NativeStringKind(fn.lang);

  // The serverless scaffold: main loops get_req -> handler -> send_res. Its
  // symbol is deliberately generic ("main") in every module; the RenameFunc
  // pass must rename it before two modules can be linked.
  IrFunction scaffold;
  scaffold.symbol = "main";
  scaffold.lang = fn.lang;
  scaffold.linkage = Linkage::kExternal;
  scaffold.param_kind = str;
  scaffold.ret_kind = str;
  scaffold.uses_get_req = true;
  scaffold.uses_send_res = true;
  scaffold.code_size = 6 * 1024;
  scaffold.calls.push_back(
      CallInst{CallOpcode::kLocal, MangleSymbol(fn.lang, fn.handle, "handler"), "", 0, false,
               false});
  scaffold.calls.push_back(CallInst{CallOpcode::kLocal, "serverless_io", "", 0, false, false});

  // The handler: user entry point, reads the request, runs business logic,
  // performs the function's invocations.
  IrFunction handler;
  handler.symbol = MangleSymbol(fn.lang, fn.handle, "handler");
  handler.lang = fn.lang;
  handler.linkage = Linkage::kExternal;
  handler.param_kind = str;
  handler.ret_kind = str;
  handler.is_handler = true;
  handler.uses_get_req = true;
  handler.uses_send_res = true;
  handler.code_size = fn.user_code_bytes * 6 / 10;
  handler.calls.push_back(CallInst{CallOpcode::kLocal, "parse_input", "", 0, false, false});
  for (const InvocationSite& site : fn.invocations) {
    CallInst call;
    call.opcode = site.async ? CallOpcode::kAsyncInvoke : CallOpcode::kSyncInvoke;
    call.target_handle = site.callee_handle;
    call.is_async = site.async;
    handler.calls.push_back(call);
  }
  handler.calls.push_back(CallInst{CallOpcode::kLocal, "build_response", "", 0, false, false});

  // Generically-named internal helpers: these collide across modules of the
  // same language, which is exactly why the paper needs RenameFunc (§5.2
  // step 2).
  IrFunction parse;
  parse.symbol = "parse_input";
  parse.lang = fn.lang;
  parse.linkage = Linkage::kInternal;
  parse.param_kind = str;
  parse.ret_kind = str;
  parse.code_size = fn.user_code_bytes * 2 / 10;
  parse.calls.push_back(
      CallInst{CallOpcode::kLocal, StrCat("rt.", LangName(fn.lang), ".serde_json"), "", 0, false,
               false});

  // STDIN/STDOUT plumbing used only by the standalone main loop: it becomes
  // dead code once MergeFunc localizes the function (the DCE pass reclaims
  // one copy per merged callee).
  IrFunction serverless_io;
  serverless_io.symbol = "serverless_io";
  serverless_io.lang = fn.lang;
  serverless_io.linkage = Linkage::kInternal;
  serverless_io.param_kind = str;
  serverless_io.ret_kind = str;
  serverless_io.code_size = 14 * 1024;

  IrFunction respond;
  respond.symbol = "build_response";
  respond.lang = fn.lang;
  respond.linkage = Linkage::kInternal;
  respond.param_kind = str;
  respond.ret_kind = str;
  respond.code_size = fn.user_code_bytes * 2 / 10;
  respond.calls.push_back(
      CallInst{CallOpcode::kLocal, StrCat("rt.", LangName(fn.lang), ".serde_json"), "", 0, false,
               false});

  // Language runtime, JSON codec, and the invoke glue as origin-tagged
  // library functions (deduplicated by the linker when functions share
  // dependencies).
  IrFunction runtime;
  runtime.symbol = StrCat("rt.", LangName(fn.lang), ".core");
  runtime.lang = fn.lang;
  runtime.linkage = Linkage::kExternal;
  runtime.origin = RuntimeOrigin(fn.lang);
  runtime.code_size = RuntimeCodeSize(fn.lang);

  IrFunction serde;
  serde.symbol = StrCat("rt.", LangName(fn.lang), ".serde_json");
  serde.lang = fn.lang;
  serde.linkage = Linkage::kExternal;
  serde.origin = SerdeOrigin(fn.lang);
  serde.code_size = SerdeCodeSize(fn.lang);

  // sync_inv/async_inv implementation: wraps libcurl.
  IrFunction invoke_glue;
  invoke_glue.symbol = StrCat("rt.", LangName(fn.lang), ".sync_inv");
  invoke_glue.lang = fn.lang;
  invoke_glue.linkage = Linkage::kExternal;
  invoke_glue.origin = InvokeOrigin(fn.lang);
  invoke_glue.code_size = InvokeGlueCodeSize(fn.lang);
  invoke_glue.calls.push_back(
      CallInst{CallOpcode::kLibCall, "curl_easy_perform", "", 0, false, false});

  // The scaffold keeps the language runtime live; the invoke glue stays
  // reachable only through real sync_inv/async_inv sites (or conditional
  // fallbacks), so fully-localized merges can debloat the HTTP stack.
  scaffold.calls.push_back(
      CallInst{CallOpcode::kLocal, runtime.symbol, "", 0, false, false});

  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(scaffold)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(handler)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(serverless_io)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(parse)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(respond)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(runtime)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(serde)));
  QUILT_RETURN_IF_ERROR(module.AddFunction(std::move(invoke_glue)));
  module.set_entry_symbol(MangleSymbol(fn.lang, fn.handle, "handler"));

  // Shared libraries: libc always; libcurl drags in ~40 transitive libs
  // whose eager loading costs several milliseconds (§5.2 step 6).
  module.AddSharedLib(SharedLibDep{"libc.so.6", 2100 * 1024, 2, false});
  module.AddSharedLib(SharedLibDep{"libcurl.so.4", 610 * 1024, 40, false});
  if (fn.lang == Lang::kSwift) {
    module.AddSharedLib(SharedLibDep{"libswiftCore.so", 4500 * 1024, 6, false});
  }

  // Global constructors.
  module.AddCtor(GlobalCtor{"curl_global_init", /*is_http_init=*/true});
  module.AddCtor(GlobalCtor{StrCat(LangName(fn.lang), "_runtime_init"), false});

  QUILT_RETURN_IF_ERROR(module.Verify());
  return module;
}

}  // namespace quilt
