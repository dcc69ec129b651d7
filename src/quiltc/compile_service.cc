#include "src/quiltc/compile_service.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <set>

#include "src/common/hash.h"
#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/frontend/frontend.h"
#include "src/ir/linker.h"
#include "src/passes/dce.h"
#include "src/passes/delay_http.h"
#include "src/passes/implib_wrap.h"
#include "src/passes/merge_func.h"
#include "src/passes/rename_func.h"

namespace quilt {

namespace {

inline uint64_t MixString(uint64_t hash, const std::string& s) {
  hash = MixWord(hash, s.size());
  for (char c : s) {
    hash = MixWord(hash, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return hash;
}

// Domain-separation tags so a single build and a one-member merge of the
// same function never collide in the artifact cache.
constexpr uint64_t kSingleTag = 0x51494c5453474c31ull;  // "QILTSGL1"
constexpr uint64_t kGroupTag = 0x51494c5447525031ull;   // "QILTGRP1"

std::string FlatHandle(const std::string& handle) {
  std::string flat = handle;
  for (char& c : flat) {
    if (c == '-') {
      c = '_';
    }
  }
  return flat;
}

uint64_t MixQuiltcOptions(uint64_t hash, const QuiltcOptions& o) {
  uint64_t bits = 0;
  bits |= o.conditional_invocations ? 1u : 0u;
  bits |= o.delay_http ? 2u : 0u;
  bits |= o.dce ? 4u : 0u;
  bits |= o.implib_wrap ? 8u : 0u;
  return MixWord(hash, bits);
}

// Content address of a single-function build.
uint64_t SingleFingerprint(const SourceFunction& source) {
  return MixWord(MixWord(kFnvOffset, kSingleTag), CompileService::FingerprintSource(source));
}

// Entry caps of the per-function IR cache and the merged-artifact cache.
constexpr size_t kIrCacheCapacity = 512;
constexpr size_t kArtifactCacheCapacity = 128;

// Modeled llvm-link cost: proportional to the bitcode being combined.
SimDuration ModeledLinkRoundTime(int64_t module_bytes) {
  return Seconds(0.6 + static_cast<double>(module_bytes) / (4.0 * 1024 * 1024));
}

// Modeled Quilt-pass cost per merge round.
SimDuration ModeledMergeRoundTime(int64_t module_bytes) {
  return Seconds(2.2 + static_cast<double>(module_bytes) / (1.2 * 1024 * 1024));
}

// Runs one IR pass over `module` and appends its PassStats, with the host
// time it took in wall_ms, to `stats`. An error names the pass:
// "pass '<name>': <message>".
template <typename PassFn>
Status RunPass(const char* name, IrModule& module, std::vector<PassStats>& stats,
               const PassFn& pass) {
  const auto start = std::chrono::steady_clock::now();
  Result<PassStats> result = pass(module);
  if (!result.ok()) {
    return Status(result.status().code(),
                  StrCat("pass '", name, "': ", result.status().message()));
  }
  result->wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
          .count();
  stats.push_back(std::move(result).value());
  return Status::Ok();
}

}  // namespace

SimDuration ModeledCodegenTime(int64_t module_bytes) {
  return Seconds(3.0 + static_cast<double>(module_bytes) / (0.9 * 1024 * 1024));
}

std::string ArtifactSignature(const MergedArtifact& a) {
  std::string s = StrCat("artifact ", a.handle, " fp=", a.fingerprint, "\nmembers");
  for (const std::string& m : a.member_handles) {
    StrAppend(&s, " ", m);
  }
  StrAppend(&s, "\nimage size=", a.image.size_bytes, " eager=", a.image.eager_libs,
            " lazy=", a.image.lazy_libs, " eager_bytes=", a.image.eager_lib_bytes);
  StrAppend(&s, "\ntimes compile=", a.compile_time, " link=", a.link_time,
            " merge=", a.merge_time, " codegen=", a.codegen_time);
  for (const LocalizedEdge& e : a.localized_edges) {
    StrAppend(&s, "\nedge ", e.caller_handle, "->", e.callee_handle, " budget=", e.budget,
              " xlang=", e.cross_language ? 1 : 0);
  }
  const IrModule& m = a.module;
  StrAppend(&s, "\nmodule ", m.name(), " entry=", m.entry_symbol());
  for (const std::string& sym : m.function_order()) {
    const IrFunction* fn = m.GetFunction(sym);
    StrAppend(&s, "\nfn ", fn->symbol, " lang=", static_cast<int>(fn->lang),
              " link=", static_cast<int>(fn->linkage),
              " param=", static_cast<int>(fn->param_kind),
              " ret=", static_cast<int>(fn->ret_kind), " handler=", fn->is_handler ? 1 : 0,
              " get_req=", fn->uses_get_req ? 1 : 0, " send_res=", fn->uses_send_res ? 1 : 0,
              " origin=", fn->origin, " size=", fn->code_size);
    for (const CallInst& c : fn->calls) {
      StrAppend(&s, "\n  call op=", static_cast<int>(c.opcode), " sym=", c.callee_symbol,
                " handle=", c.target_handle, " budget=", c.budget,
                " localized=", c.localized ? 1 : 0, " async=", c.is_async ? 1 : 0);
    }
  }
  for (const SharedLibDep& lib : m.shared_libs()) {
    StrAppend(&s, "\nlib ", lib.name, " size=", lib.size_bytes,
              " transitive=", lib.transitive_libs, " lazy=", lib.lazy ? 1 : 0);
  }
  for (const GlobalCtor& ctor : m.ctors()) {
    StrAppend(&s, "\nctor ", ctor.name, " http=", ctor.is_http_init ? 1 : 0);
  }
  // Pass stats minus wall_ms (host time, not a function of the inputs).
  for (const PassStats& p : a.pass_stats) {
    StrAppend(&s, "\npass ", p.pass_name, " changed=", p.changed ? 1 : 0);
    for (const auto& [name, value] : p.counters) {
      StrAppend(&s, " ", name, "=", value);
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Planning and fingerprints.

struct CompileService::GroupPlan {
  std::string root_handle;
  std::vector<NodeId> bfs_order;  // Root first.
  std::map<NodeId, const SourceFunction*> member_sources;
  std::vector<bool> in_group;  // Indexed by NodeId.
  uint64_t fingerprint = 0;
  const CallGraph* graph = nullptr;
};

uint64_t CompileService::FingerprintSource(const SourceFunction& source) {
  uint64_t hash = kFnvOffset;
  hash = MixString(hash, source.handle);
  hash = MixWord(hash, static_cast<uint64_t>(source.lang));
  hash = MixWord(hash, static_cast<uint64_t>(source.user_code_bytes));
  hash = MixWord(hash, static_cast<uint64_t>(source.num_dependencies));
  hash = MixWord(hash, source.mergeable ? 1 : 0);
  hash = MixWord(hash, source.invocations.size());
  for (const InvocationSite& site : source.invocations) {
    hash = MixString(hash, site.callee_handle);
    hash = MixWord(hash, (site.async ? 1u : 0u) | (site.data_dependent ? 2u : 0u));
  }
  return hash;
}

Result<CompileService::GroupPlan> CompileService::PlanGroup(
    const CallGraph& graph, const ::quilt::MergeGroup& group,
    const std::map<std::string, SourceFunction>& sources) const {
  if (group.members.empty() || !group.Contains(group.root)) {
    return InvalidArgumentError("merge group must contain its root");
  }
  GroupPlan plan;
  plan.graph = &graph;
  plan.root_handle = graph.node(group.root).name;

  for (NodeId id : group.members) {
    const std::string& handle = graph.node(id).name;
    auto it = sources.find(handle);
    if (it == sources.end()) {
      return NotFoundError(StrCat("no source for function '", handle, "'"));
    }
    if (id != group.root && !it->second.mergeable) {
      return FailedPreconditionError(
          StrCat("function '", handle, "' did not opt into merging"));
    }
    plan.member_sources[id] = &it->second;
  }

  plan.in_group.assign(graph.num_nodes(), false);
  for (NodeId id : group.members) {
    plan.in_group[id] = true;
  }

  // BFS order over in-group edges, root first (§5.4).
  {
    std::vector<bool> visited(graph.num_nodes(), false);
    std::deque<NodeId> queue = {group.root};
    visited[group.root] = true;
    while (!queue.empty()) {
      const NodeId id = queue.front();
      queue.pop_front();
      plan.bfs_order.push_back(id);
      for (EdgeId eid : graph.OutEdges(id)) {
        const NodeId next = graph.edge(eid).to;
        if (plan.in_group[next] && !visited[next]) {
          visited[next] = true;
          queue.push_back(next);
        }
      }
    }
  }
  if (plan.bfs_order.size() != group.members.size()) {
    return FailedPreconditionError(
        StrCat("group rooted at '", plan.root_handle, "' is not connected"));
  }

  // Canonical group fingerprint: options, root, member fingerprints in BFS
  // order, and every in-group edge with its alpha budget (EdgeId order is
  // deterministic for a given graph).
  uint64_t hash = MixWord(kFnvOffset, kGroupTag);
  hash = MixQuiltcOptions(hash, options_.quiltc);
  hash = MixString(hash, plan.root_handle);
  for (NodeId id : plan.bfs_order) {
    hash = MixWord(hash, FingerprintSource(*plan.member_sources[id]));
  }
  for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
    const CallEdge& edge = graph.edge(eid);
    if (!plan.in_group[edge.from] || !plan.in_group[edge.to]) {
      continue;
    }
    hash = MixString(hash, graph.node(edge.from).name);
    hash = MixString(hash, graph.node(edge.to).name);
    hash = MixWord(hash, static_cast<uint64_t>(edge.alpha));
  }
  plan.fingerprint = hash;
  return plan;
}

Result<uint64_t> CompileService::FingerprintGroup(
    const CallGraph& graph, const ::quilt::MergeGroup& group,
    const std::map<std::string, SourceFunction>& sources) const {
  Result<GroupPlan> plan = PlanGroup(graph, group, sources);
  if (!plan.ok()) {
    return plan.status();
  }
  return plan->fingerprint;
}

// ---------------------------------------------------------------------------
// Frontend.

CompileService::CompileService(CompileServiceOptions options)
    : options_(std::move(options)),
      ir_cache_(kIrCacheCapacity),
      artifact_cache_(kArtifactCacheCapacity) {}

Result<IrModule> CompileService::CompileFresh(const SourceFunction& source) const {
  Result<IrModule> module =
      options_.frontend ? options_.frontend(source) : CompileToIr(source);
  if (!module.ok()) {
    return module.status();
  }
  // The frontend's output is trusted nowhere: a module that fails structural
  // verification is rejected before it can poison a cache or a merge.
  Status verified = module->Verify();
  if (!verified.ok()) {
    return Status(verified.code(), StrCat("frontend produced an invalid module for '",
                                          source.handle, "': ", verified.message()));
  }
  return module;
}

// ---------------------------------------------------------------------------
// Pipelines (pure: no service state beyond options_).

Result<MergedArtifact> CompileService::BuildSingleFromModule(const SourceFunction& source,
                                                             const IrModule& module) const {
  MergedArtifact artifact;
  artifact.handle = source.handle;
  artifact.member_handles = {source.handle};
  artifact.module = module;
  artifact.compile_time = EstimateDependencyCompileTime(source.lang, source.num_dependencies) +
                          EstimateCodegenTime(source);
  artifact.codegen_time = ModeledCodegenTime(artifact.module.TotalCodeSize());
  artifact.link_time = ModeledLinkRoundTime(artifact.module.TotalCodeSize());
  artifact.image = ComputeBinaryImage(artifact.module);
  return artifact;
}

Result<MergedArtifact> CompileService::MergeFromModules(
    const GroupPlan& plan, const std::map<uint64_t, IrModule>& modules) const {
  const CallGraph& graph = *plan.graph;

  // Looks up a member's compiled module in the snapshot; returns a mutable
  // copy (merge rounds rename and splice the callee module).
  auto module_copy = [&](const SourceFunction& source) -> Result<IrModule> {
    auto it = modules.find(FingerprintSource(source));
    if (it == modules.end()) {
      return InternalError(StrCat("no compiled module for '", source.handle, "'"));
    }
    return it->second;
  };

  MergedArtifact artifact;
  artifact.handle = plan.root_handle;
  artifact.fingerprint = plan.fingerprint;

  // The root's symbols are not renamed (its handler is the merged entry
  // point and its scaffold becomes the binary's main).
  const SourceFunction& root_source = *plan.member_sources.at(plan.bfs_order.front());
  Result<IrModule> root_module = module_copy(root_source);
  if (!root_module.ok()) {
    return root_module.status();
  }
  IrModule merged = std::move(root_module).value();
  merged.set_name(StrCat("quilt-merged-", FlatHandle(artifact.handle)));
  artifact.member_handles.push_back(artifact.handle);

  // Dependency compilation happens once per language present in the group.
  std::set<Lang> langs_seen;
  int max_deps = 0;
  for (NodeId id : plan.bfs_order) {
    langs_seen.insert(plan.member_sources.at(id)->lang);
    max_deps = std::max(max_deps, plan.member_sources.at(id)->num_dependencies);
  }
  for (Lang lang : langs_seen) {
    artifact.compile_time += EstimateDependencyCompileTime(lang, max_deps);
  }
  for (NodeId id : plan.bfs_order) {
    artifact.compile_time += EstimateCodegenTime(*plan.member_sources.at(id));
  }

  // Tracks, per merged handle, the module symbols of its handler so later
  // rounds can localize freshly-linked invoke sites and set budgets.
  std::map<std::string, std::string> handler_symbol;  // handle -> symbol
  handler_symbol[artifact.handle] =
      MangleSymbol(root_source.lang, root_source.handle, "handler");
  const std::string root_scaffold = "main";

  // Runs MergeFunc localizing all current invoke sites of `callee_id`.
  auto run_merge_func = [&](NodeId callee_id) -> Status {
    const std::string& callee_handle = graph.node(callee_id).name;
    MergeFuncOptions mf;
    mf.callee_handle = callee_handle;
    mf.callee_entry_symbol = handler_symbol.at(callee_handle);
    mf.conditional_invocations = options_.quiltc.conditional_invocations;
    const std::string callee_scaffold =
        RenamedSymbol("main", FlatHandle(callee_handle));
    if (merged.HasFunction(callee_scaffold)) {
      mf.callee_scaffold_symbol = callee_scaffold;
    }
    // Budgets per in-group caller edge.
    int max_alpha = 1;
    for (EdgeId eid : graph.InEdges(callee_id)) {
      const CallEdge& edge = graph.edge(eid);
      if (!plan.in_group[edge.from]) {
        continue;
      }
      const std::string& caller_handle = graph.node(edge.from).name;
      auto sym = handler_symbol.find(caller_handle);
      if (sym != handler_symbol.end()) {
        mf.budget_by_function_symbol[sym->second] = edge.alpha;
      }
      max_alpha = std::max(max_alpha, edge.alpha);
    }
    mf.profiled_alpha = max_alpha;

    QUILT_RETURN_IF_ERROR(RunPass("MergeFunc", merged, artifact.pass_stats,
                                  [&mf](IrModule& m) { return RunMergeFuncPass(m, mf); }));
    artifact.merge_time += ModeledMergeRoundTime(merged.TotalCodeSize());
    return Status::Ok();
  };

  // Merge rounds in BFS order: rename -> link -> MergeFunc, reusing the
  // post-step-4 IR for the next round (the red arrow in Figure 5).
  std::set<NodeId> merged_nodes = {plan.bfs_order.front()};
  for (size_t i = 1; i < plan.bfs_order.size(); ++i) {
    const NodeId id = plan.bfs_order[i];
    const SourceFunction& source = *plan.member_sources.at(id);
    const std::string& handle = source.handle;

    Result<IrModule> compiled = module_copy(source);
    if (!compiled.ok()) {
      return compiled.status();
    }
    IrModule callee_module = std::move(compiled).value();

    QUILT_RETURN_IF_ERROR(RunPass(
        "RenameFunc", callee_module, artifact.pass_stats, [&](IrModule& m) -> Result<PassStats> {
          Result<RenameResult> renamed = RunRenameFuncPass(m, FlatHandle(handle));
          if (!renamed.ok()) {
            return renamed.status();
          }
          return std::move(renamed->stats);
        }));

    LinkStats link_stats;
    QUILT_RETURN_IF_ERROR(LinkInto(merged, callee_module, &link_stats));
    artifact.link_time += ModeledLinkRoundTime(merged.TotalCodeSize());

    handler_symbol[handle] =
        RenamedSymbol(MangleSymbol(source.lang, handle, "handler"), FlatHandle(handle));
    artifact.member_handles.push_back(handle);
    merged_nodes.insert(id);

    // Localize invokes *into* the new callee (from any already-merged
    // caller), then invokes *from* it to already-merged callees (§5.4: the
    // callee may already be present; restart from step 4).
    QUILT_RETURN_IF_ERROR(run_merge_func(id));
    for (EdgeId eid : graph.OutEdges(id)) {
      const NodeId target = graph.edge(eid).to;
      if (plan.in_group[target] && merged_nodes.count(target) > 0) {
        QUILT_RETURN_IF_ERROR(run_merge_func(target));
      }
    }
  }

  // Record localized edges (for the platform runtime and for reporting).
  for (EdgeId eid = 0; eid < graph.num_edges(); ++eid) {
    const CallEdge& edge = graph.edge(eid);
    if (!plan.in_group[edge.from] || !plan.in_group[edge.to]) {
      continue;
    }
    LocalizedEdge localized;
    localized.caller_handle = graph.node(edge.from).name;
    localized.callee_handle = graph.node(edge.to).name;
    localized.budget = options_.quiltc.conditional_invocations ? edge.alpha : 0;
    localized.cross_language =
        plan.member_sources.at(edge.from)->lang != plan.member_sources.at(edge.to)->lang;
    artifact.localized_edges.push_back(localized);
  }

  // Post-merge optimization pipeline (§5.2 steps 6-10): DelayHTTP -> DCE ->
  // ImplibWrap, each as QuiltcOptions selects it.
  const QuiltcOptions& quiltc = options_.quiltc;
  if (quiltc.delay_http) {
    QUILT_RETURN_IF_ERROR(RunPass("DelayHTTP", merged, artifact.pass_stats,
                                  [](IrModule& m) { return RunDelayHttpPass(m); }));
  }
  if (quiltc.dce) {
    DceOptions dce;
    dce.extra_roots = {root_scaffold};
    QUILT_RETURN_IF_ERROR(RunPass("DCE", merged, artifact.pass_stats,
                                  [&dce](IrModule& m) { return RunDcePass(m, dce); }));
  }
  if (quiltc.implib_wrap) {
    QUILT_RETURN_IF_ERROR(RunPass("ImplibWrap", merged, artifact.pass_stats,
                                  [](IrModule& m) { return RunImplibWrapPass(m); }));
  }

  // Codegen lowers whatever the LAST module-mutating pass left behind, so
  // its modeled cost must be computed after the full pipeline (ImplibWrap
  // adds trampoline shims to the module).
  artifact.codegen_time = ModeledCodegenTime(merged.TotalCodeSize());
  artifact.link_time += ModeledLinkRoundTime(merged.TotalCodeSize());  // Final link.

  QUILT_RETURN_IF_ERROR(merged.Verify());
  artifact.image = ComputeBinaryImage(merged);
  artifact.module = std::move(merged);
  return artifact;
}

// ---------------------------------------------------------------------------
// Accounting helpers.

namespace {

double SingleChargedCost(const MergedArtifact& artifact, bool ir_hit) {
  const double total = ToSeconds(artifact.TotalPipelineTime());
  if (!ir_hit) {
    return total;
  }
  // The cached IR skips the frontend share (dependency compilation + the
  // per-function frontend codegen); link + merge + llc still run.
  return total - ToSeconds(artifact.compile_time);
}

CompileRecord MakeRecord(const MergedArtifact& artifact, const char* kind) {
  CompileRecord record;
  record.kind = kind;
  record.handle = artifact.handle;
  record.members = static_cast<int>(artifact.member_handles.size());
  record.fingerprint = artifact.fingerprint;
  record.localized_edges = static_cast<int>(artifact.localized_edges.size());
  record.compile_s = ToSeconds(artifact.compile_time);
  record.link_s = ToSeconds(artifact.link_time);
  record.merge_s = ToSeconds(artifact.merge_time);
  record.codegen_s = ToSeconds(artifact.codegen_time);
  record.total_s = ToSeconds(artifact.TotalPipelineTime());
  return record;
}

}  // namespace

double CompileService::MergeChargedCost(const GroupPlan& plan, const MergedArtifact& artifact,
                                        const std::vector<bool>& member_hit) {
  const double total = ToSeconds(artifact.TotalPipelineTime());
  double credit = 0.0;
  bool all_hit = true;
  for (size_t i = 0; i < plan.bfs_order.size(); ++i) {
    const SourceFunction& source = *plan.member_sources.at(plan.bfs_order[i]);
    if (i < member_hit.size() && member_hit[i]) {
      credit += ToSeconds(EstimateCodegenTime(source));
    } else {
      all_hit = false;
    }
  }
  if (all_hit) {
    // Dependency compilation is shared per language; it is only skipped when
    // no member needed a fresh frontend run.
    std::set<Lang> langs_seen;
    int max_deps = 0;
    for (NodeId id : plan.bfs_order) {
      langs_seen.insert(plan.member_sources.at(id)->lang);
      max_deps = std::max(max_deps, plan.member_sources.at(id)->num_dependencies);
    }
    for (Lang lang : langs_seen) {
      credit += ToSeconds(EstimateDependencyCompileTime(lang, max_deps));
    }
  }
  return total - credit;
}

// ---------------------------------------------------------------------------
// The cache protocol. Each public entry point holds the service lock for its
// whole duration; internal helpers never lock. The parallel phases only call
// const, lock-free, pure helpers (CompileFresh / BuildSingleFromModule /
// MergeFromModules).

struct CompileService::Job {
  const SourceFunction* source = nullptr;  // Single build; null for a merge.
  GroupPlan plan;                          // Merge.
  uint64_t fingerprint = 0;
  bool cached = false;  // The artifact cache answered.
  Result<MergedArtifact> artifact = InternalError("job never ran");
  std::vector<bool> input_hit;  // Per input (source, or plan BFS order): IR hit.
};

template <typename Task>
void CompileService::ForEach(size_t count, const Task& task) const {
  if (count <= 1 || options_.compile_threads <= 1) {
    for (size_t i = 0; i < count; ++i) {
      task(i);
    }
    return;
  }
  ThreadPool pool(options_.compile_threads);
  pool.ParallelFor(static_cast<int>(count), [&](int i) { task(static_cast<size_t>(i)); });
}

Status CompileService::Run(std::span<Job> jobs, std::vector<CompileRecord>* records) {
  // --- Phase 1 (sequential): consult the artifact cache per job, then the IR
  // cache for every input of an artifact miss, and collect the deduplicated
  // fresh-compile list in first-seen order.
  std::map<uint64_t, IrModule> modules;  // Source fingerprint -> module.
  std::vector<std::pair<uint64_t, const SourceFunction*>> misses;
  auto consult_ir_cache = [&](const SourceFunction& source) {
    const uint64_t fp = FingerprintSource(source);
    if (modules.count(fp) > 0) {
      // Already fetched for an earlier job this batch; a cache would have
      // answered, so count it as a hit for accounting purposes.
      if (options_.ir_cache) {
        ++stats_.ir_lookups;
        ++stats_.ir_hits;
      }
      return true;
    }
    // Already queued for a fresh compile this batch: a lookup, not a hit.
    const auto is_fp = [fp](const auto& miss) { return miss.first == fp; };
    if (std::any_of(misses.begin(), misses.end(), is_fp)) {
      if (options_.ir_cache) {
        ++stats_.ir_lookups;
      }
      return false;
    }
    if (options_.ir_cache) {
      ++stats_.ir_lookups;
      if (const IrModule* cached = ir_cache_.Lookup(fp)) {
        ++stats_.ir_hits;
        modules.emplace(fp, *cached);
        return true;
      }
    }
    misses.emplace_back(fp, &source);
    return false;
  };
  for (Job& job : jobs) {
    if (options_.artifact_cache) {
      ++stats_.artifact_lookups;
      if (const MergedArtifact* cached = artifact_cache_.Lookup(job.fingerprint)) {
        ++stats_.artifact_hits;
        job.cached = true;
        job.artifact = *cached;
        continue;
      }
    }
    if (job.source != nullptr) {
      job.input_hit = {consult_ir_cache(*job.source)};
      continue;
    }
    for (NodeId id : job.plan.bfs_order) {
      job.input_hit.push_back(consult_ir_cache(*job.plan.member_sources.at(id)));
    }
  }

  // --- Phase 2: fresh frontend compiles into pre-sized slots; validated and
  // inserted into the IR cache sequentially in miss order, so the first
  // error and the LRU/statistics sequence are independent of scheduling.
  std::vector<Result<IrModule>> compiled(misses.size(), Result<IrModule>(IrModule()));
  ForEach(misses.size(), [&](size_t i) { compiled[i] = CompileFresh(*misses[i].second); });
  for (size_t i = 0; i < misses.size(); ++i) {
    if (!compiled[i].ok()) {
      return compiled[i].status();
    }
    ++stats_.frontend_compiles;
    if (options_.ir_cache) {
      ir_cache_.Insert(misses[i].first, *compiled[i]);
      ++stats_.ir_insertions;
    }
    modules.emplace(misses[i].first, std::move(compiled[i]).value());
  }

  // --- Phase 3: the builds themselves. Workers read only the immutable
  // module snapshot and write only their own job.
  ForEach(jobs.size(), [&](size_t i) {
    Job& job = jobs[i];
    if (job.cached) {
      return;
    }
    if (job.source == nullptr) {
      job.artifact = MergeFromModules(job.plan, modules);
      return;
    }
    auto it = modules.find(FingerprintSource(*job.source));
    job.artifact =
        it == modules.end()
            ? Result<MergedArtifact>(
                  InternalError(StrCat("no compiled module for '", job.source->handle, "'")))
            : BuildSingleFromModule(*job.source, it->second);
  });

  // --- Phase 4 (sequential, job order): surface the first error, account,
  // insert into the artifact cache, and emit records.
  for (Job& job : jobs) {
    if (!job.artifact.ok()) {
      return job.artifact.status();
    }
    job.artifact->fingerprint = job.fingerprint;
  }
  for (Job& job : jobs) {
    const MergedArtifact& artifact = *job.artifact;
    stats_.modeled_cost_s += ToSeconds(artifact.TotalPipelineTime());
    if (!job.cached) {
      if (job.source != nullptr) {
        ++stats_.singles_built;
        stats_.charged_cost_s += SingleChargedCost(artifact, job.input_hit[0]);
      } else {
        ++stats_.merges_built;
        stats_.charged_cost_s += MergeChargedCost(job.plan, artifact, job.input_hit);
      }
      if (options_.artifact_cache) {
        artifact_cache_.Insert(job.fingerprint, artifact);
        ++stats_.artifact_insertions;
      }
    }
    if (records != nullptr) {
      records->push_back(MakeRecord(artifact, job.source != nullptr ? "single" : "merge"));
    }
  }
  return Status::Ok();
}

Result<MergedArtifact> CompileService::RunOne(Job& job, CompileRecord* record) {
  std::vector<CompileRecord> records;
  QUILT_RETURN_IF_ERROR(Run(std::span<Job>(&job, 1), record != nullptr ? &records : nullptr));
  if (record != nullptr) {
    *record = std::move(records.front());
  }
  return std::move(job.artifact);
}

Result<MergedArtifact> CompileService::BuildSingleFunction(const SourceFunction& source,
                                                           CompileRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);
  Job job;
  job.source = &source;
  job.fingerprint = SingleFingerprint(source);
  return RunOne(job, record);
}

Result<MergedArtifact> CompileService::MergeGroup(
    const CallGraph& graph, const ::quilt::MergeGroup& group,
    const std::map<std::string, SourceFunction>& sources, CompileRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);
  Result<GroupPlan> plan = PlanGroup(graph, group, sources);
  if (!plan.ok()) {
    return plan.status();
  }
  Job job;
  job.plan = std::move(plan).value();
  job.fingerprint = job.plan.fingerprint;
  return RunOne(job, record);
}

Result<std::vector<MergedArtifact>> CompileService::MergeSolution(
    const CallGraph& graph, const ::quilt::MergeSolution& solution,
    const std::map<std::string, SourceFunction>& sources,
    std::vector<CompileRecord>* records) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Job> jobs(solution.groups.size());
  for (size_t g = 0; g < solution.groups.size(); ++g) {
    const ::quilt::MergeGroup& group = solution.groups[g];
    Job& job = jobs[g];
    if (group.members.size() == 1) {
      const std::string& handle = graph.node(group.root).name;
      auto it = sources.find(handle);
      if (it == sources.end()) {
        return NotFoundError(StrCat("no source for '", handle, "'"));
      }
      job.source = &it->second;
      job.fingerprint = SingleFingerprint(*job.source);
      continue;
    }
    Result<GroupPlan> plan = PlanGroup(graph, group, sources);
    if (!plan.ok()) {
      return plan.status();
    }
    job.plan = std::move(plan).value();
    job.fingerprint = job.plan.fingerprint;
  }
  QUILT_RETURN_IF_ERROR(Run(jobs, records));
  std::vector<MergedArtifact> artifacts;
  artifacts.reserve(jobs.size());
  for (Job& job : jobs) {
    artifacts.push_back(std::move(job.artifact).value());
  }
  return artifacts;
}

CompileServiceStats CompileService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CompileServiceStats out = stats_;
  out.ir_evictions = ir_cache_.evictions();
  out.artifact_evictions = artifact_cache_.evictions();
  return out;
}

}  // namespace quilt
