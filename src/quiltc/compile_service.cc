#include "src/quiltc/compile_service.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <set>

#include "src/common/strings.h"
#include "src/common/thread_pool.h"
#include "src/frontend/frontend.h"
#include "src/ir/linker.h"
#include "src/passes/pass_manager.h"
#include "src/passes/rename_func.h"

namespace quilt {

namespace {

// FNV-1a style mixing over 64-bit words (same scheme as FingerprintProblem).
constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

inline uint64_t MixWord(uint64_t hash, uint64_t word) {
  hash ^= word;
  hash *= 0x100000001b3ull;
  return hash;
}

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

}  // namespace

// Modeled llvm-link cost: proportional to the bitcode being combined.
SimDuration ModeledLinkRoundTime(int64_t module_bytes) {
  return Seconds(0.6 + static_cast<double>(module_bytes) / (4.0 * 1024 * 1024));
}

// Modeled Quilt-pass cost per merge round.
SimDuration ModeledMergeRoundTime(int64_t module_bytes) {
  return Seconds(2.2 + static_cast<double>(module_bytes) / (1.2 * 1024 * 1024));
}

// Modeled llc cost for the final bitcode.
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
// LruCache.

template <typename V>
bool CompileService::LruCache<V>::Lookup(uint64_t key, V* out) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return false;
  }
  entries_.splice(entries_.begin(), entries_, it->second);
  *out = entries_.front().second;
  return true;
}

template <typename V>
void CompileService::LruCache<V>::Insert(uint64_t key, V value) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = std::move(value);
    entries_.splice(entries_.begin(), entries_, it->second);
    return;
  }
  entries_.emplace_front(key, std::move(value));
  index_[key] = entries_.begin();
  while (entries_.size() > capacity_) {
    index_.erase(entries_.back().first);
    entries_.pop_back();
    ++evictions_;
  }
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
      ir_cache_(options_.ir_cache_capacity),
      artifact_cache_(options_.artifact_cache_capacity) {}

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

Result<IrModule> CompileService::GetModule(const SourceFunction& source, bool* cache_hit) {
  if (cache_hit != nullptr) {
    *cache_hit = false;
  }
  const uint64_t fp = FingerprintSource(source);
  if (options_.ir_cache) {
    ++stats_.ir_lookups;
    IrModule cached;
    if (ir_cache_.Lookup(fp, &cached)) {
      ++stats_.ir_hits;
      if (cache_hit != nullptr) {
        *cache_hit = true;
      }
      return cached;
    }
  }
  Result<IrModule> module = CompileFresh(source);
  if (!module.ok()) {
    return module.status();
  }
  ++stats_.frontend_compiles;
  if (options_.ir_cache) {
    ir_cache_.Insert(fp, *module);
    ++stats_.ir_insertions;
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
    const CallGraph& graph, const GroupPlan& plan,
    const std::map<uint64_t, IrModule>& modules) const {
  const PassManagerOptions pm_options{options_.verify_each_pass};

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

    PassManager round(pm_options);
    round.Add(MakeMergeFuncPass(std::move(mf)));
    QUILT_RETURN_IF_ERROR(round.Run(merged, &artifact.pass_stats));
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

    PassManager rename(pm_options);
    rename.Add(MakeRenameFuncPass(FlatHandle(handle)));
    QUILT_RETURN_IF_ERROR(rename.Run(callee_module, &artifact.pass_stats));

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

  // Post-merge optimization pipeline (§5.2 steps 6-10).
  PostMergePipelineOptions pipeline;
  pipeline.delay_http = options_.quiltc.delay_http;
  pipeline.dce = options_.quiltc.dce;
  pipeline.implib_wrap = options_.quiltc.implib_wrap;
  pipeline.dce_extra_roots = {root_scaffold};
  PassManager post_merge = BuildPostMergePipeline(pipeline, pm_options);
  QUILT_RETURN_IF_ERROR(post_merge.Run(merged, &artifact.pass_stats));

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

void CompileService::FillRecord(const MergedArtifact& artifact, uint64_t fingerprint,
                                const char* kind, CompileRecord* record) const {
  if (record == nullptr) {
    return;
  }
  record->kind = kind;
  record->handle = artifact.handle;
  record->members = static_cast<int>(artifact.member_handles.size());
  record->fingerprint = fingerprint;
  record->localized_edges = static_cast<int>(artifact.localized_edges.size());
  record->compile_s = ToSeconds(artifact.compile_time);
  record->link_s = ToSeconds(artifact.link_time);
  record->merge_s = ToSeconds(artifact.merge_time);
  record->codegen_s = ToSeconds(artifact.codegen_time);
  record->total_s = ToSeconds(artifact.TotalPipelineTime());
}

// ---------------------------------------------------------------------------
// Public entry points. Each holds the service lock for its whole duration;
// internal helpers never lock. The parallel phases below only call const,
// lock-free, pure helpers (CompileFresh / MergeFromModules).

Result<MergedArtifact> CompileService::BuildSingleFunction(const SourceFunction& source,
                                                           CompileRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);

  const uint64_t fp = MixWord(MixWord(kFnvOffset, kSingleTag), FingerprintSource(source));
  if (options_.artifact_cache) {
    ++stats_.artifact_lookups;
    MergedArtifact cached;
    if (artifact_cache_.Lookup(fp, &cached)) {
      ++stats_.artifact_hits;
      stats_.modeled_cost_s += ToSeconds(cached.TotalPipelineTime());
      FillRecord(cached, fp, "single", record);
      return cached;
    }
  }

  bool ir_hit = false;
  Result<IrModule> module = GetModule(source, &ir_hit);
  if (!module.ok()) {
    return module.status();
  }
  Result<MergedArtifact> artifact = BuildSingleFromModule(source, *module);
  if (!artifact.ok()) {
    return artifact.status();
  }
  artifact->fingerprint = fp;
  ++stats_.singles_built;
  stats_.modeled_cost_s += ToSeconds(artifact->TotalPipelineTime());
  stats_.charged_cost_s += SingleChargedCost(*artifact, ir_hit);
  if (options_.artifact_cache) {
    artifact_cache_.Insert(fp, *artifact);
    ++stats_.artifact_insertions;
  }
  FillRecord(*artifact, fp, "single", record);
  return artifact;
}

Result<MergedArtifact> CompileService::MergeGroup(
    const CallGraph& graph, const ::quilt::MergeGroup& group,
    const std::map<std::string, SourceFunction>& sources, CompileRecord* record) {
  std::lock_guard<std::mutex> lock(mutex_);

  Result<GroupPlan> plan = PlanGroup(graph, group, sources);
  if (!plan.ok()) {
    return plan.status();
  }

  if (options_.artifact_cache) {
    ++stats_.artifact_lookups;
    MergedArtifact cached;
    if (artifact_cache_.Lookup(plan->fingerprint, &cached)) {
      ++stats_.artifact_hits;
      stats_.modeled_cost_s += ToSeconds(cached.TotalPipelineTime());
      FillRecord(cached, plan->fingerprint, "merge", record);
      return cached;
    }
  }

  // Compile (or fetch) every member, then run the merge rounds against the
  // immutable snapshot.
  std::map<uint64_t, IrModule> snapshot;
  std::vector<bool> member_hit(plan->bfs_order.size(), false);
  for (size_t i = 0; i < plan->bfs_order.size(); ++i) {
    const SourceFunction& source = *plan->member_sources.at(plan->bfs_order[i]);
    bool hit = false;
    Result<IrModule> module = GetModule(source, &hit);
    if (!module.ok()) {
      return module.status();
    }
    member_hit[i] = hit;
    snapshot.emplace(FingerprintSource(source), std::move(module).value());
  }

  Result<MergedArtifact> artifact = MergeFromModules(graph, *plan, snapshot);
  if (!artifact.ok()) {
    return artifact.status();
  }
  ++stats_.merges_built;
  stats_.modeled_cost_s += ToSeconds(artifact->TotalPipelineTime());
  stats_.charged_cost_s += MergeChargedCost(*plan, *artifact, member_hit);
  if (options_.artifact_cache) {
    artifact_cache_.Insert(plan->fingerprint, *artifact);
    ++stats_.artifact_insertions;
  }
  FillRecord(*artifact, plan->fingerprint, "merge", record);
  return artifact;
}

Result<std::vector<MergedArtifact>> CompileService::MergeSolution(
    const CallGraph& graph, const ::quilt::MergeSolution& solution,
    const std::map<std::string, SourceFunction>& sources,
    std::vector<CompileRecord>* records) {
  std::lock_guard<std::mutex> lock(mutex_);

  // Per-group work item, filled over the sequential phases below.
  struct GroupWork {
    bool single = false;
    const SourceFunction* source = nullptr;  // Singles.
    GroupPlan plan;                          // Merges.
    uint64_t fingerprint = 0;
    bool cached = false;
    MergedArtifact artifact;  // Valid when cached; else filled in phase D.
    std::vector<bool> member_hit;
    bool single_ir_hit = false;
  };
  std::vector<GroupWork> work(solution.groups.size());

  // --- Phase A+B (sequential): plan each group, consult the artifact cache,
  // consult the IR cache for members of artifact misses, and collect the
  // deduplicated fresh-compile list in first-seen order.
  std::map<uint64_t, IrModule> snapshot;  // source fp -> compiled module
  std::vector<const SourceFunction*> misses;
  std::set<uint64_t> pending;  // Source fps already in `misses`.

  auto need_module = [&](const SourceFunction& source, bool* hit) {
    const uint64_t fp = FingerprintSource(source);
    *hit = false;
    if (snapshot.count(fp) > 0) {
      // Already fetched for an earlier group this batch; a cache would have
      // answered, so count it as a hit for accounting purposes.
      if (options_.ir_cache) {
        ++stats_.ir_lookups;
        ++stats_.ir_hits;
      }
      *hit = true;
      return;
    }
    if (pending.count(fp) > 0) {
      if (options_.ir_cache) {
        ++stats_.ir_lookups;
      }
      return;
    }
    if (options_.ir_cache) {
      ++stats_.ir_lookups;
      IrModule cached;
      if (ir_cache_.Lookup(fp, &cached)) {
        ++stats_.ir_hits;
        snapshot.emplace(fp, std::move(cached));
        *hit = true;
        return;
      }
    }
    misses.push_back(&source);
    pending.insert(fp);
  };

  for (size_t g = 0; g < solution.groups.size(); ++g) {
    const ::quilt::MergeGroup& group = solution.groups[g];
    GroupWork& w = work[g];
    if (group.members.size() == 1) {
      w.single = true;
      const std::string& handle = graph.node(group.root).name;
      auto it = sources.find(handle);
      if (it == sources.end()) {
        return NotFoundError(StrCat("no source for '", handle, "'"));
      }
      w.source = &it->second;
      w.fingerprint = MixWord(MixWord(kFnvOffset, kSingleTag), FingerprintSource(*w.source));
    } else {
      Result<GroupPlan> plan = PlanGroup(graph, group, sources);
      if (!plan.ok()) {
        return plan.status();
      }
      w.plan = std::move(plan).value();
      w.fingerprint = w.plan.fingerprint;
    }

    if (options_.artifact_cache) {
      ++stats_.artifact_lookups;
      MergedArtifact cached;
      if (artifact_cache_.Lookup(w.fingerprint, &cached)) {
        ++stats_.artifact_hits;
        w.cached = true;
        w.artifact = std::move(cached);
        continue;
      }
    }

    if (w.single) {
      need_module(*w.source, &w.single_ir_hit);
    } else {
      w.member_hit.assign(w.plan.bfs_order.size(), false);
      for (size_t i = 0; i < w.plan.bfs_order.size(); ++i) {
        bool hit = false;
        need_module(*w.plan.member_sources.at(w.plan.bfs_order[i]), &hit);
        w.member_hit[i] = hit;
      }
    }
  }

  // --- Phase C: fresh frontend compiles in parallel, into pre-sized slots;
  // results are validated and inserted into the cache sequentially in miss
  // order, so the first error and the LRU/statistics sequence are
  // independent of scheduling.
  {
    std::vector<Result<IrModule>> slots(misses.size(), Result<IrModule>(IrModule()));
    ThreadPool pool(options_.compile_threads);
    pool.ParallelFor(static_cast<int>(misses.size()), [&](int i) {
      slots[static_cast<size_t>(i)] = CompileFresh(*misses[static_cast<size_t>(i)]);
    });
    for (size_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].ok()) {
        return slots[i].status();
      }
      ++stats_.frontend_compiles;
      const uint64_t fp = FingerprintSource(*misses[i]);
      if (options_.ir_cache) {
        ir_cache_.Insert(fp, *slots[i]);
        ++stats_.ir_insertions;
      }
      snapshot.emplace(fp, std::move(slots[i]).value());
    }
  }

  // --- Phase D: the merges themselves, in parallel. Workers read only the
  // immutable snapshot and their own slot; no shared state is touched.
  std::vector<int> todo;
  for (size_t g = 0; g < work.size(); ++g) {
    if (!work[g].cached) {
      todo.push_back(static_cast<int>(g));
    }
  }
  std::vector<Result<MergedArtifact>> built(todo.size(),
                                            Result<MergedArtifact>(MergedArtifact()));
  {
    ThreadPool pool(options_.compile_threads);
    pool.ParallelFor(static_cast<int>(todo.size()), [&](int i) {
      GroupWork& w = work[static_cast<size_t>(todo[static_cast<size_t>(i)])];
      if (w.single) {
        auto it = snapshot.find(FingerprintSource(*w.source));
        built[static_cast<size_t>(i)] =
            it == snapshot.end()
                ? Result<MergedArtifact>(
                      InternalError(StrCat("no compiled module for '", w.source->handle, "'")))
                : BuildSingleFromModule(*w.source, it->second);
      } else {
        built[static_cast<size_t>(i)] = MergeFromModules(graph, w.plan, snapshot);
      }
    });
  }

  // --- Phase E (sequential, group order): surface the first error, account,
  // insert into the artifact cache, and emit records.
  for (size_t i = 0; i < todo.size(); ++i) {
    if (!built[i].ok()) {
      return built[i].status();
    }
    GroupWork& w = work[static_cast<size_t>(todo[i])];
    w.artifact = std::move(built[i]).value();
    w.artifact.fingerprint = w.fingerprint;
  }

  std::vector<MergedArtifact> artifacts;
  artifacts.reserve(work.size());
  for (GroupWork& w : work) {
    stats_.modeled_cost_s += ToSeconds(w.artifact.TotalPipelineTime());
    if (!w.cached) {
      if (w.single) {
        ++stats_.singles_built;
        stats_.charged_cost_s += SingleChargedCost(w.artifact, w.single_ir_hit);
      } else {
        ++stats_.merges_built;
        stats_.charged_cost_s += MergeChargedCost(w.plan, w.artifact, w.member_hit);
      }
      if (options_.artifact_cache) {
        artifact_cache_.Insert(w.fingerprint, w.artifact);
        ++stats_.artifact_insertions;
      }
    }
    if (records != nullptr) {
      CompileRecord record;
      FillRecord(w.artifact, w.fingerprint, w.single ? "single" : "merge", &record);
      records->push_back(std::move(record));
    }
    artifacts.push_back(std::move(w.artifact));
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
