// CompileService: the cached, parallel home of the Figure 5 pipeline
// (§5.1-§5.4), shared by the controller's deploy/reconsider/canary paths.
//
// The service wraps the frontend -> passes -> link -> codegen stack behind
// three operations (single build, group merge, solution merge) and adds the
// two properties the raw pipeline lacks:
//
//  1. Content-addressed caching. A per-function IR cache keyed by the
//     SourceFunction fingerprint skips repeated frontend runs, and a
//     merged-artifact cache keyed by the canonical group fingerprint
//     (member fingerprints in BFS order + in-group alpha budgets +
//     QuiltcOptions) skips whole recompilations. Hits are modeled as
//     incremental (~0) cost in the service stats.
//
//  2. Deterministic parallelism. MergeSolution fans the per-group merges out
//     over a ThreadPool. All cache mutation happens in sequential phases;
//     the parallel phase reads only an immutable module snapshot and writes
//     into pre-sized slots, so artifacts, records, and even cache statistics
//     are byte-identical across 1/2/8 threads and with the caches on or off.
//
// Telemetry splits along the same line: CompileRecord carries only
// input-pure fields (see compile_record.h) while cache- and thread-derived
// numbers live in CompileServiceStats.
#ifndef SRC_QUILTC_COMPILE_SERVICE_H_
#define SRC_QUILTC_COMPILE_SERVICE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/compile_record.h"
#include "src/common/lru_cache.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/frontend/source_function.h"
#include "src/graph/call_graph.h"
#include "src/ir/ir_module.h"
#include "src/partition/problem.h"
#include "src/quiltc/merged_artifact.h"

namespace quilt {

// Options of the merge-compilation pipeline (§5.2, §5.6).
struct QuiltcOptions {
  bool conditional_invocations = true;  // §5.6 guards on localized calls.
  bool delay_http = true;               // §5.2 step 6.
  bool dce = true;                      // Debloating.
  bool implib_wrap = true;              // §5.2 step 9.
};

struct CompileServiceOptions {
  QuiltcOptions quiltc;

  // Threads for the parallel phase of MergeSolution. <=1 runs inline.
  int compile_threads = 1;

  // Per-function IR cache (frontend outputs), LRU by source fingerprint
  // (512 entries).
  bool ir_cache = true;

  // Merged-artifact cache, LRU by canonical group fingerprint (128 entries).
  bool artifact_cache = true;

  // Test seam: replaces CompileToIr when set. Lets tests count fresh
  // frontend runs or hand the pipeline a deliberately corrupted module.
  std::function<Result<IrModule>(const SourceFunction&)> frontend;
};

// Aggregate counters since construction. These
// are deliberately OUTSIDE CompileRecord: hit counts depend on cache
// configuration and call history, so they would break the record-determinism
// contract. All counters are updated in sequential phases only, so they too
// are identical across thread counts.
struct CompileServiceStats {
  int64_t frontend_compiles = 0;  // Fresh frontend (CompileToIr) runs.
  int64_t singles_built = 0;      // Single-function artifacts built fresh.
  int64_t merges_built = 0;       // Merged artifacts built fresh.

  int64_t ir_lookups = 0;
  int64_t ir_hits = 0;
  int64_t ir_insertions = 0;
  int64_t ir_evictions = 0;

  int64_t artifact_lookups = 0;
  int64_t artifact_hits = 0;
  int64_t artifact_insertions = 0;
  int64_t artifact_evictions = 0;

  // Modeled compile cost of everything requested, from scratch, vs. what was
  // actually charged after cache credit (artifact hit = 0; IR hits credit
  // the member's frontend share).
  double modeled_cost_s = 0.0;
  double charged_cost_s = 0.0;

  double IrHitRate() const {
    return ir_lookups == 0 ? 0.0 : static_cast<double>(ir_hits) / ir_lookups;
  }
  double ArtifactHitRate() const {
    return artifact_lookups == 0
               ? 0.0
               : static_cast<double>(artifact_hits) / artifact_lookups;
  }
};

class CompileService {
 public:
  explicit CompileService(CompileServiceOptions options = {});

  // Builds the deployable artifact for one function without merging. Unlike
  // the historical path, the frontend module is Verify()-ed before use.
  Result<MergedArtifact> BuildSingleFunction(const SourceFunction& source,
                                             CompileRecord* record = nullptr);

  // Merges one decided group (members resolved against `sources` by graph
  // node name; non-root members must have opted in).
  Result<MergedArtifact> MergeGroup(const CallGraph& graph, const MergeGroup& group,
                                    const std::map<std::string, SourceFunction>& sources,
                                    CompileRecord* record = nullptr);

  // Merges every group of a solution, groups in parallel across
  // options().compile_threads; one-member groups take the single-function
  // path. Artifacts and records come back in group order and are
  // byte-identical for any thread count and cache setting.
  Result<std::vector<MergedArtifact>> MergeSolution(
      const CallGraph& graph, const MergeSolution& solution,
      const std::map<std::string, SourceFunction>& sources,
      std::vector<CompileRecord>* records = nullptr);

  // Content address of one function's compilation inputs: every
  // SourceFunction field the frontend reads (handle, lang, code bytes,
  // dependency count, invocation sites, opt-in flag).
  static uint64_t FingerprintSource(const SourceFunction& source);

  // Canonical fingerprint of a merge-group compilation: QuiltcOptions bits,
  // the root handle, member source fingerprints in BFS order, and every
  // in-group edge with its alpha budget. Changing any input that can change
  // the artifact changes the fingerprint.
  Result<uint64_t> FingerprintGroup(const CallGraph& graph, const ::quilt::MergeGroup& group,
                                    const std::map<std::string, SourceFunction>& sources) const;

  const CompileServiceOptions& options() const { return options_; }
  CompileServiceStats stats() const;

 private:
  struct GroupPlan;  // Validated group: member sources in BFS order.
  struct Job;        // One artifact to produce: a single build or a group merge.

  // Raw frontend run + Verify, no cache. Safe to call from worker threads.
  Result<IrModule> CompileFresh(const SourceFunction& source) const;

  // Incremental cost actually charged for a fresh merge given which members
  // came out of the IR cache.
  static double MergeChargedCost(const GroupPlan& plan, const MergedArtifact& artifact,
                                 const std::vector<bool>& member_hit);

  Result<GroupPlan> PlanGroup(const CallGraph& graph, const ::quilt::MergeGroup& group,
                              const std::map<std::string, SourceFunction>& sources) const;

  // The Figure 5 merge rounds over already-compiled member modules. Pure:
  // reads `modules` (keyed by source fingerprint), touches no service state.
  Result<MergedArtifact> MergeFromModules(const GroupPlan& plan,
                                          const std::map<uint64_t, IrModule>& modules) const;
  Result<MergedArtifact> BuildSingleFromModule(const SourceFunction& source,
                                               const IrModule& module) const;

  // The one cache protocol behind all three entry points: artifact-cache
  // lookup, IR-cache consultation for the inputs of every miss, fresh
  // frontend runs and builds (threaded only when there is more than one),
  // then accounting and cache inserts in job order. Leaves each job's
  // artifact in the job and appends one record per job. Caller holds mutex_.
  Status Run(std::span<Job> jobs, std::vector<CompileRecord>* records);
  Result<MergedArtifact> RunOne(Job& job, CompileRecord* record);
  // Runs task(i) for i in [0, count), across compile_threads only when there
  // is more than one.
  template <typename Task>
  void ForEach(size_t count, const Task& task) const;

  CompileServiceOptions options_;

  mutable std::mutex mutex_;  // Guards caches_ and stats_.
  LruCache<uint64_t, IrModule> ir_cache_;
  LruCache<uint64_t, MergedArtifact> artifact_cache_;
  CompileServiceStats stats_;
};

// Modeled llc cost for the final bitcode (tests check artifacts against it).
SimDuration ModeledCodegenTime(int64_t module_bytes);

// Canonical serialization of everything observable about an artifact except
// PassStats::wall_ms (host wall-clock, not a function of the inputs). Two
// artifacts with equal signatures are interchangeable; the determinism and
// cache-equivalence tests compare these.
std::string ArtifactSignature(const MergedArtifact& artifact);

}  // namespace quilt

#endif  // SRC_QUILTC_COMPILE_SERVICE_H_
