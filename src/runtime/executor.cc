#include "src/runtime/executor.h"

#include <algorithm>
#include <cassert>

#include "src/common/strings.h"

namespace quilt {

namespace {

// Per top-level-request state shared by every nested local execution:
// consumed conditional-invocation budgets (§5.6).
struct RequestBudgets {
  std::map<std::string, int> used;
};

class FunctionRun : public std::enable_shared_from_this<FunctionRun> {
 public:
  FunctionRun(ExecutionEnv env, std::shared_ptr<const MergedBehavior> merged,
              std::shared_ptr<const FunctionBehavior> single, const FunctionBehavior* behavior,
              Json payload, bool remote_entry, bool top_level, double extra_base_mb,
              std::shared_ptr<RequestBudgets> budgets, std::function<void(Result<Json>)> done)
      : env_(std::move(env)),
        merged_(std::move(merged)),
        single_(std::move(single)),
        behavior_(behavior),
        payload_(std::move(payload)),
        remote_entry_(remote_entry),
        top_level_(top_level),
        extra_base_mb_(extra_base_mb),
        budgets_(std::move(budgets)),
        done_(std::move(done)) {}

  void Start() {
    auto self = shared_from_this();
    if (top_level_) {
      request_token_ = env_.container->BeginRequest([self] {
        // Container died mid-request: fail it immediately, distinguishing an
        // OOM kill (resource exhaustion) from a crash so the failure
        // taxonomy -- and the span status -- reflect the real cause.
        if (!self->finished_) {
          self->finished_ = true;
          if (self->env_.container->kill_cause() == ContainerKillCause::kOom) {
            self->done_(Status(StatusCode::kResourceExhausted,
                               "container OOM-killed mid-request"));
          } else if (self->env_.container->kill_cause() == ContainerKillCause::kNodeFailure) {
            self->done_(Status(StatusCode::kAborted,
                               "worker node failed mid-request"));
          } else {
            self->done_(Status(StatusCode::kAborted, "container killed mid-request"));
          }
        }
      });
    }

    // Reserve the function's working set (plus, for CM callees, the spawned
    // process's runtime footprint).
    const double want_mb = behavior_->request_memory_mb + extra_base_mb_;
    const Status reserved = env_.container->ReserveMemory(want_mb);
    if (!reserved.ok()) {
      // Memory limit exceeded: the kernel kills the whole container.
      if (env_.trigger_kill) {
        env_.trigger_kill(KillReason::kOom);
      }
      // The top-level abort handler (fired by Kill) already answered; nested
      // runs collapse silently -- their parents were aborted too.
      return;
    }
    allocated_mb_ = want_mb;

    if (remote_entry_) {
      // HTTP parsing, payload deserialization, response serialization.
      env_.container->cpu().Submit(env_.costs->handler_cpu_ms / 1000.0, [self] {
        self->Bill(self->env_.costs->handler_cpu_ms);
        self->RunStep(0);
      });
    } else {
      RunStep(0);
    }
  }

 private:
  bool Dead() const {
    return finished_ || env_.container->state() == ContainerState::kKilled;
  }

  void Bill(double cpu_ms) const {
    if (env_.bill_cpu) {
      env_.bill_cpu(behavior_->handle, cpu_ms);
    }
  }

  void Complete(Result<Json> result) {
    if (finished_) {
      return;
    }
    finished_ = true;
    env_.container->ReleaseMemory(allocated_mb_);
    if (top_level_) {
      env_.container->EndRequest(request_token_);
    }
    done_(std::move(result));
  }

  void RunStep(size_t index) {
    if (Dead()) {
      return;
    }
    if (index >= behavior_->steps.size()) {
      Json response = Json::MakeObject();
      response["fn"] = behavior_->handle;
      response["ok"] = true;
      Complete(std::move(response));
      return;
    }
    auto self = shared_from_this();
    const BehaviorStep& step = behavior_->steps[index];
    if (const auto* compute = std::get_if<ComputeStep>(&step)) {
      const double cpu_ms = compute->cpu_ms;
      env_.container->cpu().Submit(cpu_ms / 1000.0, [self, index, cpu_ms] {
        self->Bill(cpu_ms);
        self->RunStep(index + 1);
      });
    } else if (const auto* sleep = std::get_if<SleepStep>(&step)) {
      env_.sim->Schedule(Milliseconds(sleep->latency_ms),
                         [self, index] { self->RunStep(index + 1); });
    } else if (const auto* alloc = std::get_if<AllocStep>(&step)) {
      const Status reserved = env_.container->ReserveMemory(alloc->mb);
      if (!reserved.ok()) {
        if (env_.trigger_kill) {
          env_.trigger_kill(KillReason::kOom);
        }
        return;
      }
      allocated_mb_ += alloc->mb;
      RunStep(index + 1);
    } else if (const auto* call = std::get_if<CallStep>(&step)) {
      DoCallStep(*call, index + 1);
    } else if (const auto* crash = std::get_if<CrashStep>(&step)) {
      if (!crash->only_on_poison || payload_.Get("poison").AsBool()) {
        // The process dies: every function fused into it dies too.
        if (env_.trigger_kill) {
          env_.trigger_kill(KillReason::kCrash);
        }
        return;
      }
      RunStep(index + 1);
    }
  }

  int ResolveCount(const CallItem& item) const {
    if (!item.data_dependent) {
      return item.count;
    }
    const int64_t num = payload_.Get("num").AsInt(item.count);
    return static_cast<int>(std::max<int64_t>(0, num));
  }

  void DoCallStep(const CallStep& step, size_t next_index) {
    // Expand items into unit invocations.
    auto units = std::make_shared<std::vector<std::string>>();
    for (const CallItem& item : step.items) {
      const int count = ResolveCount(item);
      for (int i = 0; i < count; ++i) {
        units->push_back(item.callee);
      }
    }
    auto self = shared_from_this();
    if (units->empty()) {
      RunStep(next_index);
      return;
    }
    if (step.parallel) {
      auto outstanding = std::make_shared<int>(static_cast<int>(units->size()));
      auto first_error = std::make_shared<Status>();
      for (const std::string& callee : *units) {
        DispatchUnit(callee, /*async=*/true,
                     [self, outstanding, first_error, next_index](Result<Json> result) {
                       if (!result.ok() && first_error->ok()) {
                         *first_error = result.status();
                       }
                       if (--*outstanding == 0) {
                         if (self->Dead()) {
                           return;
                         }
                         if (!first_error->ok()) {
                           self->Complete(*first_error);
                         } else {
                           self->RunStep(next_index);
                         }
                       }
                     });
      }
    } else {
      RunUnitsSequentially(units, 0, next_index);
    }
  }

  void RunUnitsSequentially(std::shared_ptr<std::vector<std::string>> units, size_t unit_index,
                            size_t next_index) {
    if (Dead()) {
      return;
    }
    if (unit_index >= units->size()) {
      RunStep(next_index);
      return;
    }
    auto self = shared_from_this();
    DispatchUnit((*units)[unit_index], /*async=*/false,
                 [self, units, unit_index, next_index](Result<Json> result) {
                   if (self->Dead()) {
                     return;
                   }
                   if (!result.ok()) {
                     self->Complete(result.status());
                     return;
                   }
                   self->RunUnitsSequentially(units, unit_index + 1, next_index);
                 });
  }

  // Routes one invocation: Quilt-local (within budget), CM-internal, or
  // remote through the platform.
  void DispatchUnit(const std::string& callee, bool async,
                    std::function<void(Result<Json>)> cb) {
    auto self = shared_from_this();
    if (merged_ != nullptr && merged_->mode == MergedBehavior::Mode::kQuilt) {
      const std::string key = MergedBehavior::EdgeKey(behavior_->handle, callee);
      auto budget_it = merged_->edge_budgets.find(key);
      if (budget_it != merged_->edge_budgets.end()) {
        const int budget = budget_it->second;
        int& used = budgets_->used[key];
        if (budget == 0 || used < budget) {
          ++used;
          RunLocal(callee, std::move(cb));
          return;
        }
        // Over the profiled budget: conditional invocation falls back to the
        // remote path, first paying the deferred HTTP-stack load if this is
        // the container's first remote call (DelayHTTP + Implib wrapping).
        const SimDuration lazy =
            env_.container->ConsumeLazyHttpLoad(env_.costs->lazy_lib_load_per_lib);
        env_.sim->Schedule(lazy, [self, callee, async, cb = std::move(cb)]() mutable {
          self->RunRemote(callee, async, std::move(cb));
        });
        return;
      }
      // Not a localized edge: remote (cut edge in the merge solution).
      const SimDuration lazy =
          env_.container->ConsumeLazyHttpLoad(env_.costs->lazy_lib_load_per_lib);
      env_.sim->Schedule(lazy, [self, callee, async, cb = std::move(cb)]() mutable {
        self->RunRemote(callee, async, std::move(cb));
      });
      return;
    }
    if (merged_ != nullptr && merged_->mode == MergedBehavior::Mode::kContainerMerge &&
        merged_->functions.count(callee) > 0) {
      RunContainerMergeInternal(callee, std::move(cb));
      return;
    }
    RunRemote(callee, async, std::move(cb));
  }

  // Quilt local call: nanoseconds of dispatch, callee runs inline in the
  // same process (no HTTP, no serialization).
  void RunLocal(const std::string& callee, std::function<void(Result<Json>)> cb) {
    auto it = merged_->functions.find(callee);
    if (it == merged_->functions.end()) {
      cb(InternalError(StrCat("localized edge to unknown function '", callee, "'")));
      return;
    }
    auto self = shared_from_this();
    const FunctionBehavior* callee_behavior = &it->second;
    env_.sim->Schedule(env_.costs->local_call_overhead, [self, callee_behavior,
                                                         cb = std::move(cb)]() mutable {
      if (self->Dead()) {
        return;
      }
      auto run = std::make_shared<FunctionRun>(self->env_, self->merged_, nullptr,
                                               callee_behavior, self->payload_,
                                               /*remote_entry=*/false, /*top_level=*/false,
                                               /*extra_base_mb=*/0.0, self->budgets_,
                                               std::move(cb));
      run->Start();
    });
  }

  // CM internal call: stays in the container but crosses the internal API
  // gateway and spawns the callee's process (full runtime footprint, full
  // serialization work).
  void RunContainerMergeInternal(const std::string& callee,
                                 std::function<void(Result<Json>)> cb) {
    auto self = shared_from_this();
    // Caller-side serialization CPU.
    env_.container->cpu().Submit(env_.costs->invoke_cpu_ms / 1000.0, [self, callee,
                                                                      cb = std::move(
                                                                          cb)]() mutable {
      if (self->Dead()) {
        return;
      }
      const SimDuration overhead =
          self->env_.costs->cm_internal_gateway + self->env_.costs->cm_process_spawn;
      self->env_.sim->Schedule(overhead, [self, callee, cb = std::move(cb)]() mutable {
        if (self->Dead()) {
          return;
        }
        auto it = self->merged_->functions.find(callee);
        if (it == self->merged_->functions.end()) {
          cb(InternalError("CM dispatch to unknown function"));
          return;
        }
        auto run = std::make_shared<FunctionRun>(
            self->env_, self->merged_, nullptr, &it->second, self->payload_,
            /*remote_entry=*/true, /*top_level=*/false,
            /*extra_base_mb=*/self->env_.costs->cm_process_base_mb, self->budgets_,
            std::move(cb));
        run->Start();
      });
    });
  }

  // Remote invocation through the platform: caller-side serialization CPU,
  // then the full gateway path.
  void RunRemote(const std::string& callee, bool async, std::function<void(Result<Json>)> cb) {
    if (Dead()) {
      return;
    }
    auto self = shared_from_this();
    env_.container->cpu().Submit(
        env_.costs->invoke_cpu_ms / 1000.0, [self, callee, async, cb = std::move(cb)]() mutable {
          if (self->Dead()) {
            return;
          }
          self->Bill(self->env_.costs->invoke_cpu_ms);
          self->env_.remote->Invoke({.caller = self->behavior_->handle,
                                     .callee = callee,
                                     .parent = self->env_.trace,
                                     .payload = self->payload_,
                                     .async = async,
                                     .done = std::move(cb)});
        });
  }

  ExecutionEnv env_;
  std::shared_ptr<const MergedBehavior> merged_;
  std::shared_ptr<const FunctionBehavior> single_;  // Keep-alive for baseline runs.
  const FunctionBehavior* behavior_;
  Json payload_;
  bool remote_entry_;
  bool top_level_;
  double extra_base_mb_;
  std::shared_ptr<RequestBudgets> budgets_;
  std::function<void(Result<Json>)> done_;

  bool finished_ = false;
  double allocated_mb_ = 0.0;
  int64_t request_token_ = 0;
};

}  // namespace

void ExecuteRequest(const ExecutionEnv& env, const DeployedBehavior& behavior, Json payload,
                    bool remote_entry, std::function<void(Result<Json>)> done) {
  assert(behavior.valid());
  auto budgets = std::make_shared<RequestBudgets>();
  if (behavior.single != nullptr) {
    auto run = std::make_shared<FunctionRun>(env, nullptr, behavior.single,
                                             behavior.single.get(), std::move(payload),
                                             remote_entry, /*top_level=*/true,
                                             /*extra_base_mb=*/0.0, budgets, std::move(done));
    run->Start();
    return;
  }
  auto it = behavior.merged->functions.find(behavior.merged->root_handle);
  if (it == behavior.merged->functions.end()) {
    done(InternalError("merged behavior missing its root function"));
    return;
  }
  auto run = std::make_shared<FunctionRun>(env, behavior.merged, nullptr, &it->second,
                                           std::move(payload), remote_entry,
                                           /*top_level=*/true, /*extra_base_mb=*/0.0, budgets,
                                           std::move(done));
  run->Start();
}

}  // namespace quilt
