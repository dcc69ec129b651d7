#include "src/runtime/executor.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <vector>

#include "src/common/strings.h"

namespace quilt {

namespace {

// A localized (merged) call: plain function call + string shuffling.
constexpr SimDuration kLocalCallOverhead = Nanoseconds(250);
// Loading one lazy shared library on the first remote call (DelayHTTP).
constexpr SimDuration kLazyLibLoadPerLib = Microseconds(110);
// CM internal API gateway: per-call latency and the callee process spawn.
constexpr SimDuration kCmInternalGateway = Microseconds(550);
constexpr SimDuration kCmProcessSpawn = Microseconds(650);

// One inbound request: the state every function run it spans shares. The
// environment, the deployed behavior (which keeps the running functions
// alive), the payload and the consumed conditional-invocation budgets (§5.6).
struct Request {
  ExecutionEnv env;
  DeployedBehavior behavior;
  Json payload;
  std::map<std::string, int> used_budgets;
};

class FunctionRun : public std::enable_shared_from_this<FunctionRun> {
 public:
  FunctionRun(std::shared_ptr<Request> request, const FunctionBehavior* behavior,
              bool remote_entry, bool top_level, double extra_base_mb,
              std::function<void(Result<Json>)> done)
      : request_(std::move(request)),
        env_(request_->env),
        behavior_(behavior),
        remote_entry_(remote_entry),
        top_level_(top_level),
        extra_base_mb_(extra_base_mb),
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
      if (!crash->only_on_poison || request_->payload.Get("poison").AsBool()) {
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
    const int64_t num = request_->payload.Get("num").AsInt(item.count);
    return static_cast<int>(std::max<int64_t>(0, num));
  }

  void DoCallStep(const CallStep& step, size_t next_index) {
    // Expand items into unit invocations. A run executes one step at a time,
    // so the step's state lives on the run.
    units_.clear();
    for (const CallItem& item : step.items) {
      const int count = ResolveCount(item);
      for (int i = 0; i < count; ++i) {
        units_.push_back(&item.callee);
      }
    }
    if (units_.empty()) {
      RunStep(next_index);
      return;
    }
    if (!step.parallel) {
      RunUnitsSequentially(0, next_index);
      return;
    }
    auto self = shared_from_this();
    const size_t count = units_.size();
    outstanding_ = count;
    first_error_ = Status::Ok();
    // By index up to `count`: the last unit's answer may start the next step,
    // which refills units_.
    for (size_t i = 0; i < count; ++i) {
      DispatchUnit(*units_[i], /*async=*/true, [self, next_index](Result<Json> result) {
        if (!result.ok() && self->first_error_.ok()) {
          self->first_error_ = result.status();
        }
        if (--self->outstanding_ == 0) {
          if (self->Dead()) {
            return;
          }
          if (!self->first_error_.ok()) {
            self->Complete(self->first_error_);
          } else {
            self->RunStep(next_index);
          }
        }
      });
    }
  }

  void RunUnitsSequentially(size_t unit_index, size_t next_index) {
    if (Dead()) {
      return;
    }
    if (unit_index >= units_.size()) {
      RunStep(next_index);
      return;
    }
    auto self = shared_from_this();
    DispatchUnit(*units_[unit_index], /*async=*/false,
                 [self, unit_index, next_index](Result<Json> result) {
                   if (self->Dead()) {
                     return;
                   }
                   if (!result.ok()) {
                     self->Complete(result.status());
                     return;
                   }
                   self->RunUnitsSequentially(unit_index + 1, next_index);
                 });
  }

  // Routes one invocation: Quilt-local (within budget), CM-internal, or
  // remote through the platform.
  void DispatchUnit(const std::string& callee, bool async,
                    std::function<void(Result<Json>)> cb) {
    const MergedBehavior* merged = request_->behavior.merged.get();
    if (merged != nullptr && merged->mode == MergedBehavior::Mode::kQuilt) {
      const std::string key = MergedBehavior::EdgeKey(behavior_->handle, callee);
      auto budget_it = merged->edge_budgets.find(key);
      if (budget_it != merged->edge_budgets.end()) {
        const int budget = budget_it->second;
        int& used = request_->used_budgets[key];
        if (budget == 0 || used < budget) {
          ++used;
          RunLocal(callee, std::move(cb));
          return;
        }
      }
      // Over the profiled budget (conditional invocation), or not a localized
      // edge (a cut edge in the merge solution): the remote path, first paying
      // the deferred HTTP-stack load if this is the container's first remote
      // call (DelayHTTP + Implib wrapping).
      const SimDuration lazy =
          env_.container->ConsumeLazyHttpLoad(kLazyLibLoadPerLib);
      auto self = shared_from_this();
      env_.sim->Schedule(lazy, [self, callee, async, cb = std::move(cb)]() mutable {
        self->RunRemote(callee, async, std::move(cb));
      });
      return;
    }
    if (merged != nullptr && merged->mode == MergedBehavior::Mode::kContainerMerge &&
        merged->functions.count(callee) > 0) {
      RunContainerMergeInternal(callee, std::move(cb));
      return;
    }
    RunRemote(callee, async, std::move(cb));
  }

  // Quilt local call: nanoseconds of dispatch, callee runs inline in the
  // same process (no HTTP, no serialization).
  void RunLocal(const std::string& callee, std::function<void(Result<Json>)> cb) {
    const MergedBehavior& merged = *request_->behavior.merged;
    auto it = merged.functions.find(callee);
    if (it == merged.functions.end()) {
      cb(InternalError(StrCat("localized edge to unknown function '", callee, "'")));
      return;
    }
    auto self = shared_from_this();
    const FunctionBehavior* callee_behavior = &it->second;
    env_.sim->Schedule(kLocalCallOverhead, [self, callee_behavior, cb = std::move(cb)]() mutable {
      if (self->Dead()) {
        return;
      }
      auto run = std::make_shared<FunctionRun>(self->request_, callee_behavior,
                                               /*remote_entry=*/false, /*top_level=*/false,
                                               /*extra_base_mb=*/0.0, std::move(cb));
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
      const SimDuration overhead = kCmInternalGateway + kCmProcessSpawn;
      self->env_.sim->Schedule(overhead, [self, callee, cb = std::move(cb)]() mutable {
        if (self->Dead()) {
          return;
        }
        const MergedBehavior& merged = *self->request_->behavior.merged;
        auto it = merged.functions.find(callee);
        if (it == merged.functions.end()) {
          cb(InternalError("CM dispatch to unknown function"));
          return;
        }
        auto run = std::make_shared<FunctionRun>(
            self->request_, &it->second, /*remote_entry=*/true, /*top_level=*/false,
            /*extra_base_mb=*/kCmProcessBaseMb, std::move(cb));
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
                                     .payload = self->request_->payload,
                                     .async = async,
                                     .done = std::move(cb)});
        });
  }

  std::shared_ptr<Request> request_;
  const ExecutionEnv& env_;  // request_->env, alive as long as request_.
  const FunctionBehavior* behavior_;
  bool remote_entry_;
  bool top_level_;
  double extra_base_mb_;
  std::function<void(Result<Json>)> done_;

  bool finished_ = false;
  double allocated_mb_ = 0.0;
  int64_t request_token_ = 0;

  // The current call step: its units (callees named by the behavior's
  // CallItems), and for a parallel step the answers still outstanding and
  // the first error among them.
  std::vector<const std::string*> units_;
  size_t outstanding_ = 0;
  Status first_error_;
};

}  // namespace

void ExecuteRequest(ExecutionEnv env, const DeployedBehavior& behavior, Json payload,
                    bool remote_entry, std::function<void(Result<Json>)> done) {
  assert(behavior.valid());
  const FunctionBehavior* entry = behavior.single.get();
  if (entry == nullptr) {
    auto it = behavior.merged->functions.find(behavior.merged->root_handle);
    if (it == behavior.merged->functions.end()) {
      done(InternalError("merged behavior missing its root function"));
      return;
    }
    entry = &it->second;
  }
  auto request = std::make_shared<Request>(std::move(env), behavior, std::move(payload));
  auto run = std::make_shared<FunctionRun>(std::move(request), entry, remote_entry,
                                           /*top_level=*/true, /*extra_base_mb=*/0.0,
                                           std::move(done));
  run->Start();
}

}  // namespace quilt
