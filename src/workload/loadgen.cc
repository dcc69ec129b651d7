#include "src/workload/loadgen.h"

#include <memory>

#include "src/tracing/span.h"

namespace quilt {

namespace {

struct RunState {
  LoadResult result;
  SimTime measure_start = 0;
  SimTime measure_end = 0;
};

void RecordResponse(RunState& state, SimTime sent_at, SimTime now, const Status& status) {
  if (sent_at < state.measure_start || sent_at >= state.measure_end) {
    return;  // Warmup or overrun: not measured.
  }
  if (now > state.measure_end) {
    // Completed during the drain period: not part of the measured window.
    // Applies to successes and failures alike -- counting drain failures but
    // not drain successes would skew FailureRate() under load.
    return;
  }
  if (status.ok()) {
    ++state.result.completed;
    state.result.latency.Record(now - sent_at);
  } else {
    ++state.result.failed;
    ++state.result.failures_by_cause[StatusCodeName(status.code())];
    if (status.code() == StatusCode::kDeadlineExceeded) {
      ++state.result.timeouts;
    }
  }
}

}  // namespace

LoadResult ClosedLoopGenerator::Run(Simulation* sim, Invoker* invoker,
                                    const std::string& target, const Options& options) {
  auto state = std::make_shared<RunState>();
  state->measure_start = sim->now() + options.warmup;
  state->measure_end = state->measure_start + options.duration;
  state->result.measured_duration = options.duration;

  // One send-loop per connection. The loop closure captures itself weakly:
  // a strong self-capture would form a shared_ptr cycle that outlives the
  // run (the local `send_next` below is the one strong reference, released
  // when Run returns; late-firing events then lock() null and no-op).
  auto send_next = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_send = send_next;
  *send_next = [sim, invoker, target, options, state, weak_send] {
    const SimTime sent_at = sim->now();
    if (sent_at >= state->measure_end) {
      return;  // Connection closes.
    }
    // Context-free entry point: each client request roots a fresh trace.
    invoker->Invoke(
        {.caller = kClientCaller,
         .callee = target,
         .parent = {},
         .payload = options.payload,
         .async = false,
         .done = [sim, options, state, weak_send, sent_at](Result<Json> result) {
           RecordResponse(*state, sent_at, sim->now(), result.status());
           sim->Schedule(options.think_time, [weak_send] {
             if (auto next = weak_send.lock()) {
               (*next)();
             }
           });
         }});
  };
  for (int c = 0; c < options.connections; ++c) {
    sim->Schedule(0, [send_next] { (*send_next)(); });
  }

  sim->RunUntil(state->measure_end + options.drain_grace);
  return state->result;
}

LoadResult OpenLoopGenerator::Run(Simulation* sim, Invoker* invoker, const std::string& target,
                                  const Options& options) {
  LoadPhase phase;
  phase.rps = options.rps;
  phase.duration = options.duration;
  phase.payload = options.payload;
  phase.payload_fn = options.payload_fn;
  PhasedOptions phased;
  phased.warmup = options.warmup;
  phased.poisson = options.poisson;
  phased.seed = options.seed;
  phased.drain_grace = options.drain_grace;
  phased.phases.push_back(std::move(phase));
  return std::move(RunPhased(sim, invoker, target, phased)[0].result);
}

std::vector<PhaseResult> OpenLoopGenerator::RunPhased(Simulation* sim, Invoker* invoker,
                                                      const std::string& target,
                                                      const PhasedOptions& options) {
  if (options.phases.empty()) {
    return {};
  }
  // One RunState per phase; responses are attributed to the phase whose
  // window covers their send time.
  auto states = std::make_shared<std::vector<std::shared_ptr<RunState>>>();
  auto rows = std::make_shared<std::vector<PhaseResult>>();
  SimTime cursor = sim->now() + options.warmup;
  for (const LoadPhase& phase : options.phases) {
    PhaseResult row;
    row.name = phase.name;
    row.start = cursor;
    row.end = cursor + phase.duration;
    cursor = row.end;
    auto state = std::make_shared<RunState>();
    state->measure_start = row.start;
    state->measure_end = row.end;
    state->result.measured_duration = phase.duration;
    state->result.offered_rps = phase.rps;
    states->push_back(std::move(state));
    rows->push_back(std::move(row));
  }
  const SimTime run_end = cursor;

  // During warmup arrivals use the first phase's rate and payload; the index
  // then tracks the phase covering "now".
  auto phase_at = [rows](SimTime when) {
    size_t index = 0;
    for (size_t i = 0; i < rows->size(); ++i) {
      if (when >= (*rows)[i].start) {
        index = i;
      }
    }
    return index;
  };

  // Arrivals are scheduled lazily (one event schedules the next) to keep the
  // event queue small at high rates. Weak self-capture, as in the closed loop
  // above: the local `arrive` is the only strong reference, so the closure
  // chain is freed when RunPhased returns.
  auto rng = std::make_shared<Rng>(options.seed);
  auto arrive = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_arrive = arrive;
  *arrive = [sim, invoker, target, options, states, rows, rng, weak_arrive, run_end,
             phase_at] {
    const SimTime sent_at = sim->now();
    if (sent_at >= run_end) {
      return;
    }
    const size_t index = phase_at(sent_at);
    const LoadPhase& phase = options.phases[index];
    if (phase.rps <= 0.0) {
      // Idle phase: sleep to its end instead of busy-looping at one instant.
      sim->Schedule((*rows)[index].end - sent_at, [weak_arrive] {
        if (auto next = weak_arrive.lock()) {
          (*next)();
        }
      });
      return;
    }
    Json payload = phase.payload_fn ? phase.payload_fn(*rng) : phase.payload;
    // Context-free entry point: each client request roots a fresh trace.
    invoker->Invoke({.caller = kClientCaller,
                     .callee = target,
                     .parent = {},
                     .payload = std::move(payload),
                     .async = false,
                     .done = [sim, states, sent_at, index](Result<Json> result) {
                       RecordResponse(*(*states)[index], sent_at, sim->now(),
                                      result.status());
                     }});
    const double interval_s = 1.0 / phase.rps;
    const double next_s = options.poisson ? rng->Exponential(interval_s) : interval_s;
    sim->Schedule(Seconds(next_s), [weak_arrive] {
      if (auto next = weak_arrive.lock()) {
        (*next)();
      }
    });
  };
  sim->Schedule(0, [arrive] { (*arrive)(); });

  sim->RunUntil(run_end + options.drain_grace);
  for (size_t i = 0; i < rows->size(); ++i) {
    (*rows)[i].result = std::move((*states)[i]->result);
  }
  return std::move(*rows);
}

}  // namespace quilt
