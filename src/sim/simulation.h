// Discrete-event simulation core.
//
// The platform substrate runs on virtual time: every latency in the system
// (network hops, gateway processing, CPU execution, cold starts) is an event
// scheduled on this queue. Determinism: ties break by insertion sequence.
//
// Hot-path design (see src/sim/event_queue.h): events live in a slab-backed
// 4-ary heap and callbacks in a small-buffer-optimized EventFn, so the
// steady-state Schedule/fire cycle performs zero heap allocations. The
// pre-overhaul loop lives on as a test oracle (LegacyEventLoop in
// tests/sim/legacy_event_loop.h); the two are kept observationally
// identical by tests/sim/event_queue_determinism_test.cc.
//
// Time policy:
//  - Schedule() clamps negative delays to zero.
//  - ScheduleAt() clamps past targets to now(): the clock is monotone, a
//    "late" event fires at the current instant, after events already queued
//    for that instant (insertion order). past_clamps() counts occurrences.
//    (Previously this was a debug-only assert that compiled out under
//    NDEBUG and let release builds run the clock backwards.)
//  - Stop() is sticky: it halts the in-progress Run()/RunUntil() -- or, if
//    none is in progress, the *next* one immediately -- and is consumed by
//    that run. A Stop() inside RunUntil() freezes the clock at the stop
//    instant instead of advancing it to the deadline.
#ifndef SRC_SIM_SIMULATION_H_
#define SRC_SIM_SIMULATION_H_

#include <cstdint>
#include <utility>

#include "src/common/sim_time.h"
#include "src/sim/event_queue.h"

namespace quilt {

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  // Schedules fn to run `delay` from now (clamped to >= 0). Templated so the
  // callable is forwarded all the way into the queue's slab slot -- no
  // intermediate EventFn is materialized or moved on the hot path.
  template <typename F>
  void Schedule(SimDuration delay, F&& fn) {
    if (delay < 0) {
      delay = 0;
    }
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }
  // Schedules fn at the absolute instant `when` (clamped to >= now()).
  template <typename F>
  void ScheduleAt(SimTime when, F&& fn) {
    if (when <= now_) {
      if (when < now_) {
        // Monotone-clock policy: a past target fires "now", after events
        // already queued for this instant. Counted so misbehaving
        // schedulers are visible.
        ++past_clamps_;
      }
      // Due at the current instant: skip the heap entirely (FIFO ring).
      queue_.PushDue(std::forward<F>(fn));
      return;
    }
    queue_.Push(when, std::forward<F>(fn));
  }

  // Runs until the queue is empty (or Stop() is called).
  void Run();
  // Runs events with time <= deadline; the clock ends at the deadline
  // unless a Stop() froze it earlier.
  void RunUntil(SimTime deadline);

  // Sticky: consumed by the current run, or by the next one if idle.
  void Stop() { stopped_ = true; }

  int64_t events_processed() const { return events_processed_; }
  // Number of ScheduleAt() calls whose target was already in the past.
  int64_t past_clamps() const { return past_clamps_; }
  int64_t pending_events() const { return static_cast<int64_t>(queue_.size()); }

 private:
  EventQueue queue_;
  SimTime now_ = 0;
  int64_t events_processed_ = 0;
  int64_t past_clamps_ = 0;
  bool stopped_ = false;
};

}  // namespace quilt

#endif  // SRC_SIM_SIMULATION_H_
