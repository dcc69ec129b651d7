// The pre-overhaul event core, kept as a reference implementation.
//
// This is, verbatim in behavior, the std::priority_queue-of-std::function
// loop the simulator shipped with before the slab/4-ary-heap rewrite
// (src/sim/event_queue.h). It exists for two jobs:
//
//  - tests/sim/event_queue_determinism_test.cc replays identical randomized
//    schedules through this loop and through Simulation and asserts the
//    event firing order, timestamps and events_processed() match exactly --
//    the rewrite must be observationally byte-identical;
//  - bench/micro_eventloop.cc uses it as the baseline series, so the
//    recorded events/sec speedup is measured against the real pre-overhaul
//    code, not a strawman.
//
// It deliberately keeps the old cost profile (heap-allocated closures,
// copy-out of the queue top) but adopts the overhauled *semantics*: past
// ScheduleAt targets clamp to now() and Stop() is sticky, so both loops
// implement one contract and the determinism test can exercise the clamp and
// stop interleavings on both sides.
#ifndef TESTS_SIM_LEGACY_EVENT_LOOP_H_
#define TESTS_SIM_LEGACY_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "src/common/sim_time.h"

namespace quilt {

class LegacyEventLoop {
 public:
  LegacyEventLoop() = default;
  LegacyEventLoop(const LegacyEventLoop&) = delete;
  LegacyEventLoop& operator=(const LegacyEventLoop&) = delete;

  SimTime now() const { return now_; }

  void Schedule(SimDuration delay, std::function<void()> fn) {
    if (delay < 0) {
      delay = 0;
    }
    ScheduleAt(now_ + delay, std::move(fn));
  }

  void ScheduleAt(SimTime when, std::function<void()> fn) {
    if (when < now_) {
      when = now_;
    }
    queue_.push(Event{when, next_seq_++, std::move(fn)});
  }

  void Run() {
    while (!stopped_ && !queue_.empty()) {
      Event event = queue_.top();
      queue_.pop();
      now_ = event.time;
      ++events_processed_;
      event.fn();
    }
    stopped_ = false;
  }

  void RunUntil(SimTime deadline) {
    while (!stopped_ && !queue_.empty() && queue_.top().time <= deadline) {
      Event event = queue_.top();
      queue_.pop();
      now_ = event.time;
      ++events_processed_;
      event.fn();
    }
    if (stopped_) {
      stopped_ = false;
      return;
    }
    if (now_ < deadline) {
      now_ = deadline;
    }
  }

  void Stop() { stopped_ = true; }

  int64_t events_processed() const { return events_processed_; }

 private:
  struct Event {
    SimTime time;
    int64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) {
        return a.time > b.time;
      }
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  SimTime now_ = 0;
  int64_t next_seq_ = 0;
  int64_t events_processed_ = 0;
  bool stopped_ = false;
};

}  // namespace quilt

#endif  // TESTS_SIM_LEGACY_EVENT_LOOP_H_
