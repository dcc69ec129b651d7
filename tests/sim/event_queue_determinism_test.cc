// Oracle test for the event-core rewrite: the slab/4-ary-heap Simulation and
// the pre-overhaul LegacyEventLoop (std::priority_queue of std::function)
// must be observationally identical. Randomized schedules — heavy timestamp
// ties, nested scheduling, past-target clamps, RunUntil window boundaries,
// mid-run stops — are replayed through both loops and the full firing trace
// (event id + firing timestamp) plus events_processed() compared exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/rng.h"
#include "tests/sim/legacy_event_loop.h"
#include "src/sim/simulation.h"

namespace quilt {
namespace {

struct Firing {
  int id;
  SimTime at;
  bool operator==(const Firing& other) const { return id == other.id && at == other.at; }
};

// Replays one scripted workload on either loop type. The script is derived
// entirely from the seed, so both loops see byte-identical Schedule calls;
// any divergence in the trace is a divergence in queue ordering.
template <typename Loop>
struct Replay {
  std::vector<Firing> trace;
  int64_t events_processed = 0;
  SimTime final_now = 0;

  explicit Replay(uint64_t seed) {
    Loop loop;
    Rng rng(seed);
    int next_id = 0;
    // Fan-out stage: a burst of roots, many sharing timestamps so tie-break
    // order dominates, each root scheduling 0-3 children relative to its own
    // firing time (including past absolute targets that must clamp).
    const int roots = static_cast<int>(rng.UniformInt(20, 60));
    for (int r = 0; r < roots; ++r) {
      // Coarse buckets force collisions: ~8 distinct timestamps for dozens
      // of roots.
      const SimTime at = Milliseconds(rng.UniformInt(0, 7));
      const int id = next_id++;
      const int children = static_cast<int>(rng.UniformInt(0, 3));
      const uint64_t child_key = rng.Next();
      loop.ScheduleAt(at, [&loop, &next_id, this, id, children, child_key] {
        trace.push_back(Firing{id, loop.now()});
        Rng child_rng(child_key);
        for (int c = 0; c < children; ++c) {
          const int cid = next_id++;
          if (child_rng.UniformDouble() < 0.25) {
            // Deliberately stale absolute target: both loops must clamp it
            // to now() and fire it in insertion order at this instant.
            loop.ScheduleAt(loop.now() - Milliseconds(child_rng.UniformInt(1, 5)),
                            [&loop, this, cid] { trace.push_back(Firing{cid, loop.now()}); });
          } else {
            loop.Schedule(Milliseconds(child_rng.UniformInt(0, 4)),
                          [&loop, this, cid] { trace.push_back(Firing{cid, loop.now()}); });
          }
        }
      });
    }
    // Drain in randomized RunUntil windows, exercising the deadline boundary
    // (events exactly at the deadline fire; later ones wait), then Run() the
    // remainder.
    SimTime deadline = 0;
    const int windows = static_cast<int>(rng.UniformInt(1, 4));
    for (int w = 0; w < windows; ++w) {
      deadline += Milliseconds(rng.UniformInt(1, 6));
      loop.RunUntil(deadline);
      trace.push_back(Firing{-1000 - w, loop.now()});  // Window marker.
    }
    loop.Run();
    events_processed = loop.events_processed();
    final_now = loop.now();
  }
};

TEST(EventQueueDeterminismTest, MatchesLegacyLoopOnRandomizedSchedules) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Replay<Simulation> current(seed);
    Replay<LegacyEventLoop> legacy(seed);
    EXPECT_EQ(current.trace, legacy.trace) << "seed " << seed;
    EXPECT_EQ(current.events_processed, legacy.events_processed) << "seed " << seed;
    EXPECT_EQ(current.final_now, legacy.final_now) << "seed " << seed;
    EXPECT_GT(current.events_processed, 0) << "seed " << seed;
  }
}

// Stop interleavings: a randomly chosen event issues Stop() mid-drain; both
// loops must halt at the same instant, freeze the clock identically, and
// resume identically on the next run (stop consumed exactly once).
template <typename Loop>
std::pair<std::vector<Firing>, int64_t> ReplayWithStop(uint64_t seed) {
  Loop loop;
  Rng rng(seed);
  std::vector<Firing> trace;
  const int n = static_cast<int>(rng.UniformInt(10, 30));
  const int stop_at = static_cast<int>(rng.UniformInt(0, n - 1));
  for (int i = 0; i < n; ++i) {
    const SimTime at = Milliseconds(rng.UniformInt(0, 5));
    loop.ScheduleAt(at, [&loop, &trace, i, stop_at] {
      trace.push_back(Firing{i, loop.now()});
      if (i == stop_at) {
        loop.Stop();
      }
    });
  }
  loop.RunUntil(Milliseconds(10));
  trace.push_back(Firing{-1, loop.now()});  // Where did the stop freeze us?
  loop.Run();                               // Stop consumed: drains the rest.
  trace.push_back(Firing{-2, loop.now()});
  return {std::move(trace), loop.events_processed()};
}

TEST(EventQueueDeterminismTest, MatchesLegacyLoopAcrossStopInterleavings) {
  for (uint64_t seed = 100; seed < 130; ++seed) {
    const auto current = ReplayWithStop<Simulation>(seed);
    const auto legacy = ReplayWithStop<LegacyEventLoop>(seed);
    EXPECT_EQ(current.first, legacy.first) << "seed " << seed;
    EXPECT_EQ(current.second, legacy.second) << "seed " << seed;
  }
}

// The slab recycles slots through a free list; interleaved push/pop must not
// perturb ordering relative to the legacy queue, which never reuses storage.
TEST(EventQueueDeterminismTest, SlotRecyclingPreservesTieOrder) {
  Simulation sim;
  LegacyEventLoop legacy;
  std::vector<int> sim_order;
  std::vector<int> legacy_order;
  // Several generations of events at the same timestamp, each generation
  // scheduled from inside the previous one so slots churn through the free
  // list between pushes.
  for (int gen = 0; gen < 5; ++gen) {
    for (int i = 0; i < 4; ++i) {
      const int id = gen * 10 + i;
      sim.Schedule(Milliseconds(1), [&sim, &sim_order, id] {
        sim_order.push_back(id);
        if (id % 10 == 0) {
          sim.Schedule(0, [&sim_order, id] { sim_order.push_back(id + 100); });
        }
      });
      legacy.Schedule(Milliseconds(1), [&legacy, &legacy_order, id] {
        legacy_order.push_back(id);
        if (id % 10 == 0) {
          legacy.Schedule(0, [&legacy_order, id] { legacy_order.push_back(id + 100); });
        }
      });
    }
    sim.Run();
    legacy.Run();
  }
  EXPECT_EQ(sim_order, legacy_order);
  EXPECT_EQ(sim.events_processed(), legacy.events_processed());
}

// Direct EventQueue exercise: move-only captures (which std::function cannot
// hold) and oversized captures that spill to the heap still fire in (time,
// insertion) order.
TEST(EventQueueDeterminismTest, EventFnHandlesMoveOnlyAndOversizedCaptures) {
  EventQueue queue;
  std::vector<int> order;
  auto big = std::make_unique<int>(7);  // Move-only capture.
  queue.Push(5, [&order, p = std::move(big)] { order.push_back(*p); });
  struct Oversized {
    int64_t payload[12];  // 96 bytes > EventFn::kInlineCapacity.
  };
  Oversized fat{};
  fat.payload[0] = 9;
  EventFn spilled = [&order, fat] { order.push_back(static_cast<int>(fat.payload[0])); };
  EXPECT_TRUE(spilled.on_heap());
  queue.Push(5, std::move(spilled));
  queue.Push(3, [&order] { order.push_back(1); });
  EventFn fn;
  EXPECT_FALSE(fn.on_heap());
  while (!queue.empty()) {
    queue.PopInto(fn);
    fn();
    fn.reset();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 7, 9}));
}

}  // namespace
}  // namespace quilt
