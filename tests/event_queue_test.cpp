// Event queue tests: the binary heap with its near lane must pop in
// exactly (time, then schedule order), honour the cancel/clear contract,
// and keep that order wherever an entry sits — in the lane, overflowed
// out of it, or deep in the heap. Every determinism guarantee in the
// repo rides on this pop order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace emc::sim {
namespace {

// Deterministic xorshift64 — same generator the micro-bench uses, so
// randomized runs are reproducible bit-for-bit.
struct Rng {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::uint64_t operator()() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

TEST(EventQueueOrder, FifoWithinEqualTimestamp) {
  EventQueue q;
  std::vector<int> order;
  // Interleave three timestamps; every pop must respect schedule order
  // among equal times.
  for (int i = 0; i < 30; ++i) {
    const Time t = 10 + 10 * (i % 3);
    q.schedule(t, [i, &order] { order.push_back(i); });
  }
  std::vector<int> expect;
  for (Time t = 10; t <= 30; t += 10)
    for (int i = 0; i < 30; ++i)
      if (static_cast<Time>(10 + 10 * (i % 3)) == t) expect.push_back(i);
  while (!q.empty()) {
    auto [t, action] = q.pop();
    action();
  }
  EXPECT_EQ(order, expect);
}

TEST(EventQueueOrder, FifoHoldsAcrossLaneAndHeap) {
  // Entries tied with the heap root go to the heap (they are later in
  // schedule order); earlier ones join the lane. Both must interleave in
  // (time, seq) order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(10, [&order] { order.push_back(0); });
  q.schedule(20, [&order] { order.push_back(1); });
  {
    auto [t, action] = q.pop();
    EXPECT_EQ(t, 10u);
    action();
  }
  q.schedule(20, [&order] { order.push_back(2); });  // ties with entry 1
  q.schedule(15, [&order] { order.push_back(3); });  // sorts before both
  while (!q.empty()) {
    auto [t, action] = q.pop();
    action();
  }
  EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(EventQueueOrder, EqualTimestampBurstOverflowsLaneInOrder) {
  // A far-future entry makes the heap non-empty, so a burst of near
  // events fills the lane; more than eight of them overflow into the
  // heap and must still fire in schedule order, before the far entry.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1'000'000, [&order] { order.push_back(-1); });
  for (int i = 0; i < 40; ++i) {
    q.schedule(5, [i, &order] { order.push_back(i); });
  }
  EXPECT_EQ(q.heap_entries(), 41u);
  EXPECT_EQ(q.next_time(), 5u);
  while (!q.empty()) {
    auto [t, action] = q.pop();
    action();
  }
  std::vector<int> expect;
  for (int i = 0; i < 40; ++i) expect.push_back(i);
  expect.push_back(-1);
  EXPECT_EQ(order, expect);
}

TEST(EventQueueOrder, DescendingInsertsOverflowTheLatestLaneEntry) {
  // Each new entry is earlier than everything pending, so it always
  // joins the lane and a full lane must push its latest entry out.
  EventQueue q;
  std::vector<Time> fired;
  for (Time t = 100; t > 0; --t) {
    q.schedule(t, [t, &fired] { fired.push_back(t); });
  }
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(fired.size(), 100u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(EventQueueCancel, CancelAndGenerationReuseKeepStaleIdsDead) {
  EventQueue q;
  int fired = 0;
  const EventId a = q.schedule(10, [&fired] { fired += 1; });
  q.cancel(a);
  EXPECT_TRUE(q.empty());
  // The freed slot is reused; the stale id must not reach the new event.
  const EventId b = q.schedule(5, [&fired] { fired += 100; });
  q.cancel(a);  // stale: harmless no-op
  EXPECT_EQ(q.size(), 1u);
  auto [t, action] = q.pop();
  action();
  EXPECT_EQ(t, 5u);
  EXPECT_EQ(fired, 100);
  EXPECT_TRUE(q.empty());
  q.cancel(b);  // already fired: harmless no-op
}

TEST(EventQueueCancel, StaleLaneEntriesAreSkipped) {
  // Cancelled entries at the lane's back and in its middle are purged
  // as they surface; next_time() and pop() only ever see live events.
  EventQueue q;
  std::vector<int> order;
  q.schedule(1'000, [&order] { order.push_back(99); });  // latest
  std::vector<EventId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(q.schedule(static_cast<Time>(10 + i),
                             [i, &order] { order.push_back(i); }));
  }
  q.cancel(ids[0]);  // lane back
  q.cancel(ids[3]);  // lane middle
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.next_time(), 11u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 5, 99}));
}

TEST(EventQueueCancel, FarFutureCancelsStayBounded) {
  // Watchdogs armed behind a live far-future entry and cancelled again:
  // compaction counts lane and heap entries, so neither grows without
  // bound, and the live entry survives every compaction.
  EventQueue q;
  int fired = 0;
  q.schedule(5'000'000'000, [&fired] { fired += 1000; });
  for (int round = 0; round < 10'000; ++round) {
    q.cancel(q.schedule(static_cast<Time>(1'000 + round), [] {}));
    q.cancel(q.schedule(static_cast<Time>(9'000'000'000 + round), [] {}));
    ASSERT_LE(q.heap_entries(), 64u);
  }
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_EQ(fired, 1000);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueLifecycle, DrainThenRescheduleReusesTheStructure) {
  EventQueue q;
  Rng rnd;
  for (int i = 0; i < 500; ++i) q.schedule(1 + rnd() % 1'000'000, [] {});
  Time prev = 0;
  while (!q.empty()) {
    auto [t, action] = q.pop();
    EXPECT_GE(t, prev);
    prev = t;
    action();
  }
  // After a full drain earlier timestamps are legal again and pop in
  // order.
  std::vector<int> order;
  q.schedule(3, [&order] { order.push_back(3); });
  q.schedule(1, [&order] { order.push_back(1); });
  q.schedule(2, [&order] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, action] = q.pop();
    action();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// The load-bearing test: a randomized schedule/pop/cancel workload run
// in lock-step against a reference model — a plain list of live
// (t, seq, tag) entries whose minimum is found by scanning. The
// workload mixes the shapes the near lane must get right: narrow spans
// (ties, FIFO), bursts of more than eight equal-timestamp events (lane
// overflow), far-future entries (a deep heap behind the lane), cancels
// of lane and heap entries (stale entries at the lane back and deep in
// the heap), and far-future cancels (compaction).
TEST(EventQueueModel, RandomizedLockstepAgainstSortedReference) {
  struct Ref {
    Time t;
    std::uint64_t seq;
    int tag;
  };
  Rng rnd;
  EventQueue q;
  std::vector<Ref> model;
  std::vector<std::pair<EventId, std::uint64_t>> ids;  // {id, seq}
  std::vector<int> fired;
  Time now = 0;
  std::uint64_t seq = 0;
  std::size_t peak_entries = 0;

  const auto schedule = [&](Time t) {
    const int tag = static_cast<int>(seq);
    ids.emplace_back(q.schedule(t, [tag, &fired] { fired.push_back(tag); }),
                     seq);
    model.push_back(Ref{t, seq, tag});
    ++seq;
  };
  const auto earliest = [&model] {
    return std::min_element(model.begin(), model.end(),
                            [](const Ref& a, const Ref& b) {
                              return a.t != b.t ? a.t < b.t : a.seq < b.seq;
                            });
  };

  for (int round = 0; round < 40'000; ++round) {
    const std::uint64_t op = rnd() % 32;
    if (op < 7) {
      schedule(now + rnd() % 64);  // near, narrow span: many ties
    } else if (op == 7) {
      const Time t = now + rnd() % 8;
      const int burst = 9 + static_cast<int>(rnd() % 8);
      for (int i = 0; i < burst; ++i) schedule(t);
    } else if (op == 8) {
      schedule(now + 1'000'000 + rnd() % 1'000'000);  // far future
    } else if (op == 9) {
      // Far-future watchdog, cancelled at once.
      schedule(now + 500'000'000);
      q.cancel(ids.back().first);
      model.pop_back();
    } else if (op < 13) {
      if (ids.empty()) continue;
      const auto [id, s] = ids[rnd() % ids.size()];
      q.cancel(id);  // possibly fired or already cancelled: no-op then
      model.erase(std::remove_if(model.begin(), model.end(),
                                 [s = s](const Ref& r) { return r.seq == s; }),
                  model.end());
    } else {
      ASSERT_EQ(q.empty(), model.empty());
      if (model.empty()) continue;
      const auto it = earliest();
      ASSERT_EQ(q.next_time(), it->t);
      auto [t, action] = q.pop();
      ASSERT_EQ(t, it->t);
      action();
      ASSERT_EQ(fired.back(), it->tag);
      now = t;
      model.erase(it);
    }
    ASSERT_EQ(q.size(), model.size());
    peak_entries = std::max(peak_entries, q.heap_entries());
  }
  while (!model.empty()) {
    const auto it = earliest();
    auto [t, action] = q.pop();
    ASSERT_EQ(t, it->t);
    action();
    ASSERT_EQ(fired.back(), it->tag);
    model.erase(it);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeMax);
  // The workload really did reach past the lane.
  EXPECT_GT(peak_entries, 64u);
}

TEST(EventQueueKernel, KernelRunsTheSameProgramTwiceIdentically) {
  // End-to-end: the same event program through two fresh kernels gives
  // the same fire sequence (in time order) and final clock.
  auto run = [] {
    Kernel k;
    std::vector<int> order;
    std::vector<Time> times;
    Rng rnd;
    for (int i = 0; i < 200; ++i) {
      k.schedule_at(1 + rnd() % 500, [i, &order, &times, &k] {
        order.push_back(i);
        times.push_back(k.now());
        if (order.size() % 3 == 0)
          k.schedule(2, [i, &order] { order.push_back(-i); });
      });
    }
    k.run_until(kTimeMax);
    EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
    return std::make_pair(order, k.now());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace emc::sim
