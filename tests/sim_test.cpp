// Kernel, event queue, signal and trace unit tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/signal.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "sim/trace.hpp"

namespace emc::sim {
namespace {

TEST(Time, Conversions) {
  EXPECT_EQ(ps(1), 1000u);
  EXPECT_EQ(ns(1), 1000u * 1000u);
  EXPECT_EQ(us(1), kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1e-12), kPicosecond);
  EXPECT_EQ(from_seconds(0.0), 0u);
  EXPECT_EQ(from_seconds(-1.0), 0u);
  EXPECT_EQ(from_seconds(1e30), kTimeMax);
}

/// A duration in seconds whose tick product `seconds * 1e15` is exactly
/// `ticks` (nudged by ulps until it round-trips), so a test can pin the
/// rounding of a chosen tick value.
double seconds_for_ticks(double ticks) {
  double s = ticks / 1e15;
  for (int i = 0; i < 64 && s * 1e15 != ticks; ++i) {
    s = std::nextafter(s, s * 1e15 < ticks ? HUGE_VAL : 0.0);
  }
  EXPECT_EQ(s * 1e15, ticks) << "no seconds value maps to " << ticks;
  return s;
}

TEST(Time, FromSecondsRoundsHalfAwayFromZero) {
  // The largest double below 0.5 must round down (a naive
  // floor(x + 0.5) rounds it up); exact halves round away from zero.
  EXPECT_EQ(from_seconds(seconds_for_ticks(0.49999999999999994)), 0u);
  EXPECT_EQ(from_seconds(seconds_for_ticks(0.5)), 1u);
  EXPECT_EQ(from_seconds(seconds_for_ticks(1.5)), 2u);
  EXPECT_EQ(from_seconds(seconds_for_ticks(2.5)), 3u);
  EXPECT_EQ(from_seconds(seconds_for_ticks(2.4999999999999996)), 2u);
}

TEST(Time, FromSecondsCoversTheFullTickRange) {
  // Between 2^63 and 2^64 ticks (~9223 s to ~18447 s) std::llround
  // overflows long long; from_seconds must still return the exact tick.
  EXPECT_EQ(from_seconds(9300.0), 9'300'000'000'000'000'000u);
  EXPECT_EQ(from_seconds(18446.0), 18'446'000'000'000'000'000u);
  // At and beyond 2^64 ticks the result saturates.
  EXPECT_EQ(from_seconds(18447.0), kTimeMax);
  EXPECT_EQ(from_seconds(0x1.0p64 / 1e15 * 1.0000001), kTimeMax);
  EXPECT_EQ(from_seconds(HUGE_VAL), kTimeMax);
  // NaN and non-positive durations are zero.
  EXPECT_EQ(from_seconds(std::nan("")), 0u);
  EXPECT_EQ(from_seconds(-0.0), 0u);
}

TEST(Time, FromSecondsMatchesLlroundBelow2To63) {
  // Seeded sweep: log-uniform tick counts from 1e-3 to ~2^63, plus
  // values within a few ulps of a half, all agree with std::llround.
  Rng rng(20261017);
  for (int i = 0; i < 1'000'000; ++i) {
    double ticks = std::pow(10.0, rng.uniform(-3.0, 18.95));
    if (i % 4 == 0) {
      ticks = std::floor(ticks) + 0.5;
      for (int k = static_cast<int>(rng.index(5)); k > 0; --k) {
        ticks = std::nextafter(ticks, rng.chance(0.5) ? 0.0 : HUGE_VAL);
      }
    }
    const double seconds = ticks / 1e15;
    const double product = seconds * 1e15;
    ASSERT_LT(product, 0x1.0p63);
    ASSERT_EQ(from_seconds(seconds),
              static_cast<Time>(std::llround(product)))
        << "seconds " << seconds;
  }
}

TEST(EventQueue, OrdersByTime) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoAmongEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 20; ++i) {
    q.schedule(42, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  const EventId victim = q.schedule(20, [&] { fired += 100; });
  q.schedule(30, [&] { ++fired; });
  q.cancel(victim);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, CancelUnknownIsNoop) {
  EventQueue q;
  q.schedule(10, [] {});
  q.cancel(999);
  q.cancel(999);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.schedule(20, [] {});
  q.cancel(a);
  EXPECT_EQ(q.next_time(), 20u);
}

TEST(EventQueue, FifoPreservedUnderMixedScheduleCancel) {
  // Cancelling events in between must not disturb FIFO order among the
  // survivors at a shared timestamp, even as slots are freed and reused
  // mid-stream.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 30; ++i) {
    const EventId id = q.schedule(42, [&order, i] { order.push_back(i); });
    if (i % 3 == 1) victims.push_back(id);
    if (i % 5 == 4) {
      // Cancel mid-stream so the freed slots get reused by later
      // schedules while earlier entries are still pending.
      q.cancel(victims.back());
      victims.pop_back();
    }
  }
  for (EventId id : victims) q.cancel(id);
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
    EXPECT_NE(order[i] % 3, 1);
  }
}

TEST(EventQueue, CancelledEntriesPurgedNotAccumulated) {
  // Regression for the old lazy-cancellation leak: a long-running
  // schedule/cancel workload must not grow internal state without bound.
  EventQueue q;
  for (int round = 0; round < 10000; ++round) {
    const EventId id = q.schedule(static_cast<Time>(round), [] {});
    q.cancel(id);
    // Popping intervening live events flushes the stale heap entries.
    q.schedule(static_cast<Time>(round), [] {});
    q.pop().second();
    EXPECT_LE(q.heap_entries(), 2u);
  }
  // The slab reuses the same couple of slots the whole time.
  EXPECT_LE(q.slab_capacity(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarFutureCancelsCompactedNotAccumulated) {
  // Watchdog pattern: schedule far in the future, cancel when the op
  // completes. The stale entries never reach the root on their own, so
  // compaction must bound the heap.
  EventQueue q;
  for (int round = 0; round < 100000; ++round) {
    const EventId watchdog =
        q.schedule(static_cast<Time>(1'000'000'000 + round), [] {});
    q.cancel(watchdog);
    EXPECT_LE(q.heap_entries(), 128u);
  }
  EXPECT_TRUE(q.empty());
  EXPECT_LE(q.slab_capacity(), 4u);
  // A live event scheduled afterwards still pops normally.
  int fired = 0;
  q.schedule(10, [&] { ++fired; });
  q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, StaleIdAfterSlotReuseIsNoop) {
  // Generation tags: an id whose slot was freed and reused must never
  // cancel the newer occupant.
  EventQueue q;
  int fired = 0;
  const EventId old_id = q.schedule(10, [&] { fired += 100; });
  q.cancel(old_id);
  const EventId new_id = q.schedule(20, [&] { ++fired; });  // reuses slot
  q.cancel(old_id);  // stale handle — must not touch new_id's event
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
  q.cancel(new_id);  // already fired: harmless
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.cancel(a);
  q.cancel(a);  // second cancel of the same id: no-op
  EXPECT_TRUE(q.empty());
  int fired = 0;
  q.schedule(10, [&] { ++fired; });  // reuses a's slot
  q.cancel(a);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PeakLiveTracksHighWaterMark) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(10 + i, [] {});
  q.pop().second();
  q.pop().second();
  q.schedule(50, [] {});
  EXPECT_EQ(q.peak_live(), 5u);
  EXPECT_EQ(q.total_scheduled(), 6u);
}

TEST(Action, InlineAndHeapCapturesBothWork) {
  int hits = 0;
  Action small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);
  // Oversized capture spills to the heap transparently.
  std::vector<double> big(64, 1.5);
  Action large([&hits, big] { hits += static_cast<int>(big.size()); });
  Action moved = std::move(large);
  EXPECT_FALSE(static_cast<bool>(large));
  moved();
  EXPECT_EQ(hits, 65);
}

TEST(Kernel, AdvancesTimeMonotonically) {
  Kernel k;
  Time seen = 0;
  k.schedule(100, [&] { seen = k.now(); });
  k.schedule(50, [&] { EXPECT_EQ(k.now(), 50u); });
  k.run();
  EXPECT_EQ(seen, 100u);
  EXPECT_EQ(k.events_executed(), 2u);
}

TEST(Kernel, RunUntilRespectsDeadlineInclusive) {
  Kernel k;
  int fired = 0;
  k.schedule(100, [&] { ++fired; });
  k.schedule(200, [&] { ++fired; });
  k.schedule(201, [&] { ++fired; });
  k.run_until(200);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(k.now(), 200u);
  k.run();
  EXPECT_EQ(fired, 3);
}

TEST(Kernel, ZeroDelayRunsAfterCurrentCallback) {
  Kernel k;
  std::vector<int> order;
  k.schedule(10, [&] {
    order.push_back(1);
    k.schedule(0, [&] { order.push_back(2); });
    order.push_back(3);
  });
  k.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

TEST(Kernel, SchedulePastClampsToNow) {
  Kernel k;
  k.schedule(100, [&] {
    k.schedule_at(10, [&] { EXPECT_EQ(k.now(), 100u); });
  });
  k.run();
}

TEST(Kernel, EventCapStopsRunaway) {
  Kernel k;
  k.set_event_cap(1000);
  std::function<void()> loop = [&] { k.schedule(1, loop); };
  k.schedule(1, loop);
  k.run();
  EXPECT_TRUE(k.event_cap_hit());
  EXPECT_LE(k.events_executed(), 1001u);
}

TEST(Kernel, StatsSnapshotReportsExecutionCounters) {
  Kernel k;
  for (int i = 0; i < 8; ++i) k.schedule(static_cast<Time>(i + 1), [] {});
  const EventId victim = k.schedule(100, [] {});
  k.cancel(victim);
  k.run();
  const Kernel::Stats s = k.stats();
  EXPECT_EQ(s.events_executed, 8u);
  EXPECT_EQ(s.events_scheduled, 9u);
  EXPECT_EQ(s.peak_queue_depth, 9u);
  EXPECT_GE(s.slab_capacity, 1u);
  EXPECT_GE(s.wall_seconds, 0.0);

  Kernel::Stats sum;
  sum += s;
  sum += s;
  EXPECT_EQ(sum.events_executed, 16u);
  EXPECT_EQ(sum.peak_queue_depth, 9u);
}

TEST(Timer, SecondArmKeepsTheEarlierTime) {
  Kernel k;
  std::vector<Time> fired;
  Timer t(k, [&] { fired.push_back(k.now()); });
  t.arm(100);
  t.arm(300);
  EXPECT_TRUE(t.armed());
  EXPECT_EQ(k.next_event_time(), 100u);
  k.run();
  EXPECT_EQ(fired, (std::vector<Time>{100}));
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(k.events_executed(), 1u);
}

TEST(Timer, EarlierArmMovesTheEventEarlier) {
  Kernel k;
  std::vector<Time> fired;
  Timer t(k, [&] { fired.push_back(k.now()); });
  t.arm(300);
  t.arm(100);
  EXPECT_EQ(k.next_event_time(), 100u);
  EXPECT_EQ(k.pending_events(), 1u);
  k.run();
  EXPECT_EQ(fired, (std::vector<Time>{100}));
  EXPECT_EQ(k.events_executed(), 1u);
}

TEST(Timer, FiresOnceAndMayRearmFromItsCallback) {
  Kernel k;
  int fires = 0;
  Timer* self = nullptr;
  Timer t(k, [&] {
    if (++fires < 3) self->arm(10);
  });
  self = &t;
  t.arm(10);
  k.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(k.now(), 30u);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, CancelRetractsThePendingEvent) {
  Kernel k;
  int fires = 0;
  Timer t(k, [&] { ++fires; });
  t.arm(100);
  t.cancel();
  EXPECT_FALSE(t.armed());
  t.cancel();  // disarmed: no-op
  k.run();
  EXPECT_EQ(fires, 0);
  EXPECT_TRUE(k.idle());
  t.arm(50);  // usable again after a cancel
  k.run();
  EXPECT_EQ(fires, 1);
}

TEST(Timer, DestructionCancels) {
  Kernel k;
  int fires = 0;
  {
    Timer t(k, [&] { ++fires; });
    t.arm(100);
  }
  EXPECT_TRUE(k.idle());
  k.run();
  EXPECT_EQ(fires, 0);
  EXPECT_EQ(k.events_executed(), 0u);
}

TEST(Timer, ArmSaturatesAtNever) {
  Kernel k;
  k.schedule(100, [] {});
  k.run();
  Timer t(k, [] {});
  t.arm(kTimeMax);
  EXPECT_EQ(k.next_event_time(), kTimeMax);
  t.arm(kTimeMax);  // no earlier: still the one event
  EXPECT_EQ(k.pending_events(), 1u);
}

TEST(Signal, NotifiesOnChangeOnly) {
  Kernel k;
  Wire w(k, "w", false);
  int notified = 0;
  w.on_change([&](const Wire&) { ++notified; });
  w.set(false);  // no change
  EXPECT_EQ(notified, 0);
  w.set(true);
  EXPECT_EQ(notified, 1);
  w.set(true);  // no change
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(w.transitions(), 1u);
}

TEST(Signal, ScheduledWriteAppliesLater) {
  Kernel k;
  Wire w(k, "w", false);
  w.schedule(true, 100);
  EXPECT_FALSE(w.read());
  EXPECT_TRUE(w.has_pending());
  k.run();
  EXPECT_TRUE(w.read());
  EXPECT_EQ(w.last_change(), 100u);
}

TEST(Signal, InertialRetraction) {
  Kernel k;
  Wire w(k, "w", false);
  w.schedule(true, 100);
  w.schedule(false, 50);  // retracts the earlier pending write
  k.run();
  EXPECT_FALSE(w.read());
  EXPECT_EQ(w.transitions(), 0u);  // never actually moved
}

TEST(Signal, SetRetractsPending) {
  Kernel k;
  Wire w(k, "w", false);
  w.schedule(true, 100);
  w.set(false);  // asserts current value; pending must die
  k.run();
  EXPECT_FALSE(w.read());
}

TEST(Signal, TypedSignalWorks) {
  Kernel k;
  Signal<int> s(k, "count", 7);
  EXPECT_EQ(s.read(), 7);
  s.schedule(9, 10);
  k.run();
  EXPECT_EQ(s.read(), 9);
}

TEST(AnalogTrace, InterpolatesBetweenSamples) {
  AnalogTrace t("v");
  t.sample(0, 0.0);
  t.sample(100, 1.0);
  EXPECT_DOUBLE_EQ(t.at(50), 0.5);
  EXPECT_DOUBLE_EQ(t.at(0), 0.0);
  EXPECT_DOUBLE_EQ(t.at(200), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(t.min_value(), 0.0);
  EXPECT_DOUBLE_EQ(t.max_value(), 1.0);
}

TEST(VcdWriter, RecordsChanges) {
  Kernel k;
  Wire a(k, "a", false);
  const std::string path = ::testing::TempDir() + "/emc_test.vcd";
  {
    VcdWriter vcd(path);
    vcd.add(a);
    k.schedule(10, [&] { a.set(true); });
    k.schedule(20, [&] { a.set(false); });
    k.run();
    EXPECT_EQ(vcd.changes_recorded(), 2u);
    vcd.finalize();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(contents.find("$var wire 1"), std::string::npos);
  EXPECT_NE(contents.find("#10"), std::string::npos);
}

TEST(Rng, Reproducible) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, ExponentialMeanRoughlyCorrect) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential_mean(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.1);
}

// Golden vectors: the first outputs of a sequential and a keyed stream,
// one fresh Rng per transform. They pin the (key, counter) stream and
// every hand-written transform, so a reshuffle of the stream fails here
// before it silently moves the stochastic refs. Uniform and index are
// exact integer arithmetic; gaussian and exponential go through log, so
// they are compared to 4 ULPs.
struct Golden {
  Rng rng;
  double uniform[4];
  double gaussian[4];
  double exponential[4];
  std::uint64_t index1000[4];
  std::uint64_t index_big[4];  // n = 2^63 + 1: rejects ~half the draws
};

void expect_golden(const Golden& g) {
  {
    Rng r = g.rng;
    for (double want : g.uniform) EXPECT_EQ(r.uniform(), want);
  }
  {
    Rng r = g.rng;
    for (double want : g.gaussian) EXPECT_DOUBLE_EQ(r.gaussian(0.0, 1.0), want);
  }
  {
    Rng r = g.rng;
    for (double want : g.exponential) {
      EXPECT_DOUBLE_EQ(r.exponential_mean(1.0), want);
    }
  }
  {
    Rng r = g.rng;
    for (std::uint64_t want : g.index1000) EXPECT_EQ(r.index(1000), want);
  }
  {
    Rng r = g.rng;
    for (std::uint64_t want : g.index_big) {
      EXPECT_EQ(r.index((1ULL << 63) + 1), want);
    }
  }
}

TEST(Rng, GoldenVectorsSequential) {
  expect_golden({Rng(1),
                 {0x1.7906ac21d0e58p-2, 0x1.e31ad9d27ad9ep-1,
                  0x1.72becda64fd1p-5, 0x1.8e0c363726645p-1},
                 {-0.15855199083906063, 0.53355385359761121,
                  -0.70324603077878078, 0.68700791329283961},
                 {0.45916579634169147, 2.8746521169769665,
                  0.046313082295769248, 1.5025447051088467},
                 {368, 943, 45, 777},
                 {8702843941935282423ULL, 2020980364105923368ULL,
                  7142571665318769130ULL, 2277851939543494749ULL}});
}

TEST(Rng, GoldenVectorsKeyed) {
  expect_golden({Rng::keyed(9, 3),
                 {0x1.cbb8b591e45adp-1, 0x1.9e6e4fb3382cp-3,
                  0x1.4656a86596c8cp-1, 0x1.31f3450817b5fp-1},
                 {0.12629941366880268, -0.094477278664236247,
                  1.7006543871668296, 1.2077047545190096},
                 {2.2817398211873545, 0.22609645642710652,
                  1.0143995396896193, 0.91020708775447612},
                 {897, 202, 637, 597},
                 {1866430863143781142ULL, 5878791914659132128ULL,
                  968208430880479705ULL, 3359604259015115079ULL}});
}

TEST(Rng, MixerMatchesSplitMix64Reference) {
  // Published first output of splitmix64 seeded with 0.
  static_assert(splitmix64(0) == 0xe220a8397b1dcdafULL);
  // The whole generator state is a key, a counter and one spare normal.
  static_assert(sizeof(Rng) <= 32);
  // index(2^53) is the draw's top 53 bits, exactly what uniform() scales:
  // a check of the wide multiply that needs no second implementation.
  Rng a = Rng::keyed(5, 5);
  Rng b = Rng::keyed(5, 5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(static_cast<double>(a.index(1ULL << 53)),
              b.uniform() * 0x1.0p53);
  }
}

// Distribution checks over 10^6 keyed streams (the Monte-Carlo access
// pattern: a fresh stream per sample). Every bound is 5 standard errors
// of the statistic under the target distribution.
constexpr int kStreams = 1000000;

TEST(Rng, KeyedGaussianMoments) {
  // Both normals of each stream's first polar pair: 2 * 10^6 samples.
  double m1 = 0.0, m2 = 0.0, m4 = 0.0;
  for (int i = 0; i < kStreams; ++i) {
    Rng r = Rng::keyed(2026, static_cast<std::uint64_t>(i));
    for (int k = 0; k < 2; ++k) {
      const double x = r.gaussian(0.0, 1.0);
      const double x2 = x * x;
      m1 += x;
      m2 += x2;
      m4 += x2 * x2;
    }
  }
  const double n = 2.0 * kStreams;
  // Standard errors of the raw moments of N(0, 1): Var(x) = 1,
  // Var(x^2) = E[x^4] - 1 = 2, Var(x^4) = E[x^8] - 9 = 96.
  EXPECT_NEAR(m1 / n, 0.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(m2 / n, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(m4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));
}

TEST(Rng, KeyedIndexChiSquare) {
  // One index(10) per stream; chi-square with 9 degrees of freedom has
  // mean 9 and standard deviation sqrt(18).
  std::vector<double> count(10, 0.0);
  for (int i = 0; i < kStreams; ++i) {
    count[Rng::keyed(77, static_cast<std::uint64_t>(i)).index(10)] += 1.0;
  }
  const double expected = kStreams / 10.0;
  double chi2 = 0.0;
  for (double c : count) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 9.0 + 5.0 * std::sqrt(18.0));
}

TEST(Rng, KeyedExponentialMean) {
  // Exp(mean 1) has standard deviation 1.
  double sum = 0.0;
  for (int i = 0; i < kStreams; ++i) {
    sum += Rng::keyed(11, static_cast<std::uint64_t>(i)).exponential_mean(1.0);
  }
  EXPECT_NEAR(sum / kStreams, 1.0, 5.0 / std::sqrt(double(kStreams)));
}

// --- allocation-free listener dispatch ---------------------------------

struct CountingListener {
  int calls = 0;
  void on_wire() { ++calls; }
};

TEST(SignalListeners, TypedSubscribeDispatches) {
  Kernel k;
  Wire w(k, "w", false);
  CountingListener a;
  w.subscribe<&CountingListener::on_wire>(&a);
  w.set(true);
  w.set(false);
  EXPECT_EQ(a.calls, 2);
}

TEST(SignalListeners, RegistrationOrderPreserved) {
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  // Mix all three registration flavours and spill past the inline
  // capacity (4 slots): delivery must stay in registration order.
  struct Rec {
    std::vector<int>* order;
    int tag;
    void fire() { order->push_back(tag); }
  };
  std::vector<Rec> recs;
  recs.reserve(4);
  for (int i = 0; i < 4; ++i) {
    recs.push_back(Rec{&order, i});
    w.subscribe<&Rec::fire>(&recs.back());
  }
  w.on_change([&order](const Wire&) { order.push_back(4); });
  w.subscribe_raw(&order, [](void* ctx, const Wire&) {
    static_cast<std::vector<int>*>(ctx)->push_back(5);
  });
  w.set(true);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(SignalListeners, SubscribeMidNotificationDoesNotInvalidateWalk) {
  // The Supply::fire_wake bug class: a listener registering another
  // listener while the walk is in progress must neither crash nor
  // deliver the new listener for the in-flight change — even when the
  // registration forces the inline array to spill to the vector.
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  std::function<void()> add_more;
  w.on_change([&](const Wire&) {
    order.push_back(0);
    add_more();
  });
  w.on_change([&](const Wire&) { order.push_back(1); });
  add_more = [&] {
    for (int tag = 10; tag < 16; ++tag) {
      w.on_change([&order, tag](const Wire&) { order.push_back(tag); });
    }
  };
  w.set(true);
  // In-flight walk saw only the two original listeners.
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  order.clear();
  add_more = [] {};
  w.set(false);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 10, 11, 12, 13, 14, 15}));
}

TEST(SignalListeners, SelfUnsubscribeMidNotificationIsSafe) {
  // A one-shot probe removing itself from inside its own callback must
  // neither destroy the closure it is executing (boxed listener) nor
  // shift the walk so the next listener misses the in-flight change.
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  Subscription one_shot;
  one_shot = w.on_change([&](const Wire&) {
    order.push_back(0);
    w.unsubscribe(one_shot);
    order.push_back(0);  // closure must still be alive here
  });
  w.on_change([&order](const Wire&) { order.push_back(1); });
  w.set(true);
  EXPECT_EQ(order, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(w.listener_count(), 1u);
  order.clear();
  w.set(false);
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(SignalListeners, UnsubscribeRemovesAndPreservesOrder) {
  Kernel k;
  Wire w(k, "w", false);
  std::vector<int> order;
  auto tagger = [&order](int tag) {
    return [&order, tag](const Wire&) { order.push_back(tag); };
  };
  Subscription s0 = w.on_change(tagger(0));
  Subscription s1 = w.on_change(tagger(1));
  Subscription s2 = w.on_change(tagger(2));
  EXPECT_TRUE(s0.active() && s1.active() && s2.active());
  EXPECT_EQ(w.listener_count(), 3u);
  w.unsubscribe(s1);
  EXPECT_EQ(w.listener_count(), 2u);
  w.set(true);
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
  w.unsubscribe(s1);  // double-remove is a no-op
  w.unsubscribe(Subscription{});
  EXPECT_EQ(w.listener_count(), 2u);
  w.unsubscribe(s0);
  w.unsubscribe(s2);
  order.clear();
  w.set(false);
  EXPECT_TRUE(order.empty());
}

// --- Kernel::Stats aggregation semantics --------------------------------

TEST(KernelStats, AggregationSemantics) {
  // Sweeps sum per-kernel stats with operator+=. Counters and wall time
  // are additive; peak_queue_depth takes the max (deepest any single
  // kernel got — the per-kernel memory bound); slab_capacity sums (each
  // kernel owns a slab, so the sweep's aggregate footprint adds).
  Kernel::Stats a;
  a.events_executed = 100;
  a.events_scheduled = 120;
  a.peak_queue_depth = 7;
  a.slab_capacity = 16;
  a.wall_seconds = 0.5;
  Kernel::Stats b;
  b.events_executed = 50;
  b.events_scheduled = 60;
  b.peak_queue_depth = 3;
  b.slab_capacity = 8;
  b.wall_seconds = 0.25;

  Kernel::Stats sum;
  sum += a;
  sum += b;
  EXPECT_EQ(sum.events_executed, 150u);
  EXPECT_EQ(sum.events_scheduled, 180u);
  EXPECT_EQ(sum.peak_queue_depth, 7u);  // max, not 10
  EXPECT_EQ(sum.slab_capacity, 24u);    // sum, not max
  EXPECT_DOUBLE_EQ(sum.wall_seconds, 0.75);

  // Max is order-independent: folding the deeper kernel in last must
  // give the same aggregate.
  Kernel::Stats rev;
  rev += b;
  rev += a;
  EXPECT_EQ(rev.peak_queue_depth, 7u);
  EXPECT_EQ(rev.slab_capacity, 24u);
}

}  // namespace
}  // namespace emc::sim
