// Sweep-engine tests: SweepRunner::for_indexed_streaming, the one path
// every sweep and the driver's --jobs loop run on.
//
// The engine's contract: consume() sees outputs in index order, so a
// sweep's CSV is byte-identical at any thread count; in-flight outputs
// stay bounded; a produce() failure skips only its own index and the
// lowest-index failure is rethrown; a consume() failure aborts the
// stream. The bodies run real (small) kernels with deliberately uneven
// cost so completion order differs from index order under parallelism.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/sweep_runner.hpp"
#include "analysis/table.hpp"
#include "exp/workbench.hpp"
#include "sim/kernel.hpp"

namespace emc::analysis {
namespace {

// Costs spanning 3 decades so a fast scenario finishes long before a
// slow earlier one under parallel execution.
const std::vector<double> kUnevenTicks = {4000, 10,   2000, 1,    800,  50,
                                          3000, 5,    1500, 100,  2500, 20};

// Simulates kUnevenTicks[index] events on its own kernel and reports the
// count — cheap, deterministic, and uneven across indices.
ScenarioOutput simulate_point(std::size_t index) {
  sim::Kernel kernel;
  const auto ticks = static_cast<std::uint64_t>(kUnevenTicks[index]);
  std::uint64_t fired = 0;
  for (std::uint64_t i = 0; i < ticks; ++i) {
    kernel.schedule(static_cast<sim::Time>(i % 11 + 1), [&fired] { ++fired; });
  }
  kernel.run();
  ScenarioOutput out;
  out.rows.push_back({"ticks=" + Table::num(kUnevenTicks[index]),
                      std::to_string(fired)});
  out.stats = kernel.stats();
  return out;
}

// Stream the uneven sweep into a table; also returns the consume order.
Table run_uneven(unsigned threads, std::vector<std::size_t>* order) {
  Table table({"scenario", "fired"});
  SweepRunner::for_indexed_streaming(
      kUnevenTicks.size(), threads, simulate_point,
      [&](std::size_t i, ScenarioOutput&& out) {
        if (order != nullptr) order->push_back(i);
        for (auto& row : out.rows) table.add_row(std::move(row));
      });
  return table;
}

TEST(SweepRunner, ResultsInScenarioOrder) {
  std::vector<std::size_t> order;
  const std::string csv = run_uneven(4, &order).to_csv();
  ASSERT_EQ(order.size(), kUnevenTicks.size());
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  // Header + rows in scenario (not completion) order.
  std::size_t pos = csv.find("ticks=4000");
  ASSERT_NE(pos, std::string::npos);
  for (const char* label : {"ticks=10", "ticks=2000", "ticks=1"}) {
    const std::size_t next = csv.find(label, pos);
    ASSERT_NE(next, std::string::npos) << label;
    EXPECT_GT(next, pos);
    pos = next;
  }
}

TEST(SweepRunner, CsvByteIdenticalAcrossThreadCounts) {
  const std::string serial = run_uneven(1, nullptr).to_csv();
  for (unsigned threads : {2u, 4u, 7u}) {
    EXPECT_EQ(run_uneven(threads, nullptr).to_csv(), serial) << threads;
  }
}

TEST(SweepRunner, ReportSumsKernelStats) {
  // Scenarios of 10 + 20 + 50 events through the Workbench, which
  // folds every consumed output's stats into its report.
  exp::Workbench wb("stats");
  wb.threads(3);
  wb.grid().over("ticks", {10, 20, 50});
  wb.columns({"ticks"});
  const SweepReport& report =
      wb.run([](const exp::ParamSet& p, exp::Recorder& rec) {
        sim::Kernel kernel;
        for (int i = 0; i < p.get<int>("ticks"); ++i) {
          kernel.schedule(static_cast<sim::Time>(i + 1), [] {});
        }
        kernel.run();
        rec.row().set("ticks", p.get<int>("ticks"));
        rec.add_stats(kernel.stats());
      });
  EXPECT_EQ(report.scenarios, 3u);
  EXPECT_EQ(report.threads, 3u);
  EXPECT_EQ(report.kernel_stats.events_executed, 80u);
  EXPECT_EQ(report.kernel_stats.events_scheduled, 80u);
  EXPECT_FALSE(report.summary().empty());
}

TEST(SweepRunner, EachIndexProducedOnceAndConsumedInOrder) {
  constexpr std::size_t kN = 257;
  std::vector<std::atomic<int>> visits(kN);
  std::size_t expected = 0;
  const unsigned used = SweepRunner::for_indexed_streaming(
      kN, 8,
      [&](std::size_t i) {
        ++visits[i];
        ScenarioOutput out;
        out.rows.push_back({std::to_string(i * i)});
        return out;
      },
      [&](std::size_t i, ScenarioOutput&& out) {
        EXPECT_EQ(i, expected++);
        EXPECT_EQ(out.rows.at(0).at(0), std::to_string(i * i));
      });
  EXPECT_EQ(used, 8u);
  EXPECT_EQ(expected, kN);
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(SweepRunner, ProduceFailureRethrowsLowestIndexAfterAllOthers) {
  constexpr std::size_t kN = 40;
  for (unsigned threads : {1u, 4u, 7u}) {
    std::vector<std::size_t> consumed;
    try {
      SweepRunner::for_indexed_streaming(
          kN, threads,
          [](std::size_t i) {
            if (i == 3 || i == 17) {
              throw std::runtime_error("boom " + std::to_string(i));
            }
            return ScenarioOutput{};
          },
          [&](std::size_t i, ScenarioOutput&&) { consumed.push_back(i); });
      FAIL() << "expected exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom 3") << threads;
    }
    std::vector<std::size_t> expected;
    for (std::size_t i = 0; i < kN; ++i) {
      if (i != 3 && i != 17) expected.push_back(i);
    }
    EXPECT_EQ(consumed, expected) << threads;
  }
}

TEST(SweepRunner, ConsumeFailureAbortsStreamWithoutDeadlock) {
  // Far more indices than the reorder window, so producers are parked
  // on backpressure when the consumer gives up: the abort must wake
  // them, or joining the pool would hang.
  constexpr std::size_t kN = 5000;
  for (unsigned threads : {1u, 4u, 7u}) {
    std::atomic<std::size_t> produced{0};
    std::size_t consumed = 0;
    try {
      SweepRunner::for_indexed_streaming(
          kN, threads,
          [&](std::size_t) {
            ++produced;
            return ScenarioOutput{};
          },
          [&](std::size_t i, ScenarioOutput&&) {
            if (i == 10) throw std::logic_error("sink full");
            ++consumed;
          });
      FAIL() << "expected exception at " << threads << " threads";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "sink full") << threads;
    }
    EXPECT_EQ(consumed, 10u) << threads;
    EXPECT_LT(produced.load(), kN) << threads;
  }
}

TEST(SweepRunner, InFlightOutputsBoundedByWindowPlusThreads) {
  // An output is in flight from the start of its produce() to the end of
  // its consume(). The reorder window is max(threads*4, 64) = 64 at
  // these thread counts.
  constexpr std::size_t kN = 20000;
  for (unsigned threads : {4u, 7u}) {
    std::atomic<std::size_t> in_flight{0};
    std::atomic<std::size_t> peak{0};
    SweepRunner::for_indexed_streaming(
        kN, threads,
        [&](std::size_t) {
          const std::size_t now = ++in_flight;
          std::size_t seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          return ScenarioOutput{};
        },
        [&](std::size_t, ScenarioOutput&&) { --in_flight; });
    EXPECT_EQ(in_flight.load(), 0u);
    EXPECT_LE(peak.load(), 64u + threads) << threads;
  }
}

TEST(SweepRunner, EnvVarControlsThreadResolution) {
  ASSERT_EQ(setenv("EMC_SWEEP_THREADS", "3", 1), 0);
  EXPECT_EQ(SweepRunner::resolve_threads(0), 3u);
  EXPECT_EQ(SweepRunner::resolve_threads(5), 5u);  // explicit wins
  ASSERT_EQ(unsetenv("EMC_SWEEP_THREADS"), 0);
  EXPECT_GE(SweepRunner::resolve_threads(0), 1u);
}

TEST(SweepRunner, EnvVarRejectsAnythingButAWholePositiveNumber) {
  for (const char* bad :
       {"4x", "0", "-2", "abc", "", " 4", "+4", "2.5", "99999999999999999999"}) {
    ASSERT_EQ(setenv("EMC_SWEEP_THREADS", bad, 1), 0);
    try {
      SweepRunner::resolve_threads(0);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("EMC_SWEEP_THREADS"),
                std::string::npos);
    }
    // An explicit request never consults the variable.
    EXPECT_EQ(SweepRunner::resolve_threads(2), 2u);
  }
  ASSERT_EQ(unsetenv("EMC_SWEEP_THREADS"), 0);
}

TEST(SweepRunner, EmptySweepIsHarmless) {
  int calls = 0;
  const unsigned used = SweepRunner::for_indexed_streaming(
      0, 4,
      [&](std::size_t) {
        ++calls;
        return ScenarioOutput{};
      },
      [&](std::size_t, ScenarioOutput&&) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(used, 1u);

  exp::Workbench wb("empty");
  wb.columns({"a"});
  wb.run([](const exp::ParamSet&, exp::Recorder&) {});
  EXPECT_EQ(wb.report().scenarios, 0u);
  EXPECT_EQ(wb.report().to_csv(), "a\n");
}

TEST(SweepRunner, ThreadCountClampsToIndexCount) {
  const unsigned used = SweepRunner::for_indexed_streaming(
      3, 8, [](std::size_t) { return ScenarioOutput{}; },
      [](std::size_t, ScenarioOutput&&) {});
  EXPECT_EQ(used, 3u);
}

}  // namespace
}  // namespace emc::analysis
