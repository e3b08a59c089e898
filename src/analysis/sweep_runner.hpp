// Ordered streaming sweep engine.
//
// Every figure bench in this repo is the same workload: a grid of
// scenarios (Vdd points, energy quanta, harvester seeds), each simulated
// on its own emc::sim::Kernel, each producing a few table rows. The
// kernels are fully independent — a Kernel owns all of its mutable state
// — so scenarios run one-per-thread with no locking.
//
// Determinism contract: produce() is called exactly once per index,
// scenarios never share a kernel, and consume() sees the outputs in
// index order regardless of thread count or completion order. A sweep
// run with EMC_SWEEP_THREADS=1 and EMC_SWEEP_THREADS=N produces
// byte-identical tables and CSV (enforced by tests/sweep_runner_test.cpp
// and `emc_repro --threads-cross-check`).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "sim/kernel.hpp"

namespace emc::analysis {

/// What a scenario body hands back: zero or more table rows plus the
/// kernel's execution stats (so the sweep can report total throughput).
struct ScenarioOutput {
  std::vector<std::vector<std::string>> rows;
  sim::Kernel::Stats stats;
};

/// Aggregated result of a sweep, rows in scenario order.
struct SweepReport {
  Table table;
  std::size_t scenarios = 0;
  unsigned threads = 1;
  double wall_seconds = 0.0;        // whole-sweep wall clock
  sim::Kernel::Stats kernel_stats;  // summed over scenarios

  std::string to_csv() const { return table.to_csv(); }

  /// Write the table as CSV; returns false on I/O error.
  bool write_csv(const std::string& path) const;

  /// "N scenarios on T threads: E events in W s (R ev/s)".
  std::string summary() const;
  void print_summary() const;
};

class SweepRunner {
 public:
  /// Resolve a thread request: an explicit count wins, 0 takes
  /// EMC_SWEEP_THREADS from the environment, falling back to
  /// std::thread::hardware_concurrency(). Throws std::invalid_argument
  /// when EMC_SWEEP_THREADS is set to anything but a whole positive
  /// number.
  static unsigned resolve_threads(unsigned requested);

  /// The one sweep execution path: `produce(i)` runs for every i in
  /// [0, n) on a pool of `threads` workers (inline on the calling thread
  /// when that is 1), while `consume(i, output)` runs on the *calling*
  /// thread, in strict index order, as results become available.
  /// In-flight outputs are bounded (a reorder window of
  /// max(threads*4, 64) entries with backpressure on the producers), so
  /// a million-index stream holds O(threads) outputs instead of O(n).
  /// Returns the thread count actually used (clamped to [1, max(n, 1)]).
  ///
  /// Determinism: consume sees exactly the serial order at any thread
  /// count. A produce() exception is recorded, that index is skipped by
  /// consume, every other index still runs, and the lowest-index
  /// exception is rethrown at the end — the same winner at any thread
  /// count. A consume() exception aborts the stream and propagates.
  static unsigned for_indexed_streaming(
      std::size_t n, unsigned threads,
      const std::function<ScenarioOutput(std::size_t)>& produce,
      const std::function<void(std::size_t, ScenarioOutput&&)>& consume);
};

}  // namespace emc::analysis
