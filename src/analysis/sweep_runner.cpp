#include "analysis/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

namespace emc::analysis {

bool SweepReport::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << table.to_csv();
  return static_cast<bool>(out);
}

std::string SweepReport::summary() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%zu scenarios on %u thread%s: %llu events in %.3f s "
                "(%.3g ev/s)",
                scenarios, threads, threads == 1 ? "" : "s",
                static_cast<unsigned long long>(kernel_stats.events_executed),
                wall_seconds,
                wall_seconds > 0.0
                    ? static_cast<double>(kernel_stats.events_executed) /
                          wall_seconds
                    : 0.0);
  return buf;
}

void SweepReport::print_summary() const {
  std::printf("[sweep] %s\n", summary().c_str());
}

unsigned SweepRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("EMC_SWEEP_THREADS")) {
    // The determinism cross-checks pin thread counts through this
    // variable, so a typo must not silently mean "all cores".
    const std::string text = env;
    errno = 0;
    const unsigned long v = std::strtoul(text.c_str(), nullptr, 10);
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos ||
        errno == ERANGE || v == 0 || v > UINT_MAX) {
      throw std::invalid_argument(
          "EMC_SWEEP_THREADS must be a whole positive number, got \"" +
          text + "\"");
    }
    return static_cast<unsigned>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

unsigned SweepRunner::for_indexed_streaming(
    std::size_t n, unsigned threads,
    const std::function<ScenarioOutput(std::size_t)>& produce,
    const std::function<void(std::size_t, ScenarioOutput&&)>& consume) {
  threads = static_cast<unsigned>(std::min<std::size_t>(
      std::max(threads, 1u), std::max<std::size_t>(n, 1)));
  if (n == 0) return threads;

  std::vector<std::exception_ptr> errors(n);
  const auto rethrow_lowest = [&errors] {
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  };

  if (threads == 1) {
    // Serial path: produce and consume inline, strictly in order. This
    // is the reference ordering the parallel path must reproduce.
    for (std::size_t i = 0; i < n; ++i) {
      std::optional<ScenarioOutput> out;
      try {
        out.emplace(produce(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      if (out) consume(i, std::move(*out));
    }
    rethrow_lowest();
    return threads;
  }

  // Parallel path: `threads` producers feed a bounded reorder buffer;
  // the calling thread drains it in index order. The window keeps
  // producers from racing arbitrarily far ahead of the consumer — the
  // in-flight output count (and so the memory footprint) is bounded by
  // window + threads regardless of n.
  const std::size_t window =
      std::max<std::size_t>(static_cast<std::size_t>(threads) * 4, 64);

  std::mutex mu;
  std::condition_variable space_cv;  // producers wait for window room
  std::condition_variable ready_cv;  // the consumer waits for the next index
  // Buffered outputs keyed by index; an empty optional marks an index
  // whose produce() threw (recorded in errors), so the consumer can
  // skip it without waiting forever.
  std::map<std::size_t, std::optional<ScenarioOutput>> ready;
  std::size_t next_deliver = 0;
  bool aborted = false;

  std::atomic<std::size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      {
        std::unique_lock<std::mutex> lk(mu);
        space_cv.wait(lk,
                      [&] { return aborted || i < next_deliver + window; });
        if (aborted) return;
      }
      std::optional<ScenarioOutput> out;
      try {
        out.emplace(produce(i));
      } catch (...) {
        errors[i] = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lk(mu);
        ready.emplace(i, std::move(out));
      }
      ready_cv.notify_one();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);

  std::exception_ptr consumer_error;
  for (std::size_t d = 0; d < n; ++d) {
    std::optional<ScenarioOutput> out;
    {
      std::unique_lock<std::mutex> lk(mu);
      ready_cv.wait(lk, [&] { return ready.count(d) != 0; });
      out = std::move(ready.begin()->second);
      ready.erase(ready.begin());
      next_deliver = d + 1;
    }
    space_cv.notify_all();
    if (out) {
      try {
        consume(d, std::move(*out));
      } catch (...) {
        consumer_error = std::current_exception();
        {
          std::lock_guard<std::mutex> lk(mu);
          aborted = true;
        }
        space_cv.notify_all();
        break;
      }
    }
  }
  for (auto& th : pool) th.join();

  if (consumer_error) std::rethrow_exception(consumer_error);
  rethrow_lowest();
  return threads;
}

}  // namespace emc::analysis
