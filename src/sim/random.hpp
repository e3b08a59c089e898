// Seeded randomness for reproducible Monte-Carlo experiments.
//
// Every stochastic component (harvester bursts, Vth mismatch, metastability
// resolution) takes an Rng by reference so an experiment is fully
// determined by one seed printed in its report.
//
// The generator is counter-based: an Rng is a (key, counter) pair and its
// k-th raw draw is splitmix64(key + gamma * k) — a pure function of the key
// and the draw index, in the style of Philox/Threefry (Salmon et al.,
// "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11) built on the
// SplitMix64 mixer (Steele et al., "Fast Splittable Pseudorandom Number
// Generators", OOPSLA'14). Opening a stream costs four mixer calls and the
// object is 32 bytes, so one stream per device sample is cheap.
//
// For replicated (Monte-Carlo) runs the sequential-draw model is not
// enough: two elaborations that create the same devices in a different
// order must still give each device the same sample. derive_seed() turns
// a (seed, stream) pair into an independent key, so callers key one Rng
// per logical entity — Rng::keyed(trial_seed, instance_id) — instead of
// sharing one sequential stream whose draw order would leak elaboration
// order into the results.
//
// The transforms from raw 64-bit draws are written out here with plain
// arithmetic, sqrt and log — no std::*_distribution, whose algorithms are
// implementation-defined — so every recorded ref is the same under any
// standard library. Draws consumed per call:
//   uniform(), uniform(lo, hi), chance(p), exponential_mean()   1
//   index(n)                    1, plus a rejection redraw with
//                               probability < n / 2^64
//   gaussian()                  2 per accepted pair (Marsaglia polar,
//                               acceptance pi/4); the pair's second normal
//                               is kept and returned by the next call
// Changing any of this moves every stochastic ref: it is a deliberate ref
// change (README, "Determinism contract").
#pragma once

#include <cmath>
#include <cstdint>

namespace emc::sim {

/// SplitMix64's Weyl increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function
/// (Steele et al.; the output step of the splitmix64 generator).
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-based stream derivation: an independent, well-mixed seed for
/// logical stream `stream` of the experiment seeded with `seed`. Pure —
/// the same (seed, stream) always maps to the same value, regardless of
/// how many other streams were derived before it.
constexpr std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ splitmix64(~stream));
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = kSplitMixGamma) : key_(splitmix64(seed)) {}

  /// Rng on the derived stream (trial_seed, stream_id) — the handle for
  /// per-instance Monte-Carlo draws whose results must not depend on
  /// elaboration order.
  static Rng keyed(std::uint64_t seed, std::uint64_t stream) {
    return Rng(derive_seed(seed, stream));
  }

  /// Uniform in [0, 1): the top 53 bits of one draw, scaled by 2^-53.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n), n > 0: Lemire's multiply-shift, the high
  /// word of draw * n, rejecting the low words below 2^64 mod n that
  /// would bias it (Lemire, "Fast Random Integer Generation in an
  /// Interval", TOMACS 2019).
  std::uint64_t index(std::uint64_t n) {
    unsigned __int128 p = static_cast<unsigned __int128>(next()) * n;
    if (static_cast<std::uint64_t>(p) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(p) < threshold) {
        p = static_cast<unsigned __int128>(next()) * n;
      }
    }
    return static_cast<std::uint64_t>(p >> 64);
  }

  /// Gaussian with mean mu and standard deviation sigma (Marsaglia polar
  /// method; see the header comment for the draws consumed).
  double gaussian(double mu, double sigma) {
    if (has_spare_) {
      has_spare_ = false;
      return mu + sigma * spare_;
    }
    double v1 = 0.0;
    double v2 = 0.0;
    double s = 0.0;
    do {
      v1 = 2.0 * uniform() - 1.0;
      v2 = 2.0 * uniform() - 1.0;
      s = v1 * v1 + v2 * v2;
    } while (s >= 1.0 || s == 0.0);
    const double f = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v2 * f;
    has_spare_ = true;
    return mu + sigma * (v1 * f);
  }

  /// Exponential with the given mean (not rate), by inversion.
  double exponential_mean(double mean) {
    return -mean * std::log1p(-uniform());
  }

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

 private:
  /// Raw draw number counter_ (then advance): splitmix64(key + gamma * k).
  std::uint64_t next() { return splitmix64(key_ + kSplitMixGamma * counter_++); }

  std::uint64_t key_;
  std::uint64_t counter_ = 0;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace emc::sim
