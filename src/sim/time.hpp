// Simulation time: 64-bit femtosecond ticks.
//
// Self-timed circuits simulated here span six decades of delay (a 90 nm
// inverter switches in ~40 ps at Vdd = 1 V but in tens of nanoseconds in
// sub-threshold), so the tick must be fine enough to resolve the fastest
// gate and the range must cover millisecond-scale harvester transients.
// Femtoseconds in a uint64_t give 1 fs resolution over ~5 hours of
// simulated time, which covers both ends comfortably.
#pragma once

#include <cstdint>

namespace emc::sim {

/// Simulation timestamp / duration in femtoseconds.
using Time = std::uint64_t;

inline constexpr Time kFemtosecond = 1;
inline constexpr Time kPicosecond = 1'000;
inline constexpr Time kNanosecond = 1'000'000;
inline constexpr Time kMicrosecond = 1'000'000'000;
inline constexpr Time kMillisecond = 1'000'000'000'000;
inline constexpr Time kSecond = 1'000'000'000'000'000;

/// Sentinel for "never" (no event pending, unbounded run).
inline constexpr Time kTimeMax = UINT64_MAX;

constexpr Time fs(std::uint64_t v) { return v * kFemtosecond; }
constexpr Time ps(std::uint64_t v) { return v * kPicosecond; }
constexpr Time ns(std::uint64_t v) { return v * kNanosecond; }
constexpr Time us(std::uint64_t v) { return v * kMicrosecond; }
constexpr Time ms(std::uint64_t v) { return v * kMillisecond; }

/// a + b, saturating at kTimeMax ("never") instead of wrapping.
constexpr Time saturating_add(Time a, Time b) {
  const Time s = a + b;
  return s < a ? kTimeMax : s;
}

/// Convert a duration in seconds (e.g. from an analogue model) to ticks,
/// rounding to the nearest femtosecond (halves away from zero, like
/// std::llround) and saturating at kTimeMax; zero, negative and NaN
/// durations give 0. Inline and libm-free: the delay model ends every
/// evaluation here. Truncating and then comparing the fractional part is
/// exact — the fraction of a double below 2^52 is representable, and
/// above it the double is already an integer — so the result matches
/// std::llround wherever that is defined (below 2^63 ticks) and stays
/// correct up to 2^64 ticks, where llround's long long overflows.
inline Time from_seconds(double seconds) {
  if (!(seconds > 0.0)) return 0;
  const double ticks = seconds * 1e15;
  if (ticks >= 18446744073709551616.0) return kTimeMax;  // 2^64
  const Time whole = static_cast<Time>(ticks);
  return ticks - static_cast<double>(whole) >= 0.5 ? whole + 1 : whole;
}

/// Convert ticks to seconds for analogue models and reporting.
constexpr double to_seconds(Time t) { return static_cast<double>(t) * 1e-15; }

}  // namespace emc::sim
