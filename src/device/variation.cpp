#include "device/variation.hpp"

#include <algorithm>

namespace emc::device {

DeviceSample VariationSampler::sample(std::uint64_t instance_id) const {
  DeviceSample d;
  d.vth_offset = variation_.corner_vth_shift;
  d.strength = variation_.corner_drive;
  if (!variation_.has_local()) return d;
  // One keyed stream per instance, always consumed in the same fixed
  // order (vth draw, then strength draw) as *standard* normals scaled by
  // the sigmas — so enabling or changing one sigma later rescales that
  // quantity without reshuffling the other's draws, preserving
  // common-random-number comparisons across variation settings. Both
  // normals come from the stream's first polar pair: the second call
  // returns the spare the first one kept.
  sim::Rng rng = sim::Rng::keyed(trial_seed_, instance_id);
  const double vth_draw = rng.gaussian(0.0, 1.0);
  const double strength_draw = rng.gaussian(0.0, 1.0);
  d.vth_offset += variation_.vth_sigma * vth_draw;
  if (variation_.strength_sigma > 0.0) {
    d.strength *= std::max(0.1, 1.0 + variation_.strength_sigma *
                                          strength_draw);
  }
  return d;
}

double VariationSampler::worst_vth(std::uint64_t first_id,
                                   std::size_t count) const {
  if (count == 0) return variation_.corner_vth_shift;
  // Max over the window's samples (each already includes the corner
  // shift) — NOT clamped at the corner: an all-fast window's worst cell
  // is genuinely faster than nominal.
  double worst = sample(first_id).vth_offset;
  for (std::size_t i = 1; i < count; ++i) {
    worst = std::max(worst, sample(first_id + i).vth_offset);
  }
  return worst;
}

}  // namespace emc::device
