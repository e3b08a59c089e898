#include "power/adaptive_controller.hpp"

namespace emc::power {

AdaptiveController::AdaptiveController(sim::Kernel& kernel,
                                       supply::Supply& store,
                                       AdaptiveParams params, LevelKnob knob)
    : store_(&store),
      params_(std::move(params)),
      knob_(std::move(knob)),
      next_tick_(kernel, [this] { tick(); }) {}

void AdaptiveController::start() {
  if (!next_tick_.armed()) next_tick_.arm(params_.control_period);
}

std::uint32_t AdaptiveController::level_for(double vdd) const {
  std::uint32_t lvl = 0;
  for (double edge : params_.band_edges) {
    // Hysteresis: raising a level needs edge + h; dropping needs edge - h.
    const double eff = (lvl >= level_) ? edge + params_.hysteresis
                                       : edge - params_.hysteresis;
    if (vdd >= eff) ++lvl;
  }
  return lvl;
}

void AdaptiveController::tick() {
  // Re-arm first: the knob may stop the controller.
  next_tick_.arm(params_.control_period);
  ++ticks_;
  const std::uint32_t lvl = level_for(store_->voltage());
  if (lvl != level_) {
    level_ = lvl;
    ++level_changes_;
    if (knob_) knob_(level_);
  }
}

}  // namespace emc::power
