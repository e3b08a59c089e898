#include "supply/harvester.hpp"

#include <cmath>

namespace emc::supply {

const char* to_string(HarvestState s) {
  switch (s) {
    case HarvestState::kDead:
      return "DEAD";
    case HarvestState::kWeak:
      return "WEAK";
    case HarvestState::kNormal:
      return "NORMAL";
    case HarvestState::kBurst:
      return "BURST";
  }
  return "?";
}

HarvesterProfile HarvesterProfile::vibration_200uw() {
  return HarvesterProfile{};
}

HarvesterProfile HarvesterProfile::intermittent_20uw() {
  HarvesterProfile p;
  p.power_w = {0.0, 10e-6, 40e-6, 150e-6};
  p.dwell_s = {10e-3, 5e-3, 2e-3, 0.5e-3};
  p.jump = {{
      {0.0, 0.8, 0.2, 0.0},
      {0.6, 0.0, 0.35, 0.05},
      {0.3, 0.5, 0.0, 0.2},
      {0.1, 0.5, 0.4, 0.0},
  }};
  return p;
}

HarvesterProfile HarvesterProfile::steady(double watts) {
  HarvesterProfile p;
  p.power_w = {watts, watts, watts, watts};
  p.dwell_s = {1.0, 1.0, 1.0, 1.0};
  p.jitter = 0.0;
  return p;
}

Harvester::Harvester(sim::Kernel& kernel, HarvesterProfile profile,
                     StorageCap& store, sim::Rng& rng, sim::Time tick)
    : kernel_(&kernel),
      profile_(profile),
      store_(&store),
      rng_(&rng),
      tick_(tick),
      next_step_(kernel, [this] { step(); }) {}

void Harvester::start() {
  if (next_step_.armed()) return;
  state_until_ = kernel_->now();
  maybe_transition();
  next_step_.arm(tick_);
}

double Harvester::instantaneous_power() const {
  if (blackout_depth_ > 0) return 0.0;
  return profile_.power_w[static_cast<std::size_t>(state_)] * jitter_factor_;
}

void Harvester::maybe_transition() {
  while (kernel_->now() >= state_until_) {
    const auto i = static_cast<std::size_t>(state_);
    // Draw the next dwell; on expiry jump according to the matrix row.
    const double dwell = rng_->exponential_mean(profile_.dwell_s[i]);
    state_until_ = kernel_->now() + sim::from_seconds(dwell);
    const double u = rng_->uniform();
    double acc = 0.0;
    for (std::size_t j = 0; j < 4; ++j) {
      acc += profile_.jump[i][j];
      if (u < acc) {
        state_ = static_cast<HarvestState>(j);
        break;
      }
    }
  }
  if (profile_.jitter > 0.0) {
    jitter_factor_ = 1.0 + rng_->uniform(-profile_.jitter, profile_.jitter);
  }
}

void Harvester::step() {
  // Re-arm first: a deposit's wake listeners may stop the harvester.
  next_step_.arm(tick_);
  maybe_transition();
  const double p = instantaneous_power();
  const double joules = p * sim::to_seconds(tick_) * efficiency_;
  // `> 0` rejects NaN from a poisoned profile; isfinite rejects +inf —
  // neither may reach the store or the harvest bookkeeping.
  if (joules > 0.0 && std::isfinite(joules)) {
    store_->deposit_energy(joules);
    harvested_j_ += joules;
  }
  if (tracing_) power_trace_.sample(kernel_->now(), p);
}

}  // namespace emc::supply
