#include "sram/bitline.hpp"

#include <limits>

namespace emc::sram {

double BitlineDynamics::section_cap() const {
  const auto& tech = cell_->delay_model().tech();
  double cap = tech.c_bitline * static_cast<double>(params_.cells_per_section) /
               static_cast<double>(params_.cells_on_line);
  if (cell_->params().eight_t) cap *= cell_->params().eight_t_cap_factor;
  return cap;
}

double BitlineDynamics::read_delay_seconds(double vdd,
                                           double vth_mismatch) const {
  const auto& tech = cell_->delay_model().tech();
  if (!cell_->delay_model().operational(vdd)) {
    return std::numeric_limits<double>::infinity();
  }
  const double i = cell_->read_current(vdd, vth_mismatch);
  return section_cap() * tech.bitline_swing * vdd / i;
}

double BitlineDynamics::write_delay_seconds(double vdd) const {
  if (!cell_->delay_model().operational(vdd)) {
    return std::numeric_limits<double>::infinity();
  }
  // Full-swing slew by the (logic-threshold) write driver.
  const double i =
      cell_->delay_model().drive_current(vdd) * params_.write_drive;
  return section_cap() * vdd / i;
}

SteppedAccess::SteppedAccess(sim::Kernel& kernel, supply::Supply& supply,
                             const device::DelayModel& model, DelayFn delay_at,
                             int steps, std::function<void()> on_complete)
    : supply_(&supply),
      model_(&model),
      delay_at_(std::move(delay_at)),
      steps_(steps),
      on_complete_(std::move(on_complete)),
      alive_(std::make_shared<bool>(true)),
      next_(kernel, [this] { step(); }) {
  // Resume from a brown-out as soon as a storage-backed supply recovers.
  // The liveness token guards against the access finishing (and being
  // destroyed) before a later wake fires.
  supply_->on_wake([this, alive = std::weak_ptr<bool>(alive_)] {
    const auto token = alive.lock();
    if (token && *token && stalled_) step();
  });
}

SteppedAccess::~SteppedAccess() { *alive_ = false; }

void SteppedAccess::start() { step(); }

void SteppedAccess::step() {
  const double vdd = supply_->voltage();
  if (!model_->operational(vdd)) {
    if (!stalled_) ++stall_events_;
    stalled_ = true;
    // Poll time-driven supplies; one poll is pending however many
    // wakes find the rail still brown.
    const sim::Time hint = supply_->retry_hint();
    if (hint != sim::kTimeMax) next_.arm(hint);
    return;
  }
  // Operational: a resume by wake retracts the pending poll.
  stalled_ = false;
  next_.cancel();
  if (done_ >= steps_) {
    // The callback may destroy this access object; run a local copy and
    // touch no members afterwards.
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    if (cb) cb();
    return;
  }
  const double dt = delay_at_(vdd) / static_cast<double>(steps_);
  ++done_;
  next_.arm(sim::from_seconds(dt));
}

}  // namespace emc::sram
