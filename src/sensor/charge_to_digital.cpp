#include "sensor/charge_to_digital.hpp"

#include <cassert>
#include <cmath>

namespace emc::sensor {

namespace {
// Mean switched capacitance per supply draw in the oscillator+toggle
// chain, in reference-inverter units: each oscillator transition fires
// the NAND (cap 2) plus the toggle chain amortized at 6*(1+1/2+1/4+...),
// across ~3 draw events. Used only by the closed-form cross-check.
constexpr double kMeanCapPerDraw = (2.0 + 12.0) / 3.0;
}  // namespace

ChargeToDigitalConverter::ChargeToDigitalConverter(gates::Context& host,
                                                   std::string name,
                                                   C2dParams params)
    : host_(host),
      name_(std::move(name)),
      params_(params),
      poll_(host.kernel, [this] { poll(); }) {
  cap_ = std::make_unique<supply::SampleCap>(
      host.kernel, name_ + ".csample", params_.sample_cap_f, 0.0);
  island_ = std::make_unique<gates::Context>(
      gates::Context{host.kernel, host.model, *cap_, host.meter});
  counter_ = std::make_unique<async::ToggleRippleCounter>(
      *island_, name_ + ".ctr", params_.counter_bits);
}

double ChargeToDigitalConverter::expected_transitions(double vin) const {
  const auto& tech = host_.model.tech();
  const double vmin = tech.vmin_operate;
  if (vin <= vmin) return 0.0;
  const double c_eff = kMeanCapPerDraw * tech.c_inv;
  return (params_.sample_cap_f / c_eff) * std::log(vin / vmin);
}

void ChargeToDigitalConverter::convert(
    double vin, std::function<void(const ConversionResult&)> cb) {
  assert(!converting_ && "one conversion at a time");
  converting_ = true;
  cb_ = std::move(cb);
  pending_ = ConversionResult{};
  pending_.sampled_v = vin;
  charge_before_ = cap_->total_charge_drawn();
  energy_before_ = cap_->total_energy_drawn();
  trans_before_ = cap_->draw_count();
  started_ = host_.kernel.now();
  // Close S1: sample Vin (wakes any parked gate via the cap's wake hook),
  // then close S2: let the counter run.
  pending_.code = counter_->decode();  // pre-conversion state (subtracted)
  cap_->set_wake_threshold(host_.model.tech().vmin_operate +
                           host_.model.tech().vmin_hysteresis);
  cap_->sample(vin);
  counter_->start();
  poll_.arm(params_.poll);
}

void ChargeToDigitalConverter::poll() {
  const double v = cap_->voltage();
  const std::uint64_t draws = cap_->draw_count();
  const bool quiet = draws == last_poll_draws_;
  last_poll_draws_ = draws;
  if (!host_.model.operational(v) && quiet) {
    finish();
    return;
  }
  poll_.arm(params_.poll);
}

void ChargeToDigitalConverter::finish() {
  converting_ = false;
  const std::uint64_t mod = std::uint64_t{1} << params_.counter_bits;
  const std::uint64_t before = pending_.code;
  const std::uint64_t now = counter_->decode();
  pending_.code = (now + mod - before) % mod;
  pending_.transitions = cap_->draw_count() - trans_before_;
  pending_.residual_v = cap_->voltage();
  pending_.charge_used_c = cap_->total_charge_drawn() - charge_before_;
  pending_.energy_used_j = cap_->total_energy_drawn() - energy_before_;
  pending_.duration_s = sim::to_seconds(host_.kernel.now() - started_);
  counter_->stop();
  if (cb_) {
    auto cb = std::move(cb_);
    cb_ = nullptr;
    cb(pending_);
  }
}

}  // namespace emc::sensor
