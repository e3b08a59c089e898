#include "sensor/ring_oscillator.hpp"

#include <cassert>

namespace emc::sensor {

RingOscillatorSensor::RingOscillatorSensor(gates::Context& ctx,
                                           std::string name,
                                           RingOscParams params)
    : circuit_(ctx, std::move(name)),
      params_(params),
      window_(ctx.kernel, [this] { close_window(); }) {
  assert(params_.stages % 2 == 1 && "ring length must be odd");
  enable_ = &circuit_.wire("enable", false);
  // NAND closes the ring so the oscillator can be gated; the remaining
  // stages are inverters.
  sim::Wire* prev = &circuit_.wire("n0", true);
  sim::Wire* first = prev;
  for (std::size_t i = 1; i < params_.stages; ++i) {
    sim::Wire& w = circuit_.wire("n" + std::to_string(i), (i % 2) == 0);
    circuit_.comb("inv" + std::to_string(i), gates::Op::kInv,
                  std::vector<sim::Wire*>{prev}, w);
    prev = &w;
  }
  circuit_.comb("nand", gates::Op::kNand, std::vector<sim::Wire*>{enable_, prev},
                *first);
  circuit_.mark_env_driven(*enable_);
  circuit_.suppress("C001", circuit_.name() + ".nand",
                    "ring oscillator: the combinational loop IS the sensor "
                    "(frequency ~ Vdd), gated by enable");
  out_ = prev;
}

void RingOscillatorSensor::measure(std::function<void(std::uint64_t)> cb) {
  assert(!measuring_);
  measuring_ = true;
  window_start_ = out_->transitions();
  cb_ = std::move(cb);
  enable_->set(true);
  window_.arm(params_.gate_window);
}

void RingOscillatorSensor::close_window() {
  enable_->set(false);
  measuring_ = false;
  // The callback may start the next measurement, which sets cb_ anew.
  auto cb = std::move(cb_);
  cb_ = nullptr;
  cb(out_->transitions() - window_start_);
}

double RingOscillatorSensor::expected_code(double vdd) const {
  const auto& model = circuit_.ctx().model;
  if (!model.operational(vdd)) return 0.0;
  // One output transition per half ring traversal; the NAND counts like
  // an inverter-and-a-bit.
  const double stage = model.inverter_delay_seconds(vdd);
  const double half_period = (static_cast<double>(params_.stages) + 0.6) * stage;
  return sim::to_seconds(params_.gate_window) / half_period;
}

}  // namespace emc::sensor
