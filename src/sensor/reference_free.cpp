#include "sensor/reference_free.hpp"

#include <cassert>

namespace emc::sensor {

ReferenceFreeSensor::ReferenceFreeSensor(gates::Context& ctx,
                                         std::string name,
                                         RefFreeParams params, sim::Rng* rng)
    : ctx_(&ctx),
      circuit_(ctx, std::move(name)),
      params_(params),
      cell_(ctx.model, params.cell),
      bitline_(cell_, params.bitline) {
  launch_ = &circuit_.wire("launch", false);
  if (rng != nullptr && params_.ruler_vth_sigma > 0.0) {
    ruler_ = std::make_unique<gates::DelayLine>(
        ctx, circuit_.name() + ".ruler", *launch_, params_.ruler_stages, 0.0,
        params_.ruler_vth_sigma, *rng);
  } else {
    ruler_ = std::make_unique<gates::DelayLine>(
        ctx, circuit_.name() + ".ruler", *launch_, params_.ruler_stages);
  }
  circuit_.mark_env_driven(*launch_);
  ruler_->describe_into(circuit_);
}

double ReferenceFreeSensor::expected_code(double vdd) const {
  const auto& model = ctx_->model;
  if (!model.operational(vdd)) return 0.0;
  return bitline_.read_delay_seconds(vdd, params_.cell_vth_offset) /
         model.inverter_delay_seconds(vdd);
}

void ReferenceFreeSensor::measure(
    std::function<void(const RefFreeReading&)> cb) {
  assert(!measuring_);
  measuring_ = true;
  cb_ = std::move(cb);
  pending_ = RefFreeReading{};
  started_ = ctx_->kernel.now();

  const double vdd = ctx_->supply.voltage();
  if (!cell_.sensable(vdd, params_.effective_leak_cells,
                      params_.cell_vth_offset)) {
    // The racing cell cannot develop a clean swing: no completion event.
    pending_.valid = false;
    settle_then_report();
    return;
  }

  // Fire both racers at once: wavefront into the ruler, read into the
  // cell's bit-line.
  ruler_->capture_baseline();
  launch_->set(!launch_->read());
  access_ = std::make_unique<sram::SteppedAccess>(
      ctx_->kernel, ctx_->supply, ctx_->model,
      [this](double v) {
        return bitline_.read_delay_seconds(v, params_.cell_vth_offset);
      },
      bitline_.params().substeps, [this] { on_sram_complete(); });
  access_->start();
}

void ReferenceFreeSensor::on_sram_complete() {
  // Freeze the thermometer code at the completion instant.
  pending_.code = ruler_->thermometer_code();
  pending_.saturated = pending_.code >= params_.ruler_stages;
  settle_then_report();
}

void ReferenceFreeSensor::settle_then_report() {
  // Let the ruler finish propagating before the next measurement: wait a
  // generous multiple of its full traversal at the present voltage, then
  // report. (Event-count exactness is not needed here — only that the
  // next baseline capture sees a quiet chain.)
  const double vdd = std::max(ctx_->supply.voltage(),
                              ctx_->model.tech().vmin_operate);
  const sim::Time settle = sim::from_seconds(
      1.5 * static_cast<double>(params_.ruler_stages) *
      ctx_->model.inverter_delay_seconds(vdd));
  // One report per measurement (measure() asserts !measuring_).
  ctx_->kernel.schedule(settle, [this] {
    pending_.duration_s = sim::to_seconds(ctx_->kernel.now() - started_);
    measuring_ = false;
    if (cb_) {
      auto cb = std::move(cb_);
      cb_ = nullptr;
      cb(pending_);
    }
  });
}

}  // namespace emc::sensor
