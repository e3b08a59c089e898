// netlist utility tests: activity snapshots (stats.cpp).
//
// The stats helpers feed Fig. 3's adaptation loop; their arithmetic
// (deltas, rates) is checked against a hand-built meter history.
#include <gtest/gtest.h>

#include <string>

#include "device/delay_model.hpp"
#include "gates/energy_meter.hpp"
#include "netlist/module.hpp"
#include "netlist/stats.hpp"
#include "sim/kernel.hpp"
#include "supply/battery.hpp"

namespace emc::netlist {
namespace {

struct Fixture {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  supply::Battery supply;
  gates::EnergyMeter meter;
  gates::Context ctx;

  explicit Fixture(double vdd = 1.0)
      : supply(kernel, "vdd", vdd),
        meter(kernel, device::Tech::umc90(), &supply),
        ctx{kernel, model, supply, &meter} {}
};

// ---- activity snapshots / deltas ------------------------------------------

TEST(NetlistStats, DeltaComputesWindowRates) {
  Fixture f;
  const auto g1 = f.meter.add("mod.g1");
  const auto g2 = f.meter.add("mod.g2");
  const ActivitySnapshot s0 = snapshot(f.meter, sim::ns(0));

  f.meter.record_transition(g1, 1e-12);
  f.meter.record_transition(g1, 1e-12);
  f.meter.record_transition(g2, 3e-12);
  const ActivitySnapshot s1 = snapshot(f.meter, sim::us(1));

  const ActivityDelta d = delta(s0, s1);
  EXPECT_EQ(d.transitions, 3u);
  EXPECT_NEAR(d.dynamic_j, 5e-12, 1e-18);
  EXPECT_NEAR(d.seconds, 1e-6, 1e-12);
  EXPECT_NEAR(d.transition_rate_hz(), 3e6, 1.0);
  EXPECT_NEAR(d.power_w(), d.energy_j() / 1e-6, 1e-9);

  // Per-module rollup at depth 1 groups both gates under "mod".
  ASSERT_EQ(s1.transitions_by_module.count("mod"), 1u);
  EXPECT_EQ(s1.transitions_by_module.at("mod"), 3u);
  EXPECT_NEAR(s1.energy_by_module.at("mod"), 5e-12, 1e-18);
}

TEST(NetlistStats, EmptyWindowHasZeroRates) {
  Fixture f;
  const ActivitySnapshot s0 = snapshot(f.meter, sim::ns(0));
  const ActivityDelta d = delta(s0, s0);
  EXPECT_EQ(d.transitions, 0u);
  EXPECT_EQ(d.transition_rate_hz(), 0.0);
  EXPECT_EQ(d.power_w(), 0.0);
}

}  // namespace
}  // namespace emc::netlist
