// Power-adaptive layer tests: probes, meters, QoS curves, hybrid mode
// switching, holistic adaptive controller.
#include <gtest/gtest.h>

#include "gates/energy_meter.hpp"
#include "power/adaptive_controller.hpp"
#include "power/hybrid.hpp"
#include "power/power_meter.hpp"
#include "power/qos.hpp"
#include "supply/battery.hpp"
#include "supply/harvester.hpp"
#include "supply/storage_cap.hpp"

namespace emc::power {
namespace {

TEST(DirectProbe, ReadsSupply) {
  sim::Kernel k;
  supply::Battery b(k, "vdd", 0.73);
  DirectProbe probe(b);
  double got = 0.0;
  probe.estimate([&](double v, bool ok) {
    EXPECT_TRUE(ok);
    got = v;
  });
  EXPECT_DOUBLE_EQ(got, 0.73);
  EXPECT_DOUBLE_EQ(probe.cost_j(), 0.0);
}

TEST(ConsumptionMeter, LapsMeasureDeltas) {
  sim::Kernel k;
  supply::Battery b(k, "vdd", 1.0);
  gates::EnergyMeter meter(k, device::Tech::umc90(), &b);
  ConsumptionMeter cm(k, meter);
  const auto id = meter.add("g");
  k.schedule(sim::us(1), [&] { meter.record_transition(id, 2e-15); });
  k.run();
  const auto d = cm.lap();
  EXPECT_EQ(d.transitions, 1u);
  EXPECT_GT(d.power_w(), 0.0);
  const auto d2 = cm.lap();
  EXPECT_EQ(d2.transitions, 0u);
}

TEST(QosCurve, ThresholdAndCrossover) {
  QosCurve d1("dual-rail"), d2("bundled");
  for (double v = 0.2; v <= 1.01; v += 0.1) {
    QosPoint p1;
    p1.vdd = v;
    p1.qos = 1e6 * v;          // delivers everywhere
    p1.power_w = 3e-6 * v * v;  // but costs more
    d1.add(p1);
    QosPoint p2;
    p2.vdd = v;
    p2.qos = v >= 0.5 ? 2e6 * v : 0.0;  // dead below 0.5 V
    p2.power_w = 2e-6 * v * v;
    p2.error_rate = v >= 0.5 ? 0.0 : 1.0;
    d2.add(p2);
  }
  EXPECT_NEAR(d1.delivery_threshold(1e5).value(), 0.2, 1e-9);
  EXPECT_NEAR(d2.delivery_threshold(1e5).value(), 0.5, 0.01);
  const auto cross = efficiency_crossover(d1, d2);
  ASSERT_TRUE(cross.has_value());
  EXPECT_NEAR(*cross, 0.5, 0.01);
  const QosCurve h = hybrid_envelope(d1, d2);
  EXPECT_GT(h.at(0.3).qos, 0.0);                  // Design 1 territory
  EXPECT_DOUBLE_EQ(h.at(0.9).qos, d2.at(0.9).qos);  // Design 2 territory
}

TEST(HybridController, SwitchesWithHysteresis) {
  HybridController hc(0.5, 0.05);
  EXPECT_EQ(hc.mode(), DesignMode::kDualRail);
  EXPECT_EQ(hc.update(0.54), DesignMode::kDualRail);  // inside band
  EXPECT_EQ(hc.update(0.56), DesignMode::kBundled);
  EXPECT_EQ(hc.update(0.46), DesignMode::kBundled);   // inside band
  EXPECT_EQ(hc.update(0.44), DesignMode::kDualRail);
  EXPECT_EQ(hc.switches(), 2u);
}

TEST(HybridController, FromCurvesRespectsDeliveryFloor) {
  QosCurve d1("d1"), d2("d2");
  for (double v = 0.2; v <= 1.01; v += 0.05) {
    QosPoint p1{v, 1e5, 1e-6, 0.0};
    d1.add(p1);
    QosPoint p2{v, v >= 0.6 ? 5e5 : 0.0, 0.5e-6, v >= 0.6 ? 0.0 : 1.0};
    d2.add(p2);
  }
  HybridController hc = HybridController::from_curves(d1, d2, 1e4);
  EXPECT_GE(hc.switch_vdd(), 0.6);
}

TEST(AdaptiveController, TracksStoreVoltageBands) {
  sim::Kernel k;
  sim::Rng rng(2);
  supply::StorageCap store(k, "store", 1e-6, 0.9);
  DirectProbe probe(store);
  std::vector<std::uint32_t> levels;
  AdaptiveParams ap;
  ap.control_period = sim::us(100);
  AdaptiveController ctl(k, probe, ap, [&](std::uint32_t l) {
    levels.push_back(l);
  });
  ctl.start();
  // Drain the store over time: levels must step down.
  for (int i = 1; i <= 40; ++i) {
    k.schedule_at(sim::us(50) * i, [&] {
      store.draw(store.charge() * 0.08, 0.0);
    });
  }
  k.run_until(sim::ms(3));
  ctl.stop();
  ASSERT_GE(levels.size(), 3u);
  // The sequence of knob settings is non-increasing.
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LE(levels[i], levels[i - 1]);
  }
  EXPECT_EQ(ctl.level(), 0u);
  EXPECT_GT(ctl.control_ticks(), 20u);
}

TEST(AdaptiveController, RecoversLevelsWhenHarvested) {
  sim::Kernel k;
  sim::Rng rng(4);
  supply::StorageCap store(k, "store", 1e-6, 0.1);
  supply::Harvester h(k, supply::HarvesterProfile::steady(500e-6), store,
                      rng, sim::us(10));
  DirectProbe probe(store);
  AdaptiveParams ap;
  ap.control_period = sim::us(100);
  std::uint32_t last = 0;
  AdaptiveController ctl(k, probe, ap, [&](std::uint32_t l) { last = l; });
  ctl.start();
  h.start();
  k.run_until(sim::ms(3));
  EXPECT_GE(last, 3u);  // store recharged towards ~1 V
}

TEST(AdaptiveController, DrivesHybridMode) {
  sim::Kernel k;
  supply::StorageCap store(k, "store", 1e-6, 1.0);
  DirectProbe probe(store);
  HybridController hybrid(0.5);
  AdaptiveParams ap;
  ap.control_period = sim::us(50);
  AdaptiveController ctl(k, probe, ap, nullptr, &hybrid);
  ctl.start();
  k.run_until(sim::us(200));
  EXPECT_EQ(hybrid.mode(), DesignMode::kBundled);  // 1 V: Design 2
  store.draw(store.charge() * 0.7, 0.0);           // drop to 0.3 V
  k.run_until(sim::us(400));
  EXPECT_EQ(hybrid.mode(), DesignMode::kDualRail);
}

}  // namespace
}  // namespace emc::power
