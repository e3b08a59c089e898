// Energy-token Petri net demo ([15]): a task graph whose *behaviour* is
// modulated by the energy flowing in.
//
//   $ ./energy_token_demo
//
// A sense->process->transmit pipeline where transmission costs 5x the
// energy of sensing. Watch the net under three energy diets (a typed
// exp::Workbench grid — each diet simulates on its own kernel): it
// degrades gracefully (keeps sensing, defers transmitting) rather than
// failing — scheduling policy expressed as net structure.
#include <cstdio>

#include "exp/workbench.hpp"
#include "sched/petri.hpp"
#include "sim/random.hpp"

using namespace emc;

namespace {

struct DietResult {
  std::uint64_t raw = 0;
  std::uint64_t cooked = 0;
  std::uint64_t sent = 0;
  std::uint64_t spent = 0;
  std::uint64_t left = 0;
};

}  // namespace

int main() {
  std::printf("== energy-token Petri net: sense -> process -> transmit ==\n\n");

  exp::Workbench wb("energy_token_demo");
  wb.grid().over("tokens_per_ms", {8.0, 30.0, 120.0});
  wb.columns({"tokens_per_ms", "transmitted", "energy_spent"});
  std::vector<DietResult> results(wb.grid().size());

  wb.run([&](const exp::ParamSet& p, exp::Recorder& rec) {
    const double tokens_per_ms = p.get<double>("tokens_per_ms");
    sim::Kernel kernel;
    sim::Rng rng(3);
    sched::EnergyPetriNet net(kernel);

    const auto ready = net.add_place("sensor_ready", 1);
    const auto raw = net.add_place("raw_samples", 0);
    const auto cooked = net.add_place("processed", 0);
    const auto sent = net.add_place("transmitted", 0);

    // sense: cheap (1 token), recycles the sensor-ready marker.
    net.add_transition("sense", {ready}, {ready, raw}, 1, sim::us(100));
    // process: medium (2 tokens).
    net.add_transition("process", {raw}, {cooked}, 2, sim::us(200));
    // transmit: expensive (5 tokens), batches two processed samples.
    net.add_transition("transmit", {cooked, cooked}, {sent}, 5, sim::us(400));

    const auto quanta = static_cast<std::uint64_t>(tokens_per_ms);
    std::function<void()> feed = [&] {
      net.add_energy(quanta);
      kernel.schedule(sim::ms(1), feed);
    };
    kernel.schedule(0, feed);

    net.run(sim::ms(50), rng);

    results[rec.index()] = {net.marking(raw), net.marking(cooked),
                            net.marking(sent), net.energy_spent(),
                            net.marking(net.energy_place())};
    rec.row()
        .set("tokens_per_ms", tokens_per_ms)
        .set("transmitted", net.marking(sent))
        .set("energy_spent", net.energy_spent());
    rec.add_stats(kernel.stats());
  });

  for (std::size_t i = 0; i < results.size(); ++i) {
    const double tokens_per_ms = wb.scenario(i).get<double>("tokens_per_ms");
    const DietResult& r = results[i];
    std::printf("energy diet %5.0f tokens/ms over 50 ms:\n", tokens_per_ms);
    std::printf("  sensed %4llu   processed %4llu   transmitted %4llu   "
                "(energy spent %llu, left %llu)\n\n",
                (unsigned long long)(r.raw + r.cooked * 1 + r.sent * 2 +
                                     r.cooked),
                (unsigned long long)(r.cooked + 2 * r.sent),
                (unsigned long long)r.sent,
                (unsigned long long)r.spent,
                (unsigned long long)r.left);
  }

  std::printf(
      "Starved, the net still senses (cheap transitions stay enabled) and "
      "queues work for\nricher times — energy-modulated behaviour without "
      "any explicit mode logic.\n");
  return 0;
}
