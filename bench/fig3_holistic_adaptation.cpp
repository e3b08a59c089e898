// Fig. 3 — power-adaptive computing, the holistic view.
//
// Full-chain experiment: stochastic harvester -> MPPT -> storage cap ->
// computational load (task scheduler), with the adaptive controller
// reading the store voltage and modulating scheduler concurrency.
// Compares three systems over the same 300 ms harvest trace:
//   A. fixed-rate scheduler (traditional, energy-blind)
//   B. energy-token scheduler, no adaptation (static concurrency)
//   C. energy-token scheduler + adaptive concurrency control (Fig. 3)
// Metrics: completed tasks, brown-out aborts, deadline misses, useful
// energy per harvested joule.
//
// Whether a system loses tasks depends on the harvest trace: only a
// trace with a long dead spell drives the store to collapse. So each
// system is replicated over N harvest traces (exp::Workbench::replicate;
// trial t's trace is seeded by its trial seed, the same trace for all
// three systems), and the figure reports per-system distributions:
// brown-out yield (share of traces with any abort), mean aborts, tasks
// completed and useful energy. Each (system, trial) scenario runs on its
// own kernel, its power chain declared as an exp::SupplyConfig.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "analysis/aggregate.hpp"
#include "analysis/csv.hpp"
#include "analysis/table.hpp"
#include "device/delay_model.hpp"
#include "exp/supply_config.hpp"
#include "exp/workbench.hpp"
#include "lint/session.hpp"
#include "power/adaptive_controller.hpp"
#include "repro/partial.hpp"
#include "repro/registry.hpp"
#include "sched/energy_token.hpp"
#include "sched/petri.hpp"
#include "sched/scheduler.hpp"
#include "sched/task.hpp"

namespace {

using namespace emc;

// A trace aborts tasks under system A at about one seed in four (4 of
// the 16 recorded traces, 226-492 tasks each). Under either token
// scheduler about one seed in sixteen aborts, and then a single task
// (one trace each for B and C in the recorded refs). So 16 traces
// separate A from C by aborts per trace (mean ~87 vs ~0.06) even where
// the brown-out yields sit close.
constexpr std::size_t kTrials = 16;
constexpr std::size_t kSmokeTrials = 3;

const char* const kNames[3] = {"A fixed-rate (traditional)",
                               "B energy-token (static)",
                               "C energy-token + adaptive (Fig. 3)"};

struct Outcome {
  sched::SchedStats stats;
  double harvested_j = 0.0;
  std::uint64_t level_changes = 0;
  sim::Kernel::Stats kernel_stats;
};

// The Fig. 3 power chain as data: a 2 uF store pre-charged to 0.8 V
// (wake at 0.16 V, shunt-clamped at 1.0 V) fed by the bursty vibration
// harvester through MPPT.
exp::SupplyConfig power_chain(std::uint64_t seed) {
  return exp::SupplyConfig::harvested(
      exp::SupplyConfig::storage_cap(2e-6, 0.8)
          .wake_threshold(0.16)
          .max_voltage(1.0),
      supply::HarvesterProfile::vibration_200uw(), seed, sim::us(10));
}

Outcome run_system(int which, std::uint64_t seed) {
  sim::Kernel kernel;
  device::DelayModel model{device::Tech::umc90()};
  exp::BuiltSupply chain = power_chain(seed).build(kernel);
  supply::StorageCap& store = *chain.store();

  // Always-on node load (radio wake logic, retention, sensor bias):
  // ~40 uW at 0.8 V, scaling as V^2. This is what makes over-admission
  // dangerous — during a harvest dead-spell the store must carry this
  // load on reserve alone, or the node loses all in-flight state.
  std::function<void()> quiescent = [&] {
    const double v = store.voltage();
    if (v > 0.0) {
      const double e = 40e-6 * (v / 0.8) * (v / 0.8) * 50e-6;
      store.draw(e / std::max(v, 0.05), e);
    }
    kernel.schedule(sim::us(50), quiescent);
  };
  kernel.schedule(0, quiescent);

  // Same workload for every system: ~270 uW offered at 0.6 V vs ~200 uW
  // harvested — the energy constraint binds, which is the regime the
  // holistic architecture exists for.
  sim::Rng wl_rng(1234);
  sched::TaskGenerator gen(0.5e-3, 1500.0, 15e-3, wl_rng);
  auto tasks = gen.poisson(sim::ms(300));
  for (auto& t : tasks) t.energy_per_op_j = 150e-12;

  std::unique_ptr<sched::SchedulerBase> sched;
  std::unique_ptr<sched::EnergyTokenPool> pool;
  std::unique_ptr<power::AdaptiveController> ctl;

  if (which == 0) {
    sched = std::make_unique<sched::FixedRateScheduler>(kernel, model, store,
                                                        4, "fixed");
  } else {
    pool = std::make_unique<sched::EnergyTokenPool>(store, 20e-9, 0.30);
    sched = std::make_unique<sched::EnergyTokenScheduler>(kernel, model,
                                                          store, 4, *pool);
    if (which == 2) {
      power::AdaptiveParams ap;
      ap.control_period = sim::us(200);
      ctl = std::make_unique<power::AdaptiveController>(
          kernel, store, ap, [&s = *sched](std::uint32_t level) {
            s.set_max_concurrency(level == 0 ? 0 : level);
          });
      ctl->start();
    }
  }
  sched->load(std::move(tasks));
  kernel.run_until(sim::ms(300));
  Outcome o;
  o.stats = sched->stats();
  o.harvested_j = chain.harvester()->total_energy_harvested();
  o.level_changes = ctl ? ctl->level_changes() : 0;
  o.kernel_stats = kernel.stats();
  return o;
}

/// Shared trials -> per-system distributions (streaming run + merge).
analysis::Aggregate fig3_aggregate() {
  return analysis::Aggregate({"system"})
      .yield("brownout")
      .stats("aborted")
      .stats("completed")
      .stats("useful_uJ")
      .stats("useful_per_harvested");
}

}  // namespace

static int run_fig3(const emc::repro::RunContext& ctx) {
  analysis::print_banner(
      "Fig. 3 — holistic power-adaptive system: harvester -> MPPT -> store "
      "-> modulated load");

  exp::Workbench wb("fig3_holistic_adaptation_trials");
  wb.threads(ctx.threads);
  wb.grid().over("system", std::vector<int>{0, 1, 2});
  wb.replicate(ctx.trials_or(kTrials, kSmokeTrials), ctx.seed);
  wb.shard(ctx.shard_index, ctx.shard_count);
  wb.columns({"system", "trial", "completed", "in_time", "aborted",
              "brownout", "useful_uJ", "wasted_uJ", "useful_per_harvested"});

  const auto body = [&](const exp::ParamSet& p, exp::Recorder& rec) {
    const int which = p.get<int>("system");
    const Outcome o = run_system(which, p.get<std::uint64_t>("trial_seed"));
    const sched::SchedStats& st = o.stats;
    rec.row()
        .set("system", kNames[which])
        .set("trial", p.get<int>("trial"))
        .set("completed", st.completed)
        .set("in_time", st.completed - st.deadline_misses)
        .set("aborted", st.aborted_brownout)
        .set("brownout", st.aborted_brownout > 0 ? 1 : 0)
        .set("useful_uJ", st.useful_energy_j * 1e6, 4)
        .set("wasted_uJ", st.wasted_energy_j * 1e6, 4)
        .set("useful_per_harvested", st.useful_energy_j / o.harvested_j, 3);
    rec.add_stats(o.kernel_stats);
  };

  if (ctx.sharded()) {
    repro::PartialWriter pw(
        ctx.partial_path("fig3_holistic_adaptation"),
        repro::make_partial_header(ctx, "fig3_holistic_adaptation",
                                   wb.schema(), wb.total_scenarios()));
    const auto& report = wb.run_streaming(
        [&](std::size_t g, const std::vector<std::string>& cells) {
          pw.row(g, cells);
        },
        body);
    pw.finish(report.kernel_stats);
    ctx.add_stats(report.kernel_stats);
    return 0;
  }

  analysis::CsvStream trials_out("fig3_holistic_adaptation_trials.csv",
                                 wb.schema());
  analysis::Aggregate::Sink agg_sink = fig3_aggregate().sink(wb.schema());
  const auto& report = wb.run_streaming(
      [&](std::size_t, const std::vector<std::string>& cells) {
        trials_out.row(cells);
        agg_sink.consume(cells);
      },
      body);
  trials_out.close();

  const analysis::Table agg = agg_sink.finish();
  agg.print();
  agg.write_csv("fig3_holistic_adaptation.csv");

  // Rows are the systems in grid order (A, B, C).
  const auto mean = [&agg](std::size_t row, const std::string& column) {
    const auto& h = agg.headers();
    const auto at = std::find(h.begin(), h.end(), column) - h.begin();
    return std::stod(agg.row(row).at(static_cast<std::size_t>(at)));
  };
  std::printf(
      "\nPaper claim (II.B): within the holistic approach, useful energy "
      "consumption is\nmaximized for a given amount of energy produced. "
      "The energy-blind scheduler (A)\nadmits everything and destroys "
      "tasks mid-flight in store collapses (in %.0f%% of\nharvest traces, "
      "%.1f tasks per trace on average); the adaptive energy-token\n"
      "policy (C) loses %.2f per trace, completes %.0f tasks per trace vs "
      "A's %.0f, and\nturns %.3f of the harvested energy into useful work "
      "vs A's %.3f.\n",
      100.0 * mean(0, "brownout_yield"), mean(0, "aborted_mean"),
      mean(2, "aborted_mean"), mean(2, "completed_mean"),
      mean(0, "completed_mean"), mean(2, "useful_per_harvested_mean"),
      mean(0, "useful_per_harvested_mean"));
  ctx.add_stats(report.kernel_stats);
  return 0;
}

static void lint_fig3(emc::lint::Session& s) {
  // The figure's components are analytic (scheduler + power chain); the
  // structure behind the energy-token policy is the task-lifecycle loop:
  // concurrency slots cycle idle -> running -> idle, and the cycle must
  // carry tokens (the admission budget) to stay live.
  emc::sched::EnergyPetriNet net(s.kernel());
  const auto idle = net.add_place("idle", 4);
  const auto running = net.add_place("running", 0);
  net.add_transition("admit", {idle}, {running}, 1, emc::sim::us(10));
  net.add_transition("complete", {running}, {idle}, 0, emc::sim::us(10));
  s.check(net, "fig3.task_cycle");
}

REPRO_FIGURE(fig3_holistic_adaptation)
    .title("Fig. 3 — harvester->MPPT->store->load: fixed vs token vs adaptive")
    .ref_csv("fig3_holistic_adaptation.csv")
    .ref_csv("fig3_holistic_adaptation_trials.csv")
    .shard_model("fig3_holistic_adaptation_trials.csv",
                 "fig3_holistic_adaptation.csv", fig3_aggregate)
    .seed(3)
    .smoke_mode()
    .lint(lint_fig3)
    .run(run_fig3);
