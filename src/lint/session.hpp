// Lint session: a scratch elaboration context plus an aggregated report.
//
// A figure's lint hook needs somewhere to *build* its circuits — gates
// demand a live Context (kernel + delay model + supply) even when nothing
// will ever be simulated. Session owns that scratch stack (a 1 V battery
// context) and collects one Report per checked subject, so a hook reads:
//
//   void lint_fig1(lint::Session& s) {
//     async::MullerRing ring(s.ctx(), "ring", 6, 2);
//     s.check(ring.circuit());
//   }
//
// `emc_repro lint` then renders text or JSON and gates on clean().
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"

namespace emc::exp {
class Experiment;
}
namespace emc::gates {
struct Context;
}
namespace emc::sim {
class Kernel;
}

namespace emc::lint {

class Session {
 public:
  Session();
  virtual ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Scratch elaboration context for building the circuits under lint
  /// (1 V battery, energy meter on; nothing is ever simulated).
  gates::Context& ctx();
  sim::Kernel& kernel();

  /// Run the full rule pipeline over `c` and record the report under the
  /// circuit's name. Virtual so one figure hook serves every analyzer
  /// built on this session (sta::Session overrides it with the timing
  /// pipeline — same hooks, different rules).
  virtual void check(const netlist::Circuit& c);

  /// Run D001 (structural liveness) over a Petri net's current marking.
  virtual void check(const sched::EnergyPetriNet& net,
                     const std::string& label);

  /// Keep only findings whose rule ID is in `rules` (the --only CLI
  /// filter). Subjects stay recorded, so clean() still refuses to pass
  /// vacuously on an empty session.
  void filter_rules(const std::vector<std::string>& rules);

  const std::vector<std::pair<std::string, Report>>& results() const {
    return results_;
  }

  /// Every checked subject came back clean (no unsuppressed finding at
  /// warning severity or above). A session that checked nothing is NOT
  /// clean — a lint hook that forgot to check anything should fail
  /// loudly, not vacuously pass.
  bool clean() const;

  std::size_t findings(Severity at_least = Severity::kWarning) const;

  /// Human-readable report over all checked subjects.
  std::string text() const;
  /// JSON array of per-subject report objects.
  std::string json() const;

 protected:
  /// Record a finished report under `name` (for derived analyzers).
  void add_result(std::string name, Report r) {
    results_.emplace_back(std::move(name), std::move(r));
  }

 private:
  std::unique_ptr<exp::Experiment> ex_;
  std::vector<std::pair<std::string, Report>> results_;
};

}  // namespace emc::lint
