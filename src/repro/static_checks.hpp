// The static verbs of emc_repro: `lint` and `sta`.
//
// Every registered figure may attach one lint hook (a function that
// builds the figure's circuits against a scratch context and checks
// them). These verbs run those hooks without simulating anything:
//
//   emc_repro lint ...   through a lint::Session — the netlist rules
//                        (W001..F001, D001, S001; src/lint/lint.hpp)
//   emc_repro sta ...    through an sta::Session — the static timing
//                        rules (T001..T003; src/sta/sta.hpp): margins
//                        from longest-path propagation over the recorded
//                        timing arcs, swept across each circuit's
//                        declared operating range at nominal and worst
//                        process corner
//
// Both take the same arguments:
//
//   list                     figures and whether they carry a model
//   --rules                  the rule catalog
//   --all [--json]           check every figure (the CI gates)
//   <figure>... [--json]
//   --only RULE,...          keep only the listed rules
//   --csv FILE               (sta only) every margin-vs-Vdd curve
//
// Selection, listing and the 0/1/2 exit contract are the shared CLI
// surface (tools/cli_common.hpp): findings exit 1; a selected figure
// without a model exits 2, and so does an sta model that records
// bundles with no timing arcs behind them — a vacuous check must not
// read as a pass.
#pragma once

#include <string>
#include <vector>

namespace emc::repro {

/// `emc_repro lint <args>` (args exclude the verb itself).
int lint_command(const std::vector<std::string>& args);

/// `emc_repro sta <args>` (args exclude the verb itself).
int sta_command(const std::vector<std::string>& args);

}  // namespace emc::repro
