// Shared CLI surface of emc_repro's verbs (run, merge, lint, sta).
//
// All verbs speak the same dialect: `list` enumerates registered
// figures, `--all` selects everything, bare arguments are figure names
// resolved against the registry, and the exit code means the same thing
// everywhere:
//
//   0  everything selected was actually checked and came back clean
//   1  active findings / failures / drift
//   2  usage error or a vacuous run (nothing was actually checked:
//      unknown figure, empty registry, missing model, missing ref)
//
// Findings outrank vacuousness — a run that both failed and skipped
// something exits 1, so CI surfaces the real defect first.
//
// This header is the single home of that contract; each verb keeps its
// own flags and report format but routes selection, listing and
// exit-code folding through here so the verbs cannot drift.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace emc::repro {
struct Figure;
}

namespace emc::cli {

/// The shared exit-code contract, phrased for --help output.
extern const char* kExitCodeHelp;

/// Split a comma-separated flag value ("W001,C001") into its non-empty
/// tokens.
std::vector<std::string> split_list(const std::string& arg);

/// Resolve a verb's selection (--all or explicit figure names) against
/// the registry. Returns 0 and fills *out on success; prints
/// "<tool>: unknown figure ... (try list)" or "<tool>: nothing
/// registered" to stderr and returns 2 on a vacuous selection. Callers
/// handle the names-empty-and-not-all case themselves (they print their
/// own usage text first).
int select_figures(const char* tool, bool all,
                   const std::vector<std::string>& names,
                   std::vector<const repro::Figure*>* out);

/// Per-figure annotation for the `list` verb ("[lint model]", the
/// figure's title, ...).
using AnnotateFn = std::function<std::string(const repro::Figure&)>;
/// Optional extra lines printed under a figure's list row.
using ExtraFn = std::function<void(const repro::Figure&)>;

/// The `list` verb: "<n> registered figure(s):" then one aligned row per
/// figure. Always returns 0 (an empty registry is a valid listing).
int list_figures(const AnnotateFn& annotate, const ExtraFn& extra = nullptr);

/// Fold a run's outcome into the shared exit code: findings (1) outrank
/// vacuousness (2); otherwise clean (0).
int exit_code(bool any_findings, bool any_vacuous);

}  // namespace emc::cli
