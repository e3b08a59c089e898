#include "repro/static_checks.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "lint/lint.hpp"
#include "lint/session.hpp"
#include "repro/registry.hpp"
#include "sta/session.hpp"
#include "tools/cli_common.hpp"

namespace emc::repro {

namespace {

/// What differs between the two verbs: the session a hook runs in, the
/// rule catalog, and the wording of messages.
struct Verb {
  const char* tool;     // message prefix, e.g. "emc_repro lint"
  const char* summary;  // usage headline
  const char* model;    // "lint model" / "timing model"
  bool timing;          // sta::Session (margins, arcs, --csv)
  const std::vector<lint::RuleInfo>& (*catalog)();
};

const Verb kLint{"emc_repro lint", "static netlist analyzer", "lint model",
                 false, &lint::rule_catalog};
const Verb kSta{"emc_repro sta", "static timing & margin analyzer",
                "timing model", true, &sta::rule_catalog};

struct Options {
  bool all = false;
  bool json = false;
  std::vector<std::string> only;
  std::string csv_path;
  std::vector<const Figure*> selected;
};

void print_usage(const Verb& v) {
  const char* csv = v.timing ? " [--csv FILE]" : "";
  std::printf(
      "%s — %s (rules: %s --rules)\n"
      "  %s list\n"
      "  %s --all [--json] [--only RULE,...]%s\n"
      "  %s <figure>... [--json] [--only RULE,...]%s\n"
      "%s",
      v.tool, v.summary, v.tool, v.tool, v.tool, csv, v.tool, csv,
      cli::kExitCodeHelp);
}

int print_rules(const Verb& v) {
  std::printf("rule  severity  summary\n");
  for (const auto& r : v.catalog()) {
    std::printf("%-5s %-9s %s\n", r.id, lint::to_string(r.severity),
                r.summary);
  }
  std::printf(
      "\nsuppression: Circuit::suppress(rule, subject, reason) at the build\n"
      "site waives one finding; the reason is mandatory and appears in\n"
      "reports. Informational findings never fail a run.\n");
  return 0;
}

/// Parse the verb's arguments and resolve its selection. `list`,
/// `--rules` and `--help` are answered here. Returns -1 when the checks
/// should run over opt->selected, otherwise the exit code.
int prepare(const Verb& v, const std::vector<std::string>& args,
            Options* opt) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "list") {
      return cli::list_figures([&](const Figure& f) {
        return f.lint != nullptr ? "[" + std::string(v.model) + "]"
                                 : "(no " + std::string(v.model) + ")";
      });
    }
    if (a == "--rules") return print_rules(v);
    if (a == "--all") {
      opt->all = true;
    } else if (a == "--json") {
      opt->json = true;
    } else if (a == "--only") {
      if (i + 1 >= args.size() ||
          (opt->only = cli::split_list(args[++i])).empty()) {
        std::fprintf(stderr, "%s: --only needs RULE[,RULE...]\n", v.tool);
        return 2;
      }
    } else if (v.timing && a == "--csv") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "%s: --csv needs a file path\n", v.tool);
        return 2;
      }
      opt->csv_path = args[++i];
    } else if (a == "--help" || a == "-h") {
      print_usage(v);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "%s: unknown flag %s\n", v.tool, a.c_str());
      print_usage(v);
      return 2;
    } else {
      names.push_back(a);
    }
  }
  if (!opt->all && names.empty()) {
    print_usage(v);
    return 2;
  }
  const int sel = cli::select_figures(v.tool, opt->all, names, &opt->selected);
  return sel != 0 ? sel : -1;
}

int run(const Verb& v, const std::vector<std::string>& args) {
  Options opt;
  const int rc = prepare(v, args, &opt);
  if (rc >= 0) return rc;

  std::ofstream csv;
  if (!opt.csv_path.empty()) {
    csv.open(opt.csv_path);
    if (!csv) {
      std::fprintf(stderr, "%s: cannot write %s\n", v.tool,
                   opt.csv_path.c_str());
      return 2;
    }
    csv << "figure," << sta::Session::kMarginCsvHeader;
  }

  bool any_dirty = false;
  bool any_vacuous = false;
  std::string json = std::string("{\"tool\":\"") + v.tool + "\",\"figures\":[";
  bool first = true;
  for (const Figure* f : opt.selected) {
    if (f->lint == nullptr) {
      // A figure selected for checking but carrying no model would
      // otherwise "pass" without a single rule running.
      any_vacuous = true;
      if (!opt.json) {
        std::printf("  [??] %-28s no %s registered\n", f->name.c_str(),
                    v.model);
      }
      continue;
    }
    const std::unique_ptr<lint::Session> session =
        v.timing ? std::make_unique<sta::Session>()
                 : std::make_unique<lint::Session>();
    const auto* timing = dynamic_cast<const sta::Session*>(session.get());
    f->lint(*session);
    if (!opt.only.empty()) session->filter_rules(opt.only);
    const bool vacuous = timing != nullptr && timing->vacuous();
    const bool clean = session->clean() && !vacuous;
    any_dirty |= !session->clean();
    any_vacuous |= vacuous;
    if (timing != nullptr && csv.is_open()) {
      csv << timing->margin_rows(f->name + ",");
    }
    if (opt.json) {
      if (!first) json += ",";
      first = false;
      json += "{\"figure\":\"" + f->name + "\",\"clean\":";
      json += clean ? "true" : "false";
      if (timing != nullptr) {
        json += ",\"vacuous\":";
        json += vacuous ? "true" : "false";
        json += ",\"arcs\":" + std::to_string(timing->arc_count());
      }
      json += ",\"subjects\":" + session->json() + "}";
      continue;
    }
    const std::string arcs =
        timing != nullptr ? std::to_string(timing->arc_count()) + " arc(s), "
                          : "";
    std::printf("  [%s] %-28s %zu subject(s), %s%zu active finding(s)\n",
                clean ? "ok" : "!!", f->name.c_str(),
                session->results().size(), arcs.c_str(),
                session->findings(lint::Severity::kWarning));
    if (timing != nullptr) {
      for (const auto& s : timing->vacuous_subjects()) {
        std::printf("       vacuous timing model: %s records bundles but no "
                    "arcs reach them\n",
                    s.c_str());
      }
    }
    if (!clean || session->findings(lint::Severity::kInfo) > 0) {
      std::fputs(session->text().c_str(), stdout);
    }
  }
  if (opt.json) std::printf("%s]}\n", json.c_str());
  return cli::exit_code(any_dirty, any_vacuous);
}

}  // namespace

int lint_command(const std::vector<std::string>& args) {
  return run(kLint, args);
}

int sta_command(const std::vector<std::string>& args) {
  return run(kSta, args);
}

}  // namespace emc::repro
