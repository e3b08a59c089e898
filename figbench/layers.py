"""Layer map for the traced build: which layer each emc_repro function
belongs to, and which functions are counted.

A function's layer is its `emc::<module>::` namespace. Modules that no
benchmark workload spends measurable time in are pooled as `other`.
Code outside `emc::` (figure bodies in bench/*.cpp, their static
registrations, main) is the `figure` layer.
"""

import re
import subprocess

# emc::<module> -> layer. Every src/ module must appear here (self-test).
MODULE_LAYER = {
    "sim": "sim",
    "device": "device",
    "gates": "gates",
    "supply": "supply",
    "fault": "fault",
    "sram": "sram",
    "analysis": "analysis",
    "exp": "exp",
    "repro": "repro",
    "async": "other",
    "sched": "other",
    "sensor": "other",
    "power": "other",
    "netlist": "other",
    "lint": "other",
    "sta": "other",
    # Not a src/ module: tools/cli_common is the repro driver's CLI.
    "cli": "repro",
}

# Layer ids as written to the map file. "idle" is time with no
# instrumented frame on the stack; "unmapped" an address outside the map.
LAYERS = ["idle", "unmapped", "sim", "sim.rng", "device", "gates", "supply",
          "fault", "sram", "analysis", "exp", "repro", "other", "figure"]

# Tagged functions: (tag, timed, predicate on the qualified and the full
# demangled name). Calls are counted at the outermost tagged frame only.
_SWEEP_ENTRIES = ("run", "run_workers", "for_indexed", "for_indexed_workers",
                  "for_indexed_streaming", "run_streaming")
# The per-scenario lambdas of Workbench::run/run_reusing/run_streaming
# (in run_streaming, #1 is the index helper and #3 the consumer).
_SCENARIO_LAMBDA = re.compile(
    r"^emc::exp::Workbench::run(_reusing|_streaming)?\(.*\)::\{lambda\("
    r"(emc::analysis::Scenario const&, unsigned long(, unsigned int)?\)#\d+"
    r"|unsigned long\)#2)\}::operator\(\)")
TAGS = [
    ("rng_keyed", False, lambda q, d: q == "emc::sim::Rng::keyed"),
    ("variation_sample", False,
     lambda q, d: q == "emc::device::VariationSampler::sample"),
    ("refresh", False, lambda q, d: q == "emc::gates::DriveArena::refresh"),
    ("delay_eval", False, lambda q, d: q == "emc::device::DelayModel::delay"),
    # A draw through the FaultableSupply wrapper (inline) is two calls:
    # the wrapper's own Supply::draw bookkeeping and the inner rail's.
    ("supply_draw", False,
     lambda q, d: q.startswith(("emc::supply::", "emc::fault::"))
     and q.endswith("::draw")),
    ("analysis_row", False,
     lambda q, d: q in ("emc::analysis::Table::add_row",
                        "emc::analysis::CsvStream::row")),
    ("exp_scenario", False, lambda q, d: bool(_SCENARIO_LAMBDA.match(d))),
    ("sweep", True,
     lambda q, d: q.startswith("emc::analysis::SweepRunner::")
     and q.rsplit("::", 1)[1] in _SWEEP_ENTRIES),
    # Artifact read-back, hashing and the ref compare of --check.
    ("check", True,
     lambda q, d: q.startswith("emc::repro::sha256")
     or q in ("emc::repro::(anonymous namespace)::read_file",
              "emc::repro::(anonymous namespace)::diff_summary")),
]

_RNG_PREFIXES = ("emc::sim::Rng::", "emc::sim::derive_seed",
                 "emc::sim::splitmix64")


def qualified_name(demangled):
    """The scope-qualified name of a demangled function symbol, without
    its return type, template arguments or parameter list:
    `void emc::sim::Kernel::run<int>(double) const` -> `emc::sim::Kernel::run`.
    """
    out = []
    depth = 0
    i = 0
    s = demangled
    while i < len(s):
        if s.startswith("(anonymous namespace)", i):
            if depth == 0:
                out.append("(anonymous namespace)")
            i += len("(anonymous namespace)")
            continue
        c = s[i]
        if c in "<({[":
            if c == "(" and depth == 0:
                break
            depth += 1
        elif c in ">)}]":
            depth -= 1
        elif depth == 0:
            if c == " ":
                if not "".join(out).endswith("operator"):
                    out = []  # what came before was the return type
            else:
                out.append(c)
        i += 1
    return "".join(out)


def layer_of(qualified):
    m = re.match(r"emc::([A-Za-z_]\w*)::", qualified)
    if m is None:
        return "figure"
    module = m.group(1)
    if module == "sim" and qualified.startswith(_RNG_PREFIXES):
        return "sim.rng"
    return MODULE_LAYER.get(module, "other")


def tag_of(qualified, demangled):
    for i, (_, _, pred) in enumerate(TAGS):
        if pred(qualified, demangled):
            return i
    return 255


def write_map(binary, out_path):
    """Classify every function symbol of `binary` and write the map file
    the trace hook loads (format in trace/trace_hook.cpp)."""
    nm = subprocess.run(["nm", "-C", "--defined-only", "-S", binary],
                        check=True, capture_output=True, text=True).stdout
    lines = [f"L {i} {name}" for i, name in enumerate(LAYERS)]
    lines += [f"T {i} {tag} {int(timed)}"
              for i, (tag, timed, _) in enumerate(TAGS)]
    n = 0
    for row in nm.splitlines():
        parts = row.split(" ", 3)
        if len(parts) < 4 or parts[2] not in ("t", "T", "w", "W"):
            continue
        q = qualified_name(parts[3])
        lines.append(f"F {parts[0]} {parts[1]} "
                     f"{LAYERS.index(layer_of(q))} {tag_of(q, parts[3])}")
        n += 1
    with open(out_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return n
