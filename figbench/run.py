#!/usr/bin/env python3
"""Figure-level benchmark of the emc_repro reproduction driver.

    python3 figbench/run.py --workload mc_yield --seed 7 --seconds 15 --trace 0

Run from the root of a source checkout. The first run builds two copies
of emc_repro under .bench_build/figbench/ from the checkout's sources:
a plain Release build (timed) and an instrumented one (--trace 1).
The last line of standard output is one JSON result object; see
figbench/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import layers  # noqa: E402

BUILD = ROOT / ".bench_build" / "figbench"

# Sweep threads of the timed and traced runs, and the second count the
# artifacts and counters must also reproduce at. Timed runs are
# single-threaded: on the shared 4-vCPU reference host, 5-minute stretches
# of the suite drifted by up to 33% (block medians) at 4 threads and 11%
# at 1. One thread also lets the layer self times of the traced run
# partition its wall time.
TIMED_THREADS = 1
CROSS_THREADS = 4
TRACE_THREADS = TIMED_THREADS

MIN_REPS = 3
# Set-up invocations after each timed one, so that they sample the
# same stretch of host load as the timed runs.
SETUP_PER_REP = 5
INVOCATION_TIMEOUT_S = 150

# Each workload: the timed invocation, its set-up invocation (the same
# with its work axis at its smallest) and, for the scaled ones, the
# default-size --check run. Trial counts (defaults: 60 and 12) are
# scaled so one invocation takes ~2.5 s at TIMED_THREADS on a 2 GHz
# x86-64 host.
WORKLOADS = {
    "mc_yield": {"figure": "fig_mc_yield", "trials": 400},
    "survivability": {"figure": "fig_survivability", "trials": 30},
    "suite": {"figure": None, "trials": None},
}


class Failure(Exception):
    """The benchmark cannot run at all (no sources, build failed)."""


def log(msg):
    print(f"[figbench] {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build(trace):
    name = "traced" if trace else "release"
    bdir = BUILD / name
    logf = BUILD / f"build-{name}.log"
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DFIGBENCH_TRACE={'ON' if trace else 'OFF'}"])
    steps.append(["cmake", "--build", str(bdir), "--target", "emc_repro",
                  "-j", jobs])
    with open(logf, "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = logf.read_text().splitlines()[-30:]
                raise Failure(f"{name} build failed:\n" + "\n".join(tail))
    exe = bdir / "emc" / "emc_repro"
    if not exe.exists():
        raise Failure(f"{name} build produced no {exe}")
    return exe


def trace_map(exe):
    path = exe.parent / "figbench_trace.map"
    if not path.exists() or path.stat().st_mtime < exe.stat().st_mtime:
        layers.write_map(str(exe), str(path))
    return path


# ----------------------------------------------------------- invocation


def clean_env(threads, extra=None):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("EMC_", "FIGBENCH_"))}
    env["EMC_SWEEP_THREADS"] = str(threads)
    env.update(extra or {})
    return env


_running = []  # the emc_repro process in flight, for the signal handler


def _terminate(signum, _frame):
    for proc in _running:
        proc.kill()
        proc.wait()
    raise SystemExit(128 + signum)


def invoke(exe, args, cwd, threads, extra_env=None):
    """Run emc_repro once; returns (exit code, wall s, cpu s, peak RSS MB)."""
    cwd.mkdir(parents=True, exist_ok=True)
    env = clean_env(threads, extra_env)
    t0 = time.perf_counter()
    proc = subprocess.Popen([str(exe)] + args, cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _running.append(proc)
    timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    timer.daemon = True
    timer.start()
    # Drain stderr on a thread so a chatty figure cannot block on the pipe.
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()),
                              daemon=True)
    reader.start()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    _running.remove(proc)
    timer.cancel()
    reader.join()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 and err and err[0]:
        log(f"emc_repro {' '.join(args)} exited {proc.returncode}: "
            + err[0].decode(errors="replace").strip()[-400:])
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0)


def figure_list(exe, cwd):
    p = subprocess.run([str(exe), "list"], cwd=cwd, env=clean_env(1),
                       capture_output=True, text=True)
    if p.returncode != 0:
        raise Failure(f"emc_repro list exited {p.returncode}")
    names = [line.split()[0] for line in p.stdout.splitlines()[1:]
             if line.startswith("  ") and not line.startswith("    ")]
    if not names:
        raise Failure("emc_repro list names no figures")
    return names


class Workload:
    def __init__(self, name, seed, refs):
        self.name = name
        self.seed = seed
        self.refs = refs
        spec = WORKLOADS[name]
        self.figure = spec["figure"]
        self.trials = spec["trials"]

    def run_args(self, exe, cwd):
        """Arguments of one timed invocation (the caller adds --manifest)
        and the number of figures it runs."""
        if self.figure is None:
            # The suite's inputs are the recorded default seeds (--check
            # compares against refs recorded at them); the seed permutes
            # the order the figures run in.
            figs = figure_list(exe, cwd)
            random.Random(self.seed).shuffle(figs)
            return ["run"] + figs + ["--check", "--refs", str(self.refs)], len(figs)
        return ["run", self.figure, "--trials", str(self.trials),
                "--seed", str(self.seed)], 1

    def setup_args(self):
        if self.figure is None:
            return ["list"]
        # --trials 1 would be the one-trial invocation, but the replicated
        # figures reject it today (Workbench only sets "trial_seed" for
        # more than one trial), so set-up runs two trials.
        return ["run", self.figure, "--trials", "2", "--seed", str(self.seed)]

    def check_args(self):
        """The untimed default-size --check run of a scaled workload."""
        if self.figure is None:
            return None
        return ["run", self.figure, "--check", "--refs", str(self.refs)]


# ------------------------------------------------------------ manifests


class Ledger:
    """Figure runs attempted and failed; failure reasons go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, n, failed, reason=None):
        self.attempted += n
        self.failed += failed
        if failed and reason:
            log(reason)


def read_manifest(path, cwd, expected_figures):
    """Figure records of one run, each with ok flag, counters and digests.
    A figure counts as failed if it did not report ok, produced no
    artifact, or produced an artifact with no data row."""
    try:
        figures = json.loads(path.read_text())["figures"]
    except (OSError, ValueError, KeyError):
        return None
    if len(figures) != expected_figures:
        return None
    out = []
    for f in figures:
        arts = f.get("artifacts", [])
        ok = f.get("status") == "ok" and bool(arts)
        digests = {}
        for a in arts:
            p = cwd / a["file"]
            if not p.exists() or p.stat().st_size != a["bytes"]:
                ok = False
                continue
            digests[a["file"]] = a["sha256"]
            if a["file"].endswith(".csv"):
                with open(p, "rb") as fh:
                    if sum(1 for line in fh if line.strip()) < 2:
                        ok = False  # header only: the figure ran no trial
        ks = f.get("kernel_stats", {})
        out.append({
            "name": f["name"],
            "ok": ok,
            "status": f.get("status"),
            "counters": (ks.get("events_executed", 0),
                         ks.get("events_scheduled", 0),
                         ks.get("peak_queue_depth", 0),
                         sum(a["bytes"] for a in arts)),
            "digests": digests,
        })
    return out


def counters_of(records):
    """Manifest counters of a run: events, peak depth (max), bytes."""
    return {
        "sim.events_executed": sum(r["counters"][0] for r in records),
        "sim.events_scheduled": sum(r["counters"][1] for r in records),
        "sim.peak_queue_depth": max(r["counters"][2] for r in records),
        "analysis.bytes_written": sum(r["counters"][3] for r in records),
    }


def _identity(records):
    return [(r["name"], r["counters"], r["digests"]) for r in records]


class RunSet:
    """Invocations of one workload that must repeat each other exactly:
    same counters and byte-identical artifacts as the first good run."""

    def __init__(self, ledger, n_figures):
        self.ledger = ledger
        self.n_figures = n_figures
        self.first_records = None

    def record(self, label, code, cwd, manifest):
        recs = read_manifest(manifest, cwd, self.n_figures)
        if recs is None:
            self.ledger.add(self.n_figures, self.n_figures,
                            f"{label}: exit {code}, no usable manifest")
            return
        bad = [r for r in recs if not r["ok"]]
        if code != 0 and not bad:
            bad = recs  # non-zero exit with every figure "ok": trust the exit
        if bad:
            self.ledger.add(len(recs), len(bad),
                            f"{label}: exit {code}; failed "
                            + ", ".join(f"{r['name']} ({r['status']})" for r in bad))
            return
        if self.first_records is None:
            self.first_records = recs
        diff = [now[0] for now, first in
                zip(_identity(recs), _identity(self.first_records)) if now != first]
        self.ledger.add(len(recs), len(diff),
                        f"{label}: counters or artifacts differ from the first "
                        f"run of the set ({', '.join(diff)})")


# ------------------------------------------------------------- measure


def measure_setup(exe, wl, work, walls):
    for _ in range(SETUP_PER_REP):
        code, wall, _, _ = invoke(exe, wl.setup_args(), work / "setup",
                                  TIMED_THREADS)
        if code != 0:
            raise Failure(f"set-up invocation {wl.setup_args()} exited {code}")
        walls.append(wall)


def timed_runs(exe, wl, args, work, runset, seconds, threads, label,
               min_reps=MIN_REPS, setup_walls=None):
    walls, cpus, rss = [], [], []
    t_end = time.perf_counter() + seconds
    rep = 0
    while rep < min_reps or time.perf_counter() < t_end:
        cwd = work / label
        if cwd.exists():
            shutil.rmtree(cwd)
        manifest = cwd / "manifest.json"
        code, wall, cpu, peak = invoke(
            exe, args + ["--manifest", str(manifest)], cwd, threads)
        runset.record(f"{label} rep {rep}", code, cwd, manifest)
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        rep += 1
        if setup_walls is not None:
            measure_setup(exe, wl, work, setup_walls)
    return walls, cpus, rss


def verify(exe, wl, args, work, ledger, runset):
    """Untimed: the same invocation at a second thread count must repeat
    the set's counters and artifacts; a scaled figure must also pass its
    default-size --check against the recorded refs."""
    cwd = work / "cross"
    manifest = cwd / "manifest.json"
    code, *_ = invoke(exe, args + ["--manifest", str(manifest)], cwd,
                      CROSS_THREADS)
    runset.record(f"threads={CROSS_THREADS} cross-check", code, cwd, manifest)
    check = wl.check_args()
    if check is not None:
        cwd = work / "check"
        manifest = cwd / "manifest.json"
        code, *_ = invoke(exe, check + ["--manifest", str(manifest)], cwd,
                          TIMED_THREADS)
        recs = read_manifest(manifest, cwd, 1)
        failed = 1 if code != 0 or recs is None or not recs[0]["ok"] else 0
        ledger.add(1, failed, f"default-size --check of {wl.figure}: exit {code}"
                   if failed else None)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(exe, wl, work, seconds):
    ledger = Ledger()
    args, n_figs = wl.run_args(exe, work)
    runset = RunSet(ledger, n_figs)
    setup_walls = []
    walls, cpus, rss = timed_runs(exe, wl, args, work, runset, seconds,
                                  TIMED_THREADS, "timed",
                                  setup_walls=setup_walls)
    verify(exe, wl, args, work, ledger, runset)
    log(f"{wl.name}: {len(walls)} timed runs, wall median {median(walls):.4f} s")
    metrics = {
        "wall_s": metric(median(walls), "s"),
        "cpu_s": metric(median(cpus), "s"),
        "peak_rss_mb": metric(median(rss), "MB"),
        "setup_s": metric(median(setup_walls), "s"),
        "ok_frac": metric(1.0 - ledger.failed / ledger.attempted, "frac"),
    }
    return ledger, metrics


def run_traced(exe, traced_exe, wl, work, seconds):
    """Per-layer metrics: manifest counters from untraced runs, layer
    self times and call counts from runs of the instrumented build."""
    ledger = Ledger()
    args, n_figs = wl.run_args(exe, work)
    runset = RunSet(ledger, n_figs)
    base_walls, _, _ = timed_runs(exe, wl, args, work, runset, seconds / 2,
                                  TRACE_THREADS, "untraced", min_reps=1)
    verify(exe, wl, args, work, ledger, runset)
    if runset.first_records is None:
        raise Failure(f"no untraced run of {wl.name} succeeded")
    counters = counters_of(runset.first_records)

    mapfile = trace_map(traced_exe)
    traces, walls = [], []
    t_end = time.perf_counter() + seconds / 2
    while not traces or time.perf_counter() < t_end:
        cwd = work / "traced"
        if cwd.exists():
            shutil.rmtree(cwd)
        manifest = cwd / "manifest.json"
        out = work / f"trace-{len(traces)}.json"
        code, wall, _, _ = invoke(
            traced_exe, args + ["--manifest", str(manifest)], cwd,
            TRACE_THREADS, {"FIGBENCH_TRACE_MAP": str(mapfile),
                            "FIGBENCH_TRACE_OUT": str(out)})
        # Instrumentation must not change what the program computes.
        runset.record(f"traced rep {len(traces)}", code, cwd, manifest)
        try:
            tr = json.loads(out.read_text())
        except (OSError, ValueError):
            raise Failure(f"traced run of {wl.name} (exit {code}) wrote no trace")
        problems = trace_problems(tr, wall)
        if problems:
            ledger.add(1, 1, "trace inconsistent: " + "; ".join(problems))
        if traces and tag_counts(tr) != tag_counts(traces[0]):
            ledger.add(1, 1, "traced call counts differ between runs")
        traces.append(tr)
        walls.append(wall)
    return ledger, layer_metrics(traces, walls, base_walls, counters)


def tag_counts(tr):
    return ({k: v["count"] for k, v in tr["tags"].items()}, tr["refresh_hits"])


def trace_problems(tr, wall):
    p = []
    if tr["threads"] != TRACE_THREADS:
        p.append(f"{tr['threads']} threads traced, expected {TRACE_THREADS}")
    if tr["self_s"]["unmapped"] > 0:
        p.append("time in functions outside the layer map")
    if tr["open_frames_at_exit"] != 0:
        p.append(f"{tr['open_frames_at_exit']} frames open at exit")
    total = sum(tr["self_s"].values())
    if abs(total - tr["span_s"]) > 1e-6 * max(1.0, tr["span_s"]) + 1e-6:
        p.append(f"layer self times sum to {total:.6f} s, span {tr['span_s']:.6f} s")
    if tr["span_s"] > wall:
        p.append(f"traced span {tr['span_s']:.6f} s exceeds process wall {wall:.6f} s")
    return p


SELF_LAYERS = ["sim", "sim.rng", "device", "gates", "supply", "fault", "sram",
               "analysis", "exp", "repro", "other", "figure"]


def layer_metrics(traces, walls, base_walls, counters):
    tr0 = traces[0]
    tags = {k: v["count"] for k, v in tr0["tags"].items()}
    self_s = {lay: median([t["self_s"][lay] for t in traces])
              for lay in SELF_LAYERS}
    wall = median(walls)
    events = counters["sim.events_executed"]
    sweep_s = median([t["tags"]["sweep"]["time_s"] for t in traces])
    body_s = median([t["sweep_body_s"] for t in traces])
    m = {k: metric(v, "bytes" if k == "analysis.bytes_written" else "count")
         for k, v in counters.items()}
    for lay in SELF_LAYERS:
        m[f"{lay}.self_s"] = metric(self_s[lay], "s")
    m["sim.ns_per_event"] = metric(
        self_s["sim"] / events * 1e9 if events else 0.0, "ns")
    m["sim.rng.streams"] = metric(tags["rng_keyed"], "count")
    m["device.variation_samples"] = metric(tags["variation_sample"], "count")
    m["device.delay_evals"] = metric(tags["delay_eval"], "count")
    m["gates.refreshes"] = metric(tags["refresh"], "count")
    m["gates.refresh_hit_ratio"] = metric(
        tr0["refresh_hits"] / tags["refresh"] if tags["refresh"] else 0.0,
        "ratio")
    m["supply.draws"] = metric(tags["supply_draw"], "count")
    m["analysis.rows"] = metric(tags["analysis_row"], "count")
    m["exp.scenarios"] = metric(tags["exp_scenario"], "count")
    m["exp.worker_busy_frac"] = metric(
        body_s / (TRACE_THREADS * sweep_s) if sweep_s > 0 else 0.0, "frac")
    m["repro.check_s"] = metric(
        median([t["tags"]["check"]["time_s"] for t in traces]), "s")
    m["unattributed_s"] = metric(wall - sum(self_s.values()), "s")
    m["trace.wall_s"] = metric(wall, "s")
    m["trace.overhead"] = metric(wall / median(base_walls), "ratio")
    return m


# ----------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", type=Path, default=ROOT / "bench" / "refs",
                    help="reference directory for --check (default: bench/refs)")
    ap.add_argument("--record", type=Path,
                    help="also append {workload, seed, trace, result} to this "
                    "JSON-lines file (input of ab_report.py)")
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        log(f"no emc sources at {ROOT}; run from a source checkout")
        return 2

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    work = BUILD / f"work-{a.workload}-{os.getpid()}"
    try:
        exe = build(trace=False)
        traced_exe = build(trace=True)
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        wl = Workload(a.workload, a.seed, a.refs.resolve())
        if a.trace:
            ledger, metrics = run_traced(exe, traced_exe, wl, work, a.seconds)
        else:
            ledger, metrics = run_untraced(exe, wl, work, a.seconds)
    except Failure as e:
        log(str(e))
        return 1
    finally:
        if work.exists():
            shutil.rmtree(work)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    if a.record:
        with open(a.record, "a") as f:
            f.write(json.dumps({"workload": a.workload, "seed": a.seed,
                                "trace": a.trace, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
