#!/usr/bin/env python3
"""The repository benchmark: four workloads of the VIA simulator.

Builds the simulator library and perfbench_iter from source (into
.bench_build/perfbench at the repository root), then runs one workload
for a fixed time, one process per iteration, and prints a report and,
as its last line, one JSON result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json
(medians over the timed iterations); with --trace 1 they are its
per-layer metrics, from iterations that run with the simulator's
self-profiler on, interleaved with untraced ones so the tracing
overhead is measured too. Any failed check makes the exit code 1.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

See perfbench/README.md for the workloads, metrics and seeds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_iter")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")

WORKLOADS = ("spmv_csb", "spma_4core", "rmat1m_sampled", "serve_open")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# An iteration that takes longer than this is a hang.
ITERATION_TIMEOUT_S = 120
# Timed iterations a run makes even when --seconds is short.
MIN_TIMED = 3

# Figures that are simulated, so every iteration of one seed must
# reproduce them exactly.
SIMULATED = ("via_cycles",)
FINGERPRINT = ("sim_cycles", "sim_insts", "stats_fnv64", "machines")

# What each per-layer metric is expected to move (perfbench/README.md).
EXPECTED_MOVE = {
    "via": "sim_mips, wall_s on spmv_csb and serve_open; little on "
           "spma_4core; none on rmat1m_sampled",
    "cpu": "sim_mips, wall_s on spma_4core; barely on rmat1m_sampled",
    "mem": "wall_s on rmat1m_sampled (warm path); sim_mips on spmv_csb "
           "and spma_4core (timed path)",
    "sparse": "setup_s, wall_s on rmat1m_sampled; setup_s on spmv_csb "
              "(CSB conversion)",
    "kernels": "wall_s on spma_4core and rmat1m_sampled",
    "sample": "wall_s, via_cycles on rmat1m_sampled only",
    "serve": "wall_s, via_cycles on serve_open only",
    "check": "wall_s on spma_4core",
    "other_s": "nothing; run-level remainder",
    "trace_overhead_s": "nothing; cost of the traced run",
}

# The twelve end-to-end figures of the report: name, unit, and the
# record metric behind it (None: not a per-iteration figure). Host
# figures are medians over the timed iterations; the simulated ones
# repeat exactly and are 0 where a workload has no such figure.
# The result line carries the subset BENCHMARK.json gates (README.md).
REPORT = (
    ("wall_s", "s", "wall_s"),
    ("setup_s", "s", "setup_s"),
    ("sim_mips", "Minst/s", "sim_mips"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
    ("failed_frac", "ratio", None),
    ("via_cycles", "cycles", "via_cycles"),
    ("via_speedup", "x", "via.speedup"),
    ("via_energy_ratio", "x", "via.energy_ratio"),
    ("sample_ci_pct", "%", "sample.ci_pct"),
    ("p50_cycles", "cycles", "serve.p50_cycles"),
    ("p99_cycles", "cycles", "serve.p99_cycles"),
    ("max_rate_per_mcycle", "req/Mcycle", "serve.max_rate_per_mcycle"),
)
HOST = ("wall_s", "setup_s", "sim_mips", "peak_rss_mb")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then bring the build up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no simulator sources at %s; nothing to build"
            % os.path.join(ROOT, "src"))
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            log("perfbench: build step failed: %s" % " ".join(cmd))
            sys.exit(2)


def iterate(workload, seed, trace, perturb=False):
    """One iteration in its own process: (exit code, record or None)."""
    cmd = [BINARY, "workload=" + workload, "seed=%d" % seed]
    if trace:
        cmd.append("trace=1")
    if perturb:
        cmd.append("perturb=1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s seed %d timed out" % (workload, seed))
        return 1, None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        record = None
    return proc.returncode, record


class Tally:
    """Checked operations and failures over all iterations of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None

    def add(self, code, record):
        if record is None:
            self.attempted += 1
            self.failed += 1
            return
        self.attempted += int(record["attempted"])
        self.failed += int(record["failed"])
        if code != 0 and record["failed"] == 0:
            self.failed += 1  # e.g. the span accounting check
        # Determinism: every iteration of one seed reproduces the
        # first one's simulated figures and fingerprints exactly.
        key = ([record["metrics"][m] for m in SIMULATED] +
               [record[f] for f in FINGERPRINT])
        if self.first is None:
            self.first = key
        else:
            self.attempted += 1
            if key != self.first:
                self.failed += 1
                log("perfbench: simulated figures differ between "
                    "iterations of one seed")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def median_of(records, name):
    return statistics.median(r["metrics"][name] for r in records)


def closes(record):
    """The traced iteration's accounting: top-level spans plus other_s
    give wall_s, and no span or selfprof total exceeds its parent."""
    m = record["metrics"]
    top = sum(s["end"] - s["start"] for s in record["spans"]
              if s["parent"] == 0)
    return (abs(top + m["other_s"] - m["wall_s"]) < 1e-9 and
            m["other_s"] > -1e-6 and m["kernels.other_s"] > -1e-6)


def report_line(name, unit, value, note=""):
    log("  %-26s %16.6g %-11s %s" % (name, value, unit, note))


def print_report(workload, seed, timed):
    """The end-to-end figures by name and unit (failed_frac follows)."""
    log("perfbench: %s seed %d, %d timed iterations" %
        (workload, seed, len(timed)))
    for name, unit, source in REPORT:
        if source is None:
            continue
        values = [r["metrics"][source] for r in timed]
        if name in HOST:
            q1, q3 = quartiles(values)
            report_line(name, unit, statistics.median(values),
                        "median of %d, quartiles %.4g..%.4g" %
                        (len(values), q1, q3))
        elif values[0]:
            report_line(name, unit, values[0], "simulated")
        else:
            log("  %-26s %16s %-11s" % (name, "n/a", unit))
    first = timed[0]
    log("  fingerprint: sim_cycles=%d sim_insts=%d stats_fnv64=%s" %
        (first["sim_cycles"], first["sim_insts"], first["stats_fnv64"]))
    for label, fnv in first["machines"].items():
        log("    %-14s %s" % (label, fnv))


def run(args, spec):
    build()
    tally = Tally()
    untraced, traced = [], []
    deadline = time.monotonic() + args.seconds
    while True:
        short = len(untraced) < MIN_TIMED or (
            args.trace and len(traced) < MIN_TIMED)
        if time.monotonic() >= deadline and (not short or tally.failed):
            break
        trace = args.trace and len(traced) < len(untraced)
        code, record = iterate(args.workload, args.seed, trace,
                               args.perturb)
        tally.add(code, record)
        if record is not None:
            (traced if trace else untraced).append(record)

    if not untraced or (args.trace and not traced):
        log("perfbench: no iteration produced a record")
        return 1

    if args.trace:
        for r in traced:
            tally.attempted += 1
            if not closes(r):
                tally.failed += 1
                log("perfbench: traced span accounting does not close")
        metrics = {}
        for m in spec["per_layer"]:
            if m["name"] == "trace_overhead_s":
                value = (median_of(traced, "wall_s") -
                         median_of(untraced, "wall_s"))
            else:
                value = median_of(traced, m["name"])
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "%s-seed%d.json" %
                            (args.workload, args.seed))
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "runs": [{"run": i, "spans": r["spans"]}
                                for i, r in enumerate(traced)]}, f)
        log("perfbench: %s seed %d, %d traced + %d untraced iterations; "
            "spans in %s" % (args.workload, args.seed, len(traced),
                             len(untraced), os.path.relpath(path, ROOT)))
        layer = None
        for m in spec["per_layer"]:
            if m["name"].split(".")[0] != layer:
                layer = m["name"].split(".")[0]
                log("  [%s] expected to move: %s" %
                    (layer, EXPECTED_MOVE[layer]))
            report_line(m["name"], m["unit"], metrics[m["name"]]["value"])
    else:
        print_report(args.workload, args.seed, untraced)
        metrics = {m["name"]: {"value": median_of(untraced, m["name"]),
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    log("  %-26s %16.6g %-11s %d of %d checked operations" %
        ("failed_frac", tally.failed / max(1, tally.attempted), "ratio",
         tally.failed, tally.attempted))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": metrics}))
    return 0 if tally.failed == 0 else 1


# ------------------------------------------------------------------
# Self-test
# ------------------------------------------------------------------

# via_sim spmv rows=16384 density=0.005 format=csb, seed 1: the
# vector-CSR and VIA CSB cycles, and the VIA machine's stats
# fingerprint (the spmv leg of BENCH_simspeed.json).
SPMV_SEED1_BASE_CYCLES = 9559063
SPMV_SEED1_VIA_CYCLES = 2123278
SPMV_SEED1_VIA_FNV64 = "6b43ef2666445e20"


def selftest():
    build()
    ok = True

    def expect(cond, what):
        nonlocal ok
        log("selftest: %-62s %s" % (what, "ok" if cond else "FAILED"))
        ok = ok and cond

    # Determinism: two processes, one seed, identical figures.
    runs = [iterate("spmv_csb", DEFAULT_SEED, False) for _ in range(2)]
    recs = [r for _, r in runs]
    expect(all(c == 0 and r is not None for c, r in runs),
           "spmv_csb seed 1 passes its checks twice")
    if all(r is not None for r in recs):
        a, b = recs
        expect(all(a["metrics"][m] == b["metrics"][m] for m in SIMULATED)
               and all(a[f] == b[f] for f in FINGERPRINT),
               "two runs of one seed give identical simulated figures")
        m = a["metrics"]
        expect(m["via_cycles"] == SPMV_SEED1_VIA_CYCLES,
               "spmv_csb seed 1 VIA cycles = %d" % SPMV_SEED1_VIA_CYCLES)
        expect(m["via.speedup"] ==
               SPMV_SEED1_BASE_CYCLES / SPMV_SEED1_VIA_CYCLES and
               round(m["via.speedup"], 2) == 4.50,
               "spmv_csb seed 1 speedup = 4.50x")
        expect(a["machines"].get("via") == SPMV_SEED1_VIA_FNV64,
               "spmv_csb seed 1 VIA stats fingerprint = %s" %
               SPMV_SEED1_VIA_FNV64)

    # A perturbed copy of one result is counted and fails the run.
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         "serve_open", "--seed", str(DEFAULT_SEED), "--seconds", "1",
         "--trace", "0", "--perturb"],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(proc.returncode == 1 and result.get("failed", 0) > 0 and
           result.get("correct") is False,
           "a perturbed result is counted and fails the run")

    # Every workload passes its checks on both recorded seeds.
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            code, rec = iterate(workload, seed, False)
            expect(code == 0 and rec is not None and rec["failed"] == 0,
                   "%s seed %d passes its result checks" % (workload, seed))
    log("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--perturb", action="store_true",
                        help="self-test only: perturb a copy of one "
                             "VIA result before it is checked")
    parser.add_argument("--selftest", action="store_true",
                        help="determinism, reference-figure, "
                             "perturbation and held-out-seed checks")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run(args, spec)


if __name__ == "__main__":
    sys.exit(main())
