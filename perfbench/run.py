#!/usr/bin/env python3
"""tgsim benchmark: builds tgbench, runs one workload, prints its metrics.

    python3 perfbench/run.py --workload quarter_s16 --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout. The benchmark binary (tgbench) is built from
../src into $CARGO_TARGET_DIR (default .bench_build). Each repetition runs in
its own single-threaded tgbench process, so peak RSS and allocation counts
belong to that workload alone.

--trace 0 runs untraced repetitions, each on its own scenario seed derived
from --seed, until --seconds have passed (at least MIN_SEEDS), and reports
the end-to-end metrics; then, unmeasured, it repeats the first scenario
untraced and traced to check determinism, exact allocation counts and that
tracing preserved the event order. --trace 1 alternates untraced and traced
repetitions of the first scenario and reports the per-layer metrics; the
spans of the last traced repetition are written to
.bench_out/spans-<workload>.csv.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (name -> {value, unit}). See README.md.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("quarter_s16", "stream_spill_3y", "analysis_3y")
# Scenario seeds of a run: seed * SEED_STRIDE + j, j = 0, 1, ...
SEED_STRIDE = 1000
MIN_SEEDS = 3
MIN_TRACED_REPS = 2
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def run_cmd(cmd, timeout, **kwargs):
    """subprocess.run that, on timeout, kills the command's whole process
    group (a build's compilers included) and waits for it before raising."""
    with subprocess.Popen(cmd, start_new_session=True, **kwargs) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def build():
    """Configures (once) and builds tgbench; returns its path."""
    if not (ROOT / "src" / "workload" / "scenario.hpp").is_file():
        die(f"tgsim sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        done = run_cmd(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                       stderr=sys.stderr)
        if done.returncode != 0:
            die(f"build step failed: {' '.join(cmd)}")
    binary = build_dir / "tgbench"
    if not binary.is_file():
        die(f"build produced no {binary}")
    return binary


class Runner:
    """Runs tgbench repetitions of one workload and seed."""

    def __init__(self, binary, args):
        self.binary = binary
        self.args = args
        self.count = 0
        self.out_dir = ROOT / ".bench_out"

    def rep(self, scenario_seed, traced, spans=False):
        self.count += 1
        # Relative and fixed-width: the path is copied into the scenario's
        # config, so its length shows in the allocated byte count.
        work = Path(".bench_work") / f"{os.getpid():010d}-{self.count:06d}"
        cmd = [str(self.binary), "--workload", self.args.workload,
               "--seed", str(scenario_seed), "--trace", "1" if traced else "0",
               "--size", self.args.size, "--work-dir", str(work)]
        if spans:
            self.out_dir.mkdir(exist_ok=True)
            cmd += ["--spans",
                    str(self.out_dir / f"spans-{self.args.workload}.csv")]
        try:
            done = run_cmd(cmd, REP_TIMEOUT_S, cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        finally:
            shutil.rmtree(ROOT / work, ignore_errors=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            die(f"tgbench exited with {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def median(values):
    return statistics.median(values)


def ratio(num, den):
    return num / den if den else 0.0


def tail_percentile(samples):
    """Median and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    pct = 50.0
    for p in (90.0, 95.0, 99.0, 99.9, 99.99):
        if n * (1.0 - p / 100.0) >= 10.0:
            pct = p
    idx = min(n - 1, max(0, math.ceil(pct / 100.0 * n) - 1))
    return median(xs), xs[idx], pct, n


def by_seed(reps):
    groups = {}
    for r in reps:
        groups.setdefault(r["seed"], []).append(r)
    return groups


def cross_checks(untraced, traced):
    """(attempted, failures) for checks spanning repetitions of a seed."""
    failures = []
    attempted = 0
    untraced_by_seed = by_seed(untraced)
    for r in traced:
        ref = untraced_by_seed[r["seed"]][0]
        attempted += 2
        if r["digest"] != ref["digest"]:
            failures.append("traced digest differs from untraced")
        if r["events_fired"] != ref["events_fired"]:
            failures.append("traced events_fired differs from untraced")
    for reps in untraced_by_seed.values():
        if len(reps) < 2:
            continue
        attempted += 2
        if len({r["digest"] for r in reps}) != 1:
            failures.append("untraced repetitions disagree on the digest")
        if not all(r["alloc_counting"] for r in reps):
            failures.append("allocation hooks are compiled out")
        elif len({(r["allocs"], r["alloc_bytes"]) for r in reps}) != 1:
            failures.append("allocation counts differ between repetitions")
    return attempted, failures


def end_to_end(measured):
    """Means over the run's scenarios, one repetition each: the cost of a
    scenario varies with its seed by more than the host's noise, so every
    repetition samples a new one. Allocation counts come from the first
    MIN_SEEDS scenarios, which every run of a seed covers, so they repeat
    exactly."""
    def mean(key):
        return statistics.fmean(r[key] for r in measured)

    first = measured[:MIN_SEEDS]
    jobs = sum(r["jobs"] for r in first)
    return {
        "setup_s": (mean("setup_s"), "s"),
        "simulate_s": (mean("simulate_s"), "s"),
        "sim_jobs_per_s": (
            statistics.fmean(r["jobs"] / r["simulate_s"] for r in measured),
            "jobs/s"),
        "analyze_s": (mean("analyze_s"), "s"),
        "peak_rss_mb": (mean("peak_rss_mb"), "MB"),
        "allocs_per_job": (sum(r["allocs"] for r in first) / jobs, "count"),
        "alloc_kb_per_job": (
            sum(r["alloc_bytes"] for r in first) / 1024.0 / jobs, "KB"),
    }


def per_layer(untraced, traced, attempted, failed):
    def med(key):
        return median(r["layer"][key] for r in traced)

    traced_sim = median(r["simulate_s"] for r in traced)
    untraced_sim = median(r["simulate_s"] for r in untraced)
    m = {}

    replan_s = med("sched.replan_s")
    m["sched.replan_s"] = (replan_s, "s")
    m["obs.traced_simulate_s"] = (traced_sim, "s")
    m["sched.replan_share"] = (ratio(replan_s, traced_sim), "ratio")
    m["sched.replan_events"] = (med("sched.replan_events"), "count")
    full = med("sched.replans_full")
    incremental = med("sched.replans_incremental")
    coalesced = med("sched.replans_coalesced")
    total = full + incremental + coalesced
    m["sched.replans_full"] = (full, "count")
    m["sched.replans_incremental"] = (incremental, "count")
    m["sched.replans_coalesced"] = (coalesced, "count")
    m["sched.replans_total"] = (total, "count")
    m["sched.coalesced_ratio"] = (ratio(coalesced, total), "ratio")
    m["sched.completion_s"] = (med("sched.completion_s"), "s")
    m["sched.completion_events"] = (med("sched.completion_events"), "count")
    m["sched.jobs_finished"] = (med("sched.jobs_finished"), "count")
    m["sched.jobs_failed"] = (med("sched.jobs_failed"), "count")

    fired = median(r["events_fired"] for r in untraced)
    tombstones = med("des.tombstones")
    m["des.events_fired"] = (fired, "count")
    m["des.events_per_s"] = (
        median(r["events_fired"] / r["simulate_s"] for r in untraced), "1/s")
    m["des.tombstones"] = (tombstones, "count")
    m["des.heap_pops"] = (fired + tombstones, "count")
    m["des.tombstone_ratio"] = (ratio(tombstones, fired + tombstones),
                                "ratio")
    m["des.heap_high_water"] = (med("des.heap_high_water"), "count")

    m["workload.submit_s"] = (med("workload.submit_s"), "s")
    m["workload.submit_events"] = (med("workload.submit_events"), "count")
    m["gateway.jobs_submitted"] = (med("gateway.jobs_submitted"), "count")
    m["gateway.jobs_dropped"] = (med("gateway.jobs_dropped"), "count")
    m["data.stage_ins"] = (med("data.stage_ins"), "count")
    m["data.transfers"] = (med("data.transfers"), "count")
    bytes_hit = med("data.bytes_hit")
    bytes_read = med("data.bytes_read")
    m["data.bytes_hit"] = (bytes_hit, "bytes")
    m["data.bytes_read"] = (bytes_read, "bytes")
    m["data.cache_byte_hit_rate"] = (ratio(bytes_hit, bytes_read), "ratio")

    m["net.flow_completion_s"] = (med("net.flow_completion_s"), "s")
    m["net.flow_completions"] = (med("net.flow_completions"), "count")

    for key, unit in (("accounting.records_appended", "count"),
                      ("accounting.segments_sealed", "count"),
                      ("accounting.segments_spilled", "count"),
                      ("accounting.spilled_mb", "MB"),
                      ("accounting.spill_failures", "count"),
                      ("accounting.scan_s", "s"),
                      ("accounting.reappend_s", "s"),
                      ("core.report_s", "s"),
                      ("core.report_segmented_s", "s"),
                      ("core.series_s", "s"),
                      ("core.extract_s", "s"),
                      ("core.classify_s", "s"),
                      ("core.stream_replay_s", "s"),
                      ("core.windows_closed", "count"),
                      ("core.records_dropped", "count")):
        m[key] = (med(key), unit)
    # extract_user is untouched by tracing: pool every repetition's calls.
    p50, ptail, pct, n = tail_percentile(
        [x for r in untraced + traced for x in r["extract_user_us"]])
    m["core.extract_user_us_p50"] = (p50, "us")
    m["core.extract_user_us_ptail"] = (ptail, "us")
    m["core.extract_user_ptail_pct"] = (pct, "%")
    m["core.extract_user_calls"] = (n, "count")

    m["other.event_s"] = (med("other.event_s"), "s")
    m["obs.untraced_simulate_s"] = (untraced_sim, "s")
    m["obs.trace_overhead"] = (ratio(traced_sim, untraced_sim) - 1.0, "ratio")
    m["obs.layer_self_s"] = (med("obs.layer_self_s"), "s")
    m["obs.span_coverage"] = (
        median(ratio(r["layer"]["obs.layer_self_s"], r["simulate_s"])
               for r in traced), "ratio")
    m["obs.spans"] = (med("obs.spans"), "count")
    m["checks.attempted"] = (attempted, "count")
    m["failed_fraction"] = (ratio(failed, attempted), "ratio")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: short horizon / small scale (self-test)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be non-negative")

    runner = Runner(build(), args)
    first_seed = args.seed * SEED_STRIDE
    measured, untraced, traced = [], [], []
    start = time.monotonic()

    def measuring():
        return time.monotonic() - start < args.seconds

    if args.trace == 0:
        while ((measuring() or len(measured) < MIN_SEEDS)
               and len(measured) < SEED_STRIDE):
            measured.append(runner.rep(first_seed + len(measured), False))
        # Not measured: the first scenario again, untraced and traced.
        untraced = measured + [runner.rep(first_seed, False)]
        traced.append(runner.rep(first_seed, True))
    else:
        while measuring() or len(traced) < MIN_TRACED_REPS:
            untraced.append(runner.rep(first_seed, False))
            traced.append(runner.rep(first_seed, True, spans=True))

    failures = [f for r in untraced + traced for f in r["failures"]]
    attempted = sum(r["checks_attempted"] for r in untraced + traced)
    more_attempted, more_failures = cross_checks(untraced, traced)
    attempted += more_attempted
    failures += more_failures
    for f in sorted(set(failures)):
        print(f"check failed: {f}", file=sys.stderr)

    if args.trace == 0:
        metrics = end_to_end(measured)
    else:
        metrics = per_layer(untraced, traced, attempted, len(failures))

    runner.out_dir.mkdir(exist_ok=True)
    raw = {"untraced": untraced, "traced": traced}
    for r in untraced + traced:
        r.pop("extract_user_us", None)
    reps_file = f"reps-{args.workload}-trace{args.trace}.json"
    (runner.out_dir / reps_file).write_text(json.dumps(raw))

    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(untraced)} untraced + {len(traced)} traced repetitions")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>18.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
