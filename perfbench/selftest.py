#!/usr/bin/env python3
"""Self-test of the tgsim benchmark at a tiny size.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json through run.py with --size tiny (short
horizon, small population), untraced and traced, and checks that:
  * every end-to-end metric (--trace 0) and every per-layer metric
    (--trace 1) is emitted, by name, with the unit BENCHMARK.json gives it;
  * every output check passed (failed == 0, failed_fraction == 0), which
    includes the traced and untraced runs of a seed agreeing on the digest;
  * the traced run fired exactly the events of the untraced run, and its
    event spans cover at least 95% of the traced simulate time.
Exits non-zero on the first workload that fails.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: run.py exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(ok, what):
    if not ok:
        raise SystemExit(f"selftest failed: {what}")


def check_metrics(workload, result, spec):
    expect(result["correct"] and result["failed"] == 0
           and result["attempted"] > 0,
           f"{workload}: output checks {result['failed']}/"
           f"{result['attempted']} failed")
    metrics = result["metrics"]
    for m in spec:
        got = metrics.get(m["name"])
        expect(got is not None, f"{workload}: metric {m['name']} missing")
        expect(got["unit"] == m["unit"],
               f"{workload}: {m['name']} unit {got['unit']} != {m['unit']}")
        expect(isinstance(got["value"], (int, float)),
               f"{workload}: {m['name']} is not a number")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in bench["workloads"]:
        name = w["name"]
        e2e = run(name, 0)
        check_metrics(name, e2e, bench["end_to_end"])
        for m in bench["end_to_end"]:
            expect(e2e["metrics"][m["name"]]["value"] > 0,
                   f"{name}: end-to-end {m['name']} is not positive")
        layer = run(name, 1)
        check_metrics(name, layer, bench["per_layer"])
        lm = layer["metrics"]
        expect(lm["failed_fraction"]["value"] == 0,
               f"{name}: failed_fraction is not 0")
        expect(lm["obs.span_coverage"]["value"] >= 0.95,
               f"{name}: span coverage {lm['obs.span_coverage']['value']}")
        expect(lm["des.events_fired"]["value"] > 0,
               f"{name}: no events fired")
        print(f"selftest {name}: ok ({e2e['attempted']} + "
              f"{layer['attempted']} checks)")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()
