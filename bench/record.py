"""Record the benchmark baseline: ten seeds per workload and one traced run.

    python3 bench/record.py

Runs ``run.py`` on every workload with seeds 1-10 and ``--trace 0``, then
seed 1 with ``--trace 1``, and writes ``baseline.json``: for each end-to-end
metric the ten values, their median and spread (interquartile range over
median), the traced per-layer split, and the commit, Python version and nproc
of the measurement.  It stops at the first run that is not correct.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

import run

SEEDS = range(1, 11)


def _run(name, seed, seconds, traced):
    proc = subprocess.run(
        [sys.executable, run.__file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        capture_output=True, text=True, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{name} seed {seed}: failures\n{proc.stdout}")
    return result, lines[:-1]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip()
    record = {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    for name, workload in run.WORKLOADS.items():
        values = {}
        for seed in SEEDS:
            result, _ = _run(name, seed, seconds, False)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
        end_to_end = {}
        for metric, unit in run.END_TO_END:
            vs = values[metric]
            q1, _, q3 = statistics.quantiles(vs, n=4)
            median = statistics.median(vs)
            end_to_end[metric] = {
                "unit": unit, "median": median, "spread": (q3 - q1) / median, "values": vs,
            }
            print(f"{name} {metric}: median {median:.6g} {unit}, spread "
                  f"{(q3 - q1) / median:.3f} (bound {bounds[metric]})", flush=True)
        traced, notes = _run(name, SEEDS[0], seconds, True)
        record["workloads"][name] = {
            "why": workload.why,
            "layer": workload.layer,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "trace_notes": [line for line in notes if line.startswith(("self-time", "purpose"))],
        }
        print("\n".join(record["workloads"][name]["trace_notes"]), flush=True)
    with open(os.path.join(run.BENCH, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
