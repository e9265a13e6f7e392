"""Write ``corpus/<workload>.json``: the benchmark's inputs and expected outputs.

    python3 bench/make_corpus.py [--workload NAME]

Presentations are drawn from a fixed seed and sent through the benchmark's
own request path ``REPEATS`` times, at the current commit.  Each request is
stored with the sha256 of its stdout and its median latency (``cost_s``),
which ``run.py`` stratifies on.  Regenerating at a later commit re-records the expected
outputs, so do it only when the benchmark itself changes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from math import gcd

import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

from monofact import InvalidInput, NotReduced, is_minimal_generating, numerical  # noqa: E402
from monofact import presentation, validate_reduced  # noqa: E402

POOL_SEED = 2007
REPEATS = 3  # cost_s is the median latency of this many passes, in reference seconds
ORACLE_CAP_MULTIPLE = 6  # oracle-check weight cap, times the largest generator


def _numerical(rng, n_range, lo, hi):
    """Minimal generators of a numerical semigroup, gcd 1, drawn from [lo, hi]."""
    while True:
        vals = sorted(rng.sample(range(lo, hi + 1), rng.randint(*n_range)))
        g = 0
        for v in vals:
            g = gcd(g, v)
        if g == 1 and is_minimal_generating(numerical(vals)):
            return {"numerical": vals}


def _reduced(rng, max_rank=2, max_n=4, max_entry=6):
    """Like ``random_reduced`` in tests/conftest.py, with smaller n and entries."""
    while True:
        m = rng.randint(1, max_rank)
        moduli = [rng.randint(2, 6)] if rng.random() < 0.4 else []
        gens = set()
        for _ in range(rng.randint(1, max_n)):
            free = tuple(rng.randint(-max_entry, max_entry) for _ in range(m))
            gens.add(free + tuple(rng.randrange(t) for t in moduli))
        try:
            validate_reduced(presentation(m, moduli, sorted(gens)))
        except (NotReduced, InvalidInput):
            continue
        return {"rank": m, "torsion": moduli, "generators": [list(g) for g in sorted(gens)]}


def _numerical_cli(data):
    inp = json.dumps(data, separators=(",", ":"))
    return [[command, "--input", inp] for command in ("tset", "lset", "ceq", "f2l")]


def _oracle_check(data):
    inp = json.dumps(data, separators=(",", ":"))
    cap = str(ORACLE_CAP_MULTIPLE * max(data["numerical"]))
    return [
        ["oracle-check", "--input", inp, "--what", what, "--cap", cap]
        for what in ("lset", "tset", "ceq")
    ]


# workload -> (presentations, recipe, draw, requests per presentation, ceiling)
# A request that runs past the ceiling (seconds) at this commit is left out
# of the corpus and listed under "excluded": one such request would fill most
# of a run.  None keeps every request.
POOLS = {
    "numerical-cli": (
        80, "4-5 minimal generators from 10..40, gcd 1",
        lambda rng: _numerical(rng, (4, 5), 10, 40), _numerical_cli, None,
    ),
    "small-report": (
        6000, "rank 1-2, torsion modulus 2-6 with probability 0.4, n <= 4, |entries| <= 6",
        _reduced, lambda data: [data], 2.0,
    ),
    "oracle-check": (
        90, "3-5 minimal generators from 3..40, gcd 1; weight cap 6 times the largest",
        lambda rng: _numerical(rng, (3, 5), 3, 40), _oracle_check, None,
    ),
}


def build(workload):
    size, recipe, draw, requests_of, ceiling = POOLS[workload.name]
    if ceiling is not None:
        workload = dataclasses.replace(workload, timeout_s=ceiling)
    rng = random.Random(POOL_SEED)
    inputs, seen = [], set()
    while len(inputs) < size:
        data = draw(rng)
        key = json.dumps(data, sort_keys=True)
        if key not in seen:
            seen.add(key)
            inputs.append(data)
    requests = [req for data in inputs for req in requests_of(data)]
    passes = []
    for _ in range(REPEATS):
        results, _ = run.execute(workload, requests, False, time.perf_counter() + 3600)
        passes.append((results, run.slowdowns(workload, results)))
    items, excluded = [], []
    for j, req in enumerate(requests):
        results = [res[j] for res, _ in passes]
        errors = {res.error for res in results} - {None}
        if ceiling is not None and "timeout" in errors:
            excluded.append(req)
            continue
        if errors:
            raise SystemExit(f"{workload.name}: {req} failed at this commit: {errors}")
        digests = {run.digest(res.output) for res in results}
        if len(digests) != 1:
            raise SystemExit(f"{workload.name}: {req} printed different outputs")
        cost = statistics.median(res[j].latency_s / slow[j] for res, slow in passes)
        items.append({"request": req, "cost_s": round(cost, 5), "expected": digests.pop()})
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip()
    return {
        "workload": workload.name,
        "recipe": recipe,
        "pool_seed": POOL_SEED,
        "commit": commit,
        "python": platform.python_version(),
        "ceiling_s": ceiling,
        "excluded": excluded,
        "items": items,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(POOLS))
    args = ap.parse_args()
    for name in [args.workload] if args.workload else sorted(POOLS):
        corpus = build(run.WORKLOADS[name])
        path = os.path.join(run.BENCH, "corpus", name + ".json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(corpus, fh, separators=(",", ":"))
            fh.write("\n")
        costs = sorted(it["cost_s"] for it in corpus["items"])
        print(f"{name}: {len(costs)} items, {len(corpus['excluded'])} excluded, total "
              f"{sum(costs):.2f} s, median {costs[len(costs) // 2]:.4f} s, top {costs[-5:]}")


if __name__ == "__main__":
    main()
