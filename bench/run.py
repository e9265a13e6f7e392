"""monofact benchmark: three closed-loop workloads over a checked-in corpus.

    python3 bench/run.py --workload numerical-cli --seed 1 --seconds 20 --trace 0

One client sends requests in a closed loop: the next request starts when the
previous one has finished.  All program work runs in fresh interpreters that
import monofact from ``src/`` of this checkout, one at a time:

* ``numerical-cli`` and ``oracle-check`` start one interpreter per CLI
  request (``monofact.cli.main``), so every request pays start-up cold;
* ``small-report`` starts one interpreter per pass and times each library
  session on one presentation inside it.

Requests come from ``corpus/<workload>.json``, written by ``make_corpus.py``
with the sha256 of every request's stdout at the commit it records.  ``--seed``
picks a sample: the ``take_all`` slowest requests of the corpus are in every
run; the rest are cut by baseline cost into equal strata and one request is
drawn from each.  Cost is heavy-tailed, so stratifying keeps the mix of cheap
and costly requests the same from seed to seed while the inputs change.  The
sample size is proportional to ``--seconds`` and does not depend on speed: a
run does the same work on every commit, and a faster program finishes sooner.

Times are in reference seconds.  On a shared host the speed of a core can
drift by a third within minutes, so a reference that does not involve
monofact is timed between requests: a fresh interpreter running a fixed loop
for CLI requests, the loop alone inside the session interpreter.  Each
latency is divided by how many times slower than ``REF_*_S`` the nearby
reference samples ran.  The raw total is printed as well.

A request fails on an exception, an unexpected exit code, ``"ok":false``,
a timeout, or stdout whose sha256 differs from the corpus.  Requests still
pending ``RUN_LIMIT_S`` after start fail as ``deadline``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the sample
once untraced and once with every public function wrapped (``spans.py``) and
prints the per-layer metrics.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

from child import TRACE_MARK


BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
# -I: the program sees neither PYTHONPATH nor user site-packages of the host
PYTHON = [sys.executable, "-I"]
RUN_LIMIT_S = 150.0  # a run ends well inside the 180 s a run may take
SETUP_REPEATS = 15
# Speed references (see the module docstring); their time on an unloaded
# machine defines a reference second.
REF_LOOP_S = 0.002  # child.reference() in a running interpreter
REF_INTERPRETER_S = 0.075  # a fresh interpreter running `child.py reference`
CLI_REF_EVERY_S = 1.0  # CLI workloads sample the reference interpreter at most this often


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layer: str
    cli: bool  # one interpreter per CLI request, or one library session per pass
    per_second: float  # requests per second of --seconds
    take_all: int  # slowest corpus requests that are in every run
    timeout_s: float  # per request; well above the slowest request of the corpus


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="numerical-cli",
            why="numerical semigroups sent as CLI tset, lset, ceq and f2l, each in a cold "
            "interpreter; large kernel-basis entries make saturation the hot layer",
            layer="ideal: saturate, groebner, minimal_generators; apery_set through f2l",
            cli=True,
            per_second=4.5,
            take_all=6,
            timeout_s=60.0,
        ),
        Workload(
            name="small-report",
            why="small reduced presentations, one library session each; per-request fixed "
            "cost (validation LPs, member search, rebuilt lattice ideals) dominates",
            layer="ratlp, monoid.member, monoid.validate_reduced, repeated ideal.lattice_ideal",
            cli=False,
            per_second=75.0,
            take_all=0,
            timeout_s=10.0,
        ),
        Workload(
            name="oracle-check",
            why="CLI oracle-check lset, tset and ceq with a weight cap of 6 times the largest "
            "generator; brute-force enumeration dominates and the engine is small",
            layer="oracle fiber maps, monoid.all_factorizations, catenary.ceq_element_bruteforce",
            cli=True,
            per_second=3.0,
            take_all=3,
            timeout_s=60.0,
        ),
    )
}

END_TO_END = (
    ("wall_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

_SELF = (
    "ideal.saturate", "ideal.minimal_generators", "ideal.groebner", "ideal.kernel_lattice",
    "apery.apery_set", "monoid.member", "monoid.validate_reduced", "monoid.all_factorizations",
    "ratlp.solve_nonneg", "ratlp.positive_functional", "same_length.t_set", "same_length.l_set",
    "same_length.l_set_complement", "same_length.f2l", "oracle.monoid_elements",
    "oracle.lset_bruteforce", "oracle.tset_bruteforce", "catenary.ceq_element_bruteforce",
    "catenary.ceq", "cli.main",
)
_CALLS = (
    "ideal.saturate", "ideal.groebner", "ideal.in_ideal", "ideal.lattice_ideal",
    "apery.apery_set", "monoid.member", "monoid.validate_reduced", "ratlp.solve_nonneg",
    "catenary.ceq_element_bruteforce",
)
_COUNTS = (
    "ideal.minimal_generators.groebner_calls", "ideal.lattice_ideal.repeat_calls",
    "apery.apery_set.elements", "oracle.fiber_maps",
)
PER_LAYER = (
    tuple((n + ".self_s", "s") for n in _SELF)
    + tuple((n + ".calls", "count") for n in _CALLS)
    + tuple((n, "count") for n in _COUNTS)
    + (("ideal.minimal_generators.kept_ratio", "ratio"), ("trace.overhead_frac", "ratio"))
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Result:
    latency_s: float
    output: bytes | None = None
    error: str | None = None
    trace: dict | None = None
    ref_s: float | None = None  # reference sampled just before the request


def digest(data: bytes) -> str:
    """What the corpus stores of a request's stdout: a shortened sha256."""
    return hashlib.sha256(data).hexdigest()[:16]


def _trace_line(stderr: bytes):
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(TRACE_MARK):
            return json.loads(line[len(TRACE_MARK):])
    return None


def _child(mode, args, traced):
    return PYTHON + [CHILD, mode] + (["--trace"] if traced else []) + list(args)


def _error_of(returncode, out, err):
    if err.startswith(b"bench: "):
        raise BenchError(err.decode("utf-8", "replace").strip()[len("bench: "):])
    if returncode == 5 and b'"ok":false' in out:
        return "not-ok"
    if returncode == 1 and b"Traceback" in err:
        return "exception: " + err.decode("utf-8", "replace").strip().splitlines()[-1]
    return f"exit {returncode}"


def _cli_request(argv, traced, timeout):
    start = time.perf_counter()
    proc = subprocess.Popen(
        _child("cli", argv, traced), stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Result(time.perf_counter() - start, error="timeout")
    latency = time.perf_counter() - start
    if proc.returncode != 0:
        return Result(latency, out, _error_of(proc.returncode, out, err))
    trace = _trace_line(err) if traced else None
    if traced and trace is None:
        raise BenchError("traced CLI request wrote no trace")
    return Result(latency, out, trace=trace)


def _session(inputs, traced, timeout, budget):
    """One interpreter runs every library session; returns one Result per
    input and the interpreter's span totals."""
    proc = subprocess.Popen(
        _child("session", [str(timeout)], traced),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    killed = False
    try:
        out, err = proc.communicate(json.dumps(inputs).encode(), timeout=max(budget, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    lines = out.decode().splitlines()
    if killed and not out.endswith(b"\n"):
        lines = lines[:-1]  # cut off mid-line
    results = []
    for line in lines:
        rec = json.loads(line)
        output = None if rec["output"] is None else rec["output"].encode() + b"\n"
        results.append(Result(rec["latency_s"], output, rec["error"], ref_s=rec["ref_s"]))
    if not killed and (proc.returncode != 0 or len(results) != len(inputs)):
        raise BenchError("session interpreter failed: " + err.decode("utf-8", "replace")[-500:])
    trace = None if killed or not traced else _trace_line(err)
    if traced and not killed and trace is None:
        raise BenchError("session interpreter wrote no trace")
    results += [Result(0.0, error="deadline") for _ in range(len(inputs) - len(results))]
    return results, trace


def _check(results, expected):
    """Mark every completed request whose stdout differs from the corpus."""
    for res, expected_digest in zip(results, expected):
        if res.error is None and digest(res.output) != expected_digest:
            res.error = "mismatch"


def execute(workload, requests, traced, deadline):
    """Run ``requests`` in order; returns their Results and the span totals."""
    if not workload.cli:
        results, trace = _session(requests, traced, workload.timeout_s, deadline - time.perf_counter())
        totals = Counter(trace or {})
    else:
        results, totals = [], Counter()
        last_ref = -CLI_REF_EVERY_S
        for argv in requests:
            left = deadline - time.perf_counter()
            if left <= 0:
                results.append(Result(0.0, error="deadline"))
                continue
            ref = None
            if time.perf_counter() - last_ref >= CLI_REF_EVERY_S:
                ref = reference_interpreter()
                last_ref = time.perf_counter()
            res = _cli_request(argv, traced, min(workload.timeout_s, left))
            res.ref_s = ref
            totals.update(res.trace or {})
            results.append(res)
    return results, totals


def slowdowns(workload, results, half=2):
    """Per request, how many times slower than an unloaded machine the
    reference ran around it: the median of the ``2 half + 1`` reference
    samples nearest to the request."""
    nominal = REF_INTERPRETER_S if workload.cli else REF_LOOP_S
    marks = [i for i, r in enumerate(results) if r.ref_s is not None]
    if not marks:  # every request missed the deadline
        return [1.0] * len(results)
    refs = [results[i].ref_s / nominal for i in marks]
    out, seg = [], 0
    for i in range(len(results)):
        while seg + 1 < len(marks) and marks[seg + 1] <= i:
            seg += 1
        out.append(statistics.median(refs[max(0, seg - half):seg + half + 1]))
    return out


def sample(items, seed, seconds, workload):
    """The corpus items of one run; see the module docstring."""
    ranked = sorted(items, key=lambda it: -it["cost_s"])
    heavy, rest = ranked[: workload.take_all], ranked[workload.take_all:]
    strata = max(1, round(workload.per_second * seconds) - workload.take_all)
    if strata > len(rest):
        raise BenchError(f"{workload.name}: corpus has {len(rest)} items for {strata} strata")
    rng = random.Random(seed)
    chosen = heavy + [rng.choice(rest[k * len(rest) // strata:(k + 1) * len(rest) // strata])
                      for k in range(strata)]
    rng.shuffle(chosen)
    if len({json.dumps(it["request"]) for it in chosen}) != len(chosen):
        raise BenchError(f"{workload.name}: a request repeats within the run")
    return chosen


def tail(latencies):
    """(percentile, value): the highest integer percentile with at least ten
    requests above it, by nearest rank."""
    n = len(latencies)
    if n < 11:
        raise BenchError(f"{n} requests are too few for a tail percentile")
    q = 100 * (n - 10) // n
    rank = -(-q * n // 100)  # ceil(q n / 100)
    return q, sorted(latencies)[rank - 1]


def reference_interpreter():
    """Wall time of a fresh interpreter that runs the reference loop."""
    start = time.perf_counter()
    subprocess.run(_child("reference", [], False), check=True, capture_output=True, cwd=ROOT)
    return time.perf_counter() - start


def setup_s(repeats=SETUP_REPEATS):
    """Median wall time of fresh interpreters that start and import monofact,
    in reference seconds: each is paired with a reference interpreter."""
    times, refs = [], []
    for _ in range(repeats):
        refs.append(reference_interpreter())
        start = time.perf_counter()
        proc = subprocess.run(_child("import", [], False), capture_output=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(proc.stderr.decode("utf-8", "replace").strip())
    return statistics.median(times) / (statistics.mean(refs) / REF_INTERPRETER_S)


def load_corpus(name):
    path = os.path.join(BENCH, "corpus", name + ".json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "monofact", "__init__.py")):
        raise BenchError(f"no monofact sources under {os.path.join(ROOT, 'src')}")


def per_layer(totals, untraced_wall, traced_wall):
    values = {name: totals.get(name, 0) for name, _ in PER_LAYER}
    cand = totals.get("ideal.minimal_generators.candidates", 0)
    values["ideal.minimal_generators.kept_ratio"] = (
        totals.get("ideal.minimal_generators.kept", 0) / cand if cand else 0.0
    )
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return values


def shares(totals):
    """Self time by layer group, as shares of all traced self time."""
    groups = Counter()
    for key, value in totals.items():
        if key.endswith(".self_s"):
            name = key[: -len(".self_s")]
            group = "oracle+all_factorizations" if (
                name.startswith("oracle.") or name == "monoid.all_factorizations"
            ) else name.split(".")[0]
            groups[group] += value
    whole = sum(groups.values()) or 1.0
    return {g: v / whole for g, v in groups.most_common()}


def purpose(workload, totals, share):
    top = next(iter(share), None)
    if workload.name == "numerical-cli":
        return top == "ideal", f"largest self-time share: {top}"
    if workload.name == "oracle-check":
        return top == "oracle+all_factorizations", f"largest self-time share: {top}"
    repeats = totals.get("ideal.lattice_ideal.repeat_calls", 0)
    return repeats > 0, f"ideal.lattice_ideal.repeat_calls = {repeats}"


def run(workload, seed, seconds, traced):
    check_checkout()
    corpus = load_corpus(workload.name)
    chosen = sample(corpus["items"], seed, seconds, workload)
    requests = [item["request"] for item in chosen]
    expected = [item["expected"] for item in chosen]
    deadline = time.perf_counter() + RUN_LIMIT_S
    setup = setup_s()

    results, _ = execute(workload, requests, False, deadline)
    _check(results, expected)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    raw_wall = sum(r.latency_s for r in results)
    latencies = [r.latency_s / f for r, f in zip(results, slowdowns(workload, results))]
    wall = sum(latencies)
    everything = list(results)
    if traced:
        traced_results, totals = execute(workload, requests, True, deadline)
        _check(traced_results, expected)
        everything += traced_results

    failures = Counter(r.error.split(":")[0] for r in everything if r.error)  # by kind
    failed = sum(failures.values())
    correct = not (set(failures) - {"timeout", "deadline"})
    all_outputs = hashlib.sha256()
    for r in results:
        out = r.output or b""
        all_outputs.update(len(out).to_bytes(8, "little") + out)

    print(f"workload {workload.name}, seed {seed}: {len(requests)} requests, "
          "closed loop with one client")
    print(f"outputs sha256 {all_outputs.hexdigest()}")
    print(f"failed_frac {failed / len(everything):.4f} ({failed}/{len(everything)})"
          + "".join(f" {k}={v}" for k, v in sorted(failures.items())))
    for r in everything:
        if r.error and r.error not in ("timeout", "deadline"):
            print(f"  first failure: {r.error}")
            break

    if traced:
        traced_wall = sum(
            r.latency_s / f for r, f in zip(traced_results, slowdowns(workload, traced_results))
        )
        values = per_layer(totals, wall, traced_wall)
        share = shares(totals)
        ok, why = purpose(workload, totals, share)
        print("self-time shares " + ", ".join(f"{g} {v:.3f}" for g, v in share.items()))
        print(f"purpose {'confirmed' if ok else 'NOT confirmed'}: {why}")
        units = dict(PER_LAYER)
    else:
        q, tail_s = tail(latencies)
        print(f"raw wall_s {raw_wall:.4f} s at slowdown {raw_wall / wall:.4f}")
        values = {
            "wall_s": wall,
            "latency_p50_s": statistics.median(latencies),
            "latency_tail_s": tail_s,
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
        print(f"latency_tail_s is p{q} of {len(latencies)} requests")
        for name, unit in END_TO_END:
            print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
