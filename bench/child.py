"""The benchmark's side of a fresh interpreter.

    child.py reference                  interpreter start plus ten reference loops
    child.py import                     interpreter start plus ``import monofact``
    child.py cli [--trace] ARGS...      one CLI request: ``monofact.cli.main(ARGS)``
    child.py session [--trace] TIMEOUT  small-report requests, one JSON line each

``session`` reads a JSON list of presentations on stdin.  For each it
builds the presentation object and runs ``t_set``, ``l_set``, ``ceq``,
``l_set_complement(limit=2)`` and ``apery_set(p, generators)``, then prints
``{"latency_s", "ref_s", "output", "error"}``.  ``output`` is the canonical
JSON of the five results; ``EmptyLSet`` from the complement is part of it.
A request running longer than TIMEOUT seconds is abandoned with
``error: "timeout"``.  ``ref_s`` is a sample of :func:`reference` taken just
before the request, or null when the last sample is recent.

With ``--trace`` the public functions are wrapped (see ``spans.py``) and the
span totals go to stderr as one line starting with ``TRACE_MARK``, so stdout
stays byte-identical to an untraced run.

monofact is imported from ``src/`` of the checkout this file sits in, never
from an installed copy; without it the child exits with code 2.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACE_MARK = "bench-trace "
SESSION_REF_EVERY_S = 0.1  # a session samples the reference loop at most this often


def reference():
    """Seconds a fixed pure-Python loop takes now; it tracks how fast this
    machine runs Python at the moment, independent of monofact."""
    from time import perf_counter

    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc + i * i) % 1000003
    return perf_counter() - start


def _fail(message):
    print("bench: " + message, file=sys.stderr)
    sys.exit(2)


def _import_monofact():
    sys.path.insert(0, SRC)
    try:
        import monofact
    except ImportError as exc:
        _fail(f"cannot import monofact from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(monofact.__file__)) != os.path.join(SRC, "monofact"):
        _fail(f"monofact was imported from {monofact.__file__}, not from {SRC}")


def _install_trace(traced):
    if not traced:
        return None
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))  # -I leaves it out
    import spans

    try:
        return spans.install()
    except spans.MissingTarget as exc:
        _fail(str(exc))


def _report_trace(rec):
    if rec is not None:
        import json

        sys.stderr.write(TRACE_MARK + json.dumps(rec.summary()) + "\n")


def _cli(argv, traced):
    rec = _install_trace(traced)
    from monofact import cli

    code = cli.main(argv)
    sys.stdout.flush()
    _report_trace(rec)
    return code


class _Timeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program
    can swallow it."""


def _on_alarm(signum, frame):
    raise _Timeout


def _session_output(mf, data):
    import json

    p = mf.validate_reduced(mf.presentation_from_data(data))
    ts = mf.t_set(p)
    ls = mf.l_set(p)
    value = mf.ceq(p)
    try:
        comp = mf.l_set_complement(p, limit=2).to_data()
    except mf.EmptyLSet:
        comp = "EmptyLSet"
    ap = mf.apery_set(p, list(p.generators))
    result = {
        "t_set": None if ts is None else ts.to_data(),
        "l_set": None if ls is None else ls.to_data(),
        "ceq": value,
        "l_set_complement": comp,
        "apery_set": ap.to_data(),
    }
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def _session(timeout, traced):
    import json
    import signal
    import traceback
    from time import perf_counter

    rec = _install_trace(traced)
    mf = sys.modules["monofact"]
    requests = json.load(sys.stdin)
    signal.signal(signal.SIGALRM, _on_alarm)
    last_ref = -SESSION_REF_EVERY_S
    for data in requests:
        if rec is not None:
            rec.new_request()
        ref = None
        if perf_counter() - last_ref >= SESSION_REF_EVERY_S:
            ref = reference()
            last_ref = perf_counter()
        output = error = None
        start = perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                output = _session_output(mf, data)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except _Timeout:
            error = "timeout"
        except Exception:
            error = "exception: " + traceback.format_exc(limit=-1).strip().splitlines()[-1]
        latency = perf_counter() - start
        print(json.dumps({"latency_s": latency, "ref_s": ref, "output": output, "error": error}),
              flush=True)
    _report_trace(rec)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    if mode == "reference":
        for _ in range(10):
            reference()
        return 0
    traced = bool(rest) and rest[0] == "--trace"
    if traced:
        rest = rest[1:]
    _import_monofact()
    if mode == "import":
        return 0
    if mode == "cli":
        return _cli(rest, traced)
    if mode == "session":
        return _session(float(rest[0]), traced)
    _fail(f"unknown child mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
