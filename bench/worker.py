"""One benchmark process: set up a workload, run its ops, check every result.

Started by run.py (and golden.py) in a fresh interpreter, so every cache of
the program starts cold, as it does for each CLI invocation.  Prints one JSON
object on stdout.

Modes:
  setup   set up, report when the first op could start, and exit
  timed   run whole rounds until --seconds have passed
  fixed   run a fixed number of rounds derived from --seconds (trace runs,
          whose counts must repeat exactly)
  golden  run every op of the workload's pool and print its report digests
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic, perf_counter

from workloads import WORKLOADS, digest

GOLDEN = Path(__file__).resolve().parent / "golden.json"
# Trace runs spend about this share of --seconds in their untraced pass.
TRACE_SHARE = 0.3
# The reference computation runs between ops at least this often.
CALIBRATE_EVERY_S = 0.05


def reference() -> float:
    """Wall time of a fixed piece of exact rational arithmetic, the kind of
    work the program spends its time on.  Timed between ops, it tracks the
    speed of the host, which drifts by tens of percent within seconds on a
    shared machine; run.py expresses op times at a fixed reference speed."""
    t0 = perf_counter()
    a = Fraction(1, 3)
    for i in range(1, 150):
        a = a * Fraction(i, i + 2) + Fraction(1, 7)
    return perf_counter() - t0


def environment() -> dict:
    import mpmath

    import orbatlas.field

    return {
        "python": sys.version.split()[0],
        "rational_backend": orbatlas.field._Q.__name__,
        "mpmath": mpmath.__version__,
    }


def check(op, result, golden):
    """Problem with an op's result, or None.  A golden digest pins the
    canonical report bytes; timing is never part of a report."""
    doc, problem = op.verify(result)
    if problem is None and golden is not None:
        want = golden.get(op.key) or golden.get(op.key.rsplit("/", 1)[0])
        got = digest(doc)
        if want is None:
            problem = "no golden digest recorded for this op"
        elif want != got:
            problem = f"report digest {got} differs from golden {want}"
    return problem


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "fixed", "golden"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None, help="write the traced spans here (gzip JSON)")
    args = p.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin("setup", "setup")
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed, full=args.mode == "golden")
    if tracer:
        tracer.end()
    ready = monotonic()
    out = {"ready": ready, "setup_reference": statistics.median(reference() for _ in range(5)), "env": environment()}

    if args.mode == "golden":
        digests = {}
        for op in wl.pool():
            doc, problem = op.verify(op.run())
            if problem is not None:
                print(f"{op.key}: {problem}", file=sys.stderr)
                return 1
            digests[op.key] = digest(doc)
        out["golden"] = digests
    elif args.mode != "setup":
        golden = json.loads(GOLDEN.read_text())[wl.name] if wl.uses_golden else None
        rounds = max(1, round(args.seconds * TRACE_SHARE / wl.NOMINAL_ROUND_S))
        latencies, failures, calibration = [], [], []
        start = monotonic()
        calibrated = float("-inf")
        r = 0
        while (monotonic() - start < args.seconds) if args.mode == "timed" else (r < rounds):
            for op in wl.round(r):
                if perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                    calibration.append((len(latencies), reference()))
                    calibrated = perf_counter()
                if tracer:
                    tracer.begin(op.key, len(latencies))
                t0 = perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # an op that raises is a failed op, not a crashed run
                    result, error = None, f"{type(exc).__name__}: {exc}"
                dt = perf_counter() - t0
                if tracer:
                    tracer.end()
                latencies.append(dt)
                problem = error or check(op, result, golden)
                if problem:
                    failures.append(f"{op.key}: {problem}")
            r += 1
        calibration.append((len(latencies), reference()))
        out.update(rounds=r, latencies_s=latencies, calibration=calibration, failures=failures)
        if tracer:
            out["trace"] = tracer.metrics()
            if args.spans:
                tracer.write_spans(args.spans)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
