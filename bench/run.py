"""orbatlas benchmark.

    python3 bench/run.py --workload {axioms,reconstruct,laws,kernel,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every measurement runs in a fresh
interpreter (bench/worker.py) with the checkout's ``src`` on PYTHONPATH as an
absolute path and a fixed PYTHONHASHSEED.  The loop is closed and
single-threaded: one caller, and the next op starts when the previous one
returns.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced pass over a fixed op list, with ``trace.overhead`` against
an untraced pass over the same list.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The full result,
with the environment, goes to .bench_out/results/.  The exit status is 1 when
any op gave a wrong result and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("axioms", "reconstruct", "laws", "kernel")
SETUP_RUNS = 5  # setup_s is the median over this many fresh interpreters
TIMEOUT_S = 170  # per workload, children included
MIN_OPS = 100  # op_ms.p90 needs at least 10 ops beyond it
# Typical wall time of worker.reference() on the 2-core machine the benchmark
# was written on.  Op times are reported at this reference speed.
REFERENCE_S = 0.0012

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def child(args: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; return its JSON and the
    monotonic time at which it was started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            timeout=max(1.0, timeout),
            check=False,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {exc.timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    out["spawned"] = spawned
    return out


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    if name == "serialize.bytes":
        return "bytes"
    return "count"


def op_times(run: dict) -> list[float]:
    """Op wall times at the reference speed: each op's time is scaled by
    REFERENCE_S over the mean of the reference timings taken just before and
    just after it, which cancels the drift of the host's speed."""
    cal = run["calibration"]  # (index of the op that followed, seconds), ascending
    out = []
    k = 0
    for i, t in enumerate(run["latencies_s"]):
        while cal[k + 1][0] <= i:
            k += 1
        out.append(t * REFERENCE_S * 2 / (cal[k][1] + cal[k + 1][1]))
    return out


def throughput(run: dict) -> float:
    """Ops completed per second of op time (the benchmark's own checks excluded)."""
    return len(run["latencies_s"]) / sum(op_times(run))


def setup_time(run: dict) -> float:
    """Interpreter start to first op, at the reference speed (the reference
    computation is timed right after set-up)."""
    return (run["ready"] - run["spawned"]) * REFERENCE_S / run["setup_reference"]


def measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed)]
    runs = [child(base + ["--mode", "setup"], deadline - time.monotonic()) for _ in range(SETUP_RUNS - 1)]
    run = child(base + ["--mode", "timed", "--seconds", str(seconds)], deadline - time.monotonic())
    runs.append(run)
    setups = [setup_time(r) for r in runs]
    lat_ms = [x * 1000 for x in op_times(run)]
    raw_ms = [x * 1000 for x in run["latencies_s"]]
    if len(lat_ms) < MIN_OPS:
        print(f"warning: {workload}: only {len(lat_ms)} ops; op_ms.p90 needs {MIN_OPS}", file=sys.stderr)
    deciles = statistics.quantiles(lat_ms, n=10, method="inclusive")
    failed = len(run["failures"])
    metrics = {
        "throughput_ops_s": throughput(run),
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.p90": deciles[8],
        "ok_ratio": 1 - failed / len(lat_ms),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["maxrss_kb"] / 1024,
    }
    return {
        "attempted": len(lat_ms),
        "failed": failed,
        "failures": run["failures"],
        "rounds": run["rounds"],
        "setup_samples_s": setups,
        "raw": {
            "throughput_ops_s": len(raw_ms) * 1000 / sum(raw_ms),
            "op_ms.p50": statistics.median(raw_ms),
            "op_ms.p90": statistics.quantiles(raw_ms, n=10, method="inclusive")[8],
            "setup_s": statistics.median(r["ready"] - r["spawned"] for r in runs),
            "reference_ms": statistics.median(c[1] for c in run["calibration"]) * 1000,
        },
        "env": run["env"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }


def measure_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--mode", "fixed", "--seconds", str(seconds)]
    plain = child(base, deadline - time.monotonic())
    spans = OUT / "traces" / f"{workload}-seed{seed}.json.gz"
    traced = child(base + ["--trace", "1", "--spans", str(spans)], deadline - time.monotonic())
    metrics = dict(traced["trace"])
    metrics["trace.overhead"] = throughput(traced) / throughput(plain)
    failures = plain["failures"] + traced["failures"]
    return {
        "attempted": len(plain["latencies_s"]) + len(traced["latencies_s"]),
        "failed": len(failures),
        "failures": failures,
        "rounds": traced["rounds"],
        "traced_ops": len(traced["latencies_s"]),
        "spans_file": str(spans.relative_to(ROOT)),
        "env": traced["env"],
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())},
    }


def host() -> dict:
    return {"nproc": os.cpu_count(), "loadavg_at_start": list(os.getloadavg())}


def summary(workload: str, seed: int, result: dict) -> list[str]:
    env = result["env"]
    lines = [
        f"# {workload} seed={seed} ops={result['attempted']} failed={result['failed']} "
        f"rounds={result['rounds']} python={env['python']} backend={env['rational_backend']} "
        f"mpmath={env['mpmath']} nproc={env['nproc']} load={env['loadavg_at_start'][0]:.2f}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"#   {workload}.{name:<34} {m['value']:>14.6g} {m['unit']}")
    for name, v in result.get("raw", {}).items():
        lines.append(f"#   raw wall clock {name:<26} {v:>14.6g}")
    lines += [f"# FAILED {f}" for f in result["failures"][:20]]
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "orbatlas" / "__init__.py").is_file():
        print(f"error: no orbatlas sources under {SRC}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIMEOUT_S * len(workloads)
    env_host = host()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    measure_fn = measure_traced if args.trace else measure
    results = {}
    try:
        for w in workloads:
            res = measure_fn(w, args.seed, args.seconds, deadline)
            res["env"].update(env_host)
            res.update(workload=w, seed=args.seed, seconds=args.seconds, trace=args.trace)
            (OUT / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(res, indent=1))
            results[w] = res
            print("\n".join(summary(w, args.seed, res)), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
