"""Compare two sets of benchmark results.

    python3 bench/compare.py --base A1.json A2.json ... --change B1.json B2.json ...

Each file is a result written by run.py to .bench_out/results/.  For every
workload and metric present on both sides, prints the median and quartiles of
each side and the change as a share of the base median.  Results measured with
different rational backends (gmpy2 ``mpq`` against ``Fraction``) or on
different workloads are refused: their numbers do not describe the same
program.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(paths):
    runs = defaultdict(list)
    backends = set()
    for p in paths:
        res = json.loads(Path(p).read_text())
        runs[(res["workload"], res["trace"])].append(res)
        backends.add(res["env"]["rational_backend"])
    return runs, backends


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--change", nargs="+", required=True)
    args = p.parse_args()
    base, base_backends = load(args.base)
    change, change_backends = load(args.change)
    if len(base_backends | change_backends) != 1:
        print(f"refused: results use different rational backends {sorted(base_backends | change_backends)}", file=sys.stderr)
        return 2
    if base.keys() != change.keys():
        print("refused: the two sides measured different workloads or trace modes", file=sys.stderr)
        return 2
    for key in sorted(base):
        workload, trace = key
        print(f"{workload} (trace {trace}): {len(base[key])} base runs, {len(change[key])} change runs")
        for name, meta in base[key][0]["metrics"].items():
            b = [r["metrics"][name]["value"] for r in base[key]]
            c = [r["metrics"][name]["value"] for r in change[key] if name in r["metrics"]]
            if not c:
                continue
            b1, bm, b3 = spread(b)
            c1, cm, c3 = spread(c)
            rel = f"{(cm - bm) / bm:+.1%}" if bm else "n/a"
            print(
                f"  {name:<34} base {bm:12.6g} [{b1:.6g}, {b3:.6g}]  "
                f"change {cm:12.6g} [{c1:.6g}, {c3:.6g}]  {rel} {meta['unit']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
