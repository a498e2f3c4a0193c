"""Record the golden report digests of every op a benchmark run can make.

    python3 bench/golden.py [--workload NAME ...]

Runs each workload's whole op pool once in a fresh interpreter (as run.py
does) and rewrites bench/golden.json.  Record it only from a commit whose
verdicts are known to be right: a run fails every op whose canonical report
bytes differ from the recorded digest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from run import BenchError, child

GOLDEN = Path(__file__).resolve().parent / "golden.json"

GOLDEN_WORKLOADS = ("axioms", "reconstruct", "laws")
TIMEOUT_S = 1800


def collapse(digests: dict) -> dict:
    """Store one digest per group of keys that differ only in their last part
    (the sample seed or fixture) when the whole group agrees; otherwise one
    digest per key."""
    groups = {}
    for key, d in digests.items():
        groups.setdefault(key.rsplit("/", 1)[0], {})[key] = d
    out = {}
    for group, members in groups.items():
        if len(set(members.values())) == 1:
            out[group] = next(iter(members.values()))
        else:
            out.update(members)
    return dict(sorted(out.items()))


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", choices=GOLDEN_WORKLOADS, default=list(GOLDEN_WORKLOADS))
    args = p.parse_args()
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    for w in args.workload:
        t0 = time.monotonic()
        try:
            out = child(["--workload", w, "--seed", "0", "--mode", "golden"], TIMEOUT_S)
        except BenchError as exc:
            print(f"error: {w}: {exc}", file=sys.stderr)
            return 2
        golden[w] = collapse(out["golden"])
        print(f"{w}: {len(out['golden'])} ops, {len(golden[w])} digests, {time.monotonic() - t0:.0f} s")
    GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
