#!/usr/bin/env python3
"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 10]

Runs ``run.py --trace 0`` once per seed, one after another, and prints
per end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (Q3 - Q1) / median,
which the benchmark's bounds are set against.  The last line is the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="like 1-10 or 3,7,11")
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False, cwd=BENCH.parent)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        print(json.dumps({"seed": seed, **result}), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {"workload": args.workload, "runs": len(seed_list(args.seeds)),
               "failed": failed, "metrics": {}}
    for name, vals in sorted(values.items()):
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        summary["metrics"][name] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median if median else None}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
