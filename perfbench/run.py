#!/usr/bin/env python3
"""pgblrc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports pgblrc from
``src/`` and starts ``pgblrc`` processes with that same source.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the run's metadata.  The traced run also writes its spans to
``perfbench/.work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

# The repair-layer call each workload loops on (per-layer ``repair.call_s``).
REPAIR_CALL = {
    "analyze-ladder": "repair.profile_geometric",
    "exhaustive-verify": "repair.profile_exhaustive",
    "simulate": "repair.simulate",
    "degraded-read": "repair.repair_symbol",
}
# Per-layer metric -> span whose per-round total it reports.
LAYER_SPANS = {
    "geometry.construct_s": "geometry.construct",
    "geometry.validate_s": "geometry.validate",
    "algebra.independent_rows_s": "algebra.independent_rows",
    "algebra.rref_s": "algebra.rref",
    "algebra.nullspace_s": "algebra.nullspace",
    "code.build_s": "code.build",
    "cli.startup_s": "cli.startup",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        parser.error("--seed must lie in [0, 2**63)")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must lie in [1, 3600]")
    return args


def import_program():
    """Import pgblrc from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "pgblrc" / "__init__.py").is_file():
        raise SystemExit(f"error: no pgblrc sources under {src}; "
                         "run the benchmark from a source checkout")
    sys.path.insert(0, str(src))
    import pgblrc
    if Path(pgblrc.__file__).resolve().parent != (src / "pgblrc").resolve():
        raise SystemExit(f"error: imported pgblrc from {pgblrc.__file__}, not {src}")
    return pgblrc


def source_identity() -> dict:
    git_hash = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        if out.returncode == 0:
            git_hash = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pgblrc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_hash": git_hash, "source_sha256": digest.hexdigest()}


def per_layer_metrics(tracer, workload: str, span_cost_ns: float) -> dict:
    out = {}
    for metric, span in LAYER_SPANS.items():
        value = tracer.median_seconds(span)
        if value is not None:
            out[metric] = (value, "s")
    call = tracer.median_seconds(REPAIR_CALL[workload])
    if call is not None:
        out["repair.call_s"] = (call, "s")
    work = tracer.median_count("repair.work_count")
    if work is not None:
        out["repair.work_count"] = (work, "count")
    # Per pass, so that a faster program, which fits more passes into the
    # run, does not read as more tracing.
    per_pass = tracer.median_spans_per_round("pass")
    out["trace.spans"] = (per_pass, "count")
    out["trace.overhead_s"] = (per_pass * span_cost_ns / 1e9, "s")
    return out


def per_layer_detail(tracer, workload: str) -> dict:
    """Every span and count of the traced run under its own name."""
    detail = {}
    for name, values in tracer.per_round_totals().items():
        if workload == "degraded-read" and name in ("code.encode", "repair.repair_symbol"):
            detail[f"{name}_us"] = tracer.median_seconds(name) * 1e6
        else:
            detail[f"{name}_s"] = tracer.median_seconds(name)
    for name in tracer.counts:
        detail[name] = tracer.median_count(name)
    detail["layer_self_s"] = tracer.layer_self_seconds()
    return detail


def main(argv=None) -> int:
    args = parse_args(argv)
    pgblrc = import_program()
    import numpy as np

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    definitions = json.loads((BENCH / "metrics.json").read_text(encoding="utf-8"))
    reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    tracer = spans.Tracer() if args.trace else spans.NullTracer()
    scratch = WORK / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    run = workloads.Run(workload=args.workload, seed=args.seed, seconds=args.seconds,
                        tracer=tracer, root=ROOT, scratch=scratch, reference=reference)
    started = time.perf_counter()
    try:
        if args.trace:
            workloads.startup_rounds(run)
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    wall = time.perf_counter() - started

    if args.trace:
        cost = spans.span_cost_ns()
        metrics = per_layer_metrics(tracer, args.workload, cost)
        detail = per_layer_detail(tracer, args.workload)
        detail["trace.span_cost_ns"] = cost
    else:
        metrics = dict(run.metrics)
        metrics["peak_rss_mb"] = (run.peak_rss_mb(), "MB")
        detail = {}
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    meta = {
        "workload": args.workload,
        "workloads": sorted(workloads.WORKLOADS),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_identity(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pgblrc": pgblrc.__version__,
        "nproc": os.cpu_count(),
        "pinned_cpu": run.cpu,
        "clients": 1,
        "loop": "closed",
        "wall_s": wall,
        "speed_factor_median": (statistics.median(run.speed.factors)
                                if run.speed.factors else None),
        "failed_ops_ratio": failed / attempted,
        "failures": run.failures[:20],
        "samples": run.samples,
        "workload_metrics": {**run.detail, **detail},
        "observed_spread": definitions.get("observed_spread", {}).get(args.workload),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    WORK.mkdir(parents=True, exist_ok=True)
    if args.trace:
        tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json",
                     {"meta": meta, "result": result})
    print(json.dumps({"meta": meta}, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
