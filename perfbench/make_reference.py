#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from a source checkout.

    python3 perfbench/make_reference.py

The reference holds, for every instance the CLI workloads analyze, the
relabelling-invariant fields of the un-relabelled instance with the
multisets of its per-symbol r, a and delta, and for workload seeds 0 to
SEEDS - 1 the digests of the first round of ``simulate`` reports.  It takes about a minute: the n = 4096 rung dominates.  Only
regenerate it when a change is meant to alter these outputs.
"""

from __future__ import annotations

import json
import sys

from checks import multiset
from run import BENCH, import_program

SEEDS = 32  # workload seeds whose simulate reports are recorded


def instance_fields(pgblrc, spec, mode: str) -> dict:
    from pgblrc import bounds, geometry
    _, ctor, param, is_dual = spec
    inc = getattr(geometry, ctor)(param)
    if is_dual:
        inc = geometry.dual(inc)
    params = geometry.validate_pg(inc)
    built = pgblrc.build_code(inc)
    profile = pgblrc.repair_profile(built, mode=mode)
    rank = built.n - built.k
    lo, hi = bounds.rank_bounds(params.s, params.t, params.alpha)
    return {"s": params.s, "t": params.t, "alpha": params.alpha, "n": built.n,
            "k": built.k, "r": profile.r, "a": profile.a, "delta": profile.delta,
            "balanced": profile.balanced,
            "rank_within_bounds": (lo is None or lo <= rank) and rank <= hi,
            "per_symbol": {"r": multiset(profile.per_symbol_r),
                           "a": multiset(profile.per_symbol_a),
                           "delta": multiset(profile.per_symbol_delta)}}


def main() -> int:
    pgblrc = import_program()
    import workloads

    out = {
        "analyze": {spec[0]: instance_fields(pgblrc, spec, "geometric")
                    for spec in workloads.LADDER},
        "exhaustive": {spec[0]: instance_fields(pgblrc, spec, "exhaustive")
                       for spec in workloads.EXHAUSTIVE},
        "simulate": {},
    }
    codes = {spec[0]: pgblrc.build_code(getattr(pgblrc, spec[1])(spec[2]))
             for spec in workloads.SIM_INSTANCES}
    for seed in range(SEEDS):
        sim_seed = workloads.simulation_seed(
            workloads.stream_rng(seed, workloads.SIM_SEED_STREAM))
        out["simulate"][str(seed)] = {
            call: workloads.report_digest(
                pgblrc.simulate_availability(codes[instance], seed=sim_seed, **kwargs))
            for call, instance, kwargs, _ in workloads.SIM_CALLS
        }
    (BENCH / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
