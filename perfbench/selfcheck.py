#!/usr/bin/env python3
"""Quick self-check of the benchmark's own output checks, on tiny inputs.

    python3 perfbench/selfcheck.py

Runs in a second or two on grid(2) and symplectic_gq(2).  Each check must
accept the program's real output and reject a corrupted copy of it, so a
check that has stopped checking is caught without a full benchmark pass.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

from run import import_program

pgblrc = import_program()
import numpy as np  # noqa: E402
from pgblrc import cli, geometry  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

TINY = (("grid2", "grid", 2, False), ("symplectic2", "symplectic_gq", 2, False))


def accepts(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
        return True
    except CheckFailed:
        return False


def analyze_payload(path, exhaustive: bool) -> str:
    args = ["analyze", "--format", "json", "--file", str(path)]
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(args + ["--exhaustive"] if exhaustive else args)
    if code != 0:
        raise RuntimeError(f"pgblrc analyze exited {code}")
    return buf.getvalue()


def corruptions(text: str):
    """Copies of an analyze payload with one per-symbol entry or repair set bent."""
    payload = json.loads(text)
    metrics = payload["metrics"]
    bent = json.loads(text)
    bent["metrics"]["per_symbol"]["a"][0] += 1
    yield "one symbol's a raised", json.dumps(bent)
    bent = json.loads(text)
    bent["metrics"]["per_symbol"]["delta"][-1] -= 1
    yield "one symbol's delta lowered", json.dumps(bent)
    bent = json.loads(text)
    helpers = bent["metrics"]["repair_sets"][0][0]
    outside = next(p for p in range(metrics["n"])
                   if p != 0 and p not in helpers)
    helpers[-1] = outside
    yield "repair set off the dual code", json.dumps(bent)
    bent = json.loads(text)
    bent["metrics"]["repair_sets"][0][-1] = bent["metrics"]["repair_sets"][0][0]
    yield "repeated repair set", json.dumps(bent)
    bent = json.loads(text)
    bent["metrics"]["repair_sets"][0][0].append(bent["metrics"]["repair_sets"][0][1][0])
    yield "repair set with an extra helper", json.dumps(bent)


def cases(tmpdir: Path):
    for spec in TINY:
        name = spec[0]
        inc = getattr(geometry, spec[1])(spec[2])
        code = pgblrc.build_code(inc)
        perm = np.random.default_rng(7).permutation(inc.num_points).tolist()
        lines = workloads.relabelled_lines(inc, perm)
        path = tmpdir / f"{name}.txt"
        path.write_text(workloads.incidence_text(inc.num_points, lines, name), encoding="utf-8")
        relabelled = geometry.load(path)
        yield f"{name}: relabelling keeps the parameters", \
            geometry.validate_pg(relabelled) == geometry.validate_pg(inc)

        for mode in ("geometric", "exhaustive"):
            profile = pgblrc.repair_profile(code, mode=mode)
            per_symbol = {"r": checks.multiset(profile.per_symbol_r),
                          "a": checks.multiset(profile.per_symbol_a),
                          "delta": checks.multiset(profile.per_symbol_delta)}
            expected = {"s": code.pg.s, "t": code.pg.t, "alpha": code.pg.alpha, "n": code.n,
                        "k": code.k, "r": profile.r, "a": profile.a, "delta": profile.delta,
                        "balanced": profile.balanced, "rank_within_bounds": True,
                        "per_symbol": per_symbol}
            text = analyze_payload(path, mode == "exhaustive")
            yield f"{name} {mode}: analyze output accepted", \
                accepts(checks.check_analyze, text, expected, mode, lines)
            wrong = dict(expected, delta=expected["delta"] + 1)
            yield f"{name} {mode}: wrong delta rejected", \
                not accepts(checks.check_analyze, text, wrong, mode, lines)
            other = "exhaustive" if mode == "geometric" else "geometric"
            yield f"{name} {mode}: wrong mode rejected", \
                not accepts(checks.check_analyze, text, expected, other, lines)
            yield f"{name} {mode}: truncated output rejected", \
                not accepts(checks.check_analyze, text[:-5], expected, mode, lines)
            for label, bend in corruptions(text):
                yield f"{name} {mode}: {label} rejected", \
                    not accepts(checks.check_analyze, bend, expected, mode, lines)

        incidence = checks.incidence_array(inc.lines, inc.num_points)
        for model, kwargs, masks in (
            ("iid", {"p": 0.3, "trials": 50}, checks.iid_masks(11, 50, code.n, 0.3)),
            ("adversarial", {"u": 2}, checks.pair_masks(code.n)),
        ):
            report = pgblrc.simulate_availability(code, model=model, seed=11, **kwargs)
            succ, all_ok = checks.availability_counts(incidence, inc.lines_through, masks)
            coverage = "sampled" if model == "iid" else "exhaustive"
            param = kwargs.get("p", kwargs.get("u"))
            check = dict(model=model, parameter=param, seed=11, coverage=coverage,
                         succ=succ, all_ok=all_ok, helpers_per_line=code.pg.s)
            yield f"{name} {model}: report accepted", accepts(checks.check_report, report, **check)
            bent = list(report.per_symbol_success)
            bent[0] = 1.0 if bent[0] != 1.0 else 0.5
            bad = dataclasses.replace(report, per_symbol_success=tuple(bent))
            yield f"{name} {model}: bent success rate rejected", \
                not accepts(checks.check_report, bad, **check)
            bad = dataclasses.replace(report, all_symbols_success=report.all_symbols_success + 0.25)
            yield f"{name} {model}: bent all-symbols rate rejected", \
                not accepts(checks.check_report, bad, **check)

        rng = np.random.default_rng(3)
        info_set = np.array(code.info_set)
        for step in range(40):
            message = rng.integers(0, 2, code.k, dtype=np.uint8)
            word = pgblrc.encode(code, message.tolist())
            flipped = word.copy()
            flipped[step % code.n] ^= 1
            if step < 3:
                yield f"{name}: codeword accepted", \
                    accepts(checks.check_word, word, message, info_set, incidence)
                yield f"{name}: flipped codeword rejected", \
                    not accepts(checks.check_word, flipped, message, info_set, incidence)
            i = int(rng.integers(code.n))
            unavailable = np.flatnonzero(rng.random(code.n) < 0.4).tolist()
            received = word.tolist()
            received[i] = None
            line, _ = checks.first_open_line(inc.lines, inc.lines_through, i,
                                             set(unavailable) - {i})
            try:
                outcome = pgblrc.repair_symbol(code, received, i, unavailable=unavailable)
                agree = outcome.vector.line == line and outcome.value == int(word[i])
            except pgblrc.NotLocallyRepairableError:
                agree = line is None
            if not agree:
                yield f"{name} step {step}: degraded-read check agrees with repair_symbol", False
        yield f"{name}: degraded-read check agrees with repair_symbol", True


def tracer_cases():
    tracer = spans.Tracer()
    with tracer.round("pass"):
        with tracer.span("cli.analyze", op="a"):
            with tracer.span("geometry.validate"):
                sum(range(20000))
            with tracer.span("code.build"):
                sum(range(20000))
    parent, first, second = sorted(tracer.spans)
    self_ns = tracer.self_times_ns()
    yield "tracer: children point at their parent", first[4] == second[4] == parent[0]
    yield "tracer: children inherit the operation id", first[5] == second[5] == "a"
    yield "tracer: self time is duration minus children", \
        self_ns[parent[0]] == (parent[3] - parent[2]) - (first[3] - first[2]) - (second[3] - second[2])
    yield "tracer: per-round totals", \
        tracer.median_seconds("code.build") == (second[3] - second[2]) / 1e9


def replay_cases(tmpdir: Path):
    inc = geometry.grid(2)
    lines = workloads.relabelled_lines(inc, list(range(inc.num_points)))
    path = tmpdir / "replay.txt"
    path.write_text(workloads.incidence_text(inc.num_points, lines, "replay"), encoding="utf-8")
    tracer = spans.Tracer()
    run = SimpleNamespace(tracer=tracer, scratch=tmpdir)
    modules = (cli.geometry, cli.code_mod, cli.repair, cli.bounds)
    with tracer.round("pass"):
        built, profile, text, _ = workloads.replay_analyze(run, path, "exhaustive", "replay")
    names = {span[1] for span in tracer.spans}
    want = {"cli.analyze", "geometry.load", "geometry.validate", "code.build",
            "repair.profile_exhaustive", "cli.bounds"}
    yield "replay: a span around each public call", names == want
    yield "replay: cli modules restored", \
        (cli.geometry, cli.code_mod, cli.repair, cli.bounds) == modules
    yield "replay: output is the profile's", \
        json.loads(text)["metrics"] == profile.to_json_dict() and built.n == inc.num_points
    yield "replay: emit time recorded", tracer.median_count("cli.emit_s") > 0


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as tmp:
        for label, ok in itertools.chain(tracer_cases(), replay_cases(Path(tmp)),
                                         cases(Path(tmp))):
            print(f"{'ok  ' if ok else 'FAIL'} {label}")
            bad += not ok
    print(json.dumps({"selfcheck_failures": bad}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
