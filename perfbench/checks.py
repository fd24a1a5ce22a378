"""Output checks and the benchmark's own reference computations.

Every check raises ``CheckFailed`` with a message; the harness counts the
operation as failed and keeps going.  The references here share no code
with pgblrc: the availability oracle works on a numpy incidence matrix,
and the degraded-read check scans the geometry's lines itself.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter

import numpy as np

# Fields of an ``analyze`` payload that relabelling points cannot change.
ANALYZE_FIELDS = {
    "s": ("geometry", "s"),
    "t": ("geometry", "t"),
    "alpha": ("geometry", "alpha"),
    "n": ("code", "n"),
    "k": ("code", "k"),
    "r": ("metrics", "r"),
    "a": ("metrics", "a"),
    "delta": ("metrics", "delta"),
    "balanced": ("metrics", "balanced"),
    "rank_within_bounds": ("conformance", "rank_within_bounds"),
}


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ----------------------------------------------------------------------
# analyze

def invariant_fields(payload: dict) -> dict:
    """The relabelling-invariant fields of an ``analyze`` JSON payload."""
    try:
        return {key: payload[sec][name] for key, (sec, name) in ANALYZE_FIELDS.items()}
    except (KeyError, TypeError) as exc:
        raise CheckFailed(f"analyze payload lacks field {exc}") from None


def multiset(values) -> list[list[int]]:
    """``[value, count]`` pairs of ``values``, sorted by value."""
    return [[value, count] for value, count in sorted(Counter(values).items())]


def check_analyze(text: str, expected: dict, mode: str, lines) -> dict:
    """Parse one ``analyze --format json`` output and compare it with the
    reference ``expected``; ``lines`` are the lines of the analyzed file."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"analyze output is not JSON: {exc}") from None
    require(payload.get("schema_version") == 1, "schema_version is not 1")
    got = invariant_fields(payload)
    want = {key: expected[key] for key in ANALYZE_FIELDS}
    require(got == want, f"analyze fields {got} differ from reference {want}")
    metrics = payload["metrics"]
    require(metrics.get("mode") == mode, f"mode {metrics.get('mode')!r} is not {mode!r}")
    per_symbol = metrics.get("per_symbol", {})
    for key in ("r", "a", "delta"):
        values = per_symbol.get(key, ())
        require(len(values) == want["n"], f"per_symbol.{key} does not have n = {want['n']} entries")
        require(multiset(values) == expected["per_symbol"][key],
                f"per_symbol.{key} values differ from reference")
    check_repair_sets(metrics.get("repair_sets", ()), per_symbol["a"], want["r"], mode, lines,
                      want["n"])
    return payload


def check_repair_sets(repair_sets, per_symbol_a, r: int, mode: str, lines, n: int) -> None:
    """Each symbol has a distinct repair sets of r helpers, and each set
    plus the symbol is the support of a dual codeword: a line of the
    geometry in geometric mode, any vector of the lines' span over GF(2)
    in exhaustive mode."""
    require(len(repair_sets) == n, f"repair_sets does not have n = {n} entries")
    if mode == "geometric":
        line_set = {frozenset(line) for line in lines}
        is_dual = line_set.__contains__
    else:
        span = RowSpace(sum(1 << p for p in line) for line in lines)
        is_dual = lambda support: span.contains(sum(1 << p for p in support))  # noqa: E731
    for i, (sets, a_i) in enumerate(zip(repair_sets, per_symbol_a)):
        require(len(sets) == a_i, f"symbol {i}: {len(sets)} repair sets, per_symbol.a is {a_i}")
        seen = set()
        for helpers in sets:
            support = frozenset(helpers) | {i}
            require(len(helpers) == r and len(support) == r + 1,
                    f"symbol {i}: repair set {helpers} does not have r = {r} other helpers")
            require(support not in seen, f"symbol {i}: repair set {helpers} listed twice")
            seen.add(support)
            require(is_dual(support),
                    f"symbol {i}: repair set {helpers} plus {i} is not a dual codeword")


class RowSpace:
    """The span over GF(2) of some rows, given as int bit masks."""

    def __init__(self, rows) -> None:
        self._basis: dict[int, int] = {}  # leading bit -> basis row
        for row in rows:
            row = self._reduce(row)
            if row:
                self._basis[row.bit_length() - 1] = row

    def _reduce(self, v: int) -> int:
        while v:
            row = self._basis.get(v.bit_length() - 1)
            if row is None:
                return v
            v ^= row
        return 0

    def contains(self, v: int) -> bool:
        return self._reduce(v) == 0


# ----------------------------------------------------------------------
# availability simulation

def incidence_array(lines, num_points: int) -> np.ndarray:
    """Line-by-point 0/1 matrix as int32."""
    mat = np.zeros((len(lines), num_points), dtype=np.int32)
    for row, line in enumerate(lines):
        mat[row, list(line)] = 1
    return mat


def iid_masks(seed: int, trials: int, n: int, p: float) -> np.ndarray:
    """Unavailability masks drawn as the documented simulator draws them:
    one counter-based Philox stream per (seed, trial)."""
    out = np.empty((trials, n), dtype=bool)
    for trial in range(trials):
        gen = np.random.Generator(
            np.random.Philox(key=seed & ((1 << 128) - 1), counter=trial << 192))
        out[trial] = gen.random(n) < p
    return out


def pair_masks(n: int) -> np.ndarray:
    """Every unavailable set of exactly two nodes, in combinations order."""
    pairs = list(itertools.combinations(range(n), 2))
    out = np.zeros((len(pairs), n), dtype=bool)
    idx = np.array(pairs)
    rows = np.arange(len(pairs))
    out[rows, idx[:, 0]] = True
    out[rows, idx[:, 1]] = True
    return out


def availability_counts(incidence: np.ndarray, lines_through, masks: np.ndarray):
    """Per-symbol success counts and all-symbols-ok cases, by brute force.

    Symbol i is repairable in a case when some line through i has no
    unavailable point other than i itself.
    """
    blocked = masks.astype(np.int32) @ incidence.T  # cases x lines
    cases, n = masks.shape
    succ = np.zeros(n, dtype=np.int64)
    all_ok = np.ones(cases, dtype=bool)
    for i in range(n):
        through = list(lines_through[i])
        ok = ((blocked[:, through] - masks[:, i:i + 1]) == 0).any(axis=1)
        succ[i] = int(ok.sum())
        all_ok &= ok
    return succ, int(all_ok.sum())


def check_report(report, *, model: str, parameter, seed: int, coverage: str,
                 succ: np.ndarray, all_ok: int, helpers_per_line: int) -> None:
    """Compare an AvailabilityReport with brute-force counts, exactly."""
    cases = int(report.cases)
    n = len(succ)
    require(report.model == model, f"model {report.model!r} is not {model!r}")
    require(report.parameter == parameter, f"parameter {report.parameter} is not {parameter}")
    require(report.seed == seed, f"seed {report.seed} is not {seed}")
    require(report.coverage == coverage, f"coverage {report.coverage!r} is not {coverage!r}")
    require(len(report.per_symbol_success) == n, "per_symbol_success has the wrong length")
    # every success reads the s other points of one line
    for i in range(n):
        want = int(succ[i]) / cases
        require(report.per_symbol_success[i] == want,
                f"symbol {i}: success {report.per_symbol_success[i]} != {want}")
        got_r = report.per_symbol_mean_retrieved[i]
        if succ[i]:
            require(got_r == helpers_per_line,
                    f"symbol {i}: mean retrieved {got_r} != {helpers_per_line}")
        else:
            require(math.isnan(got_r), f"symbol {i}: mean retrieved {got_r} is not nan")
    total = int(succ.sum())
    require(report.overall_success == total / (cases * n), "overall_success differs")
    require(report.all_symbols_success == all_ok / cases, "all_symbols_success differs")
    if total:
        require(report.mean_retrieved == helpers_per_line, "mean_retrieved differs")
    else:
        require(math.isnan(report.mean_retrieved), "mean_retrieved is not nan")


# ----------------------------------------------------------------------
# degraded read

def first_open_line(lines, lines_through, i: int, blocked: set[int]):
    """(line index, lines scanned) of the first line through i, by index,
    whose other points are all readable; (None, t+1) when all are blocked.
    Every line of a partial geometry has the same weight, so index order
    is the program's documented (weight, index) order."""
    through = lines_through[i]
    for pos, ln in enumerate(through):
        if not any(p != i and p in blocked for p in lines[ln]):
            return ln, pos + 1
    return None, len(through)


def check_word(word: np.ndarray, message: np.ndarray, info_set: np.ndarray,
               incidence: np.ndarray) -> None:
    require(word.shape == (incidence.shape[1],), f"codeword has shape {word.shape}")
    require(bool(np.array_equal(word[info_set], message)),
            "message bits do not reappear on the information set")
    syndrome = (incidence @ word.astype(np.int32)) & 1
    if syndrome.any():
        raise CheckFailed(f"line check {int(np.flatnonzero(syndrome)[0])} fails")
