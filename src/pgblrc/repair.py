"""Repair metrics and repair execution for geometry-backed binary codes.

Three per-symbol quantities drive everything here:

- repair degree r(i): the fewest other symbols that recover symbol i
  through a single parity check;
- alternativity a(i): how many distinct parity checks of weight at most
  r+1 cover symbol i;
- tolerance delta(i): the size of a smallest set of other coordinates
  whose loss blocks every one of those checks.

``geometric`` mode reads the metrics straight off the geometry's lines
(the designed values).  ``exhaustive`` mode takes one census of every
dual codeword of weight at most r+1 (``_dual_census``): each support is
split into its lower and upper halves, the lower halves are tabulated by
the XOR of their generator columns and the upper halves are joined
against the table, a meet in the middle as in Stern's low-weight
codeword search.  Its numbers are therefore exact.  A work guard,
counted in half-supports (the subsets of about half the maximum weight
that the census enumerates or tabulates), bounds the search before it
starts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .code import BlrcCode
from .errors import GuardExceededError, NotLocallyRepairableError

__all__ = [
    "AVAILABILITY_MODELS",
    "DEFAULT_SEARCH_GUARD",
    "AvailabilityReport",
    "RepairOutcome",
    "RepairProfile",
    "RepairVector",
    "alternativity",
    "blocking_set",
    "line_repair_sets",
    "minimum_hitting_set",
    "omega_r",
    "repair_degree",
    "repair_profile",
    "repair_symbol",
    "simulate_availability",
    "tolerance",
]

DEFAULT_SEARCH_GUARD = 100_000_000

_MODES = ("geometric", "exhaustive")

AVAILABILITY_MODELS = ("iid", "adversarial")


@dataclass(frozen=True)
class RepairVector:
    """A parity check usable to repair any one coordinate in its support."""

    support: tuple[int, ...]
    line: int | None = None  # incidence row index when the check is a line

    @property
    def weight(self) -> int:
        return len(self.support)

    def helpers(self, i: int) -> tuple[int, ...]:
        """Coordinates read when repairing i with this check."""
        return tuple(c for c in self.support if c != i)


def _check_coord(code: BlrcCode, i: int) -> None:
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range for length {code.n}")


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {_MODES}")


def line_repair_sets(code: BlrcCode, i: int) -> list[RepairVector]:
    """The t+1 line checks through coordinate i, in line index order.

    Distinct lines through a point meet only at that point, so the helper
    sets of these vectors are pairwise disjoint.
    """
    _check_coord(code, i)
    geo = code.geometry
    return [RepairVector(geo.lines[ln], line=ln) for ln in geo.lines_through[i]]


def _census_work(n: int, max_weight: int) -> int:
    """Half-supports the census touches: per weight w, the ceil(w/2)-subsets
    it enumerates plus the floor(w/2)-subsets it tabulates."""
    return sum(math.comb(n, (w + 1) // 2) + math.comb(n, w // 2)
               for w in range(1, max_weight + 1))


def _xor_cols(cols: Sequence[int], coords: tuple[int, ...]) -> int:
    acc = 0
    for j in coords:
        acc ^= cols[j]
    return acc


def _dual_census(code: BlrcCode, max_weight: int,
                 guard: int) -> list[tuple[int, ...]]:
    """Every dual-codeword support of weight at most max_weight, in
    (weight, colex) order.

    A support is a dual codeword exactly when the generator columns on it
    XOR to zero.  A support of weight w splits one way into its floor(w/2)
    lowest coordinates A and its ceil(w/2) highest B, and the two halves
    XOR to the same value.  So the small halves are tabulated by XOR, the
    large ones enumerated and joined against the table, and a pair kept
    only when max(A) < min(B); each support is then found exactly once.
    The work, counted in half-supports, is checked against ``guard``
    before anything is enumerated; it also bounds the table's size.
    """
    n = code.n
    work = _census_work(n, max_weight)
    if work > guard:
        raise GuardExceededError(
            f"the census of dual codewords of weight <= {max_weight} on "
            f"n = {n} symbols needs {work} half-supports, over the search "
            f"guard of {guard}; use geometric mode or raise the guard"
        )
    cols = code.gen_cols
    found = []
    for w in range(1, max_weight + 1):
        table: dict[int, list[tuple[int, ...]]] = {}
        for low in itertools.combinations(range(n), w // 2):
            table.setdefault(_xor_cols(cols, low), []).append(low)
        for high in itertools.combinations(range(n), w - w // 2):
            for low in table.get(_xor_cols(cols, high), ()):
                if not low or low[-1] < high[0]:
                    found.append(low + high)
    found.sort(key=lambda support: (len(support), support[::-1]))
    return found


def _tag_lines(code: BlrcCode, i: int,
               supports: Iterable[tuple[int, ...]]) -> list[RepairVector]:
    """Repair vectors for i, carrying the line index where a support is a
    line through i."""
    geo = code.geometry
    line_lookup = {geo.lines[ln]: ln for ln in geo.lines_through[i]}
    return [RepairVector(s, line=line_lookup.get(s)) for s in supports]


def _no_repair_vector() -> RuntimeError:
    return RuntimeError(
        "no repair vector found up to weight s+1; "
        "the code is inconsistent with its geometry"
    )


def omega_r(code: BlrcCode, i: int, r: int,
            guard: int = DEFAULT_SEARCH_GUARD) -> list[RepairVector]:
    """Every dual codeword covering i with weight at most r+1.

    The supports are the census entries (see ``_dual_census``) that
    contain i, so they come in weight order, colexicographic within a
    weight.  Checks that coincide with geometry lines carry their line
    index.  ``guard`` bounds the census work in half-supports:
    the sum over w <= r+1 of C(n, ceil(w/2)) + C(n, floor(w/2)).
    """
    _check_coord(code, i)
    if r < 0:
        raise ValueError("repair degree bound must be non-negative")
    return _tag_lines(code, i, (s for s in _dual_census(code, r + 1, guard) if i in s))


def repair_degree(code: BlrcCode, i: int, mode: str = "exhaustive",
                  guard: int = DEFAULT_SEARCH_GUARD) -> int:
    """Fewest symbols that repair coordinate i through one parity check.

    Exhaustive mode reads it off the lightest census support containing i,
    searching up to weight s+1 under the same half-support guard as
    ``omega_r``.
    """
    _check_coord(code, i)
    _check_mode(mode)
    s = code.pg.s
    if mode == "geometric":
        # every line through i repairs it from its other s points
        return s
    for support in _dual_census(code, s + 1, guard):
        if i in support:
            return len(support) - 1
    raise _no_repair_vector()


def _repair_vectors(code: BlrcCode, i: int, r: int, mode: str,
                    guard: int) -> list[RepairVector]:
    if mode == "geometric":
        return [v for v in line_repair_sets(code, i) if v.weight <= r + 1]
    return omega_r(code, i, r, guard)


def alternativity(code: BlrcCode, i: int, r: int, mode: str = "exhaustive",
                  guard: int = DEFAULT_SEARCH_GUARD) -> int:
    """Number of repair alternatives of weight at most r+1 for coordinate i."""
    _check_coord(code, i)
    _check_mode(mode)
    return len(_repair_vectors(code, i, r, mode, guard))


def minimum_hitting_set(sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Exact minimum hitting set by branch and bound with a greedy warm start.

    Deterministic: ties break toward smaller elements, so equal inputs
    give equal witnesses.  Raises ValueError if some set is empty.
    """
    family = [frozenset(s) for s in sets]
    if any(not s for s in family):
        raise ValueError("an empty set cannot be hit")
    if not family:
        return frozenset()

    remaining = list(family)
    greedy: set[int] = set()
    while remaining:
        counts: dict[int, int] = {}
        for s in remaining:
            for e in s:
                counts[e] = counts.get(e, 0) + 1
        pick = max(sorted(counts), key=counts.get)
        greedy.add(pick)
        remaining = [s for s in remaining if pick not in s]
    best = frozenset(greedy)

    def lower_bound(sets_left: list[frozenset[int]]) -> int:
        # pairwise disjoint sets each need their own hitter
        used: set[int] = set()
        count = 0
        for s in sets_left:
            if not (s & used):
                used |= s
                count += 1
        return count

    def descend(chosen: set[int], sets_left: list[frozenset[int]]) -> None:
        nonlocal best
        if not sets_left:
            if len(chosen) < len(best):
                best = frozenset(chosen)
            return
        if len(chosen) + lower_bound(sets_left) >= len(best):
            return
        target = min(sets_left, key=lambda s: (len(s), sorted(s)))
        for e in sorted(target):
            chosen.add(e)
            descend(chosen, [s for s in sets_left if e not in s])
            chosen.discard(e)

    descend(set(), family)
    return best


def blocking_set(code: BlrcCode, i: int, r: int, mode: str = "exhaustive",
                 guard: int = DEFAULT_SEARCH_GUARD) -> frozenset[int]:
    """A smallest set of other coordinates that blocks every repair of i."""
    _check_coord(code, i)
    _check_mode(mode)
    vectors = _repair_vectors(code, i, r, mode, guard)
    return minimum_hitting_set([frozenset(v.helpers(i)) for v in vectors])


def tolerance(code: BlrcCode, i: int, r: int, mode: str = "exhaustive",
              guard: int = DEFAULT_SEARCH_GUARD) -> int:
    """Size of the smallest blocking set for coordinate i.

    Any unavailability pattern of fewer than this many other nodes leaves
    at least one repair alternative intact; a pattern of exactly this
    size that blocks them all exists (see ``blocking_set``).
    """
    return len(blocking_set(code, i, r, mode, guard))


@dataclass(frozen=True)
class RepairProfile:
    """Per-symbol and overall repair metrics of a code."""

    mode: str
    n: int
    r: int
    a: int
    delta: int
    balanced: bool
    per_symbol_r: tuple[int, ...]
    per_symbol_a: tuple[int, ...]
    per_symbol_delta: tuple[int, ...]
    repair_sets: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def safe_unavailability(self) -> int:
        """Largest unavailable-node count with guaranteed local repair.

        One less than delta: some blocking pattern of exactly delta other
        nodes defeats every alternative for the weakest symbol.
        """
        return self.delta - 1

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mode": self.mode,
            "n": self.n,
            "r": self.r,
            "a": self.a,
            "delta": self.delta,
            "safe_unavailability": self.safe_unavailability,
            "balanced": self.balanced,
            "per_symbol": {
                "r": list(self.per_symbol_r),
                "a": list(self.per_symbol_a),
                "delta": list(self.per_symbol_delta),
            },
            "repair_sets": [
                [list(helpers) for helpers in sets] for sets in self.repair_sets
            ],
        }


def repair_profile(code: BlrcCode, mode: str = "exhaustive",
                   r: int | None = None,
                   guard: int = DEFAULT_SEARCH_GUARD) -> RepairProfile:
    """Compute every repair metric in one pass.

    The alternativity and tolerance columns use the overall repair degree
    (max over symbols) unless an explicit r is given.  Exhaustive mode
    takes one census up to weight max(s, r)+1 and files each support
    under every symbol it covers; ``guard`` bounds that census as in
    ``omega_r``.
    """
    _check_mode(mode)
    n = code.n
    if mode == "geometric":
        per_r = tuple(repair_degree(code, i, mode, guard) for i in range(n))
        overall_r = max(per_r) if r is None else r
        per_vectors = [_repair_vectors(code, i, overall_r, mode, guard)
                       for i in range(n)]
        per_a = tuple(len(vecs) for vecs in per_vectors)
        # the line helper sets through a point are pairwise disjoint and
        # nonempty, so each needs its own hitter
        per_delta = per_a
    else:
        if r is not None and r < 0:
            raise ValueError("repair degree bound must be non-negative")
        s = code.pg.s
        buckets: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        for support in _dual_census(code, (s if r is None else max(s, r)) + 1, guard):
            for i in support:
                buckets[i].append(support)
        if any(not b or len(b[0]) > s + 1 for b in buckets):
            raise _no_repair_vector()
        per_r = tuple(len(b[0]) - 1 for b in buckets)
        overall_r = max(per_r) if r is None else r
        per_vectors = [
            _tag_lines(code, i, (sup for sup in b if len(sup) <= overall_r + 1))
            for i, b in enumerate(buckets)
        ]
        per_a = tuple(len(vecs) for vecs in per_vectors)
        per_delta = tuple(
            len(minimum_hitting_set([frozenset(v.helpers(i)) for v in vecs]))
            for i, vecs in enumerate(per_vectors)
        )
    repair_sets = tuple(
        tuple(v.helpers(i) for v in vecs) for i, vecs in enumerate(per_vectors)
    )
    return RepairProfile(
        mode=mode,
        n=n,
        r=overall_r,
        a=min(per_a),
        delta=min(per_delta),
        balanced=len(set(per_delta)) == 1,
        per_symbol_r=per_r,
        per_symbol_a=per_a,
        per_symbol_delta=per_delta,
        repair_sets=repair_sets,
    )


# ----------------------------------------------------------------------
# repair execution

@dataclass(frozen=True)
class RepairOutcome:
    """Result of one local repair: the bit, the check used, symbols read."""

    value: int
    vector: RepairVector
    retrieved: int


def repair_symbol(code: BlrcCode, received: Sequence[int | None], i: int,
                  unavailable: Iterable[int] = (),
                  vectors: Sequence[RepairVector] | None = None) -> RepairOutcome:
    """Repair coordinate i from the surviving symbols.

    ``received`` holds the codeword with None at erased positions; nodes
    listed in ``unavailable`` cannot be read even if a value is present.
    Candidate checks default to the line alternatives; pass ``vectors``
    (for example from ``omega_r``) to widen the search.  The executor
    prefers the least-weight surviving check, ties broken by lowest line
    index.
    """
    _check_coord(code, i)
    if len(received) != code.n:
        raise ValueError(f"received word must have length {code.n}")
    unavailable = set(unavailable)
    erased = {j for j, v in enumerate(received) if v is None}
    if i not in erased and i not in unavailable:
        raise ValueError(f"symbol {i} is present and available; nothing to repair")
    blocked = (unavailable | erased) - {i}
    candidates = list(vectors) if vectors is not None else line_repair_sets(code, i)
    candidates = [v for v in candidates if i in v.support]
    candidates.sort(
        key=lambda v: (v.weight, v.line if v.line is not None else math.inf, v.support)
    )
    for v in candidates:
        helpers = v.helpers(i)
        if blocked.intersection(helpers):
            continue
        value = 0
        for j in helpers:
            value ^= int(received[j])
        return RepairOutcome(value=value, vector=v, retrieved=len(helpers))
    raise NotLocallyRepairableError("not locally repairable under this availability")


# ----------------------------------------------------------------------
# availability simulation

@dataclass(frozen=True)
class AvailabilityReport:
    """Local-repair success statistics under an unavailability model."""

    model: str
    parameter: float
    seed: int
    cases: int
    coverage: str  # "exhaustive" or "sampled"
    per_symbol_success: tuple[float, ...]
    per_symbol_mean_retrieved: tuple[float, ...]
    overall_success: float
    all_symbols_success: float
    mean_retrieved: float

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "model": self.model,
            "parameter": self.parameter,
            "seed": self.seed,
            "cases": self.cases,
            "coverage": self.coverage,
            "per_symbol_success": list(self.per_symbol_success),
            "per_symbol_mean_retrieved": list(self.per_symbol_mean_retrieved),
            "overall_success": self.overall_success,
            "all_symbols_success": self.all_symbols_success,
            "mean_retrieved": self.mean_retrieved,
        }

    def to_csv(self) -> str:
        out = ["symbol,success_rate,mean_retrieved"]
        for i, (rate_i, retr_i) in enumerate(
            zip(self.per_symbol_success, self.per_symbol_mean_retrieved)
        ):
            out.append(f"{i},{rate_i:.6f},{retr_i:.6f}")
        out.append(f"overall,{self.overall_success:.6f},{self.mean_retrieved:.6f}")
        return "\n".join(out) + "\n"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # counter-based: trial index keyed into the counter block, so draws
    # are independent of evaluation order and splittable across trials
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 192))


def simulate_availability(code: BlrcCode, model: str = "iid", p: float = 0.0,
                          u: int = 0, trials: int = 1000, seed: int = 0,
                          exhaustive_limit: int = 100_000) -> AvailabilityReport:
    """Estimate per-symbol local-repair success against node unavailability.

    model="iid": each node is unavailable independently with probability p,
    sampled per trial from a counter-based generator keyed by (seed, trial),
    so reruns with the same seed are identical byte for byte.

    model="adversarial": every unavailable set of exactly u nodes is tried
    when there are at most ``exhaustive_limit`` of them, otherwise
    ``trials`` sets are sampled.  Repairing a symbol uses its line
    alternatives; the symbol under repair does not count against its own
    availability.
    """
    if model not in AVAILABILITY_MODELS:
        raise ValueError(f"unknown model {model!r}; choose 'iid' or 'adversarial'")
    if not 0 <= seed < 1 << 128:
        # the Philox key is 128 bits wide: a larger seed would alias a smaller one
        raise ValueError("seed must lie in [0, 2**128)")
    n = code.n
    candidates = []
    for i in range(n):
        vecs = sorted(line_repair_sets(code, i), key=lambda v: (v.weight, v.line))
        candidates.append([(frozenset(v.helpers(i)), v.weight - 1) for v in vecs])

    succ = [0] * n
    retrieved = [0] * n
    cases = 0
    all_ok_cases = 0

    def eval_case(unavail: set[int]) -> None:
        nonlocal cases, all_ok_cases
        cases += 1
        all_ok = True
        for i in range(n):
            blocked = unavail - {i}
            for helpers, cost in candidates[i]:
                if not (helpers & blocked):
                    succ[i] += 1
                    retrieved[i] += cost
                    break
            else:
                all_ok = False
        if all_ok:
            all_ok_cases += 1

    if model == "iid":
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if trials < 1:
            raise ValueError("trials must be positive")
        for trial in range(trials):
            mask = _trial_rng(seed, trial).random(n) < p
            eval_case({j for j in range(n) if mask[j]})
        coverage = "sampled"
        parameter: float = p
    else:
        if not 0 <= u <= n:
            raise ValueError(f"u must lie in [0, {n}]")
        total = math.comb(n, u)
        if total <= exhaustive_limit:
            for combo in itertools.combinations(range(n), u):
                eval_case(set(combo))
            coverage = "exhaustive"
        else:
            if trials < 1:
                raise ValueError("trials must be positive")
            for trial in range(trials):
                combo = _trial_rng(seed, trial).choice(n, size=u, replace=False)
                eval_case({int(x) for x in combo})
            coverage = "sampled"
        parameter = u

    per_success = tuple(succ[i] / cases for i in range(n))
    per_retrieved = tuple(
        retrieved[i] / succ[i] if succ[i] else float("nan") for i in range(n)
    )
    total_succ = sum(succ)
    return AvailabilityReport(
        model=model,
        parameter=parameter,
        seed=seed,
        cases=cases,
        coverage=coverage,
        per_symbol_success=per_success,
        per_symbol_mean_retrieved=per_retrieved,
        overall_success=total_succ / (cases * n),
        all_symbols_success=all_ok_cases / cases,
        mean_retrieved=(sum(retrieved) / total_succ) if total_succ else float("nan"),
    )
