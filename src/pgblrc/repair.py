"""Repair metrics and repair execution for geometry-backed binary codes.

Three per-symbol quantities drive everything here; ``repair_profile``
returns them as ``per_symbol_r``, ``per_symbol_a`` and
``per_symbol_delta``:

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
starts.  Either way the checks are filed in one per-symbol table
(``_checks``), Omega_r(i), which ``repair_profile``, ``omega_r`` and
``blocking_set`` all read.

``repair_symbol`` and ``simulate_availability`` apply one repair rule:
the least-weight check whose helpers are all available, ties to the
lowest line index.  ``_line_table`` lists every symbol's line checks in
that order, once per code, and the executor, the geometric profile and
the simulator all read it; where every line has one weight, that order is
line order and the geometric profile reads its sets off the lines as one
array (``_line_sets``).  A read tests each check's support against
the unavailable symbols other than the one it repairs; the simulator
counts chunks of cases, 64 to a ``uint64`` word, held as one row of
cases per symbol (``_availability_counts``), on arrays that
``_line_arrays`` reads off the table when it first needs them.  So the
simulator estimates the success of the executor itself.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import _bit_bytes, _bit_transpose
from .code import BlrcCode, _check_coord
from .errors import (DegenerateCodeError, GuardExceededError,
                     NotLocallyRepairableError, ParameterError, _as_index)

__all__ = [
    "AVAILABILITY_MODELS",
    "DEFAULT_SEARCH_GUARD",
    "AvailabilityReport",
    "RepairOutcome",
    "RepairProfile",
    "RepairVector",
    "blocking_set",
    "line_repair_sets",
    "minimum_hitting_set",
    "omega_r",
    "repair_profile",
    "repair_symbol",
    "simulate_availability",
]

DEFAULT_SEARCH_GUARD = 100_000_000

_MODES = ("geometric", "exhaustive")

AVAILABILITY_MODELS = ("iid", "adversarial")

# the adversarial model tries every u-set up to this many, else samples
_EXHAUSTIVE_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class RepairVector:
    """A parity check usable to repair any one coordinate in its support."""

    support: tuple[int, ...]
    line: int | None = None  # incidence row index when the check is a line

    @property
    def weight(self) -> int:
        return len(self.support)

    def helpers(self, i: int) -> tuple[int, ...]:
        """Coordinates read when repairing i with this check: the support
        without i, or the whole support when i is not in it."""
        support = self.support
        try:
            j = support.index(i)
        except ValueError:
            return support
        return support[:j] + support[j + 1:]


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise ParameterError(f"unknown mode {mode!r}; choose from {_MODES}")


def _check_degree_bound(r: int) -> None:
    if _as_index(r, "r") < 0:
        raise ParameterError("repair degree bound must be non-negative")


def _repair_key(v: RepairVector) -> tuple:
    """The one repair order: weight, then line index (lines first), then support."""
    return (v.weight, v.line if v.line is not None else math.inf, v.support)


def _file(n: int, vectors: Iterable[RepairVector]) -> list[list[RepairVector]]:
    """One list per symbol of the vectors on it, each in the given order."""
    rows: list[list[RepairVector]] = [[] for _ in range(n)]
    file_under = [row.append for row in rows]
    for vector in vectors:
        for i in vector.support:
            file_under[i](vector)
    return rows


def _line_table(code: BlrcCode) -> tuple[tuple[RepairVector, ...], ...]:
    """Every symbol's line checks in repair order, one row per symbol: one
    vector per line, sorted once by ``_repair_key`` and filed under each
    of its points (``_file``); the code keeps it."""
    vectors = sorted((RepairVector(line, line=ln)
                      for ln, line in enumerate(code.geometry.lines)), key=_repair_key)
    return tuple(map(tuple, _file(code.n, vectors)))


def _line_arrays(code: BlrcCode) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The simulator's (points, order, helpers) arrays, read off the rows
    of the line table; the code keeps them.

    Row k of ``points`` holds every line's k-th point, padded with the
    point n, which is never unavailable, and row j of ``order`` every
    symbol's j-th line in repair order, padded with the line num_lines,
    whose twice word is all ones; ``helpers`` counts what each reads.
    """
    n, lines = code.n, code.geometry.lines
    ids = itertools.zip_longest(*([v.line for v in row] for row in code._line_table),
                                fillvalue=len(lines))
    order = np.array(list(ids), dtype=np.intp).reshape(-1, n)
    points = np.array(list(itertools.zip_longest(*lines, fillvalue=n)), np.intp)
    helpers = np.array([len(line) - 1 for line in lines] + [0], np.intp)[order]
    return points.reshape(-1, len(lines)), order, helpers


def line_repair_sets(code: BlrcCode, i: int) -> list[RepairVector]:
    """The t+1 line checks through coordinate i, in repair order: weight,
    then line index (``_line_table``'s row i).

    Distinct lines through a point meet only at that point, so the helper
    sets of these vectors are pairwise disjoint.
    """
    _check_coord(code, i)
    return list(code._line_table[i])


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
    No support is heavier than n, so max_weight is cut to n.  The work,
    counted in half-supports (per weight w, the ceil(w/2)-subsets it
    enumerates plus the floor(w/2)-subsets it tabulates), is summed
    against ``guard`` before anything is enumerated, until the sum passes
    it; it also bounds the table's size.  A negative guard is refused
    with ``ParameterError``.
    """
    n, guard = code.n, _as_index(guard, "guard")
    if guard < 0:
        raise ParameterError(f"guard must be non-negative, got {guard}")
    max_weight = min(max_weight, n)
    work = 0
    for w in range(1, max_weight + 1):
        work += math.comb(n, (w + 1) // 2) + math.comb(n, w // 2)
        if work > guard:
            raise GuardExceededError(
                f"the census of dual codewords of weight <= {max_weight} on "
                f"n = {n} symbols needs at least {work} half-supports, over the "
                f"search guard of {guard}; use geometric mode or raise the guard"
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


def _checks(code: BlrcCode, mode: str, max_weight: int,
            guard: int) -> list[Sequence[RepairVector]]:
    """Omega_r(i) for every symbol i, with max_weight = r+1: the checks of
    weight at most max_weight that cover i.

    Geometric mode takes the rows of the line table (see ``_line_table``),
    in repair order.  Exhaustive mode files the census (see
    ``_dual_census``), one vector per support shared by the symbols it
    covers, so each list keeps census order; a support that is a line
    carries its line index.
    """
    if mode == "geometric":
        # a row is in weight order, so its light enough checks are a prefix
        weight = operator.attrgetter("weight")
        return [row[:bisect.bisect_right(row, max_weight, key=weight)]
                for row in code._line_table]
    line_index = {line: ln for ln, line in enumerate(code.geometry.lines)}
    return _file(code.n, (RepairVector(support, line=line_index.get(support))
                          for support in _dual_census(code, max_weight, guard)))


def _helper_sets(i: int, checks: Iterable[RepairVector]) -> list[frozenset[int]]:
    """The helper sets of the checks covering i: the family a blocking set
    of i must hit.  An empty one means symbol i is zero in every codeword."""
    family = [frozenset(v.helpers(i)) for v in checks]
    if not all(family):
        raise DegenerateCodeError(f"symbol {i} is forced to zero in every codeword")
    return family


def omega_r(code: BlrcCode, i: int, r: int,
            guard: int = DEFAULT_SEARCH_GUARD) -> list[RepairVector]:
    """Every dual codeword covering i with weight at most r+1.

    The supports are the census entries (see ``_dual_census``) that
    contain i, so they come in weight order, colexicographic within a
    weight.  Checks that coincide with geometry lines carry their line
    index.  ``guard`` bounds the census work in half-supports:
    the sum over w <= min(r+1, n) of C(n, ceil(w/2)) + C(n, floor(w/2)).
    """
    _check_coord(code, i)
    _check_degree_bound(r)
    return _checks(code, "exhaustive", r + 1, guard)[i]


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
    """A smallest set of other coordinates that blocks every repair of i.

    Its size is the tolerance delta(i): any fewer unavailable nodes leave
    some repair alternative of weight at most r+1 intact.  A check of
    weight 1 on i (i is zero in every codeword) raises DegenerateCodeError.
    """
    _check_coord(code, i)
    _check_mode(mode)
    _check_degree_bound(r)
    return minimum_hitting_set(_helper_sets(i, _checks(code, mode, r + 1, guard)[i]))


def _line_sets(code: BlrcCode, max_weight: int) -> np.ndarray | None:
    """The geometric repair sets as one (n, a, w - 1) array, when every
    line has one weight w <= max_weight and every symbol lies on the same
    number a >= 1 of lines (every partial geometry at r >= s); else None.

    With one weight the line table's rows are in line-index order, as a
    stable sort of the lines' points gives them.  Entries are uint16
    while n <= 65536.
    """
    n, lines = code.n, code.geometry.lines
    if not lines:
        return None
    w = len(lines[0])
    if w > max_weight or any(len(line) != w for line in lines):
        return None
    points = np.fromiter(itertools.chain.from_iterable(lines),
                         np.uint16 if n <= 65536 else np.intp, len(lines) * w)
    counts = np.bincount(points, minlength=n)
    if counts.min() != counts.max():
        return None
    pencils = np.argsort(points, kind="stable").reshape(n, -1) // w
    sets = points.reshape(-1, w)[pencils]
    return sets[sets != np.arange(n, dtype=points.dtype)[:, None, None]].reshape(n, -1, w - 1)


def _set_tuples(sets: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """An (n, a, w - 1) array of repair sets as ``repair_sets``' tuples."""
    return tuple(tuple(map(tuple, rows)) for rows in sets.tolist())


@dataclass(frozen=True)
class RepairProfile:
    """Per-symbol and overall repair metrics of a code.

    ``repair_sets`` may be given as tuples or as one (n, a, w - 1) integer
    array, as geometric mode gives it where ``_line_sets`` applies.  The
    profile keeps such an array as ``_repair_array``, outside the fields,
    so equality, repr, ``asdict`` and ``replace`` see the tuples, which
    are built from it the first time ``repair_sets`` is read;
    ``_json_fields`` hands the array itself to the writer.
    """

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

    def __post_init__(self) -> None:
        if isinstance(self.repair_sets, np.ndarray):
            vars(self)["_repair_array"] = vars(self).pop("repair_sets")

    def __getattr__(self, name: str):
        # reached for a missing attribute only, so for repair_sets only
        # while they are held as an array
        if name != "repair_sets" or "_repair_array" not in vars(self):
            raise AttributeError(name)
        sets = vars(self)["repair_sets"] = _set_tuples(vars(self)["_repair_array"])
        return sets

    @property
    def safe_unavailability(self) -> int:
        """Largest unavailable-node count with guaranteed local repair.

        One less than delta: some blocking pattern of exactly delta other
        nodes defeats every alternative for the weakest symbol.
        """
        return self.delta - 1

    def _json_fields(self) -> dict:
        """The JSON fields in order, with the per-symbol columns as arrays,
        and the repair sets as the profile's array if it holds one, else
        its tuples; the CLI writes this directly."""
        sets = vars(self).get("_repair_array")
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
                "r": np.array(self.per_symbol_r),
                "a": np.array(self.per_symbol_a),
                "delta": np.array(self.per_symbol_delta),
            },
            "repair_sets": self.repair_sets if sets is None else sets,
        }

    def to_json_dict(self) -> dict:
        """``_json_fields`` with lists for arrays and tuples, as json reads it."""
        doc = self._json_fields()
        doc["per_symbol"] = {key: column.tolist() for key, column in doc["per_symbol"].items()}
        doc["repair_sets"] = [[list(helpers) for helpers in sets] for sets in self.repair_sets]
        return doc


def repair_profile(code: BlrcCode, mode: str = "exhaustive",
                   r: int | None = None,
                   guard: int = DEFAULT_SEARCH_GUARD) -> RepairProfile:
    """Compute every repair metric in one pass.

    ``per_symbol_r``, ``per_symbol_a`` and ``per_symbol_delta`` hold
    r(i), a(i) and delta(i) for every symbol i.  The alternativity and
    tolerance columns use the overall repair degree (max over symbols)
    unless an explicit r is given.  Exhaustive mode
    takes one census up to weight max(s, r)+1 and files each support
    under every symbol it covers; ``guard`` bounds that census as in
    ``omega_r``.  There a check of weight 1 (a symbol zero in every
    codeword) raises DegenerateCodeError, as in ``blocking_set``.
    """
    _check_mode(mode)
    if r is not None:
        _check_degree_bound(r)
    n = code.n
    s = code.pg.s
    if mode == "geometric":
        # every line through i repairs it from its other s points, and the
        # line helper sets through a point are pairwise disjoint and
        # nonempty, so each needs its own hitter
        per_r = (s,) * n
        overall_r = s if r is None else r
        repair_sets = _line_sets(code, overall_r + 1)
        if repair_sets is None:
            checks = _checks(code, mode, overall_r + 1, guard)
            per_a = tuple(map(len, checks))
        else:
            per_a = (repair_sets.shape[1],) * n
        per_delta = per_a
    else:
        repair_sets = None
        checks = _checks(code, mode, (s if r is None else max(s, r)) + 1, guard)
        if any(not c or c[0].weight > s + 1 for c in checks):
            raise RuntimeError("no repair vector found up to weight s+1; "
                               "the code is inconsistent with its geometry")
        per_r = tuple(c[0].weight - 1 for c in checks)
        overall_r = max(per_r) if r is None else r
        checks = [[v for v in c if v.weight <= overall_r + 1] for c in checks]
        per_a = tuple(map(len, checks))
        per_delta = tuple(len(minimum_hitting_set(_helper_sets(i, c)))
                          for i, c in enumerate(checks))
    if repair_sets is None:
        repair_sets = tuple(tuple(v.helpers(i) for v in c) for i, c in enumerate(checks))
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
# repair execution: one rule for the executor and the simulator

def _repair_order(code: BlrcCode, i: int, vectors: Iterable[RepairVector] | None = None
                  ) -> Sequence[RepairVector]:
    """The checks covering i in the order a repair tries them
    (``_repair_key``): by default its row of the line table, else the
    given vectors sorted.  Given vectors are checked here, before
    anything is read."""
    if vectors is None:
        return code._line_table[i]
    candidates = [v for v in vectors if i in v.support]
    for v in candidates:
        if (len(set(v.support)) != v.weight
                or not all(0 <= c < code.n for c in v.support)
                or _xor_cols(code.gen_cols, v.support)):
            raise ValueError(f"support {v.support} is not a dual codeword of this code")
    return sorted(candidates, key=_repair_key)


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
    takes the first check in ``_repair_order`` (least weight, then lowest
    line index) whose helpers are all available and present, the rule
    ``simulate_availability`` counts.  Symbol i never blocks its own
    repair, so with i left out of ``unavailable`` a check is tested with
    one disjointness test against its support, and only a check that
    passes has its helpers read; an erased (None) helper moves the read
    on to the next check.  So it reads only symbol i and the helpers of
    the checks it tries, and the helpers it XORs must be bits.
    A given vector covering i must be a dual codeword: distinct
    coordinates whose generator columns XOR to zero.  One that is not
    raises ValueError before any symbol is read.
    """
    _check_coord(code, i)
    if len(received) != code.n:
        raise ValueError(f"received word must have length {code.n}")
    order = _repair_order(code, i, vectors)
    unavailable = set(unavailable)
    if received[i] is not None and i not in unavailable:
        raise ValueError(f"symbol {i} is present and available; nothing to repair")
    unavailable.discard(i)
    for v in order:
        if unavailable.isdisjoint(v.support):
            values = [received[j] for j in v.support if j != i]
            if not any(x is None for x in values):
                break
    else:
        raise NotLocallyRepairableError("not locally repairable under this availability")
    bits = _bit_bytes(values)
    if isinstance(bits, int):
        raise ValueError(f"received entries must be bits, got {values[bits]!r} "
                         f"at coordinate {v.helpers(i)[bits]}")
    return RepairOutcome(value=bits.count(1) & 1, vector=v, retrieved=len(values))


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
        """Schema version 1: the fields in order, with lists for tuples."""
        doc = {"schema_version": 1}
        for field in fields(self):
            value = getattr(self, field.name)
            doc[field.name] = list(value) if isinstance(value, tuple) else value
        return doc

    def to_csv(self) -> str:
        out = ["symbol,success_rate,mean_retrieved"]
        for i, (rate_i, retr_i) in enumerate(
            zip(self.per_symbol_success, self.per_symbol_mean_retrieved)
        ):
            out.append(f"{i},{rate_i:.6f},{retr_i:.6f}")
        out.append(f"overall,{self.overall_success:.6f},{self.mean_retrieved:.6f}")
        return "\n".join(out) + "\n"


def _trial_rngs(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator, re-keyed for each trial in turn.

    Counter-based: the trial index sits in the top word of the Philox
    counter block, so trial j draws what ``Philox(key=seed, counter=j << 192)``
    draws, whatever the evaluation order.  Setting the state of one bit
    generator costs less than building a new one per trial.  Each yielded
    generator must be drawn from before the next one is taken.

    The state is kept as plain Python ints: numpy's setter reads each
    counter, key and buffer word by index, and a word read from a numpy
    array is a numpy scalar, which makes a re-key cost more than a small
    code's whole trial of draws.  Both forms set the same state.
    """
    bit_generator = np.random.Philox(key=seed)
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    state = fresh["state"]
    counter = state["counter"] = state["counter"].tolist()
    state["key"] = state["key"].tolist()
    fresh["buffer"] = fresh["buffer"].tolist()
    for trial in range(trials):
        counter[3] = trial
        bit_generator.state = fresh
        yield rng


# A chunk holds whole uint64 words of 64 cases, at least one, in at most
# 8 x this many bytes, 1.25 MB above that floor (see ``_chunk_size``).  An
# iid case takes 8 bytes a cell of cases x max(points, lines) draws: 256
# cases on hyperoval(8), 1984 on grid(8), 64 (2 MB) on hyperoval(16).  A
# set case takes a byte a symbol of bit rows, n + 1 of them, and 8 bytes
# a symbol of its index array, min(u, n - u) symbols when every u-set is
# tried: grid(8)'s 3240 pairs are one chunk of up to 13 312 cases, its
# triples come 12 352 a chunk, and hyperoval(16) takes 256 sets of one
# symbol, or of one symbol's complement at u = 4095, or 64 (0.8 MB)
# sampled sets of 1000.  The count of first open lines takes
# (t+1) x n x words bytes, 20 KB on hyperoval(8).
_CHUNK_CELLS = 5 << 15


def _chunk_size(code: BlrcCode, model: str, drawn: int) -> int:
    """Cases a chunk holds: whole uint64 words of them, at least one, in
    8 x ``_CHUNK_CELLS`` bytes.  A case takes 8 bytes a cell of iid
    draws, or a byte a symbol of its bit rows (n + 1) and 8 a symbol of
    its index array, ``drawn`` symbols long."""
    if model == "iid":
        per_case = 8 * max(code.n, code.geometry.num_lines)
    else:
        per_case = code.n + 1 + 8 * drawn
    return 64 * max(1, 8 * _CHUNK_CELLS // (64 * per_case))


def _availability_counts(code: BlrcCode, chunks: Iterable[tuple[np.ndarray, int]]
                         ) -> tuple[list[int], list[int], int, int]:
    """Count, over chunks of cases, the cases in which each symbol has an
    open line check and the symbols those repairs read.

    Each chunk is a pair of its symbol-major ``uint64`` bit rows and its
    case count, as ``_chunk_counts`` takes them, made from the draws or
    index arrays just before it is counted.  Returns (succ, retrieved,
    cases, all_ok_cases).
    """
    succ = np.zeros(code.n, dtype=np.int64)
    retrieved = np.zeros(code.n, dtype=np.int64)
    cases = all_ok_cases = 0
    for unavailable, size in chunks:
        chunk_succ, chunk_retrieved, all_ok = _chunk_counts(code, unavailable, size)
        succ += chunk_succ
        retrieved += chunk_retrieved
        cases += size
        all_ok_cases += all_ok
    return succ.tolist(), retrieved.tolist(), cases, all_ok_cases


def _chunk_counts(code: BlrcCode, unavailable: np.ndarray,
                  size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """One chunk's per-symbol repairs and symbols read, and its cases in
    which every symbol is repaired.

    ``unavailable`` holds ``size`` cases in symbol-major ``uint64`` rows:
    row j is symbol j's unavailability, case c at bit c, with at least
    n + 1 rows, row n (the padding point) zero, and the bits at and past
    ``size`` zero.  This is ``repair_symbol``'s rule on the arrays read
    off the code's line table (see ``_line_arrays``), 64 cases to a word.
    Two bit-sliced words per line count its unavailable points up to
    two, one point of every line at a time: ``twice |= once & x`` and
    then ``once |= x``.  Line l is open for i exactly where
    ``~twice & (~once | u_i)`` (i never blocks itself), and the first
    line open in a case where i is not yet repaired, in the row's order,
    sets the symbols read.  Each step of that order writes its first open
    lines' popcounts into one array, which is summed once for the
    repairs and once, weighted by each line's helpers, for the symbols
    read.
    """
    points, order, helpers = code._line_arrays
    n, num_lines = code.n, code.geometry.num_lines
    words = unavailable.shape[1]
    valid = np.packbits(np.arange(64 * words) < size, bitorder="little").view(np.uint64)
    once = np.zeros((num_lines + 1, words), dtype=np.uint64)
    twice = np.zeros_like(once)
    twice[-1] = ~np.uint64(0)
    for row in points:
        x = unavailable.take(row, axis=0)
        twice[:-1] |= once[:-1] & x
        once[:-1] |= x
    not_once, not_twice = ~once, ~twice
    # the unused bits of the last word start out repaired, so they
    # are never a first open line
    ok = np.tile(~valid, (n, 1))
    # word-major, so that the sum over words adds whole (t+1) x n planes;
    # a chunk can hold more than 65 535 cases, so the sum takes uint32
    first = np.empty((words, len(order), n), dtype=np.uint8)
    for j, lines in enumerate(order):
        open_j = ((not_once.take(lines, axis=0) | unavailable[:n])
                  & not_twice.take(lines, axis=0))
        np.bitwise_count(open_j & ~ok, out=first[:, j].T)
        ok |= open_j
    by_step = first.sum(axis=0, dtype=np.uint32)
    all_ok = int(np.bitwise_count(np.bitwise_and.reduce(ok, axis=0) & valid).sum())
    return (by_step.sum(axis=0, dtype=np.int64), np.einsum("jn,jn->n", by_step, helpers),
            all_ok)


def _iid_chunks(seed: int, trials: int, n: int, p: float,
                size: int) -> Iterator[np.ndarray]:
    """Each trial's n draws filled into its row of a chunk of ``size``
    trials, compared with p once per chunk: the unavailable symbols."""
    draws = np.empty((min(size, trials), n))
    rngs = _trial_rngs(seed, trials)
    for start in range(0, trials, size):
        rows = draws[:min(size, trials - start)]
        for row, rng in zip(rows, rngs):
            rng.random(out=row)
        yield rows < p


def _case_words(chunk: np.ndarray) -> tuple[np.ndarray, int]:
    """A cases x n mask of unavailable symbols as ``_chunk_counts``'s bit
    rows and case count: each case's row is packed to bytes, with a byte
    past symbol n - 1 so that the row of the padding point n is zero, and
    the packed chunk, in whole words of cases, is transposed
    (``algebra._bit_transpose``)."""
    size, n = chunk.shape
    packed = np.zeros((-(-size // 64) * 64, n // 8 + 1), dtype=np.uint8)
    packed[:size, :(n + 7) // 8] = np.packbits(chunk, axis=1, bitorder="little")
    return _bit_transpose(packed).view(np.uint64), size


def _subsets(n: int, u: int) -> np.ndarray:
    """Every u-subset of range(n) in ``itertools.combinations`` order, as
    one ``intp`` array of C(n, u) rows.

    The array grows a column at a time: each prefix is followed by every
    next index from one past its last to the last that leaves room for
    the rest, one ``repeat`` of the prefixes, each with its run's first
    index less the run's offset, and one ``arange`` down the rows.
    u = 0 is one empty set.
    """
    sets = np.empty((1, 0), dtype=np.intp)
    first = np.zeros(1, dtype=np.intp)
    for column in range(u):
        sizes = n - u + column + 1 - first
        heads = np.empty((len(sets), column + 1), dtype=np.intp)
        heads[:, :-1] = sets
        heads[:, -1] = first - sizes.cumsum() + sizes
        sets = heads.repeat(sizes, axis=0)
        sets[:, -1] += np.arange(len(sets))
        first = sets[:, -1] + 1
    return sets


def _sampled_sets(seed: int, trials: int, n: int, u: int,
                  size: int) -> Iterator[np.ndarray]:
    """Each trial's ``rng.choice(n, size=u, replace=False)`` written into
    its row of an ``intp`` index array of ``size`` trials."""
    rngs = _trial_rngs(seed, trials)
    for start in range(0, trials, size):
        sets = np.empty((min(size, trials - start), u), dtype=np.intp)
        for row, rng in zip(sets, rngs):
            row[:] = rng.choice(n, size=u, replace=False)
        yield sets


def _set_words(sets: np.ndarray, n: int, complement: bool) -> tuple[np.ndarray, int]:
    """A cases x u index array as ``_chunk_counts``'s bit rows and case
    count: one scatter into n + 1 bool rows of whole words of cases, each
    case in its own column, and one ``packbits`` along the case axis.
    With ``complement`` each row holds the symbols that stay available:
    rows 0..n-1 start unavailable in every case and the scatter clears
    them, while row n and the columns past the cases stay zero."""
    size = len(sets)
    rows = np.zeros((n + 1, -(-size // 64) * 64), dtype=bool)
    if complement:
        rows[:n, :size] = True
    rows[sets, np.arange(size)[:, None]] = not complement
    return np.packbits(rows, axis=1, bitorder="little").view(np.uint64), size


def simulate_availability(code: BlrcCode, model: str = "iid", p: float = 0.0,
                          u: int = 0, trials: int = 1000,
                          seed: int = 0) -> AvailabilityReport:
    """Estimate per-symbol local-repair success against node unavailability.

    model="iid": each node is unavailable independently with probability p,
    sampled per trial from a counter-based generator keyed by (seed, trial),
    so reruns with the same seed are identical byte for byte.

    model="adversarial": every unavailable set of exactly u nodes is tried
    when there are at most ``_EXHAUSTIVE_LIMIT`` (100 000) of them,
    otherwise ``trials`` sets are sampled.  A symbol counts as repaired when
    ``repair_symbol`` would repair it from its line checks: the first line
    in its row of the line table (see ``_line_table``) with every helper
    available (the symbol itself never blocks) sets the symbols read.
    The cases come in chunks of whole ``uint64`` words of them
    (``_chunk_size``).  Each trial's iid draws, or each sampled u-set as
    symbol indices (``_sampled_sets``), fill its row of a chunk; every
    u-set, when all are tried, is one row of one index array
    (``_subsets``, at most 6.65 MB, for 9-sets of 19 symbols) cut into
    chunks as row slices.  An iid chunk is packed and transposed into
    symbol-major bit rows (``_case_words``), and a set chunk scattered
    straight into them (``_set_words``); ``_availability_counts`` counts
    the rows.  When u > n - u, every
    u-set is tried as the complement of an (n - u)-set: the rows of
    symbols 0..n-1 are the (n - u)-set's rows inverted.
    """
    if model not in AVAILABILITY_MODELS:
        raise ParameterError(f"unknown model {model!r}; choose 'iid' or 'adversarial'")
    try:
        seed, u, trials = map(operator.index, (seed, u, trials))
    except TypeError:
        raise ParameterError("seed, u and trials must be integers") from None
    if not 0 <= seed < 1 << 128:
        # the Philox key is 128 bits wide: a larger seed would alias a smaller one
        raise ParameterError("seed must lie in [0, 2**128)")
    n = code.n
    if model == "iid":
        try:
            in_range = 0.0 <= p <= 1.0
        except TypeError:   # a string or None: no probability
            in_range = False
        if not in_range:
            raise ParameterError("p must lie in [0, 1]")
        # a numpy float, a Fraction or a bool runs as the float it equals,
        # so the report serializes
        p = float(p)
    elif not 0 <= u <= n:
        raise ParameterError(f"u must lie in [0, {n}]")
    sampled = model == "iid" or math.comb(n, u) > _EXHAUSTIVE_LIMIT
    if sampled and trials < 1:
        raise ParameterError("trials must be positive")
    # near u = n, every u-set is enumerated as its (n - u)-complement
    complement = not sampled and u > n - u
    drawn = n - u if complement else u
    size = _chunk_size(code, model, drawn)
    if model == "iid":
        chunks = map(_case_words, _iid_chunks(seed, trials, n, p, size))
    else:
        if sampled:
            sets = _sampled_sets(seed, trials, n, u, size)
        else:
            every = _subsets(n, drawn)
            sets = (every[start:start + size] for start in range(0, len(every), size))
        chunks = map(_set_words, sets, itertools.repeat(n), itertools.repeat(complement))
    succ, retrieved, cases, all_ok_cases = _availability_counts(code, chunks)

    per_success = tuple(succ[i] / cases for i in range(n))
    per_retrieved = tuple(
        retrieved[i] / succ[i] if succ[i] else float("nan") for i in range(n)
    )
    total_succ = sum(succ)
    return AvailabilityReport(
        model=model,
        parameter=p if model == "iid" else u,
        seed=seed,
        cases=cases,
        coverage="sampled" if sampled else "exhaustive",
        per_symbol_success=per_success,
        per_symbol_mean_retrieved=per_retrieved,
        overall_success=total_succ / (cases * n),
        all_symbols_success=all_ok_cases / cases,
        mean_retrieved=(sum(retrieved) / total_succ) if total_succ else float("nan"),
    )
