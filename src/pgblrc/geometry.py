"""Partial geometries: incidence structures, validation, constructors, files.

A partial geometry pg(s, t, alpha) is a point/line incidence structure in
which every line carries s+1 points, every point lies on t+1 lines, two
distinct lines share at most one point, and for every non-incident pair
(P, B) exactly alpha points of the line B are collinear with the point P.
``validate_pg`` certifies all four axioms and returns the parameters.  It
works point by point: axiom 3 is a popcount of the union of the lines
through each point, and alpha a counting certificate (Bose 1963) over the
points collinear with it.  Both read one collinearity table, packed as
uint64 words and counted with ``np.bitwise_count``, and decide alone; a
witness is read off the same words at the points a failing test flagged.
The lines are packed straight from their points, once per structure
(``IncidenceStructure._line_words``, read-only), and kept in no other form.
A structure takes its line records as any sequence, or as one 2-D integer
array, whose rows are checked in numpy; any other input, and an array that
breaks the rule, is checked record by record, and that scan alone names
the fault.  The constructors below produce the standard families used for
code building, on GF(q)'s addition and multiplication tables read as
arrays; the grid and T2*(O) hand over their lines as one such array.
Each quadrangle reads its lines off the geometry, and builds each line
once: a generalized quadrangle has no triangles, so the line through
collinear points u and v of W(q) or Q-(5, q) is the meet of their rows
of collinear points, taken from the line's least point u, with rows
from the form applied to a few points and all points at once; and
GF(2^m) addition is XOR, so the lines of T2*(O) with one direction are
the XOR cosets of that direction's multiples, each listed from its
least point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from . import algebra
from .algebra import BitMatrix, small_field
from .errors import IncidenceFileError, ParameterError, PgValidationError, _as_index

__all__ = [
    "CLASS_GQ",
    "CLASS_NET",
    "CLASS_PROPER",
    "CLASS_STEINER",
    "IncidenceFileError",
    "IncidenceStructure",
    "PgParams",
    "PgValidationError",
    "dual",
    "elliptic_quadric_gq",
    "from_text",
    "grid",
    "hyperoval_gq",
    "incidence_matrix",
    "load",
    "save",
    "symplectic_gq",
    "to_text",
    "validate_pg",
]

CLASS_STEINER = "steiner-2-design"
CLASS_NET = "net"
CLASS_GQ = "generalized-quadrangle"
CLASS_PROPER = "proper"


@dataclass(frozen=True)
class PgParams:
    """Certified parameters of a partial geometry."""

    s: int
    t: int
    alpha: int
    num_points: int
    num_lines: int
    pg_class: str
    grid_degenerate: bool = False


@dataclass(frozen=True)
class IncidenceStructure:
    """Points 0..num_points-1 with lines as strictly increasing point tuples.

    ``lines`` may be any sequence of records, or one 2-D integer array
    whose rows are decided in numpy (``_array_records``); either way the
    records are stored as tuples of ints, and a refusal names the first
    bad record as ``_line_records`` finds it.
    """

    num_points: int
    lines: tuple[tuple[int, ...], ...]
    label: str | None = None

    def __post_init__(self) -> None:
        num_points = _as_index(self.num_points, "num_points")
        if num_points < 0:
            raise ParameterError(f"num_points must be non-negative, got {num_points}")
        object.__setattr__(self, "num_points", num_points)
        records = _array_records(num_points, self.lines)
        if records is None:
            records, fault = _line_records(num_points, self.lines, range(len(self.lines)))
            if fault:
                raise ValueError(f"line {fault[0]}: {fault[2]}")
        object.__setattr__(self, "lines", records)

    @property
    def num_lines(self) -> int:
        return len(self.lines)

    @cached_property
    def lines_through(self) -> tuple[tuple[int, ...], ...]:
        """For each point, the sorted indices of lines containing it."""
        through: list[list[int]] = [[] for _ in range(self.num_points)]
        for idx, line in enumerate(self.lines):
            for p in line:
                through[p].append(idx)
        return tuple(tuple(v) for v in through)

    @cached_property
    def _line_words(self) -> np.ndarray:
        """The lines as read-only rows of ``uint64`` words, packed once."""
        words = algebra._support_words(self.lines, self.num_points)
        words.flags.writeable = False
        return words

    @cached_property
    def _certificate(self) -> PgParams:
        """``validate_pg``'s result; a failure raises and is not kept."""
        return _certify(self)

    def canonical_lines(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.lines))


def _line_records(num_points: int, lines, numbers) -> tuple[tuple, tuple | None]:
    """The line-record rule: the records as tuples of ints and None, or ()
    and the first record that is empty, not strictly increasing integers
    (by ``operator.index``) in 0..num_points-1, or a repeat, as (index,
    repeated index or None, reason).  A repeat's reason calls the record
    it repeats ``numbers[earlier]``."""
    earlier = {}
    for idx, line in enumerate(lines):
        try:
            points = tuple(map(operator.index, line))
        except TypeError:
            return (), (idx, None, "point indices must be integers")
        if not points:
            return (), (idx, None, "empty line record")
        if not all(map(operator.lt, points, points[1:])):
            return (), (idx, None, "point indices must be strictly increasing")
        if points[0] < 0 or points[-1] >= num_points:
            bad = next(p for p in points if not 0 <= p < num_points)
            return (), (idx, None, f"point index {bad} out of range, outside 0..{num_points - 1}")
        first = earlier.setdefault(points, idx)
        if first != idx:
            return (), (idx, first, f"duplicate of the line record at line {numbers[first]}")
    # no record repeats, so the keys are every record, in order
    return tuple(earlier), None


def _array_records(num_points: int, lines) -> tuple | None:
    """The line-record rule decided in numpy for a 2-D integer array: its
    rows as tuples of ints if they keep the rule, else None, as for any
    other input, so that ``_line_records`` decides and names the fault.
    Neighbouring points are compared, never subtracted, so unsigned rows
    cannot wrap; a repeat is found by sorting the rows once as
    fixed-width byte keys and comparing neighbours."""
    if not (type(lines) is np.ndarray and lines.ndim == 2
            and lines.dtype.kind in "iu" and lines.shape[1]):
        return None
    if not ((lines[:, 1:] > lines[:, :-1]).all() and (lines[:, 0] >= 0).all()
            and (lines[:, -1] < num_points).all()):
        return None
    key = np.dtype((np.void, lines.itemsize * lines.shape[1]))
    keys = np.sort(np.ascontiguousarray(lines).view(key).ravel())
    if (keys[1:] == keys[:-1]).any():
        return None
    # one list per column, not per row, zipped into the row tuples
    return tuple(zip(*lines.T.tolist()))


def incidence_matrix(inc: IncidenceStructure) -> BitMatrix:
    """Line-by-point incidence matrix (rows are lines)."""
    return BitMatrix.from_bitrows(algebra._ints(inc._line_words), inc.num_points)


# ----------------------------------------------------------------------
# validation

def _classify(s: int, t: int, alpha: int) -> tuple[str, bool]:
    if alpha == s + 1 or alpha == t + 1:
        return CLASS_STEINER, False
    if alpha == 1:
        # s = 1 or t = 1 quadrangles are the degenerate grid shapes
        return CLASS_GQ, (s == 1 or t == 1)
    if alpha == s or alpha == t:
        return CLASS_NET, False
    return CLASS_PROPER, False


def _require_covered(inc: IncidenceStructure) -> None:
    """Reject a structure with more points than incidences before any
    per-point table is built: some point then lies on no line."""
    incidences = sum(len(line) for line in inc.lines)
    if inc.num_points <= incidences:
        return
    covered = sorted({p for line in inc.lines for p in line})
    uncovered = next((i for i, p in enumerate(covered) if i != p), len(covered))
    raise PgValidationError(
        "point-degree",
        f"point {uncovered} lies on no line: {inc.num_points} points "
        f"but only {incidences} incidences",
        witness=uncovered,
    )


def _first_big_intersection(inc: IncidenceStructure, lines: np.ndarray,
                            flagged: list[int]) -> PgValidationError:
    """The error naming the first line pair, in index order, that shares
    more than one point, read off the packed ``lines``.  Two lines that
    share u and v both pass through u, which fails the union test; so
    only the lines through each ``flagged`` point are paired."""
    pairs = []
    for u in flagged:
        through = inc.lines_through[u]
        rows = lines[list(through)]
        for k in range(len(through) - 1):
            hits = np.flatnonzero(np.bitwise_count(rows[k + 1:] & rows[k]).sum(axis=1) > 1)
            if hits.size:
                pairs.append((through[k], through[k + 1 + int(hits[0])]))
                break
    i, j = min(pairs)
    return PgValidationError(
        "line-intersection",
        f"lines {i} and {j} share more than one point",
        witness=(i, j),
    )


def _first_alpha_mismatch(inc: IncidenceStructure, lines: np.ndarray,
                          table: np.ndarray, p: int) -> PgValidationError:
    """The error naming the first non-incident (point, line) pair whose
    bridge count differs from that of the first such pair, given the
    first point p that fails the counting certificate.  With axiom 3
    certified, the bridges of (P, B) are the points of B collinear with P;
    a point that passes has s t (t+1) / M of them on every line missing
    it, so the first pair that differs lies on p."""
    first_line = next(b for b, line in enumerate(inc.lines) if line[0] != 0)
    alpha = int(np.bitwise_count(lines[first_line] & table[0]).sum())
    bridges = np.bitwise_count(lines & table[p]).sum(axis=1)
    bridges[list(inc.lines_through[p])] = alpha
    b = int(np.flatnonzero(bridges != alpha)[0])
    return PgValidationError(
        "alpha",
        f"non-uniform alpha: pair (point {p}, line {b}) has "
        f"{bridges[b]} bridges, pair {(0, first_line)} has {alpha}",
        witness=(p, b),
    )


def _collinearity_table(inc: IncidenceStructure, lines: np.ndarray) -> np.ndarray:
    """col(p) for every point p, packed as an n x ceil(n/64) uint64 array,
    from the lines packed the same way.

    Every point must lie on the same number of lines."""
    through = np.array(inc.lines_through, dtype=np.intp)
    table = lines[through[:, 0]]
    for column in through.T[1:]:
        table |= lines[column]
    return table


_BOSE_WORDS = 1 << 17   # collinearity-row words gathered at once, 1 MiB


def _bose_sums(inc: IncidenceStructure, table: np.ndarray) -> list[int]:
    """For each point p, the sum of |col(q) & col(p)| over the points q != p
    of each line through p.

    The lines are taken in chunks of about ``_BOSE_WORDS`` words (128
    lines on hyperoval(16)), whose s+1 collinearity rows are gathered once,
    line position first.  A line's rows are added, every column at once,
    into ceil(log2(s+2)) bit-sliced count planes with a ripple carry: bit
    c of plane b is bit b of the number of its rows set at column c.  So
    for a point a of the line, the sum over its points q, a included, of
    |col(a) & col(q)| is the sum over b of 2^b popcount(col(a) & plane b),
    and the term q = a is |col(a)|.  A plane that is zero throughout the
    chunk adds nothing and is skipped: in a generalized quadrangle a
    column's count is 1 off the line and s+1 on it, so two planes remain.
    Every line must carry the same number of points."""
    lines = np.array(inc.lines, dtype=np.intp)
    count, size = lines.shape
    chunk = max(1, _BOSE_WORDS // (size * table.shape[1]))
    sums = np.empty(lines.shape, dtype=np.int64)
    for start in range(0, count, chunk):
        rows = table[lines[start:start + chunk].T]   # position, line, word
        planes = [rows[0].copy()]
        for j in range(1, size):
            carry = rows[j]
            for plane in planes:
                spill = plane & carry
                plane ^= carry
                carry = spill
            if (j + 1).bit_length() > len(planes):   # j + 1 rows added
                planes.append(carry)
        # a word weighs at most 64 (s+1)
        weights = np.zeros(rows.shape, dtype=np.min_scalar_type(64 * size))
        for b, plane in enumerate(planes):
            if plane.any():
                weights += np.left_shift(np.bitwise_count(rows & plane), b, dtype=weights.dtype)
        sums[start:start + chunk] = weights.sum(axis=2, dtype=np.int64).T
    sums -= np.bitwise_count(table).sum(axis=1, dtype=np.int64)[lines]
    out = np.zeros(inc.num_points, dtype=np.int64)
    np.add.at(out, lines, sums)
    return out.tolist()


def validate_pg(inc: IncidenceStructure) -> PgParams:
    """Certify the partial-geometry axioms; raise PgValidationError with a witness.

    Point degrees and line sizes are checked directly.  The rest works
    point by point, with col(x) the union of the lines through x:

    - axiom 3: the lines through p meet only at p iff col(p) has
      (t+1)s + 1 points;
    - alpha, by Bose's counting certificate (1963): let b(B) be the number
      of points of a line B missing p that are collinear with p, over the
      M = L - t - 1 such lines.  Then sum b = s t (t+1), and sum b(b-1) is
      the sum over the points q != p of col(p) of |col(q) & col(p)| - (s+1).
      b is constant, and equal to alpha, iff M sum b^2 = (sum b)^2.

    Both tests read col(p) from one n x ceil(n/64) table of uint64 words,
    built once the degrees and line sizes are certified, and count its
    bits with ``np.bitwise_count``.  The certificate's sums are taken a
    chunk of lines at a time: each line's collinearity rows are added
    into bit-sliced count planes, so that |col(p) & col(q)| summed over
    its points q is a few popcounts of col(p) against the planes (see
    ``_bose_sums``).  They decide alone: alpha's range and
    the point and line counts follow.  A rejection names the first witness
    a direct check of every pair would, reading the same words only at the
    points the failing test flagged.  A structure with more points than
    incidences is rejected before any per-point table is built.  The
    result is kept on ``inc``; a rejection is raised on every call.
    """
    return inc._certificate


def _certify(inc: IncidenceStructure) -> PgParams:
    """``validate_pg``'s checks.  Once both tests pass, the rest holds:
    M = L - (t+1) >= 1, or every point would lie on all t+1 >= 2 lines,
    which would then repeat; 1 <= alpha <= min(s+1, t+1), as b is constant
    with sum b = s t (t+1) > 0, b(B) <= |B| = s+1, and under axiom 3
    distinct bridges on B lie on distinct lines through p; and n and L are
    (s+1)(st+alpha)/alpha and (t+1)(st+alpha)/alpha, from alpha M =
    s t (t+1), L = t+1 + M and, counting incidences, n (t+1) = L (s+1).
    Nor is s >= 1 checked: once every point lies on t+1 >= 2 lines and
    every line has s+1 points, s+1 = 1 would put each point p on two
    lines that both equal (p,), and ``IncidenceStructure`` refuses
    duplicate lines (and empty ones)."""
    if inc.num_lines == 0:
        raise PgValidationError("point-degree", "structure has no lines")
    _require_covered(inc)

    degrees = [len(v) for v in inc.lines_through]
    t_plus_1 = degrees[0]
    for p, d in enumerate(degrees):
        if d != t_plus_1:
            raise PgValidationError(
                "point-degree",
                f"non-uniform point degree: point {p} lies on {d} lines, "
                f"point 0 on {t_plus_1}",
                witness=p,
            )
    if t_plus_1 < 2:
        raise PgValidationError(
            "point-degree",
            f"every point must lie on at least 2 lines (t >= 1), found {t_plus_1}",
            witness=0,
        )

    s_plus_1 = len(inc.lines[0])
    for idx, line in enumerate(inc.lines):
        if len(line) != s_plus_1:
            raise PgValidationError(
                "line-size",
                f"non-uniform line size: line {idx} has {len(line)} points, "
                f"line 0 has {s_plus_1}",
                witness=idx,
            )
    s, t = s_plus_1 - 1, t_plus_1 - 1

    lines = inc._line_words
    table = _collinearity_table(inc, lines)
    flagged = np.bitwise_count(table).sum(axis=1) != (t + 1) * s + 1
    if flagged.any():
        raise _first_big_intersection(inc, lines, np.flatnonzero(flagged).tolist())

    missing = inc.num_lines - t_plus_1
    sum_b = s * t * (t + 1)
    offset = sum_b - (t + 1) * s * (s + 1)
    failing = next((p for p, shared in enumerate(_bose_sums(inc, table))
                    if missing * (shared + offset) != sum_b * sum_b), None)
    if failing is not None:
        raise _first_alpha_mismatch(inc, lines, table, failing)
    alpha = sum_b // missing

    pg_class, degenerate = _classify(s, t, alpha)
    return PgParams(
        s=s,
        t=t,
        alpha=alpha,
        num_points=inc.num_points,
        num_lines=inc.num_lines,
        pg_class=pg_class,
        grid_degenerate=degenerate,
    )


# ----------------------------------------------------------------------
# constructors

def _in_lex_order(lines: np.ndarray) -> np.ndarray:
    """The rows of ``lines``, each strictly increasing, in lex order.  Two
    lines share at most one point, so their first two points order them."""
    return lines[np.lexsort((lines[:, 1], lines[:, 0]))]


def grid(s: int) -> IncidenceStructure:
    """(s+1) x (s+1) point grid whose lines are the rows and columns.

    A pg(s, 1, 1): every point lies on one row and one column.  s runs
    from 1 to 127 (n <= 16384), so ``validate_pg``'s collinearity table
    stays within 32 MB; a larger s is refused before anything is built.
    """
    s = _as_index(s, "s")
    if s < 1:
        raise ParameterError("grid requires s >= 1")
    if s > 127:
        raise ParameterError(f"grid supports s <= 127, got {s}")
    w = s + 1
    rows = np.arange(w * w).reshape(w, w)
    return IncidenceStructure(w * w, _in_lex_order(np.concatenate((rows, rows.T))),
                              label=f"grid({s})")


def _projective_points(q: int, dim: int) -> np.ndarray:
    """Normalized representatives (first nonzero coordinate 1), one per row in lex order."""
    vecs = np.indices((q,) * dim).reshape(dim, -1).T
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return vecs[lead == 1]


def _polar_lines(points, orthogonal, label: str) -> IncidenceStructure:
    """The given projective points with every line spanned by two of them
    that ``orthogonal`` accepts (the totally isotropic or singular lines).

    ``orthogonal`` takes coordinate-first arrays that broadcast, so one call
    per eight points gives their rows of collinear points, themselves
    included, each kept as an int with bit v set for each point v.  A
    generalized quadrangle has no triangles: for collinear u != v, the
    points collinear with both are the points of the line uv, the meet of
    their two rows.  Each line is met once, from its least point u: u's
    candidates are the points after u in its row less the points of the
    lines filed under u, the least candidate v spans the next line, whose
    points are struck from the candidates, and the line is filed under its
    points after u.  So the lines come in lex order, by their first two
    points.
    """
    coords, n = points.T, len(points)
    rows = []
    for u in range(0, n, 8):
        block = orthogonal(points[u:u + 8].T[:, :, None], coords[:, None])
        rows += algebra._pack(block)
    filed: list[list[int]] = [[] for _ in range(n)]
    lines = []
    for u, row in enumerate(rows):
        candidates = row >> (u + 1) << (u + 1)
        for line in filed[u]:
            candidates &= ~line
        while candidates:
            line = row & rows[(candidates & -candidates).bit_length() - 1]
            candidates &= ~line
            members, rest = [], line
            while rest:
                members.append((rest & -rest).bit_length() - 1)
                rest &= rest - 1
            lines.append(tuple(members))
            for w in members[1:]:
                filed[w].append(line)
    return IncidenceStructure(n, tuple(lines), label=label)


def symplectic_gq(q: int) -> IncidenceStructure:
    """Points of 3-dimensional projective space over GF(q), with the lines
    that are isotropic for the alternating form x1 y2 - x2 y1 + x3 y4 - x4 y3.

    A pg(q, q, 1) on (q+1)(q^2+1) points and as many lines.
    """
    field = small_field(q)
    # flat uint8 tables, read at a * q + b by ``take``; a product times q
    # plus an element is at most q^2 - 1 <= 255, so uint8 holds it
    add, mul = field._add.astype(np.uint8).ravel(), field._mul.astype(np.uint8).ravel()

    def orthogonal(u, v):
        return (add.take(mul.take(u[0] * q + v[1]) * q + mul.take(u[2] * q + v[3]))
                == add.take(mul.take(u[1] * q + v[0]) * q + mul.take(u[3] * q + v[2])))

    return _polar_lines(_projective_points(q, 4), orthogonal, f"symplectic-gq({q})")


def elliptic_quadric_gq(q: int) -> IncidenceStructure:
    """Singular points and totally singular lines of an elliptic quadric in
    5-dimensional projective space over GF(q), for q in {2, 3}.

    A pg(q, q^2, 1) on (q+1)(q^3+1) points and (q^2+1)(q^3+1) lines.
    """
    if q not in (2, 3):
        raise ParameterError("elliptic quadric construction supports q in {2, 3}")
    field = small_field(q)
    add, mul = field._add, field._mul
    # x0 x1 + x2 x3 + f(x4, x5), f(u, v) = u^2 + b uv + c v^2 anisotropic:
    # the first (b, c) for which t^2 + b t + c has no root t in GF(q)
    b, c = next((b, c) for b in range(q) for c in range(q)
                if add[add[mul.diagonal(), mul[b]], c].all())
    u, v = np.indices((q, q))
    form = add[add[mul[u, u], mul[b, mul[u, v]]], mul[c, mul[v, v]]]

    def quad(x):
        return add[add[mul[x[0], x[1]], mul[x[2], x[3]]], form[x[4], x[5]]]

    # the points are singular, so B(u, v) = Q(u+v) - Q(u) - Q(v) = Q(u+v)
    def orthogonal(u, v):
        return quad(add[u, v]) == 0

    points = _projective_points(q, 6)
    return _polar_lines(points[quad(points.T) == 0], orthogonal, f"elliptic-quadric-gq({q})")


def hyperoval_gq(q: int) -> IncidenceStructure:
    """Affine 3-space over GF(q) keeping only the lines whose direction lies
    on a fixed hyperoval (conic plus nucleus) in the plane at infinity.

    For even q in {4, 8, 16} this is a pg(q-1, q+1, 1) on q^3 points and
    q^2 (q+2) lines, each listed once, from its least point.
    """
    if q not in (4, 8, 16):
        raise ParameterError("hyperoval construction supports q in {4, 8, 16}")
    field = small_field(q)
    mul = field._mul
    # conic y z = x^2, parameterized, together with its nucleus (1 : 0 : 0)
    directions = [(t, 1, mul[t, t]) for t in range(q)] + [(0, 0, 1), (1, 0, 0)]

    # Elements of GF(2^m) are bit vectors, so addition is XOR, and so is the
    # addition of points (x, y, z) = x q^2 + y q + z.  The line through p
    # with direction d is p XOR each multiple of d: one coset of the steps
    # per line, kept at its least point.  The steps are a subgroup, spanned
    # by the multiples of d by the powers of 2; reducing each by the basis
    # so far, highest leading bit first, gives an echelon basis with
    # distinct leading bits.  Clearing those from the highest down takes a
    # point to the one point of its coset with none of them set, which is
    # the least: a step added to it sets its own highest bit, a leading
    # one.  So the cosets are listed once each, from those q^2 points.
    # The q^3 <= 4096 points fit uint16, a quarter of int64's bytes in
    # every array the lines pass through.
    qq = q * q
    points = np.arange(q * qq, dtype=np.uint16)
    lines = []
    for x, y, z in directions:
        steps = (mul[:, x] * qq + mul[:, y] * q + mul[:, z]).astype(np.uint16)
        basis: list[int] = []
        for b in steps[1 << np.arange(field.m)].tolist():
            for c in basis:
                b = min(b, b ^ c)
            basis = sorted([*basis, b], reverse=True)
        leads = sum(1 << (b.bit_length() - 1) for b in basis)
        lines.append(np.sort(points[(points & leads) == 0, None] ^ steps, axis=1))
    return IncidenceStructure(q * qq, _in_lex_order(np.concatenate(lines)),
                              label=f"hyperoval-gq({q})")


# name: (parameter, constructor, order), order(value) the (s, t) built
_CONSTRUCTORS = {
    "grid": ("s", grid, lambda s: (s, 1)),
    "symplectic": ("q", symplectic_gq, lambda q: (q, q)),
    "elliptic": ("q", elliptic_quadric_gq, lambda q: (q, q * q)),
    "hyperoval": ("q", hyperoval_gq, lambda q: (q - 1, q + 1)),
}


def dual(inc: IncidenceStructure) -> IncidenceStructure:
    """Swap point and line roles: dual point i is line i, and the dual lines
    are the pencils of lines through each original point.

    For a valid pg(s, t, alpha) the dual is a pg(t, s, alpha), and applying
    dual twice returns the original structure.  A point on no line or two
    points on the same lines, which would give an empty or a repeated dual
    line, raise ``PgValidationError``; a structure with more points than
    incidences is rejected before the pencils are built.
    """
    _require_covered(inc)
    label = f"dual({inc.label})" if inc.label else None
    pencils = inc.lines_through
    try:
        return IncidenceStructure(inc.num_lines, pencils, label=label)
    except ValueError:
        p, q, _ = _line_records(inc.num_lines, pencils, range(inc.num_points))[1]
    if q is None:
        raise PgValidationError("point-degree", f"point {p} lies on no line", witness=p)
    kind = "line-intersection" if len(pencils[p]) > 1 else "point-degree"
    raise PgValidationError(kind, f"points {q} and {p} lie on the same lines {pencils[p]}",
                            witness=(q, p))


# ----------------------------------------------------------------------
# file format
#
#   # comment lines start with '#'; '# label: NAME' round-trips the label
#   <num_points> <num_lines>
#   <point> <point> ...        (one line record per geometry line,
#                               strictly increasing 0-based indices)

def to_text(inc: IncidenceStructure) -> str:
    """Canonical text form: lines sorted lexicographically, bit-exact.

    A label that ``from_text`` would not read back unchanged (empty, with
    leading or trailing whitespace, or split by ``str.splitlines``) is a
    ``ParameterError``: written verbatim, it would end the comment line.
    """
    if inc.label is not None and str(inc.label).strip().splitlines() != [inc.label]:
        raise ParameterError(f"label {inc.label!r} cannot be written on one comment line")
    out = []
    if inc.label:
        out.append(f"# label: {inc.label}")
    out.append(f"{inc.num_points} {inc.num_lines}")
    out.extend(" ".join(map(str, line)) for line in inc.canonical_lines())
    return "\n".join(out) + "\n"


def _integers(line: str) -> tuple[int, ...]:
    """The integers of a header or record line, each token ASCII digits
    with an optional leading '-' between spaces or tabs.  Any other line
    that ``str.split`` and ``int`` would read (a '+' sign, '_' digit
    groups, non-ASCII text, or another ASCII separator) is a ValueError."""
    if (not line.isascii() or "+" in line or "_" in line or "\r" in line or "\x0b" in line
            or "\x0c" in line or "\x1c" in line or "\x1d" in line or "\x1e" in line
            or "\x1f" in line):
        raise ValueError(line)
    return tuple(map(int, line.split()))


def from_text(text: str) -> IncidenceStructure:
    """Parse the text form, lines ended by '\\n' or '\\r\\n'; ``IncidenceStructure`` checks them."""
    label = None
    header = None
    records: list[tuple[int, ...]] = []
    numbers: list[int] = []   # the line of text each record came from
    for ln, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        stripped = raw.strip()
        if not stripped and not raw.strip(" \t"):   # spaces and tabs only
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("label:") and label is None:
                label = body[len("label:"):].strip() or None
            continue
        if header is None:
            parts = stripped.split()
            if len(parts) != 2:
                raise IncidenceFileError(
                    "expected header '<num_points> <num_lines>'", ln
                )
            try:
                header = _integers(raw)
            except ValueError:
                raise IncidenceFileError(
                    "point and line counts must be integers", ln
                ) from None
            if min(header) < 0:
                raise IncidenceFileError("counts must be non-negative", ln)
            continue
        if len(records) >= header[1]:
            raise IncidenceFileError(
                f"more than the declared {header[1]} line records", ln
            )
        try:
            records.append(_integers(raw))
        except ValueError:
            raise IncidenceFileError("point indices must be integers", ln) from None
        numbers.append(ln)
    if header is None:
        raise IncidenceFileError("missing header '<num_points> <num_lines>'")
    try:
        inc = IncidenceStructure(header[0], tuple(records), label=label)
    except ValueError:
        idx, _, reason = _line_records(header[0], records, numbers)[1]
        raise IncidenceFileError(reason, numbers[idx]) from None
    if len(records) != header[1]:
        raise IncidenceFileError(
            f"expected {header[1]} line records, found {len(records)}"
        )
    return inc


def save(inc: IncidenceStructure, destination) -> None:
    """Write the canonical text form to a path or text file object."""
    text = to_text(inc)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")


def load(source) -> IncidenceStructure:
    """Read an incidence structure from a path (UTF-8) or text file object;
    text that cannot be decoded is an ``IncidenceFileError``."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        else:
            text = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise IncidenceFileError(
            f"not {exc.encoding} text: byte 0x{exc.object[exc.start]:02x} "
            f"at offset {exc.start} cannot be decoded"
        ) from None
    return from_text(text)
