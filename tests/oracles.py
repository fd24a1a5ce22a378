"""Independent reference implementations used to cross-check the package.

The first group recomputes results with a different algorithm and a
different representation (numpy uint8 arrays, itertools search) so that
a shared bug between package and test is unlikely.  The second group
keeps the direct forms that the package's fast paths replaced: the
lines as big-int masks, one shifted bit per point, the
pair-by-pair partial-geometry check, the big-int counting certificate
with its whole scans for a witness, the closed-form rate bounds, the
column-sweep elimination, the big-int elimination on mirrored rows
with back-substitution, the packed elimination that reduced one row at
a time and cleared each new pivot column from every pivot row holding
it, Bose's counting sums taken one pair of line positions at a time,
the null space that unpacks the reduced rows a block at a time, the transpose that unpacks each word column
to bytes, the bit-by-bit transpose, encoder and message read-out, the
bit check that tests each entry for equality
with 0 or 1 before the message is converted, the encoder that XORs
big-int generator rows at the message's set bits, the
symbol-by-symbol dual-support search, the
geometric repair sets built one ``helpers`` call per (symbol, line),
the subset-by-subset MDS test, the whole-word repair scan, the
case-by-case availability simulator with a new generator per trial,
the re-key that sets the array state numpy returns,
the availability kernel with one byte per line and case, the
bit-sliced one that packed each chunk along its strided case axis and
read the u-sets as a list of tuples, the set chunks that read the
u-sets as one stream of symbols, the set chunks scattered into a
case-major mask that was packed and transposed, json's own
indented encoder, GF(q) arithmetic one digit list at a time, and the
quadrangle constructors that normalize the whole span of every
collinear pair, test every point pair through ``SmallField`` and walk
every affine point through ``SmallField.add``, the ones that meet two
rows of an n x n collinearity table once per collinear pair and sort
every point's coset along each hyperoval direction, the catalog's
exact rates read off a full code built on each quadrangle, dual
included, and the catalog that rates every grid up to its length
budget and folds them into the family entry.  The third group holds the
public names that left the package because only the tests called them:
``rank2``, ``solve2``, ``BitMatrix.to_array`` and ``@`` (as
``matrix_array`` and ``matrix_product``, with ``_set_bits``), ``is_mds``,
``footprint`` and ``IncidenceStructure.structurally_equal`` (as
``structurally_equal``).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import replace
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from pgblrc.algebra import (BitMatrix, _bit_transpose, _bits, _eliminate, _pack, _transpose,
                            _words, small_field)
from pgblrc.bounds import ESTIMATORS, CatalogEntry, _estimate_rate, known_gq_parameters
from pgblrc.code import build_code
from pgblrc.errors import (DegenerateCodeError, NotLocallyRepairableError,
                           ParameterError, PgValidationError, _as_index)
from pgblrc.geometry import (IncidenceStructure, PgParams, _classify,
                             _require_covered, dual, elliptic_quadric_gq, grid,
                             hyperoval_gq, symplectic_gq)
from pgblrc.geometry import _projective_points as _projective_point_rows
from pgblrc.repair import (
    _EXHAUSTIVE_LIMIT,
    AVAILABILITY_MODELS,
    AvailabilityReport,
    RepairOutcome,
    RepairProfile,
    RepairVector,
    minimum_hitting_set,
)


# ----------------------------------------------------------------------
# the public names that left the package because only the tests called
# them, kept as they were there: the rank and the square solve of a
# ``BitMatrix``, its unpacking and its product (``to_array`` and ``@``
# once), the MDS verdict, the storage overhead, and the structure
# comparison (``IncidenceStructure.structurally_equal`` once)


def _set_bits(x: int) -> list[int]:
    """Positions of the set bits of x, ascending."""
    text = bin(x)[:1:-1]
    out = []
    pos = text.find("1")
    while pos >= 0:
        out.append(pos)
        pos = text.find("1", pos + 1)
    return out


def rank2(m: BitMatrix) -> int:
    """GF(2) rank of the matrix."""
    return len(_eliminate(_words(m.data, m.cols))[1])


def solve2(m: BitMatrix, rhs_bits: int) -> int | None:
    """Unique solution x of M x^T = rhs for square M, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("solve2 expects a square matrix")
    n = m.cols
    if rhs_bits < 0 or (n < rhs_bits.bit_length()):
        raise ValueError("right-hand side has bits outside the row range")
    aug = [row | ((rhs_bits >> r) & 1) << n for r, row in enumerate(m.data)]
    reduced, pivots, _ = _eliminate(_words(aug, n + 1))
    if len(pivots) < n or (pivots and pivots[-1] == n):
        return None
    # pivot i is column i, so row i ends in x_i
    x = (reduced[:, n // 64] >> (n % 64)) & 1
    return _pack(x.astype(np.uint8)[None, :])[0]


def matrix_array(m: BitMatrix) -> np.ndarray:
    return _bits(_words(m.data, m.cols), m.cols)


def matrix_product(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.cols} != {b.rows}")
    out = []
    for row in a.data:
        acc = 0
        for j in _set_bits(row):
            acc ^= b.data[j]
        out.append(acc)
    return BitMatrix(a.rows, b.cols, tuple(out))


def is_mds(code) -> bool:
    """True iff every k-subset of coordinates is an information set.

    Binary MDS codes are trivial (MacWilliams and Sloane, ch. 11): the
    whole space, a repetition code (k = 1 with no zero coordinate) or a
    single parity check (n - k = 1 over all n coordinates).
    """
    n, k = code.n, code.k
    return (k == n
            or (k == 1 and all(code.gen_cols))
            or (n - k == 1 and code.parity_check.data[0] == (1 << n) - 1))


def footprint(code) -> Fraction:
    """Exact storage overhead n/k."""
    return Fraction(code.n, code.k)


def structurally_equal(a: IncidenceStructure, b: IncidenceStructure) -> bool:
    """Same points and same line set, ignoring line order and label."""
    return (
        a.num_points == b.num_points
        and a.canonical_lines() == b.canonical_lines()
    )


def np_rank2(a: np.ndarray) -> int:
    """GF(2) rank by plain numpy forward elimination."""
    a = (np.asarray(a, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        hits = a[:, c].astype(bool).copy()
        hits[rank] = False
        a[hits] ^= a[rank]
        rank += 1
    return rank


def np_rref2(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(2), numpy version."""
    a = (np.asarray(a, dtype=np.uint8) & 1).copy()
    rows, cols = a.shape
    pivots: list[int] = []
    rank = 0
    for c in range(cols):
        pivot = None
        for r in range(rank, rows):
            if a[r, c]:
                pivot = r
                break
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        hits = a[:, c].astype(bool).copy()
        hits[rank] = False
        a[hits] ^= a[rank]
        pivots.append(c)
        rank += 1
    return a, pivots


def np_nullspace2(a: np.ndarray) -> np.ndarray:
    """Basis of the right null space over GF(2), one row per free column."""
    reduced, pivots = np_rref2(a)
    cols = reduced.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    for idx, f in enumerate(free):
        basis[idx, f] = 1
        for row, p in enumerate(pivots):
            basis[idx, p] = reduced[row, f]
    return basis


def dual_codewords_upto(parity_rows: list[int], max_weight: int) -> set[int]:
    """All nonzero row-space vectors of weight <= max_weight, found by
    walking the whole space in Gray-code order.  Rows are bit-packed ints
    (column 0 is the least significant bit)."""
    m = len(parity_rows)
    if (1 << m) > (1 << 22):
        raise ValueError(f"row space of dimension {m} is too large to walk")
    vec = 0
    found: set[int] = set()
    for g in range(1, 1 << m):
        vec ^= parity_rows[(g & -g).bit_length() - 1]
        if 0 < vec.bit_count() <= max_weight:
            found.add(vec)
    return found


def brute_minimum_hitting_set(sets: list[frozenset[int]]) -> set[int]:
    """Smallest set intersecting every member, by exhausting subsets of the
    ground set in increasing size."""
    if not sets:
        return set()
    if any(not s for s in sets):
        raise ValueError("an empty member set cannot be hit")
    ground = sorted(set().union(*sets))
    for size in range(1, len(ground) + 1):
        for combo in itertools.combinations(ground, size):
            chosen = set(combo)
            if all(chosen & s for s in sets):
                return chosen
    raise AssertionError("unreachable: the full ground set hits everything")


def brute_repair_degree(gen_cols: list[int], k: int, i: int,
                        cap: int) -> int | None:
    """Smallest w-1 such that some weight-w dual codeword covers i, found by
    testing every support directly; None if nothing shows up by weight
    cap+1.  A support S is a dual support iff its generator columns XOR
    to zero."""
    n = len(gen_cols)
    others = [j for j in range(n) if j != i]
    for w in range(2, cap + 2):
        for combo in itertools.combinations(others, w - 1):
            acc = gen_cols[i]
            for j in combo:
                acc ^= gen_cols[j]
            if acc == 0:
                return w - 1
    return None


# ----------------------------------------------------------------------
# the elimination that reduced one row at a time and cleared each new
# pivot column from every pivot row holding it, and the Bose sums that
# counted one pair of line positions at a time over all lines


def eliminate_by_rows(words: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """The reduced pivot rows of packed rows, ordered by pivot column,
    their pivot columns, and the indices of the input rows that were
    independent of the rows before them."""
    nrows, width = words.shape
    most = min(nrows, 64 * width)
    reduced = np.empty((most, width), dtype="<u8")
    # pivot row i's pivot column is bit at_mask[i] of word at_word[i]
    at_word = np.empty(most, dtype=np.intp)
    at_mask = np.empty(most, dtype=np.uint64)
    pivots: list[int] = []
    keep = []
    for idx, row in enumerate(words):
        rank = len(pivots)
        hits = (row[at_word[:rank]] & at_mask[:rank]).nonzero()[0]
        if hits.size:
            row = row ^ np.bitwise_xor.reduce(reduced[hits])
        nonzero = row.nonzero()[0]
        if not nonzero.size:
            continue
        w = int(nonzero[0])
        low = int(row[w])
        bit = low & -low
        holders = (reduced[:rank, w] & bit).nonzero()[0]
        if holders.size:
            reduced[holders, w:] ^= row[w:]  # row is zero in the words before w
        reduced[rank] = row
        at_word[rank] = w
        at_mask[rank] = bit
        pivots.append(64 * w + bit.bit_length() - 1)
        keep.append(idx)
    order = np.argsort(pivots)
    return reduced[order], [pivots[i] for i in order], keep


def bose_sums_by_pairs(inc, table: np.ndarray) -> list[int]:
    """For each point p, the sum of |col(q) & col(p)| over the points q != p
    of each line through p.

    Every pair of points on a line is counted once, for both points, one
    pair of line positions at a time over all lines; so each step holds a
    few arrays the size of the line table.  Every line must carry the same
    number of points."""
    lines = np.array(inc.lines, dtype=np.intp)
    sums = np.zeros(lines.shape, dtype=np.int64)
    for i in range(lines.shape[1]):
        rows = table[lines[:, i]]
        for j in range(i + 1, lines.shape[1]):
            shared = np.bitwise_count(rows & table[lines[:, j]])
            shared = shared.sum(axis=1, dtype=np.int64)
            sums[:, i] += shared
            sums[:, j] += shared
    out = np.zeros(inc.num_points, dtype=np.int64)
    np.add.at(out, lines, sums)
    return out.tolist()


# ----------------------------------------------------------------------
# the direct forms of the package's fast paths: every line pair, every
# point/line pair, the certificate on big-int rows, and the column-sweep
# elimination


def _checked_shape(inc) -> tuple[int, int]:
    """(s, t) once every point lies on t+1 >= 2 lines and every line
    carries s+1 >= 2 points."""
    if inc.num_lines == 0:
        raise PgValidationError("point-degree", "structure has no lines")

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
    if s_plus_1 < 2:
        raise PgValidationError(
            "line-size",
            f"every line must carry at least 2 points (s >= 1), found {s_plus_1}",
            witness=0,
        )
    return s_plus_1 - 1, t_plus_1 - 1


def _counted_params(inc, s: int, t: int, alpha: int) -> PgParams:
    """The parameters once the point and line counts match (s, t, alpha)."""
    expected_points = (s + 1) * (s * t + alpha)
    expected_lines = (t + 1) * (s * t + alpha)
    if expected_points % alpha or inc.num_points != expected_points // alpha:
        raise PgValidationError(
            "cardinality",
            f"point count {inc.num_points} does not match "
            f"(s+1)(st+alpha)/alpha = {expected_points}/{alpha}",
        )
    if expected_lines % alpha or inc.num_lines != expected_lines // alpha:
        raise PgValidationError(
            "cardinality",
            f"line count {inc.num_lines} does not match "
            f"(t+1)(st+alpha)/alpha = {expected_lines}/{alpha}",
        )

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


def line_masks_bigint(inc) -> tuple[int, ...]:
    """Each line as a big-int bit mask over points, one shifted bit per
    point: the form the package kept for its lines before it packed them
    straight into words."""
    return tuple(sum(1 << p for p in line) for line in inc.lines)


def validate_pg_pairwise(inc) -> PgParams:
    """The partial-geometry axioms checked pair by pair: axiom 3 on every
    pair of lines and alpha on every non-incident point/line pair."""
    s, t = _checked_shape(inc)

    masks = line_masks_bigint(inc)
    for i, j in itertools.combinations(range(inc.num_lines), 2):
        if (masks[i] & masks[j]).bit_count() > 1:
            raise PgValidationError(
                "line-intersection",
                f"lines {i} and {j} share more than one point",
                witness=(i, j),
            )

    # With axiom 3 certified, the number of (point of B, line through P)
    # bridge pairs for a non-incident (P, B) equals the number of points
    # of B collinear with P, so one popcount per pair suffices.
    collinear = []
    for p in range(inc.num_points):
        acc = 0
        for ln in inc.lines_through[p]:
            acc |= masks[ln]
        collinear.append(acc)

    alpha = None
    first_pair = None
    for p in range(inc.num_points):
        pbit = 1 << p
        cmask = collinear[p]
        for b in range(inc.num_lines):
            if masks[b] & pbit:
                continue
            bridges = (cmask & masks[b]).bit_count()
            if alpha is None:
                alpha, first_pair = bridges, (p, b)
            elif bridges != alpha:
                raise PgValidationError(
                    "alpha",
                    f"non-uniform alpha: pair (point {p}, line {b}) has "
                    f"{bridges} bridges, pair {first_pair} has {alpha}",
                    witness=(p, b),
                )
    if alpha is None:
        raise PgValidationError("alpha", "no non-incident point/line pair exists")
    if alpha < 1:
        raise PgValidationError(
            "alpha",
            f"pair (point {first_pair[0]}, line {first_pair[1]}) has no bridge "
            "(alpha must be at least 1)",
            witness=first_pair,
        )

    if alpha > min(s + 1, t + 1):
        raise PgValidationError(
            "alpha",
            f"alpha={alpha} exceeds min(s+1, t+1)={min(s + 1, t + 1)}",
            witness=first_pair,
        )
    return _counted_params(inc, s, t, alpha)


def _first_big_intersection(inc) -> PgValidationError:
    """The error naming the first line pair, in index order, that shares
    more than one point."""
    masks = line_masks_bigint(inc)
    for i, j in itertools.combinations(range(inc.num_lines), 2):
        if (masks[i] & masks[j]).bit_count() > 1:
            return PgValidationError(
                "line-intersection",
                f"lines {i} and {j} share more than one point",
                witness=(i, j),
            )
    raise AssertionError("per-point union test failed but no line pair overlaps")


def _first_alpha_mismatch(inc, collinear: list[int]) -> PgValidationError:
    """The error naming the first non-incident (point, line) pair whose
    bridge count differs from that of the first such pair.

    With axiom 3 certified, the bridges of a non-incident (P, B) are the
    points of B collinear with P, so one popcount per pair suffices.
    """
    masks = line_masks_bigint(inc)
    alpha = None
    first_pair = None
    for p in range(inc.num_points):
        pbit = 1 << p
        cmask = collinear[p]
        for b in range(inc.num_lines):
            if masks[b] & pbit:
                continue
            bridges = (cmask & masks[b]).bit_count()
            if alpha is None:
                alpha, first_pair = bridges, (p, b)
            elif bridges != alpha:
                return PgValidationError(
                    "alpha",
                    f"non-uniform alpha: pair (point {p}, line {b}) has "
                    f"{bridges} bridges, pair {first_pair} has {alpha}",
                    witness=(p, b),
                )
    raise AssertionError("counting certificate failed but every pair agrees")


def certify_bigint(inc) -> PgParams:
    """``validate_pg``'s certificate on big-int bit rows: col(p) as one
    Python int per point, and each point's Bose sum one ``bit_count`` per
    point of the lines through it."""
    if inc.num_lines == 0:
        raise PgValidationError("point-degree", "structure has no lines")
    _require_covered(inc)
    s, t = _checked_shape(inc)

    masks = line_masks_bigint(inc)
    collinear = []
    for through in inc.lines_through:
        acc = 0
        for ln in through:
            acc |= masks[ln]
        collinear.append(acc)
    if any(c.bit_count() != (t + 1) * s + 1 for c in collinear):
        raise _first_big_intersection(inc)

    missing = inc.num_lines - (t + 1)
    if missing == 0:
        raise PgValidationError("alpha", "no non-incident point/line pair exists")
    sum_b = s * t * (t + 1)
    for p, cmask in enumerate(collinear):
        sum_bb = -(t + 1) * s * (s + 1)
        for ln in inc.lines_through[p]:
            for q in inc.lines[ln]:
                if q != p:
                    sum_bb += (collinear[q] & cmask).bit_count()
        if missing * (sum_bb + sum_b) != sum_b * sum_b:
            raise _first_alpha_mismatch(inc, collinear)
    alpha = sum_b // missing
    if alpha > min(s + 1, t + 1):
        first_line = next(b for b, m in enumerate(masks) if not m & 1)
        raise PgValidationError(
            "alpha",
            f"alpha={alpha} exceeds min(s+1, t+1)={min(s + 1, t + 1)}",
            witness=(0, first_line),
        )
    return _counted_params(inc, s, t, alpha)


def _mirror(row: int, cols: int) -> int:
    """The row with column c moved to bit cols-1-c; its own inverse."""
    return int(format(row, f"0{cols}b")[::-1], 2)


def _forward(rows: Iterable[int]) -> tuple[dict[int, int], list[int]]:
    """Pivot rows keyed by their bit length, and the indices of the input
    rows that were independent of the rows before them."""
    pivots: dict[int, int] = {}
    keep = []
    for idx, row in enumerate(rows):
        while row:
            top = row.bit_length()
            prow = pivots.get(top)
            if prow is None:
                pivots[top] = row
                keep.append(idx)
                break
            row ^= prow
    return pivots, keep


def echelon_bigint(m: BitMatrix) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Forward pass on mirrored rows, then back-substitution: the nonzero
    reduced rows ordered by pivot column, their pivot columns, and the
    indices of the input rows kept by a top-down greedy scan."""
    cols = m.cols
    pivots, keep = _forward(_mirror(row, cols) for row in m.data)
    tops = sorted(pivots)
    pivot_mask = sum(1 << (top - 1) for top in tops)
    for top in tops:
        row = pivots[top]
        for b in _set_bits((row & pivot_mask) ^ (1 << (top - 1))):
            row ^= pivots[b + 1]
        pivots[top] = row
    tops.reverse()
    return (
        tuple(_mirror(pivots[top], cols) for top in tops),
        tuple(cols - top for top in tops),
        tuple(keep),
    )


def _reduce_row(row: int, pivots: dict[int, int]) -> int:
    """XOR away known pivots; the result is zero or has a fresh lowest bit."""
    while row:
        low = (row & -row).bit_length() - 1
        if low not in pivots:
            return row
        row ^= pivots[low]
    return 0


def independent_row_indices_greedy(m: BitMatrix) -> tuple[int, ...]:
    """Rows kept by a top-down scan that drops rows dependent on those above."""
    pivots: dict[int, int] = {}
    keep = []
    for idx, row in enumerate(m.data):
        red = _reduce_row(row, pivots)
        if red:
            pivots[(red & -red).bit_length() - 1] = red
            keep.append(idx)
    return tuple(keep)


def rref2_column_sweep(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form by sweeping columns left to right, taking
    the first available row as the pivot."""
    work = list(m.data)
    pivots = []
    row = 0
    for col in range(m.cols):
        sel = None
        for r in range(row, m.rows):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[row], work[sel] = work[sel], work[row]
        for r in range(m.rows):
            if r != row and ((work[r] >> col) & 1):
                work[r] ^= work[row]
        pivots.append(col)
        row += 1
        if row == m.rows:
            break
    return BitMatrix(m.rows, m.cols, tuple(work)), tuple(pivots)


def nullspace2_column_sweep(m: BitMatrix) -> BitMatrix:
    """Null-space basis systematic on the free columns of the column sweep."""
    reduced, pivots = rref2_column_sweep(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = 1 << f
        for r, p in enumerate(pivots):
            if (reduced.data[r] >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return BitMatrix(len(basis), m.cols, tuple(basis))


# Rows are unpacked to one byte per bit a block at a time: unpacking a
# whole n = 4096 matrix at once takes several MB, and that transient
# sets the peak memory of a process that only builds the code (about
# 5.5 MB higher without the blocks for hyperoval(16), 1.4 MB for
# W(16)).  A whole ``pgblrc analyze`` run peaks later, at the same
# height either way.
_BLOCK = 64


def nullspace_by_blocks(reduced: np.ndarray, pivots: Sequence[int], cols: int
                        ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The free columns of ``_eliminate``'s reduced rows and a null-space
    basis systematic on them.

    Basis row j is free column j plus, at each pivot column, the reduced
    row's entry in free column j.  So a pivot column is its reduced row
    cut down to the free columns, and the basis rows are those cuts
    transposed.  The cuts are read off the packed reduced rows a block of
    rows at a time, unpacked to one byte per bit.
    """
    pivot_set = set(pivots)
    free = tuple(c for c in range(cols) if c not in pivot_set)
    by_col = [0] * cols
    for j, f in enumerate(free):
        by_col[f] = 1 << j
    take = np.array(free, dtype=np.intp)
    for lo in range(0, len(pivots), _BLOCK):
        cut = np.take(_bits(reduced[lo:lo + _BLOCK], cols), take, axis=1)
        for p, bits in zip(pivots[lo:lo + _BLOCK], _pack(cut)):
            by_col[p] = bits
    return free, tuple(_transpose(by_col, len(free)))


def transpose_bitwise(m: BitMatrix) -> BitMatrix:
    """The transpose, one set bit at a time."""
    out = [0] * m.cols
    for r, row in enumerate(m.data):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << r
            row ^= low
    return BitMatrix(m.cols, m.rows, tuple(out))


def transpose_by_unpacking(rows: Sequence[int], cols: int) -> list[int]:
    """The cols columns of bit rows as bit rows: bit r of column c is
    rows[r] at c.  The rows are packed into words once; each word column,
    64 matrix columns, is unpacked, transposed and packed."""
    words = _words(rows, cols)
    out: list[int] = []
    for w in range(words.shape[1]):
        bits = _bits(words[:, w:w + 1], min(64, cols - 64 * w))
        out.extend(_pack(np.ascontiguousarray(bits.T)))  # packbits is slow on a strided view
    return out


def bits_to_array(bits: int, length: int) -> np.ndarray:
    """Bit j of ``bits`` as entry j of a uint8 array, one bit at a time."""
    return np.array([(bits >> j) & 1 for j in range(length)], dtype=np.uint8)


_BITS = frozenset((0, 1))


def as_bits_checked_first(values: Sequence[int], expected: int, what: str) -> np.ndarray:
    """The values as a uint8 array, checked before they are converted:
    every entry must equal 0 or 1 (an unhashable entry is no bit), and
    only then are they copied as bytes, or through ``np.array`` when some
    entry has no ``__index__``."""
    vals = list(values)
    if len(vals) != expected:
        raise ValueError(f"{what} must have length {expected}, got {len(vals)}")
    for v in vals:
        try:
            is_bit = v in _BITS
        except TypeError:  # unhashable
            is_bit = False
        if not is_bit:
            raise ValueError(f"{what} entries must be bits, got {v!r}")
    try:
        return np.frombuffer(bytes(vals), np.uint8)
    except TypeError:
        return np.array(vals, dtype=np.uint8)


def encode_bitwise(code, message: Sequence[int]) -> np.ndarray:
    """The codeword: generator row j is added when message bit j is set."""
    word = 0
    for j, row in enumerate(code.generator.data):
        if int(message[j]):
            word ^= row
    return bits_to_array(word, code.n)


def encode_by_int_rows(code, message: Sequence[int]) -> np.ndarray:
    """The codeword from the generator's big-int rows: the message is
    packed into one int, and the rows at its set bits are XORed one at a
    time before the word is unpacked."""
    bits = _pack(np.array([list(message)], dtype=np.uint8))[0]
    rows = code.generator.data
    word = 0
    for j in _set_bits(bits):
        word ^= rows[j]
    return _bits(_words([word], code.n), code.n)[0]


def reconstruct_bitwise(code, coords: Sequence[int], values: Sequence[int]) -> np.ndarray:
    """The message solved from the generator columns at an information set."""
    system = BitMatrix.from_bitrows((code.gen_cols[c] for c in coords), code.k)
    solution = solve2(system, sum(int(v) << j for j, v in enumerate(values)))
    return bits_to_array(solution, code.k)


def build_code_parts(inc):
    """(parity_check, generator, info_set, gen_cols) by separate passes:
    greedy independent rows, a column-sweep rref, a second column-sweep
    rref for the null space, and a transpose for the columns."""
    n = inc.num_points
    nmat = BitMatrix.from_bitrows(line_masks_bigint(inc), n)
    keep = independent_row_indices_greedy(nmat)
    if n - len(keep) == 0:
        raise DegenerateCodeError("degenerate code (full-rank incidence)")
    parity = BitMatrix.from_bitrows((nmat.data[i] for i in keep), n)
    reduced, pivots = rref2_column_sweep(parity)
    for r, prow in enumerate(reduced.data):
        if prow == 1 << pivots[r]:
            raise DegenerateCodeError(f"symbol {pivots[r]} is forced to zero")
    generator = nullspace2_column_sweep(parity)
    pivot_set = set(pivots)
    info_set = tuple(c for c in range(n) if c not in pivot_set)
    return parity, generator, info_set, transpose_bitwise(generator).data


# ----------------------------------------------------------------------
# the symbol-by-symbol dual-support search that the census replaced: for
# each symbol i, every support through i is tried in colexicographic order


def _colex_combinations(pool: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """Fixed-size subsets of pool (given ascending), in colexicographic order."""

    def rec(limit: int, size: int) -> Iterator[tuple[int, ...]]:
        if size == 0:
            yield ()
            return
        for last in range(size - 1, limit):
            for rest in rec(last, size - 1):
                yield rest + (pool[last],)

    return rec(len(pool), size)


def _iter_dual_supports(code, i: int, weight: int) -> Iterator[tuple[int, ...]]:
    """Supports of dual codewords of the given exact weight that cover i.

    A binary vector is a dual codeword exactly when the generator columns
    on its support XOR to zero, so each candidate support needs one
    accumulated XOR.  Enumeration order is colexicographic, which makes
    completeness per weight obvious and the cost predictable.
    """
    cols = code.gen_cols
    base = cols[i]
    others = [j for j in range(code.n) if j != i]
    for rest in _colex_combinations(others, weight - 1):
        acc = base
        for j in rest:
            acc ^= cols[j]
        if acc == 0:
            yield tuple(sorted((i,) + rest))


def omega_r_per_symbol(code, i: int, r: int) -> list[RepairVector]:
    """Every dual codeword covering i with weight at most r+1, in weight
    order; checks that coincide with geometry lines carry their index."""
    line_lookup = {
        code.geometry.lines[ln]: ln for ln in code.geometry.lines_through[i]
    }
    found = []
    for w in range(1, r + 2):
        for support in _iter_dual_supports(code, i, w):
            found.append(RepairVector(support, line=line_lookup.get(support)))
    return found


def repair_degree_per_symbol(code, i: int) -> int:
    """Fewest symbols that repair coordinate i through one parity check."""
    for w in range(1, code.pg.s + 2):
        for _ in _iter_dual_supports(code, i, w):
            return w - 1
    raise RuntimeError(
        "no repair vector found up to weight s+1; "
        "the code is inconsistent with its geometry"
    )


def repair_profile_per_symbol(code, r: int | None = None) -> RepairProfile:
    """The exhaustive profile assembled from one search per symbol."""
    n = code.n
    per_r = tuple(repair_degree_per_symbol(code, i) for i in range(n))
    overall_r = max(per_r) if r is None else r
    per_vectors = [omega_r_per_symbol(code, i, overall_r) for i in range(n)]
    per_a = tuple(len(vecs) for vecs in per_vectors)
    per_delta = tuple(
        len(minimum_hitting_set([frozenset(v.helpers(i)) for v in vecs]))
        for i, vecs in enumerate(per_vectors)
    )
    return RepairProfile(
        mode="exhaustive",
        n=n,
        r=overall_r,
        a=min(per_a),
        delta=min(per_delta),
        balanced=len(set(per_delta)) == 1,
        per_symbol_r=per_r,
        per_symbol_a=per_a,
        per_symbol_delta=per_delta,
        repair_sets=tuple(
            tuple(v.helpers(i) for v in vecs) for i, vecs in enumerate(per_vectors)
        ),
    )


# ----------------------------------------------------------------------
# the geometric repair sets read off the geometry's pencils: one
# ``RepairVector.helpers`` call per (symbol, line), on every profile


def geometric_repair_sets_by_helpers(code, r: int | None = None) -> tuple:
    """The geometric profile's repair sets: for each symbol i, the helpers
    of the lines through i of weight at most r+1 (r defaults to s), in
    (weight, line index) order, each from its own ``helpers(i)`` call."""
    lines = code.geometry.lines
    max_weight = (code.pg.s if r is None else r) + 1
    return tuple(
        tuple(RepairVector(lines[ln], line=ln).helpers(i)
              for ln in sorted(pencil, key=lambda ln: (len(lines[ln]), ln))
              if len(lines[ln]) <= max_weight)
        for i, pencil in enumerate(code.geometry.lines_through))


# ----------------------------------------------------------------------
# the MDS test that the derivation replaced: every k-subset of coordinates


def is_mds_scan(code) -> bool:
    """True iff every k-subset of coordinates is an information set."""
    for combo in itertools.combinations(range(code.n), code.k):
        if rank2(BitMatrix.from_bitrows((code.gen_cols[c] for c in combo), code.k)) < code.k:
            return False
    return True


# ----------------------------------------------------------------------
# the repair scan that the plain one replaced: a set of every erased
# position, unioned with the unavailable ones, and one frozenset of
# helpers per check, tested for the first open one


def repair_symbol_first_open(code, received: Sequence[int | None], i: int,
                             unavailable: Iterable[int] = (),
                             vectors: Sequence[RepairVector] | None = None) -> RepairOutcome:
    """``repair_symbol`` by the first check, in (weight, line index with
    lines first, support) order, whose helper set avoids every erased or
    unavailable position."""
    if not 0 <= i < code.n:
        raise ValueError(f"coordinate {i} out of range for length {code.n}")
    if len(received) != code.n:
        raise ValueError(f"received word must have length {code.n}")
    geo = code.geometry
    if vectors is None:
        candidates = [RepairVector(geo.lines[ln], line=ln) for ln in geo.lines_through[i]]
    else:
        candidates = [v for v in vectors if i in v.support]
        for v in candidates:
            if (len(set(v.support)) != len(v.support)
                    or not all(0 <= c < code.n for c in v.support)
                    or functools.reduce(operator.xor, (code.gen_cols[c] for c in v.support))):
                raise ValueError(f"support {v.support} is not a dual codeword of this code")
    ordered = sorted(candidates, key=lambda v: (
        len(v.support), math.inf if v.line is None else v.line, v.support))
    erased = {j for j, value in enumerate(received) if value is None}
    blocked = set(unavailable) | erased
    if i not in blocked:
        raise ValueError(f"symbol {i} is present and available; nothing to repair")
    for v in ordered:
        helpers = frozenset(v.support) - {i}
        if helpers.isdisjoint(blocked):
            break
    else:
        raise NotLocallyRepairableError("not locally repairable under this availability")
    value = 0
    for j in sorted(helpers):
        if received[j] not in (0, 1):
            raise ValueError(f"received entries must be bits, got {received[j]!r} "
                             f"at coordinate {j}")
        value ^= int(received[j])
    return RepairOutcome(value=value, vector=v, retrieved=len(helpers))


# ----------------------------------------------------------------------
# the availability simulator that the chunked kernel replaced: a new
# generator per trial, and each symbol's lines, ordered by (size,
# index), scanned case by case


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """A new generator for one trial, keyed by (seed, trial): the draws
    the simulator's one re-keyed generator must reproduce."""
    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 192))


def trial_rngs_by_array_state(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """One generator, re-keyed for each trial in turn.

    Counter-based: the trial index sits in the top word of the Philox
    counter block, so trial j draws what ``Philox(key=seed, counter=j << 192)``
    draws, whatever the evaluation order.  Setting the state of one bit
    generator costs less than building a new one per trial.  Each yielded
    generator must be drawn from before the next one is taken.
    """
    bit_generator = np.random.Philox(key=seed)
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    for trial in range(trials):
        fresh["state"]["counter"][3] = trial
        bit_generator.state = fresh
        yield rng


def simulate_availability_scalar(code, model: str = "iid", p: float = 0.0,
                                 u: int = 0, trials: int = 1000,
                                 seed: int = 0) -> AvailabilityReport:
    """``simulate_availability`` with the same draws, counted one case and
    one symbol at a time: a symbol is repaired by its first line, in
    (size, index) order, whose other points are all available."""
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
        if not 0.0 <= p <= 1.0:
            raise ParameterError("p must lie in [0, 1]")
        p = float(p)
    elif not 0 <= u <= n:
        raise ParameterError(f"u must lie in [0, {n}]")
    sampled = model == "iid" or math.comb(n, u) > _EXHAUSTIVE_LIMIT
    if sampled and trials < 1:
        raise ParameterError("trials must be positive")
    if not sampled:
        unavailable_sets: Iterable[set[int]] = map(set, itertools.combinations(range(n), u))
    elif model == "iid":
        unavailable_sets = (set(np.flatnonzero(trial_rng(seed, trial).random(n) < p).tolist())
                            for trial in range(trials))
    else:
        unavailable_sets = (set(trial_rng(seed, trial).choice(n, size=u, replace=False).tolist())
                            for trial in range(trials))

    lines = code.geometry.lines
    orders = [sorted(through, key=lambda ln: (len(lines[ln]), ln))
              for through in code.geometry.lines_through]
    succ = [0] * n
    retrieved = [0] * n
    cases = all_ok_cases = 0
    for unavailable in unavailable_sets:
        cases += 1
        all_ok = True
        for i, order in enumerate(orders):
            line = next((lines[ln] for ln in order
                         if all(j == i or j not in unavailable for j in lines[ln])), None)
            if line is None:
                all_ok = False
            else:
                succ[i] += 1
                retrieved[i] += len(line) - 1
        all_ok_cases += all_ok

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


# ----------------------------------------------------------------------
# the chunked availability kernel that the bit-sliced one replaced: one
# uint8 count of unavailable points per (line, case), with the repair
# order tables re-derived by a sort per symbol

# the kernel's arrays are (points or lines) x cases: a chunk of cases
# keeps each under this many cells, which bounds its memory
BYTEWISE_CHUNK_CELLS = 1 << 16


def availability_counts_bytewise(code, unavailable_sets: Iterable[Sequence[int]]
                                 ) -> tuple[list[int], list[int], int, int]:
    """Count, over the given unavailable sets, the cases in which each symbol
    has an open line check and the symbols those repairs read.

    Returns (succ, retrieved, cases, all_ok_cases), as
    ``repair._availability_counts`` does, one column per case: count the
    unavailable points of each line; line l through i is open when that
    count is at most [i unavailable] (i never blocks itself), and i takes
    its first open line in (weight, line index) order.
    """
    geo = code.geometry
    n, num_lines = code.n, geo.num_lines
    sizes = [len(line) for line in geo.lines]
    # row k holds the k-th point of every line; shorter lines are padded
    # with the point n, which is never unavailable
    depth = max(sizes, default=0)
    points = np.full((depth, num_lines), n, dtype=np.intp)
    for ln, line in enumerate(geo.lines):
        points[:len(line), ln] = line
    # row j holds every symbol's j-th line in repair order; a symbol on
    # fewer lines is padded with the line num_lines, whose count of 2
    # never opens
    width = max(map(len, geo.lines_through), default=0)
    order = np.full((width, n), num_lines, dtype=np.intp)
    helpers = np.zeros((width, n), dtype=np.int64)
    for i, through in enumerate(geo.lines_through):
        ranked = sorted(through, key=lambda ln: (sizes[ln], ln))
        order[:len(ranked), i] = ranked
        helpers[:len(ranked), i] = [sizes[ln] - 1 for ln in ranked]
    count_type = np.min_scalar_type(max(depth, 2))  # no count can overflow

    succ = np.zeros(n, dtype=np.int64)
    retrieved = np.zeros(n, dtype=np.int64)
    cases = all_ok_cases = 0
    chunk_size = max(1, BYTEWISE_CHUNK_CELLS // max(n, num_lines))
    pending = iter(unavailable_sets)
    while chunk := list(itertools.islice(pending, chunk_size)):
        unavailable = np.zeros((n + 1, len(chunk)), dtype=np.uint8)
        # an empty case set concatenates as float: cast the indices
        unavailable[np.concatenate(chunk).astype(np.intp, copy=False),
                    np.repeat(np.arange(len(chunk)), [len(c) for c in chunk])] = 1
        blocked = np.zeros((num_lines + 1, len(chunk)), dtype=count_type)
        for row in points:
            blocked[:-1] += unavailable.take(row, axis=0)
        blocked[-1] = 2
        ok = np.zeros((n, len(chunk)), dtype=bool)
        for j in range(width):
            open_j = blocked.take(order[j], axis=0) <= unavailable[:n]
            retrieved += np.count_nonzero(open_j & ~ok, axis=1) * helpers[j]
            ok |= open_j
        succ += np.count_nonzero(ok, axis=1)
        cases += len(chunk)
        all_ok_cases += int(np.count_nonzero(ok.all(axis=0)))
    return succ.tolist(), retrieved.tolist(), cases, all_ok_cases


# ----------------------------------------------------------------------
# the bit-sliced kernel's chunk handling before the byte-wise bit
# transpose: each chunk packed along its strided case axis, one popcount
# sum per repair-order step, and the u-sets read as a list of tuples


def availability_counts_by_strided_pack(code, chunks: Iterable[np.ndarray]
                                         ) -> tuple[list[int], list[int], int, int]:
    """Count, over chunks of cases, the cases in which each symbol has an
    open line check and the symbols those repairs read.

    Each chunk is a boolean cases x n array marking the unavailable
    symbols.  Returns (succ, retrieved, cases, all_ok_cases).  This is
    ``repair_symbol``'s rule on the arrays read off the code's line table
    (see ``_line_arrays``), 64 cases to a ``uint64`` word.  Two
    bit-sliced words per line count its unavailable points up to two, one
    point of every line at a time: ``twice |= once & x`` and then
    ``once |= x``.  Line l is open for i exactly where
    ``~twice & (~once | u_i)`` (i never blocks itself), and the first line
    open in a case where i is not yet repaired, in the row's order, sets
    the symbols read.
    """
    points, order, helpers = code._line_arrays
    n, num_lines = code.n, code.geometry.num_lines
    succ = np.zeros(n, dtype=np.int64)
    retrieved = np.zeros(n, dtype=np.int64)
    cases = all_ok_cases = 0
    for chunk in chunks:
        size = len(chunk)
        words, used = -(-size // 64), -(-size // 8)
        # row j holds symbol j's unavailability, case c at bit c; the
        # row of the padding point n stays zero
        packed = np.zeros((n + 1, 8 * words), dtype=np.uint8)
        packed[:n, :used] = np.packbits(chunk, axis=0, bitorder="little").T
        unavailable = packed.view(np.uint64)
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
        # are never a first open line; they are masked off the counts
        ok = np.tile(~valid, (n, 1))
        for j, lines in enumerate(order):
            open_j = ((not_once.take(lines, axis=0) | unavailable[:n])
                      & not_twice.take(lines, axis=0))
            retrieved += np.bitwise_count(open_j & ~ok).sum(axis=1, dtype=np.int64) * helpers[j]
            ok |= open_j
        succ += np.bitwise_count(ok & valid).sum(axis=1, dtype=np.int64)
        cases += size
        all_ok_cases += int(np.bitwise_count(np.bitwise_and.reduce(ok, axis=0) & valid).sum())
    return succ.tolist(), retrieved.tolist(), cases, all_ok_cases


def set_chunks_by_tuples(sets: Iterable[Sequence[int]], n: int, u: int,
                         size: int) -> Iterator[np.ndarray]:
    """Chunks of ``size`` unavailable sets of u symbols each, scattered
    once per chunk into a cases x n mask."""
    pending = iter(sets)
    while chunk := list(itertools.islice(pending, size)):
        mask = np.zeros((len(chunk), n), dtype=bool)
        mask[np.arange(len(chunk))[:, None],
             np.fromiter(itertools.chain.from_iterable(chunk), np.intp,
                         len(chunk) * u).reshape(len(chunk), u)] = True
        yield mask


# ----------------------------------------------------------------------
# the simulator's set chunks before the u-sets became index arrays: every
# symbol read from one stream of Python items


def set_chunks_by_stream(sets: Iterable[Iterable[int]], count: int, n: int, u: int,
                         size: int) -> Iterator[np.ndarray]:
    """Chunks of ``size`` of the ``count`` unavailable sets, u symbols
    each, scattered once per chunk into a cases x n mask.  The sets are
    read as one stream of symbols, ``cases * u`` of them a chunk, so the
    count alone says how many sets there are, u = 0's one empty set too."""
    stream = itertools.chain.from_iterable(sets)
    for start in range(0, count, size):
        cases = min(size, count - start)
        mask = np.zeros((cases, n), dtype=bool)
        mask[np.arange(cases).repeat(u), np.fromiter(stream, np.intp, cases * u)] = True
        yield mask


# ----------------------------------------------------------------------
# the simulator's set chunks before they were scattered straight into
# symbol-major bit rows: a cases x n mask, packed along the case rows
# and transposed


def set_mask(sets: np.ndarray, n: int) -> np.ndarray:
    """A cases x u index array scattered once into a cases x n mask of
    the unavailable symbols."""
    mask = np.zeros((len(sets), n), dtype=bool)
    mask[np.arange(len(sets))[:, None], sets] = True
    return mask


def set_words_by_mask(sets: np.ndarray, n: int) -> np.ndarray:
    """A cases x u index array as symbol-major ``uint64`` bit rows, case c
    at bit c: its mask packed along each case's row, with a byte past
    symbol n - 1, and the packed chunk, in whole words of cases,
    transposed.  Rows n and up, and the bits past the cases, are zero."""
    chunk = set_mask(sets, n)
    size = len(chunk)
    words = -(-size // 64)
    # whole words of cases, and a byte past symbol n - 1 so that the
    # row of the padding point n is zero
    packed = np.zeros((64 * words, n // 8 + 1), dtype=np.uint8)
    packed[:size, :(n + 7) // 8] = np.packbits(chunk, axis=1, bitorder="little")
    # row j holds symbol j's unavailability, case c at bit c
    return _bit_transpose(packed).view(np.uint64)


# ----------------------------------------------------------------------
# the indented JSON that the command line's writer reproduces


def dumps_indented(obj) -> str:
    """json's pure-Python indented encoding, reading a numpy array, and
    nothing else json cannot encode, as its ``tolist()``."""
    return json.dumps(obj, indent=2, default=_array_list)


def _array_list(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# ----------------------------------------------------------------------
# GF(q) arithmetic one element at a time, on lists of base-p digits, with
# its own copy of the orders and reduction rules


_FIELD_PRIMES = (2, 3, 5, 7, 11, 13)

# Reduction rules x^m = c0 + c1 x + ... for the prime-power orders,
# from the usual primitive polynomials: GF(4) x^2+x+1, GF(8) x^3+x+1,
# GF(9) x^2+2x+2, GF(16) x^4+x+1.
_FIELD_REDUCTIONS = {
    4: (2, 2, (1, 1)),
    8: (2, 3, (1, 1, 0)),
    9: (3, 2, (1, 1)),
    16: (2, 4, (1, 1, 0, 0)),
}

FIELD_ORDERS = tuple(sorted(_FIELD_PRIMES + tuple(_FIELD_REDUCTIONS)))


def small_field_tables_by_digits(q: int):
    """``SmallField(q)``'s ``_add``, ``_mul``, ``_neg`` and ``_inv`` as
    nested tuples, each entry undigited from a digit list: a sum digit by
    digit, a product by convolving the digits and reducing the high terms
    one at a time, an inverse by searching its row of products."""
    if q in _FIELD_PRIMES:
        p, m, reduction = q, 1, ()
    else:
        p, m, reduction = _FIELD_REDUCTIONS[q]

    def to_digits(e: int) -> list[int]:
        out = []
        for _ in range(m):
            out.append(e % p)
            e //= p
        return out

    def undigits(digits: Sequence[int]) -> int:
        e = 0
        for d in reversed(digits):
            e = e * p + d
        return e

    def poly_mul(xd: Sequence[int], yd: Sequence[int]) -> int:
        conv = [0] * (2 * m - 1)
        for i, a in enumerate(xd):
            if not a:
                continue
            for j, b in enumerate(yd):
                conv[i + j] = (conv[i + j] + a * b) % p
        for d in range(2 * m - 2, m - 1, -1):
            coef = conv[d]
            if coef:
                conv[d] = 0
                for i, rc in enumerate(reduction):
                    conv[d - m + i] = (conv[d - m + i] + coef * rc) % p
        return undigits(conv[:m])

    digits = [to_digits(e) for e in range(q)]
    add = tuple(
        tuple(undigits([(a + b) % p for a, b in zip(digits[x], digits[y])])
              for y in range(q))
        for x in range(q)
    )
    neg = tuple(undigits([(-a) % p for a in digits[x]]) for x in range(q))
    mul = tuple(tuple(poly_mul(digits[x], digits[y]) for y in range(q)) for x in range(q))
    inv = [0] * q
    for x in range(1, q):
        inv[x] = next(y for y in range(1, q) if mul[x][y] == 1)
    return add, mul, neg, tuple(inv)


# ----------------------------------------------------------------------
# the quadrangle constructors: every collinear pair spans and normalizes
# its whole line, or every point pair is tested through ``SmallField``
# and the line through a collinear pair is read off the collinear sets;
# and the hyperoval walks every point one field addition at a time


def _projective_points(field, dim: int) -> list[tuple[int, ...]]:
    """Normalized representatives (first nonzero coordinate 1), in lex order."""
    pts = []
    for vec in itertools.product(range(field.q), repeat=dim):
        lead = next((c for c in vec if c), 0)
        if lead == 1:
            pts.append(vec)
    return pts


def _normalize(field, vec: tuple[int, ...]) -> tuple[int, ...]:
    lead = next((c for c in vec if c), 0)
    if lead == 0:
        raise ValueError("cannot normalize the zero vector")
    if lead == 1:
        return tuple(vec)
    scale = field.inv(lead)
    return tuple(field.mul(scale, c) for c in vec)


def _vec_add(field, u, v):
    return tuple(field.add(a, b) for a, b in zip(u, v))


def _vec_scale(field, lam, u):
    return tuple(field.mul(lam, c) for c in u)


def _line_points(field, u, v) -> list[tuple[int, ...]]:
    """All q+1 normalized points of the projective line spanned by u and v."""
    pts = [_normalize(field, u)]
    for lam in field.elements():
        pts.append(_normalize(field, _vec_add(field, v, _vec_scale(field, lam, u))))
    return pts


def _polar_lines(field, points, orthogonal, label: str) -> IncidenceStructure:
    """The given projective points with every line spanned by two of them
    that ``orthogonal`` accepts (the totally isotropic or singular lines)."""
    index = {p: i for i, p in enumerate(points)}
    lines = set()
    for u, v in itertools.combinations(points, 2):
        if orthogonal(u, v):
            lines.add(frozenset(index[p] for p in _line_points(field, u, v)))
    sorted_lines = sorted(tuple(sorted(l)) for l in lines)
    return IncidenceStructure(len(points), tuple(sorted_lines), label=label)


def _polar_lines_by_pairs(points, orthogonal, label: str) -> IncidenceStructure:
    """``_polar_lines`` with one scan over the point pairs into a collinear
    set per point, each line a collinear pair and the points collinear
    with both (a generalized quadrangle has no triangles)."""
    perp: list[set[int]] = [set() for _ in points]
    for (i, u), (j, v) in itertools.combinations(enumerate(points), 2):
        if orthogonal(u, v):
            perp[i].add(j)
            perp[j].add(i)
    lines = {tuple(sorted({i, j} | (perp[i] & perp[j])))
             for i, collinear in enumerate(perp) for j in collinear if i < j}
    return IncidenceStructure(len(points), tuple(sorted(lines)), label=label)


def _symplectic_form(field):
    """Whether x1 y2 - x2 y1 + x3 y4 - x4 y3 vanishes on a pair of points."""
    def orthogonal(u, v):
        a = field.add(field.mul(u[0], v[1]), field.mul(u[2], v[3]))
        b = field.add(field.mul(u[1], v[0]), field.mul(u[3], v[2]))
        return field.sub(a, b) == 0

    return orthogonal


def _elliptic_quadric(q: int):
    """GF(q) and x0 x1 + x2 x3 + g(x4, x5) with g anisotropic:
    q = 2: g = u^2 + uv + v^2; q = 3: g = u^2 + v^2 (-1 is a non-square)."""
    if q not in (2, 3):
        raise ParameterError("elliptic quadric construction supports q in {2, 3}")
    field = small_field(q)
    gb = 1 if q == 2 else 0

    def quad(x):
        head = field.add(field.mul(x[0], x[1]), field.mul(x[2], x[3]))
        tail = field.add(field.mul(x[4], x[4]), field.mul(x[5], x[5]))
        if gb:
            tail = field.add(tail, field.mul(x[4], x[5]))
        return field.add(head, tail)

    return field, quad


def symplectic_gq_by_spans(q: int) -> IncidenceStructure:
    """``geometry.symplectic_gq`` with each isotropic pair's span normalized."""
    field = small_field(q)
    return _polar_lines(field, _projective_points(field, 4), _symplectic_form(field),
                        f"symplectic-gq({q})")


def symplectic_gq_by_pairs(q: int) -> IncidenceStructure:
    """``geometry.symplectic_gq`` testing every point pair through ``SmallField``."""
    field = small_field(q)
    return _polar_lines_by_pairs(_projective_points(field, 4), _symplectic_form(field),
                                 f"symplectic-gq({q})")


def elliptic_quadric_gq_by_spans(q: int) -> IncidenceStructure:
    """``geometry.elliptic_quadric_gq`` with each singular pair's span
    normalized and the full polar form Q(u+v) - Q(u) - Q(v)."""
    field, quad = _elliptic_quadric(q)

    def orthogonal(u, v):
        return field.sub(field.sub(quad(_vec_add(field, u, v)), quad(u)), quad(v)) == 0

    points = [p for p in _projective_points(field, 6) if quad(p) == 0]
    return _polar_lines(field, points, orthogonal, f"elliptic-quadric-gq({q})")


def elliptic_quadric_gq_by_pairs(q: int) -> IncidenceStructure:
    """``geometry.elliptic_quadric_gq`` testing every singular point pair
    through ``SmallField`` by Q(u+v) = 0, as the points are singular."""
    field, quad = _elliptic_quadric(q)

    def orthogonal(u, v):
        return quad(_vec_add(field, u, v)) == 0

    points = [p for p in _projective_points(field, 6) if quad(p) == 0]
    return _polar_lines_by_pairs(points, orthogonal, f"elliptic-quadric-gq({q})")


def hyperoval_gq_by_steps(q: int) -> IncidenceStructure:
    """``geometry.hyperoval_gq`` walking every uncovered point along each
    direction, one ``SmallField.add`` per coordinate."""
    if q not in (4, 8, 16):
        raise ParameterError("hyperoval construction supports q in {4, 8, 16}")
    field = small_field(q)
    # conic y z = x^2, parameterized, together with its nucleus (1 : 0 : 0)
    directions = [(t, 1, field.mul(t, t)) for t in field.elements()]
    directions += [(0, 0, 1), (1, 0, 0)]

    qq = q * q
    num_points = q * qq
    lines = []
    for d in directions:
        steps = [_vec_scale(field, lam, d) for lam in field.elements()]
        covered = bytearray(num_points)
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    i0 = x * qq + y * q + z
                    if covered[i0]:
                        continue
                    pts = []
                    for st in steps:
                        px = field.add(x, st[0])
                        py = field.add(y, st[1])
                        pz = field.add(z, st[2])
                        pi = px * qq + py * q + pz
                        pts.append(pi)
                        covered[pi] = 1
                    lines.append(tuple(sorted(pts)))
    return IncidenceStructure(
        num_points, tuple(sorted(lines)), label=f"hyperoval-gq({q})"
    )


# ----------------------------------------------------------------------
# the quadrangle constructors that meet two rows of an n x n collinearity
# table once per collinear pair and deduplicate the lines in a set, and
# the hyperoval that sorts every point's coset along each direction


def _polar_lines_by_pair_meets(points, orthogonal, label: str) -> IncidenceStructure:
    """The given projective points with every line spanned by two of them
    that ``orthogonal`` accepts (the totally isotropic or singular lines).

    ``orthogonal`` takes coordinate-first arrays that broadcast, so one call
    per point gives its row of collinear points, itself included.  A
    generalized quadrangle has no triangles: for collinear u != v, the points
    collinear with both are the points of the line uv, the meet of two rows.
    """
    coords, n = points.T, len(points)
    collinear = np.fromiter((orthogonal(u[:, None], coords) for u in points),
                            dtype=(bool, n), count=n)
    lines = {tuple(np.flatnonzero(row & collinear[v]).tolist())
             for u, row in enumerate(collinear) for v in np.flatnonzero(row[u + 1:]) + u + 1}
    return IncidenceStructure(n, tuple(sorted(lines)), label=label)


def symplectic_gq_by_pair_meets(q: int) -> IncidenceStructure:
    """``geometry.symplectic_gq`` meeting two rows once per collinear pair."""
    field = small_field(q)
    add, mul = field._add, field._mul

    def orthogonal(u, v):
        return add[mul[u[0], v[1]], mul[u[2], v[3]]] == add[mul[u[1], v[0]], mul[u[3], v[2]]]

    return _polar_lines_by_pair_meets(_projective_point_rows(q, 4), orthogonal,
                                      f"symplectic-gq({q})")


def elliptic_quadric_gq_by_pair_meets(q: int) -> IncidenceStructure:
    """``geometry.elliptic_quadric_gq`` meeting two rows once per collinear pair."""
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

    points = _projective_point_rows(q, 6)
    return _polar_lines_by_pair_meets(points[quad(points.T) == 0], orthogonal,
                                      f"elliptic-quadric-gq({q})")


def hyperoval_gq_by_coset_sorts(q: int) -> IncidenceStructure:
    """``geometry.hyperoval_gq`` sorting every point's coset along each
    direction and keeping the cosets that start at their point."""
    if q not in (4, 8, 16):
        raise ParameterError("hyperoval construction supports q in {4, 8, 16}")
    mul = small_field(q)._mul
    # conic y z = x^2, parameterized, together with its nucleus (1 : 0 : 0)
    directions = [(t, 1, mul[t, t]) for t in range(q)] + [(0, 0, 1), (1, 0, 0)]

    # Elements of GF(2^m) are bit vectors, so addition is XOR, and so is the
    # addition of points (x, y, z) = x q^2 + y q + z.  The line through p
    # with direction d is p XOR each multiple of d: one coset of the steps
    # per line, kept at its least point.
    qq = q * q
    points = np.arange(q * qq)
    lines = []
    for x, y, z in directions:
        steps = mul[:, x] * qq + mul[:, y] * q + mul[:, z]
        cosets = np.sort(points[:, None] ^ steps, axis=1)
        lines += cosets[cosets[:, 0] == points].tolist()
    return IncidenceStructure(q * qq, tuple(sorted(map(tuple, lines))),
                              label=f"hyperoval-gq({q})")


# ----------------------------------------------------------------------
# the closed forms of the rate bounds at (s, t, alpha) = (r, a-1, 1)


def rate_lower_closed(r: int, a: int) -> Fraction:
    """r^2 / ((a+r-1)(r+1))."""
    return Fraction(r * r, (a + r - 1) * (r + 1))


def rate_upper_closed(r: int, a: int) -> Fraction | None:
    """(a(r^2-r+1) - (r-1)^2) / ((a+r-1)(r(a-1)+1)); None when r + a - 1
    is odd."""
    if (r + a - 1) % 2:
        return None
    return Fraction(
        a * (r * r - r + 1) - (r - 1) ** 2,
        (a + r - 1) * (r * (a - 1) + 1),
    )


# ----------------------------------------------------------------------
# the catalog's exact rates, each from a code built on its quadrangle


def exact_rate_by_building(s: int, t: int) -> Fraction | None:
    """k/n of the code built on the quadrangle of order (s, t) that the
    exact-rank catalog rates, or None where it rates none: the grids up to
    z = 31, W(q) for q <= 4, Q-(5, q), T2*(O) and the duals of the last
    two, each structure built (a dual through ``dual``) and made into a
    full code by ``build_code``."""
    if t == 1 and 1 <= s <= 31:
        inc = grid(s)
    elif s == t and s in (2, 3, 4):
        inc = symplectic_gq(s)
    elif t == s * s and s in (2, 3):
        inc = elliptic_quadric_gq(s)
    elif s == t * t and t in (2, 3):
        inc = dual(elliptic_quadric_gq(t))
    elif t == s + 2 and s + 1 in (4, 8, 16):
        inc = hyperoval_gq(s + 1)
    elif s == t + 2 and t + 1 in (4, 8, 16):
        inc = dual(hyperoval_gq(t + 1))
    else:
        return None
    built = build_code(inc)
    return Fraction(built.k, built.n)


# ----------------------------------------------------------------------
# the catalog that rates one grid entry per z up to isqrt(max_n) + 2 and
# folds them into the family entry


def catalog_by_fold(max_n: int = 100, min_rate: Fraction = Fraction(1, 3),
                    estimator: str = "theorem-upper-bound") -> list[CatalogEntry]:
    """``bounds.catalog`` rating every grid (z, 1) up to z = isqrt(max_n) + 2
    and folding the entries into the family entry."""
    if estimator not in ESTIMATORS:
        raise ParameterError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    max_n = _as_index(max_n, "max_n")
    if max_n < 0:
        raise ParameterError("max_n must be non-negative")
    min_rate = Fraction(min_rate)

    primal = set(known_gq_parameters(max_z=max(2, math.isqrt(max_n) + 2)))

    entries: list[CatalogEntry] = []
    for (s, t) in sorted(primal | {(t, s) for s, t in primal}):
        if s < 2:
            continue
        n = (s + 1) * (s * t + 1)
        rate_est, est_used = _estimate_rate(s, t, n, estimator, max_n)
        if n > max_n:
            exclusion = f"n = {n} exceeds max_n = {max_n}"
        elif rate_est <= min_rate:
            exclusion = f"rate estimate {rate_est} is not above {min_rate}"
        else:
            exclusion = None
        entries.append(CatalogEntry(
            r=s, a=t + 1, s=s, t=t, via_dual=(s, t) not in primal, n=n,
            rate_estimate=rate_est, estimator=est_used,
            passes_filter=exclusion is None, exclusion=exclusion,
        ))

    # the grids (z, 1), z >= 2, always present since max_z >= 2, fold into
    # one family entry: over the survivors, the worst rate and the largest
    # n; with none, the smallest grid's verdict
    grids = [e for e in entries if e.t == 1]
    entries = [e for e in entries if e.t != 1]
    surviving = [e for e in grids if e.passes_filter]
    family = grids[0]
    if surviving:
        family = replace(
            min(surviving, key=lambda e: e.rate_estimate),
            n=max(e.n for e in surviving),
            family_r_range=(min(e.r for e in surviving), max(e.r for e in surviving)),
        )
    # the family leads; the rest keep the order of the sorted (s, t)
    # pairs, which is (r, a) order
    return [replace(family, r=None, s=None, via_dual=True), *entries]
