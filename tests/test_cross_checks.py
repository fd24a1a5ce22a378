"""The package's fast paths against the direct forms kept in ``oracles``.

The quadrangle constructors read each line off the geometry, as the
meet of two points' rows of collinear points or as an XOR coset; they
must build the very structures that normalizing every pair's span,
testing every point pair through ``SmallField`` and walking every point
one field addition at a time built.

Validation runs a per-point union test and a counting certificate on
packed words, its sums read off bit-sliced count planes, and reads a
rejection's witness only at the points they flag, code building runs
one packed elimination that keeps its pivot rows reduced, 64 rows a
block with Four-Russians tables, geometric tolerance is read off the
line count, the exhaustive metrics come from one meet-in-the-middle
census of low-weight dual codewords, and the MDS verdict
(``oracles.is_mds``) is derived rather than scanned; each must agree
with the pairwise scans, the big-int
certificate and the pair-by-pair sums, the big-int, row-by-row packed
and column-sweep eliminations, the null space unpacked a block of rows
at a time, the hitting-set search, the symbol-by-symbol dual-support
search and the subset-by-subset MDS test they replace.
``repair_symbol`` reads only the helpers of the checks it
tries; it must agree with the whole-word scan it replaced, error
messages included.  The availability simulator re-keys one
generator per trial from a plain-int state and counts chunks of cases
at once, 64 to a word; each trial must draw what a new generator and
the re-key from numpy's array state draw, the reports must agree with
the case-by-case scan, with a new generator per trial, it replaced,
its kernel with the one-byte-per-case counts it replaced and with its
own form that packed each chunk along the strided case axis, and, on
line checks, with the exact availability that the disjoint line helper
sets give.  The byte-wise bit transpose must give what unpacking each
word column to bytes gave, on every shape at its byte and word edges,
and the u-sets read as one stream of symbols the masks that a list of
tuples gave.
"""

import dataclasses
import itertools
import json
import math
import pickle
import random
import re
import statistics
import types
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from pgblrc.algebra import (
    BitMatrix,
    _bit_transpose,
    _eliminate,
    _ints,
    _nullspace,
    _support_words,
    _transpose,
    _words,
    independent_row_indices,
    nullspace2,
    rref2,
)
from pgblrc.code import BlrcCode, build_code, encode, reconstruct
from pgblrc.errors import (DegenerateCodeError, NotLocallyRepairableError,
                           ParameterError, PgValidationError)
from pgblrc.geometry import (
    IncidenceStructure,
    PgParams,
    dual,
    elliptic_quadric_gq,
    grid,
    hyperoval_gq,
    incidence_matrix,
    load,
    symplectic_gq,
    validate_pg,
)
from pgblrc import algebra, cli, code as code_mod, geometry, repair
from pgblrc.repair import (
    _EXHAUSTIVE_LIMIT,
    RepairProfile,
    RepairVector,
    blocking_set,
    line_repair_sets,
    minimum_hitting_set,
    omega_r,
    repair_profile,
    repair_symbol,
    simulate_availability,
)

import oracles
from oracles import (
    as_bits_checked_first,
    availability_counts_by_strided_pack,
    availability_counts_bytewise,
    bits_to_array,
    bose_sums_by_pairs,
    build_code_parts,
    certify_bigint,
    echelon_bigint,
    eliminate_by_rows,
    elliptic_quadric_gq_by_pair_meets,
    elliptic_quadric_gq_by_pairs,
    elliptic_quadric_gq_by_spans,
    encode_bitwise,
    encode_by_int_rows,
    geometric_repair_sets_by_helpers,
    hyperoval_gq_by_coset_sorts,
    hyperoval_gq_by_steps,
    independent_row_indices_greedy,
    is_mds,
    is_mds_scan,
    line_masks_bigint,
    matrix_array,
    matrix_product,
    nullspace2_column_sweep,
    nullspace_by_blocks,
    omega_r_per_symbol,
    rank2,
    repair_degree_per_symbol,
    repair_profile_per_symbol,
    reconstruct_bitwise,
    repair_symbol_first_open,
    rref2_column_sweep,
    set_chunks_by_stream,
    set_chunks_by_tuples,
    set_mask,
    set_words_by_mask,
    simulate_availability_scalar,
    solve2,
    symplectic_gq_by_pair_meets,
    symplectic_gq_by_pairs,
    symplectic_gq_by_spans,
    transpose_bitwise,
    transpose_by_unpacking,
    trial_rng,
    trial_rngs_by_array_state,
    validate_pg_pairwise,
)
from test_geometry import latin_square_net
from test_repair import unbalanced_code

FIXTURES = Path(__file__).parent / "fixtures"

LADDER = {
    "grid8": lambda: grid(8),
    "symplectic4": lambda: symplectic_gq(4),
    "elliptic3": lambda: elliptic_quadric_gq(3),
    "hyperoval8": lambda: hyperoval_gq(8),
    "dual_elliptic2": lambda: dual(elliptic_quadric_gq(2)),
}


@lru_cache(maxsize=None)
def ladder(name):
    return LADDER[name]()


@lru_cache(maxsize=None)
def ladder_code(name):
    return build_code(ladder(name))


def outcome(validate, inc):
    """The parameters, or the (kind, witness, message) of the rejection."""
    try:
        return validate(inc)
    except PgValidationError as exc:
        return (exc.kind, exc.witness, str(exc))


# ------------------------------------------------------------ constructors

@pytest.mark.parametrize("build, oracle, q", [
    *[(symplectic_gq, oracle, q) for oracle in (symplectic_gq_by_spans, symplectic_gq_by_pairs)
      for q in (2, 3, 4, 5)],
    *[(symplectic_gq, symplectic_gq_by_pair_meets, q) for q in (2, 3, 4, 5, 7, 8, 9)],
    *[(elliptic_quadric_gq, oracle, q)
      for oracle in (elliptic_quadric_gq_by_spans, elliptic_quadric_gq_by_pairs,
                     elliptic_quadric_gq_by_pair_meets) for q in (2, 3)],
    *[(hyperoval_gq, oracle, q) for oracle in (hyperoval_gq_by_steps, hyperoval_gq_by_coset_sorts)
      for q in (4, 8, 16)],
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_quadrangle_constructors_match_the_span_and_step_oracles(build, oracle, q):
    assert build(q) == oracle(q)   # points, line tuples and label


# -------------------------------------------------------------- validation


@pytest.mark.parametrize("name", sorted(LADDER))
def test_validate_pg_matches_pairwise_scan_on_ladder(name):
    inc = ladder(name)
    assert validate_pg(inc) == validate_pg_pairwise(inc) == certify_bigint(inc)


def _move_one_incidence(rng, lines, num_points):
    li = rng.randrange(len(lines))
    line = lines[li]
    drop = rng.choice(line)
    add = rng.choice([p for p in range(num_points) if p not in line])
    lines[li] = tuple(sorted(set(line) - {drop} | {add}))


def _swap_between_lines(rng, lines, num_points):
    while True:
        i, j = rng.sample(range(len(lines)), 2)
        only_i = sorted(set(lines[i]) - set(lines[j]))
        only_j = sorted(set(lines[j]) - set(lines[i]))
        if only_i and only_j:
            break
    p, q = rng.choice(only_i), rng.choice(only_j)
    lines[i] = tuple(sorted(set(lines[i]) - {p} | {q}))
    lines[j] = tuple(sorted(set(lines[j]) - {q} | {p}))


def _assert_counts_follow(pg):
    """The conditions ``validate_pg`` derives rather than checks."""
    s, t, alpha = pg.s, pg.t, pg.alpha
    assert 1 <= alpha <= min(s + 1, t + 1)
    assert pg.num_points * alpha == (s + 1) * (s * t + alpha)
    assert pg.num_lines * alpha == (t + 1) * (s * t + alpha)


@pytest.mark.parametrize("name, make", [
    ("grid4", lambda: grid(4)),
    ("symplectic3", lambda: symplectic_gq(3)),
    ("fano", lambda: load(FIXTURES / "fano.txt")),
    ("symplectic2", lambda: symplectic_gq(2)),
    ("dual_elliptic2", lambda: dual(elliptic_quadric_gq(2))),
    ("hyperoval4", lambda: hyperoval_gq(4)),
    ("ag23", lambda: load(FIXTURES / "ag23.txt")),
])
def test_validate_pg_matches_pairwise_scan_on_mutations(name, make):
    base = make()
    _assert_counts_follow(validate_pg(base))
    rng = random.Random(f"mutations:{name}")
    rejected = 0
    for trial in range(120):
        lines = list(base.lines)
        mutate = _move_one_incidence if trial % 2 else _swap_between_lines
        for _ in range(1 + trial % 3):
            mutate(rng, lines, base.num_points)
        if len(set(lines)) < len(lines):
            continue
        inc = IncidenceStructure(base.num_points, tuple(lines))
        got = outcome(validate_pg, inc)
        assert got == outcome(validate_pg_pairwise, inc) == outcome(certify_bigint, inc)
        if isinstance(got, PgParams):
            _assert_counts_follow(got)
        rejected += isinstance(got, tuple)
    assert rejected > 60


@pytest.mark.parametrize("p, q, kind", [
    (497, 506, "line-intersection"),
    (503, 511, "alpha"),
])
def test_validate_pg_matches_pairwise_scan_on_a_late_swap(p, q, kind):
    """hyperoval(8) with point p of its second-to-last line and point q of
    its last line swapped: the witness lies far from the first pairs."""
    base = ladder("hyperoval8")
    lines = list(base.lines)
    assert p in lines[-2] and q in lines[-1]
    lines[-2] = tuple(sorted(set(lines[-2]) - {p} | {q}))
    lines[-1] = tuple(sorted(set(lines[-1]) - {q} | {p}))
    inc = IncidenceStructure(base.num_points, tuple(lines))
    got = outcome(validate_pg, inc)
    assert got[0] == kind
    assert got == outcome(validate_pg_pairwise, inc) == outcome(certify_bigint, inc)


def assert_bose_sums_match_the_pairs(inc, monkeypatch):
    """The bit-sliced Bose sums against the pair-by-pair ones, and
    ``validate_pg``'s verdict, witness included, with either kernel (each
    on a fresh copy of the structure, which keeps its certificate)."""
    table = geometry._collinearity_table(inc, _support_words(inc.lines, inc.num_points))
    assert geometry._bose_sums(inc, table) == bose_sums_by_pairs(inc, table)
    got = outcome(validate_pg, IncidenceStructure(inc.num_points, inc.lines))
    with monkeypatch.context() as patched:
        patched.setattr(geometry, "_bose_sums", bose_sums_by_pairs)
        assert outcome(validate_pg, IncidenceStructure(inc.num_points, inc.lines)) == got
    return got


@pytest.mark.parametrize("name", sorted(LADDER))
def test_bose_sums_match_the_pairs_on_ladder_and_duals(name, monkeypatch):
    for inc in (ladder(name), dual(ladder(name))):
        assert isinstance(assert_bose_sums_match_the_pairs(inc, monkeypatch), PgParams)


@pytest.mark.parametrize("words", [1, 1000])
def test_bose_sums_match_the_pairs_a_few_lines_a_chunk(words, monkeypatch):
    # one line a chunk, and chunks that end inside the line list; at the
    # default budget every ladder structure is one chunk
    monkeypatch.setattr(geometry, "_BOSE_WORDS", words)
    for inc in (ladder("hyperoval8"), dual(ladder("elliptic3")), ladder("grid8")):
        assert isinstance(assert_bose_sums_match_the_pairs(inc, monkeypatch), PgParams)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_bose_sums_match_the_pairs_on_swapped_lines(name, monkeypatch):
    # a swap keeps every line size and point degree, so the sums are
    # defined; one that keeps axiom 3 reaches the counting certificate
    kinds = set()
    for inc in (ladder(name), dual(ladder(name))):
        rng = random.Random(f"bose:{inc.num_points}:{inc.num_lines}")
        for trial in range(6):
            lines = list(inc.lines)
            for _ in range(1 + trial % 2):
                _swap_between_lines(rng, lines, inc.num_points)
            if len(set(lines)) == len(lines):
                got = assert_bose_sums_match_the_pairs(
                    IncidenceStructure(inc.num_points, tuple(lines)), monkeypatch)
                kinds.add(got[0] if isinstance(got, tuple) else "accepted")
    assert kinds & {"alpha", "line-intersection"}


@pytest.mark.parametrize("p, q", [(497, 506), (503, 511)])
def test_bose_sums_match_the_pairs_on_a_late_swap(p, q, monkeypatch):
    lines = list(ladder("hyperoval8").lines)
    lines[-2] = tuple(sorted(set(lines[-2]) - {p} | {q}))
    lines[-1] = tuple(sorted(set(lines[-1]) - {q} | {p}))
    got = assert_bose_sums_match_the_pairs(IncidenceStructure(512, tuple(lines)), monkeypatch)
    assert got[0] in ("alpha", "line-intersection")


# ------------------------------------------------------------ elimination


def assert_kernel_matches_oracles(m):
    """The kernel's packed rows, pivots and kept rows against the big-int
    elimination and the row-by-row packed one, and the null space read
    off the packed rows against the column sweep's basis and the
    block-by-block unpacking."""
    words = _words(m.data, m.cols)
    reduced, pivots, independent = _eliminate(words)
    expected = echelon_bigint(m)
    assert (tuple(_ints(reduced)), tuple(pivots), tuple(independent)) == expected
    by_rows, by_rows_pivots, by_rows_kept = eliminate_by_rows(words)
    assert reduced.dtype == by_rows.dtype and np.array_equal(reduced, by_rows)
    assert (pivots, independent) == (by_rows_pivots, by_rows_kept)
    free, basis = _nullspace(reduced, pivots, m.cols)
    assert free == tuple(c for c in range(m.cols) if c not in expected[1])
    assert basis == nullspace2_column_sweep(m).data
    assert (free, basis) == nullspace_by_blocks(reduced, pivots, m.cols)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_echelon_matches_bigint_elimination_on_ladder(name):
    assert_kernel_matches_oracles(incidence_matrix(ladder(name)))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_echelon_matches_bigint_elimination_on_ladder_duals(name):
    assert_kernel_matches_oracles(incidence_matrix(dual(ladder(name))))


@pytest.mark.parametrize("name", sorted(LADDER))
def test_build_code_matches_separate_passes_on_ladder(name):
    code = ladder_code(name)
    parity, generator, info_set, gen_cols = build_code_parts(ladder(name))
    assert code.parity_check == parity
    assert code.generator == generator
    assert code.info_set == info_set
    assert code.gen_cols == gen_cols


def test_validate_then_build_certifies_the_structure_once(monkeypatch):
    certified = []

    def counting_certify(inc):
        certified.append(inc)
        return certify(inc)

    certify = geometry._certify
    monkeypatch.setattr(geometry, "_certify", counting_certify)
    inc = grid(3)
    pg = validate_pg(inc)
    code = build_code(inc)
    assert len(certified) == 1 and certified[0] is inc
    assert code.pg is pg
    assert pg == validate_pg_pairwise(inc)
    # a fresh, equal structure is certified on its own and builds the same code
    assert build_code(grid(3)) == code
    assert len(certified) == 2


def _random_bitmatrix(rng, rows, cols):
    density = rng.choice([0.1, 0.3, 0.5, 0.8])
    return BitMatrix.from_bitrows(
        (sum(1 << j for j in range(cols) if rng.random() < density)
         for _ in range(rows)),
        cols,
    )


def _edge_bitmatrix(rng, rows, cols):
    """A random matrix with all-zero columns, all-zero rows and repeats of
    earlier rows mixed in."""
    live = rng.getrandbits(cols) if cols else 0
    data = [row & live for row in _random_bitmatrix(rng, rows, cols).data]
    for r in range(rows):
        pick = rng.random()
        if pick < 0.15:
            data[r] = 0
        elif pick < 0.3 and r:
            data[r] = data[rng.randrange(r)]
    return BitMatrix(rows, cols, tuple(data))


def _augment(m, rhs):
    """The system solve2 reduces: M with the right-hand side as a last column."""
    return BitMatrix.from_bitrows(
        (row | (((rhs >> r) & 1) << m.cols) for r, row in enumerate(m.data)),
        m.cols + 1,
    )


def test_elimination_matches_column_sweep_on_random_matrices():
    rng = random.Random(1302)
    cases = []
    for _ in range(200):
        cases.append(_random_bitmatrix(rng, rng.randrange(1, 24), rng.randrange(1, 24)))
    for _ in range(100):
        n = rng.randrange(1, 16)
        square = _random_bitmatrix(rng, n, n)
        cases.append(_augment(square, rng.getrandbits(n)))
    for _ in range(6):
        # wide enough to span several of the kernel's unpacking blocks
        cases.append(_random_bitmatrix(rng, rng.randrange(60, 160), rng.randrange(100, 260)))
    for cols in (0, 1, 63, 64, 65, 128):
        # no rows, fewer rows than columns and more, across word boundaries
        for rows in (0, 1, cols // 2, cols + 3, 2 * cols + 5):
            cases.append(_edge_bitmatrix(rng, rows, cols))
    for m in cases:
        assert_kernel_matches_oracles(m)
        assert rref2(m) == rref2_column_sweep(m)
        assert nullspace2(m) == nullspace2_column_sweep(m)
        assert independent_row_indices(m) == independent_row_indices_greedy(m)


def _spanned_bitmatrix(rng, rows, cols, rank):
    """Rows drawn from the span of ``rank`` random rows: each a random
    sum of them, or zero, or a repeat of an earlier row."""
    basis = [rng.getrandbits(cols) for _ in range(rank)] if cols else []
    data = []
    for r in range(rows):
        pick = rng.random()
        if pick < 0.1 or not basis:
            data.append(0)
        elif pick < 0.2 and data:
            data.append(data[rng.randrange(r)])
        else:
            acc = 0
            for row in basis:
                if rng.random() < 0.5:
                    acc ^= row
            data.append(acc)
    return BitMatrix(rows, cols, tuple(data))


def _blocks_adding(rng, cols, adds):
    """A matrix of ``_eliminate``'s blocks of 64 rows, block b raising the
    rank by adds[b]: that many rows of it are independent of all rows
    above them, at random places; the others are sums of rows above,
    zero rows and repeats."""
    data, rank = [], 0
    for add in adds:
        fresh = set(rng.sample(range(64), add))
        for r in range(64):
            if r in fresh:
                while True:
                    row = rng.getrandbits(cols)
                    if len(echelon_bigint(BitMatrix(len(data) + 1, cols, (*data, row)))[1]) > rank:
                        break
                rank += 1
            elif not data or rng.random() < 0.1:
                row = 0
            elif rng.random() < 0.2:
                row = data[rng.randrange(len(data))]
            else:
                row = 0
                for other in rng.sample(data, min(len(data), 3)):
                    row ^= other
            data.append(row)
    return BitMatrix(len(data), cols, tuple(data))


def test_elimination_matches_both_oracles_at_block_and_group_edges():
    # row counts at the edges of a Four-Russians group of 8 and of a
    # block of 64, column counts at the word edges; full rank, low rank
    # and zero, repeated and dependent rows
    rng = random.Random(4298)
    for rows in (0, 1, 7, 8, 9, 63, 64, 65, 129):
        for cols in (1, 63, 64, 65, 200):
            assert_kernel_matches_oracles(_random_bitmatrix(rng, rows, cols))
            assert_kernel_matches_oracles(_edge_bitmatrix(rng, rows, cols))
            for rank in {0, 1, 8, 9, min(rows, cols) // 2}:
                assert_kernel_matches_oracles(_spanned_bitmatrix(rng, rows, cols, rank))


@pytest.mark.parametrize("cols, adds", [
    (200, (64, 0, 1, 8, 9)),
    (200, (9, 64, 8, 0, 1, 64)),
    (65, (64, 1, 0)),
    (65, (1, 8, 9, 0, 47)),
    (64, (8, 9, 1, 0, 46)),
    (63, (0, 63, 0)),
])
def test_elimination_matches_both_oracles_on_blocks_adding_set_pivot_counts(cols, adds):
    m = _blocks_adding(random.Random(f"blocks:{cols}:{adds}"), cols, adds)
    ranks = [len(echelon_bigint(BitMatrix(64 * b, cols, m.data[:64 * b]))[1])
             for b in range(1, len(adds) + 1)]
    assert ranks == list(itertools.accumulate(adds))
    assert_kernel_matches_oracles(m)


def test_elimination_reduces_dense_blocks_a_few_rows_a_gather(monkeypatch):
    # a dense block gathers its pivot rows a few rows at a time, down to
    # one row a gather when the budget is below one row's pivot rows
    rng = random.Random(6142)
    cases = [_random_bitmatrix(rng, 150, 130), _spanned_bitmatrix(rng, 140, 200, 90)]
    for budget in (1, 64, 1000):
        monkeypatch.setattr(algebra, "_GATHER", budget)
        for m in cases:
            assert_kernel_matches_oracles(m)


def test_solve2_agrees_with_column_sweep_on_augmented_systems():
    rng = random.Random(5518)
    for _ in range(150):
        n = rng.randrange(1, 16)
        square = _random_bitmatrix(rng, n, n)
        rhs = rng.getrandbits(n)
        reduced, pivots = rref2_column_sweep(_augment(square, rhs))
        if len(pivots) < n or pivots[-1] == n:
            assert solve2(square, rhs) is None
        else:
            expected = sum(((reduced.data[r] >> n) & 1) << p for r, p in enumerate(pivots))
            assert solve2(square, rhs) == expected


# ------------------------------------------------------------------ codec


def _same_array(got, expected):
    """Same dtype, shape and bytes."""
    return (got.dtype == expected.dtype == np.uint8 and got.shape == expected.shape
            and got.tobytes() == expected.tobytes())


def test_bit_rows_match_bitwise_oracles_on_random_shapes():
    rng = random.Random(6407)
    shapes = [(0, 0), (0, 5), (7, 0), (1, 1), (3, 64), (64, 3), (65, 129),
              (9, 200), (130, 63), (8, 8), (1, 513)]
    shapes += [(rng.randrange(150), rng.randrange(150)) for _ in range(40)]
    for rows, cols in shapes:
        m = _random_bitmatrix(rng, rows, cols)
        t = m.transpose()
        assert t == transpose_bitwise(m)
        assert t.transpose() == m
        expected = np.array([bits_to_array(row, cols) for row in m.data],
                            dtype=np.uint8).reshape(rows, cols)
        assert _same_array(matrix_array(m), expected)
        product = expected.astype(int) @ expected.T.astype(int) % 2
        assert _same_array(matrix_array(matrix_product(m, t)), product.astype(np.uint8))


def test_an_empty_side_transposes_as_the_unpacking_transpose_did():
    # no rows give one zero row per column, and no columns give no rows
    assert _transpose([], 5) == transpose_by_unpacking([], 5) == [0] * 5
    assert _transpose([0, 0, 0], 0) == transpose_by_unpacking([0, 0, 0], 0) == []
    assert _transpose([], 0) == transpose_by_unpacking([], 0) == []


EDGE_SIZES = (0, 1, 7, 8, 9, 63, 64, 65, 200)


@pytest.mark.parametrize("rows", EDGE_SIZES)
def test_bit_transpose_matches_the_unpacking_transpose_on_edge_shapes(rows):
    # rows about a group of 8 and columns about a byte and a word; the
    # kernel swaps bits in place, on a copy, never on the caller's array
    rng = np.random.default_rng(rows)
    for cols in EDGE_SIZES:
        packed = rng.integers(0, 256, (rows, cols), dtype=np.uint8)
        kept = packed.copy()
        got = _bit_transpose(packed)
        bits = np.unpackbits(packed, axis=1, bitorder="little")
        expected = np.packbits(np.ascontiguousarray(bits.T), axis=1, bitorder="little")
        assert _same_array(got, expected) and got.flags.c_contiguous, cols
        assert np.array_equal(packed, kept), cols
        bit_rows = [int.from_bytes(rng.bytes(-(-cols // 8)), "little") & ((1 << cols) - 1)
                    for _ in range(rows)]
        assert _transpose(bit_rows, cols) == transpose_by_unpacking(bit_rows, cols), cols


def assert_lines_pack_like_the_bigint_masks(inc):
    """The lines packed straight from their points equal the big-int masks
    packed by ``_words``, and the incidence matrix's rows are those masks."""
    masks = line_masks_bigint(inc)
    got = _support_words(inc.lines, inc.num_points)
    expected = _words(masks, inc.num_points)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert incidence_matrix(inc).data == masks


@pytest.mark.parametrize("name", [*sorted(LADDER), "hyperoval16"])
def test_lines_pack_like_the_bigint_masks_on_ladder_and_duals(name):
    inc = hyperoval_gq(16) if name == "hyperoval16" else ladder(name)
    assert_lines_pack_like_the_bigint_masks(inc)
    assert_lines_pack_like_the_bigint_masks(dual(inc))


def test_lines_pack_like_the_bigint_masks_across_word_boundaries():
    rng = random.Random(2604)
    for n in (0, 1, 63, 64, 65, 128, 129):
        assert_lines_pack_like_the_bigint_masks(IncidenceStructure(n, ()))
        if not n:
            continue
        # lines of mixed sizes through the first and last column of a word
        edges = tuple(sorted({0, 63, 64, n - 1} & set(range(n))))
        lines = {edges, (0,), (n - 1,), tuple(range(n)), tuple(range((n - 1) % 3, n, 3))}
        lines |= {tuple(sorted(rng.sample(range(n), rng.randrange(1, n + 1))))
                  for _ in range(20)}
        assert_lines_pack_like_the_bigint_masks(IncidenceStructure(n, tuple(sorted(lines))))


def assert_encode_matches_oracles(code, message):
    """encode of the message as a list, a tuple, a uint8 array and a bool
    array equals both oracles, as a uint8 array of shape (n,)."""
    bits = np.asarray(message, dtype=np.uint8)
    expected = encode_bitwise(code, bits)
    assert expected.shape == (code.n,)
    assert _same_array(encode_by_int_rows(code, bits), expected)
    for given in (bits.tolist(), tuple(bits.tolist()), bits, bits.astype(bool)):
        assert _same_array(encode(code, given), expected)


@pytest.mark.parametrize("name", sorted(LADDER))
def test_encode_matches_the_int_row_and_bitwise_oracles_on_ladder(name):
    code = ladder_code(name)
    rng = np.random.default_rng(code.n + 25)
    messages = [np.zeros(code.k, np.uint8), np.ones(code.k, np.uint8)]
    messages += [rng.integers(0, 2, code.k, dtype=np.uint8) for _ in range(6)]
    for message in messages:
        assert_encode_matches_oracles(code, message)


def test_encode_matches_the_oracles_on_unit_messages_and_on_k_0():
    code = build_code(grid(2))
    for message in np.eye(code.k, dtype=np.uint8):
        assert_encode_matches_oracles(code, message)
    empty = code_from_generator(BitMatrix(0, 5, ()))
    assert_encode_matches_oracles(empty, [])
    assert encode(empty, []).tolist() == [0] * 5


@pytest.mark.parametrize("name", sorted(LADDER))
def test_encode_and_reconstruct_match_bitwise_oracles_on_ladder(name):
    code = ladder_code(name)
    rng = np.random.default_rng(len(name) * code.n)
    for trial in range(12):
        message = rng.integers(0, 2, code.k, dtype=np.uint8)
        given = message if trial % 2 else message.tolist()
        word = encode(code, given)
        assert _same_array(word, encode_bitwise(code, message))
        # the information set, and k independent coordinates in a random order
        perm = rng.permutation(code.n).tolist()
        keep = independent_row_indices(
            BitMatrix.from_bitrows((code.gen_cols[c] for c in perm), code.k))
        for coords in (code.info_set, [perm[j] for j in keep]):
            values = word[list(coords)]
            got = reconstruct(code, coords, values)
            assert _same_array(got, reconstruct_bitwise(code, coords, values))
            assert _same_array(got, message)


# --------------------------------------------------------------- bit rule

BIT_RULE_ENTRIES = [0, 1, True, False, np.uint8(1), np.int64(0), np.bool_(True), 1.0,
                    Fraction(1), 2, -1, 256, 2**70, np.int64(2), 0.5, "1", None, [1], {}]

# each makes a fresh container of the given entries; an int64 array
# handed to bytes() would give 8 bytes per entry
BIT_RULE_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda xs: (x for x in xs),
    "uint8": lambda xs: np.array(xs, dtype=np.uint8),
    "int64": lambda xs: np.array(xs, dtype=np.int64),
    "bool": lambda xs: np.array(xs, dtype=bool),
}


def _result_or_message(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _assert_agrees(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _same_array(got, expected)


@pytest.mark.parametrize("entry", BIT_RULE_ENTRIES, ids=repr)
def test_bits_converted_first_match_bits_checked_first(entry):
    """encode, reconstruct, BitMatrix.from_rows and repair_symbol give the
    check-first rule's result or its message, whatever holds the entry:
    alone among bits, and before a 2, so the first entry that is no bit
    is the one named."""
    code = build_code(grid(2))
    coords = list(code.info_set)
    for entries in ([1, 0, entry, 1], [1, entry, 0, 2]):
        for contain in BIT_RULE_CONTAINERS.values():
            try:
                contain(entries)
            except (TypeError, ValueError, OverflowError):  # no such array
                continue
            slow = _result_or_message(as_bits_checked_first, contain(entries), code.k, "message")
            _assert_agrees(_result_or_message(encode, code, contain(entries)),
                           slow if isinstance(slow, str) else encode_bitwise(code, slow))
            slow = _result_or_message(as_bits_checked_first, contain(entries), code.k, "values")
            _assert_agrees(_result_or_message(reconstruct, code, coords, contain(entries)),
                           slow if isinstance(slow, str) else reconstruct_bitwise(code, coords, slow))
            slow = _result_or_message(as_bits_checked_first, contain(entries), code.k, "matrix")
            got = _result_or_message(lambda: BitMatrix.from_rows([contain(entries)]).data)
            if isinstance(slow, str):
                assert got == re.sub(r"^matrix entries must be bits, got (.*)$",
                                     r"matrix entry \1 is not a bit", slow, flags=re.S)
            else:
                assert got == (sum(int(b) << j for j, b in enumerate(slow)),)
    if entry is None:  # an erased helper, which moves the read to the next line
        return
    # a degraded read whose first line's helpers hold the entries
    helpers = line_repair_sets(code, 0)[0].helpers(0)
    for entries in ([entry, 1], [entry, 2], [1, entry]):
        received = encode(code, [1, 0, 1, 1]).tolist()
        received[0] = None
        for j, value in zip(helpers, entries):
            received[j] = value
        values = [received[j] for j in helpers]
        slow = _result_or_message(as_bits_checked_first, values, len(values), "received")
        if isinstance(slow, str):
            bad = next(j for j in helpers if slow.endswith(f"got {received[j]!r}"))
            slow = f"{slow} at coordinate {bad}"
        else:
            slow = int(np.bitwise_xor.reduce(slow))
        for given in (received, tuple(received)):
            got = _result_or_message(repair_symbol, code, given, 0)
            assert (got if isinstance(got, str) else got.value) == slow


# -------------------------------------------------------------------- MDS


def code_from_generator(generator):
    """A bare code around a full-rank generator; its parity checks span
    the generator's null space."""
    n = generator.cols
    pg = PgParams(s=1, t=0, alpha=1, num_points=n, num_lines=0,
                  pg_class="proper", grid_degenerate=False)
    return BlrcCode(parity_check=nullspace2(generator), generator=generator,
                    info_set=(), geometry=IncidenceStructure(n, ()), pg=pg)


def test_is_mds_matches_the_subset_scan():
    codes = [build_code(grid(1)), build_code(grid(2)),
             build_code(symplectic_gq(2)), unbalanced_code(),
             code_from_generator(BitMatrix.from_rows(
                 [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]))]
    rng = random.Random(4711)
    while len(codes) < 400:
        n = rng.randrange(1, 9)
        k = rng.randrange(1, n + 1)
        generator = _random_bitmatrix(rng, k, n)
        if rank2(generator) == k:
            codes.append(code_from_generator(generator))
    verdicts = [is_mds(code) for code in codes]
    assert verdicts == [is_mds_scan(code) for code in codes]
    assert verdicts[:5] == [True, False, False, False, True]
    assert 20 < sum(verdicts) < len(codes)


# ----------------------------------------------------------------- repair


@pytest.mark.parametrize("name", sorted(LADDER))
def test_geometric_tolerance_matches_minimum_hitting_set_on_ladder(name):
    profile = repair_profile(ladder_code(name), mode="geometric")
    assert profile.per_symbol_delta == tuple(
        len(minimum_hitting_set([frozenset(h) for h in sets]))
        for sets in profile.repair_sets
    )


SMALL = {
    "grid2": lambda: build_code(grid(2)),
    "grid3": lambda: build_code(grid(3)),
    "grid4": lambda: build_code(grid(4)),
    "symplectic2": lambda: build_code(symplectic_gq(2)),
    "symplectic3": lambda: build_code(symplectic_gq(3)),
    "elliptic2": lambda: build_code(elliptic_quadric_gq(2)),
    "unbalanced": unbalanced_code,
}


@lru_cache(maxsize=None)
def small_code(name):
    return SMALL[name]()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exhaustive_profile_matches_per_symbol_search(name):
    code = small_code(name)
    profile = repair_profile(code, mode="exhaustive")
    assert profile == repair_profile_per_symbol(code)
    for i in range(code.n):
        assert omega_r(code, i, profile.r) == omega_r_per_symbol(code, i, profile.r)
        assert profile.per_symbol_r[i] == repair_degree_per_symbol(code, i)


def zero_column_code(s):
    """Hand-built 4-symbol code whose last symbol is zero in every
    codeword, so {3} is a weight-1 dual word; the others need weight 3."""
    generator = BitMatrix.from_rows([[1, 1, 0, 0], [0, 1, 1, 0]])
    parity = BitMatrix.from_rows([[1, 1, 1, 0], [0, 0, 0, 1]])
    pg = PgParams(s=s, t=0, alpha=1, num_points=4, num_lines=1,
                  pg_class="proper", grid_degenerate=False)
    return BlrcCode(parity_check=parity, generator=generator, info_set=(0, 2),
                    geometry=IncidenceStructure(4, ((0, 1, 2),)), pg=pg)


def mixed_weight_code():
    """Hand-built 4-symbol code whose symbol 0 lies on a line of weight 3
    (line 0) and one of weight 2 (line 1): its repairs try line 1 first."""
    generator = BitMatrix.from_rows([[1, 1, 1, 0], [0, 0, 1, 1]])
    parity = BitMatrix.from_rows([[1, 0, 1, 1], [1, 1, 0, 0]])
    pg = PgParams(s=2, t=1, alpha=1, num_points=4, num_lines=2,
                  pg_class="proper", grid_degenerate=False)
    return BlrcCode(parity_check=parity, generator=generator, info_set=(0, 3),
                    geometry=IncidenceStructure(4, ((0, 2, 3), (0, 1))), pg=pg)


def mixed_weight_pair_code():
    """Two ``mixed_weight_code`` halves side by side: 8 symbols, so a
    packed case fills its byte, and the lines of 2 points pad the points
    table with the point 8, whose row of cases lies in a byte of its own."""
    half = mixed_weight_code()

    def pair(m):
        return BitMatrix.from_bitrows([*m.data, *(row << 4 for row in m.data)], 8)

    lines = half.geometry.lines
    pg = PgParams(s=2, t=1, alpha=1, num_points=8, num_lines=4,
                  pg_class="proper", grid_degenerate=False)
    return BlrcCode(parity_check=pair(half.parity_check), generator=pair(half.generator),
                    info_set=(0, 3, 4, 7), pg=pg,
                    geometry=IncidenceStructure(8, (*lines, *(tuple(p + 4 for p in line)
                                                              for line in lines))))


def test_census_finds_a_weight_one_dual_word_like_per_symbol_search():
    code = zero_column_code(s=2)
    # the profile cannot be taken here: {3} leaves symbol 3 no helper to
    # block, so r(i) is read off the lightest check omega_r returns
    degrees = [omega_r(code, i, code.pg.s)[0].weight - 1 for i in range(4)]
    assert degrees == [2, 2, 2, 0]
    for i in range(4):
        assert degrees[i] == repair_degree_per_symbol(code, i)
        assert omega_r(code, i, 2) == omega_r_per_symbol(code, i, 2)


def test_a_symbol_forced_to_zero_is_a_degenerate_code():
    # {3} is a check on symbol 3 alone: its helper set is empty, so no
    # tolerance exists and no blocking set can be named
    code = zero_column_code(s=2)
    message = "symbol 3 is forced to zero in every codeword"
    with pytest.raises(DegenerateCodeError, match=message):
        repair_profile(code)
    with pytest.raises(DegenerateCodeError, match=message):
        blocking_set(code, 3, 2)
    assert blocking_set(code, 0, 2) == frozenset({1})


def test_profile_fails_like_per_symbol_search_without_a_light_check():
    # with s = 1, symbols 0-2 have no dual word of weight <= s+1, even
    # though the census for r = 2 reaches their weight-3 one
    code = zero_column_code(s=1)
    for profile in (repair_profile, repair_profile_per_symbol):
        with pytest.raises(RuntimeError, match="no repair vector"):
            profile(code, r=2)


@pytest.mark.parametrize("name, r", [
    ("grid3", 4), ("unbalanced", 2), ("symplectic2", 3), ("symplectic2", 1)])
def test_exhaustive_profile_with_explicit_r_matches_per_symbol_search(name, r):
    code = small_code(name)
    assert repair_profile(code, r=r) == repair_profile_per_symbol(code, r=r)
    for i in range(code.n):
        assert omega_r(code, i, r) == omega_r_per_symbol(code, i, r)


def test_census_matches_per_symbol_search_on_dual_elliptic2():
    code = ladder_code("dual_elliptic2")
    r = code.pg.s
    profile = repair_profile(code)
    for i in (0, 22, 44):
        assert omega_r(code, i, r) == omega_r_per_symbol(code, i, r)
        assert profile.per_symbol_r[i] == repair_degree_per_symbol(code, i) == r


@pytest.mark.parametrize("name", ["symplectic4", "elliptic3"])
def test_exhaustive_profile_equals_geometric_on_ladder(name):
    code = ladder_code(name)
    exact = repair_profile(code, mode="exhaustive")
    designed = repair_profile(code, mode="geometric")
    s, t = code.pg.s, code.pg.t
    assert (exact.r, exact.a, exact.delta, exact.balanced) == (s, t + 1, t + 1, True)
    for field in ("r", "a", "delta", "balanced", "per_symbol_r",
                  "per_symbol_a", "per_symbol_delta"):
        assert getattr(exact, field) == getattr(designed, field)
    assert [set(sets) for sets in exact.repair_sets] == [
        set(sets) for sets in designed.repair_sets]


def repair_or_error(repair_fn, *args, **kwargs):
    """The outcome, or the error's type and message: a helper that is not
    a bit is named by its coordinate there."""
    try:
        return repair_fn(*args, **kwargs)
    except (ValueError, NotLocallyRepairableError) as exc:
        return type(exc), str(exc)


def degraded_reads(code, seed, reads, p=0.2):
    """Seeded (received, i, unavailable) reads: each symbol erased and each
    node unavailable with probability p, the symbol read usually erased,
    and now and then one symbol that is not a bit."""
    rng = np.random.default_rng(seed)
    for _ in range(reads):
        received = encode(code, rng.integers(0, 2, code.k)).tolist()
        for j in np.flatnonzero(rng.random(code.n) < p).tolist():
            received[j] = None
        if rng.random() < 0.1:
            received[int(rng.integers(code.n))] = 2
        i = int(rng.integers(code.n))
        if rng.random() < 0.9:
            received[i] = None
        yield received, i, set(np.flatnonzero(rng.random(code.n) < p).tolist())


def reads_match_the_first_open_scan(code, seed, vectors=None):
    """Each seeded read's outcome, or error and message, against the
    whole-word scan's; after each repair, the read again with the middle
    helper of the check it used not a bit, which both must name.  Returns
    the kinds of outcome seen: the error types, and whether a line
    repaired the symbol."""
    outcomes = set()
    for received, i, unavailable in degraded_reads(code, seed, reads=300):
        given = () if vectors is None else (vectors[i],)
        got = repair_or_error(repair_symbol, code, received, i, unavailable, *given)
        assert got == repair_or_error(repair_symbol_first_open,
                                      code, received, i, unavailable, *given)
        outcomes.add(got[0] if isinstance(got, tuple) else got.vector.line is not None)
        if not isinstance(got, tuple):
            helpers = got.vector.helpers(i)
            received[helpers[len(helpers) // 2]] = 2
            bad = repair_or_error(repair_symbol, code, received, i, unavailable, *given)
            assert bad == repair_or_error(repair_symbol_first_open,
                                          code, received, i, unavailable, *given)
            assert bad[1].startswith("received entries must be bits, got 2 at coordinate")
    return outcomes


@pytest.mark.parametrize("name", sorted(LADDER))
def test_repair_symbol_matches_the_first_open_scan_on_ladder(name):
    # every way a read can end shows up: a line repair, a blocked symbol,
    # and a symbol that is present, or a helper that is not a bit
    assert (reads_match_the_first_open_scan(ladder_code(name), seed=8)
            == {True, NotLocallyRepairableError, ValueError})


@pytest.mark.parametrize("make", [lambda: small_code("grid3"),
                                  lambda: small_code("symplectic2"),
                                  mixed_weight_code], ids=["grid3", "symplectic2", "mixed_weight"])
def test_repair_symbol_matches_the_first_open_scan_on_omega(make):
    code = make()
    vectors = [omega_r(code, i, code.pg.s) for i in range(code.n)]
    outcomes = reads_match_the_first_open_scan(code, seed=9, vectors=vectors)
    assert NotLocallyRepairableError in outcomes and True in outcomes


def test_line_checks_are_tried_lightest_first_where_that_is_not_line_order():
    # symbol 0 lies on line 0 (weight 3) and line 1 (weight 2): the
    # executor, line_repair_sets and the geometric profile all read the
    # one table, so all three put line 1 first
    code = mixed_weight_code()
    assert repair_symbol(code, [None, 0, 0, 0], 0).vector.line == 1
    assert [v.line for v in line_repair_sets(code, 0)] == [1, 0]
    assert repair_profile(code, mode="geometric").repair_sets[0] == ((1,), (2, 3))


def test_the_line_table_is_built_once_per_code(monkeypatch):
    builds = []
    build = repair._line_table
    monkeypatch.setattr(repair, "_line_table", lambda code: builds.append(code) or build(code))
    array_builds = []
    build_arrays = repair._line_arrays
    monkeypatch.setattr(repair, "_line_arrays",
                        lambda code: array_builds.append(code) or build_arrays(code))
    code = build_code(grid(3))
    repair_profile(code)  # the exhaustive profile reads the census instead
    assert builds == []
    received = encode(code, [0] * code.k).tolist()
    received[0] = None
    repair_symbol(code, received, 0)
    repair_symbol(code, received, 0, unavailable={1})
    repair_symbol(code, received, 0, vectors=omega_r(code, 0, code.pg.s))
    line_repair_sets(code, 1)
    repair_profile(code, mode="geometric")
    repair_profile(code, mode="geometric", r=1)
    blocking_set(code, 2, code.pg.s, mode="geometric")
    # reads test each check on its support, so beside its parts the code
    # keeps no helper sets: only the line table, the generator's columns
    # (for the given vectors' check) and its packed words (for encode)
    parts = {field.name for field in dataclasses.fields(code)}
    assert set(vars(code)) - parts == {"_line_table", "gen_cols", "_gen_words"}
    # only the simulator reads the arrays, so nothing above builds them
    assert array_builds == []
    simulate_availability(code, model="iid", p=0.3, trials=50)
    simulate_availability(code, model="adversarial", u=2)
    assert len(builds) == 1
    assert array_builds == [code]


@lru_cache(maxsize=None)
def dual_ladder_code(name):
    return build_code(dual(ladder(name)))


def geometric_code(name):
    """A ladder code, ``dual(<rung>)``'s code, or one of two hand-built
    codes: the mixed-weight code and the zero-column code, whose one line
    misses a point."""
    if name.startswith("dual("):
        return dual_ladder_code(name[5:-1])
    hand_built = {"mixed_weight": mixed_weight_code, "zero_column": lambda: zero_column_code(2)}
    return ladder_code(name) if name in LADDER else hand_built[name]()


@pytest.mark.parametrize("name", [*sorted(LADDER), *(f"dual({name})" for name in sorted(LADDER)),
                                  "mixed_weight", "zero_column"])
def test_geometric_repair_sets_match_one_helpers_call_per_line(name):
    code = geometric_code(name)
    s = code.pg.s
    for r in (None, 0, s - 1, s, s + 2, s + 3):
        profile = repair_profile(code, mode="geometric", r=r)
        # a partial geometry's sets come as one array from r = s on; the
        # mixed-weight code's lines are of two weights, and the
        # zero-column code's points lie on one line or none
        partial_geometry = name in LADDER or name.startswith("dual(")
        as_array = partial_geometry and (r is None or r >= s)
        assert ("_repair_array" in vars(profile)) == as_array, r
        assert profile.repair_sets == geometric_repair_sets_by_helpers(code, r), r


@pytest.mark.parametrize("name", ["grid8", "dual(hyperoval8)"])
def test_array_repair_sets_read_as_tuples_do(name):
    code = geometric_code(name)
    lazy = repair_profile(code, mode="geometric")
    later = pickle.loads(pickle.dumps(lazy))
    parts = {f.name: getattr(lazy, f.name) for f in dataclasses.fields(lazy)
             if f.name != "repair_sets"}
    eager = RepairProfile(**parts, repair_sets=geometric_repair_sets_by_helpers(code))
    # the CLI's fields hand over the array, so no tuples are built for them
    assert isinstance(lazy._json_fields()["repair_sets"], np.ndarray)
    assert "repair_sets" not in vars(lazy)
    assert lazy.to_json_dict() == eager.to_json_dict()
    assert repr(lazy) == repr(eager)
    assert lazy == eager and hash(lazy) == hash(eager)
    assert dataclasses.asdict(lazy) == dataclasses.asdict(eager)
    assert dataclasses.replace(lazy, r=lazy.r + 1) == dataclasses.replace(eager, r=eager.r + 1)
    assert later == eager and isinstance(later._json_fields()["repair_sets"], np.ndarray)


def test_profiles_off_the_one_weight_geometric_path_keep_tuples():
    code = ladder_code("grid8")
    for profile in (repair_profile(code, mode="geometric", r=code.pg.s - 1),
                    repair_profile(small_code("grid2"), mode="exhaustive"),
                    repair_profile(mixed_weight_code(), mode="geometric")):
        assert "_repair_array" not in vars(profile)
        assert type(profile._json_fields()["repair_sets"]) is tuple


LINE_TABLE_CODES = {
    **{name: (lambda name=name: ladder_code(name)) for name in LADDER},
    **{f"dual({name})": (lambda name=name: build_code(dual(ladder(name)))) for name in LADDER},
    "fano": lambda: build_code(load(FIXTURES / "fano.txt")),
    "net4": lambda: build_code(latin_square_net(4)),
    "net5": lambda: build_code(latin_square_net(5)),
    "mixed_weight": mixed_weight_code,
}


@pytest.mark.parametrize("name", sorted(LINE_TABLE_CODES))
def test_the_line_table_lists_the_lines_through_each_symbol_by_length_then_index(name):
    # the order is spelled out here, not read off the repair key
    code = LINE_TABLE_CODES[name]()
    lines = code.geometry.lines
    assert len(code._line_table) == code.n
    for i, row in enumerate(code._line_table):
        through = sorted((ln for ln, line in enumerate(lines) if i in line),
                         key=lambda ln: (len(lines[ln]), ln))
        assert [v.line for v in row] == through, i
        assert all(v.support == lines[v.line] for v in row)


@pytest.mark.parametrize("name", [*sorted(LADDER), "mixed_weight"])
def test_given_lines_are_tried_in_the_line_table_order(name):
    # one key orders the table the code keeps and the vectors a caller
    # gives, whatever order they come in
    code = ladder_code(name) if name in LADDER else mixed_weight_code()
    lines = [RepairVector(line, line=ln) for ln, line in enumerate(code.geometry.lines)]
    for i in range(code.n):
        assert (tuple(repair._repair_order(code, i, lines[::-1]))
                == tuple(repair._repair_order(code, i))
                == code._line_table[i])


def test_generator_columns_are_read_off_the_generator_on_first_use():
    code = build_code(ladder("hyperoval8"))
    repair_profile(code, mode="geometric")
    simulate_availability(code, model="iid", p=0.1, trials=64)
    word = encode(code, [1] * code.k)
    received = word.tolist()
    received[0] = None
    repair_symbol(code, received, 0)
    assert "gen_cols" not in vars(code)
    assert reconstruct(code, code.info_set, word[list(code.info_set)]).tolist() == [1] * code.k
    assert code.gen_cols == code.generator.transpose().data
    for name in LADDER:
        code = ladder_code(name)
        assert (code.n, code.k) == (code.generator.cols, code.generator.rows)


def test_the_packed_generator_is_built_on_the_first_encode(monkeypatch):
    built = []
    build = code_mod.build_code

    def recording_build(inc):
        built.append(build(inc))
        return built[-1]

    monkeypatch.setattr(code_mod, "build_code", recording_build)
    assert cli.main(["analyze", "--geometry", "grid", "--s", "3"]) == 0
    code = build_code(ladder("hyperoval8"))
    repair_profile(code, mode="geometric")
    simulate_availability(code, model="iid", p=0.1, trials=64)
    received = [0] * code.n
    received[0] = None
    repair_symbol(code, received, 0)
    assert len(built) == 1
    for unused in (*built, code):
        assert "_gen_words" not in vars(unused)
    encode(code, [1] * code.k)
    words = vars(code)["_gen_words"]
    assert words.dtype == np.uint64 and words.flags.c_contiguous
    assert np.array_equal(words, _words(code.generator.data, code.n).T)
    with pytest.raises(ValueError, match="read-only"):
        words[0, 0] = 1


# ------------------------------------------------------------- simulation

TOP_SEED = 2**128 - 1

SIM_CODES = {
    **{name: (lambda name=name: ladder_code(name)) for name in LADDER},
    "unbalanced": unbalanced_code,
    "zero_column": lambda: zero_column_code(s=2),
    "mixed_weight": mixed_weight_code,
    "mixed_weight_pair": mixed_weight_pair_code,
}

SIM_RUNS = [
    dict(model="iid", p=0.35, seed=0),
    dict(model="iid", p=0.35, seed=7),
    dict(model="iid", p=0.35, seed=TOP_SEED),
    dict(model="iid", p=0.0, seed=7),
    dict(model="iid", p=1.0, seed=TOP_SEED),
    dict(model="adversarial", u=2, seed=7),
]


def report_text(report):
    # NaN != NaN, so reports are compared as the text they serialize to
    return json.dumps(report.to_json_dict()) + report.to_csv()


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_simulation_matches_the_case_by_case_scan(name):
    code = SIM_CODES[name]()
    runs = list(SIM_RUNS)
    sampled_u = next((u for u in range(code.n + 1)
                      if math.comb(code.n, u) > _EXHAUSTIVE_LIMIT), None)
    if sampled_u is not None:
        runs.append(dict(model="adversarial", u=sampled_u, seed=TOP_SEED))
    for kwargs in runs:
        got = simulate_availability(code, trials=200, **kwargs)
        want = simulate_availability_scalar(code, trials=200, **kwargs)
        assert report_text(got) == report_text(want), kwargs


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_adversarial_edges_match_the_case_by_case_scan(monkeypatch, name):
    # every u-set for u = 0 (one empty set), 1 and n (one full set); then
    # the n sets of n - 1 symbols, over a limit of n - 1, are sampled
    code = SIM_CODES[name]()
    n = code.n
    for u in (0, 1, n):
        report = simulate_availability(code, model="adversarial", u=u)
        assert (report.coverage, report.cases) == ("exhaustive", math.comb(n, u)), u
        assert report_text(report) == report_text(
            simulate_availability_scalar(code, model="adversarial", u=u)), u
    for module in (repair, oracles):
        monkeypatch.setattr(module, "_EXHAUSTIVE_LIMIT", n - 1)
    kwargs = dict(model="adversarial", u=n - 1, trials=100, seed=7)
    report = simulate_availability(code, **kwargs)
    assert (report.coverage, report.cases) == ("sampled", 100)
    assert report_text(report) == report_text(simulate_availability_scalar(code, **kwargs))


@pytest.mark.parametrize("simulate", [simulate_availability, simulate_availability_scalar])
def test_simulators_take_only_integer_seed_u_and_trials(simulate):
    code = small_code("grid2")
    for kwargs in (dict(model="iid", p=0.5, seed=1.5),
                   dict(model="iid", p=0.5, trials=10.0),
                   dict(model="adversarial", u=2.5),
                   dict(model="adversarial", u="2")):
        with pytest.raises(ParameterError, match="must be integers"):
            simulate(code, **kwargs)
    # numpy integers run as the Python ints they equal, and the report
    # holds Python ints, so it serializes
    for kwargs, same in ((dict(model="iid", p=0.5, trials=np.int32(20), seed=np.int64(3)),
                          dict(model="iid", p=0.5, trials=20, seed=3)),
                         (dict(model="adversarial", u=np.uint8(2), seed=np.int16(5)),
                          dict(model="adversarial", u=2, seed=5))):
        report = simulate(code, **kwargs)
        assert type(report.seed) is int
        assert report_text(report) == report_text(simulate(code, **same))


@pytest.mark.parametrize("simulate", [simulate_availability, simulate_availability_scalar])
def test_simulators_read_an_in_range_p_as_the_float_it_equals(simulate):
    # as numpy integers run as the ints they equal, a numpy float, a
    # Fraction, a bool or an int runs as its float, so the report serializes
    code = small_code("grid2")
    for p, same in ((np.float32(0.5), 0.5), (np.float64(0.25), 0.25), (Fraction(1, 2), 0.5),
                    (True, 1.0), (1, 1.0), (0, 0.0)):
        report = simulate(code, model="iid", p=p, trials=20, seed=3)
        assert type(report.parameter) is float, p
        assert report_text(report) == report_text(
            simulate(code, model="iid", p=same, trials=20, seed=3)), p


def trial_draws(rng, n, method):
    if method == "random":
        row = np.empty(n)
        rng.random(out=row)
        return row
    return rng.choice(n, size=(n + 1) // 2, replace=False)


@pytest.mark.parametrize("method", ["random", "choice"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 85])
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, TOP_SEED])
def test_each_rekeyed_trial_draws_what_a_new_generator_draws(seed, n, method):
    # the seeds use the low key word alone, the high one alone and both;
    # n doubles a trial leave 3, 2, 1, 0 and 3 words of Philox's four-word
    # buffer, and choice draws half-words too: the next re-key must drop
    # them all and put the trial in the counter's top word
    trials = 6
    want = [trial_draws(trial_rng(seed, trial), n, method) for trial in range(trials)]
    for rekeyed in (repair._trial_rngs, trial_rngs_by_array_state):
        got = [trial_draws(rng, n, method) for rng in rekeyed(seed, trials)]
        assert len(got) == trials
        for trial, (g, w) in enumerate(zip(got, want)):
            assert np.array_equal(g, w), (rekeyed.__name__, trial)


CHUNK_RUNS = (dict(model="iid", p=0.35, trials=200, seed=7),
              dict(model="adversarial", u=2))


@lru_cache(maxsize=None)
def scanned_reports(name):
    code = SIM_CODES[name]()
    return [report_text(simulate_availability_scalar(code, **kwargs)) for kwargs in CHUNK_RUNS]


@pytest.mark.parametrize("cases_per_chunk", [1, 7, 63, 64, 65, 128, 200])
def test_simulation_does_not_depend_on_the_chunk_size(monkeypatch, cases_per_chunk):
    # a budget of c iid cases a chunk makes chunks of whole uint64 words,
    # at least one: 64 cases up to c = 127, 128 at c = 128 and 192 at 200.
    # The same bytes hold more set cases, a byte a symbol of bit rows
    # (n + 1 of them) and 8 a symbol of the u-set where an iid case takes
    # 8 a cell: grid(8)'s pairs come 64 a chunk up to c = 19, 384 at
    # c = 63 and 1280 at 200, and mixed_weight's 256 at 200.  Only the
    # last chunk of a run ends a word early: 200 trials end 8 cases into
    # a word and grid(8)'s 3240 pairs 40 (the kernel test below takes
    # chunks of any size).  mixed_weight's lines of 3 and 2 points and
    # its symbols on 2 and 1 lines pad both tables.  Every chunking must
    # give the case-by-case scan's report, so neither the unused bits of
    # a word nor the padding point or line may count
    sizes = []
    count = repair._availability_counts
    monkeypatch.setattr(repair, "_availability_counts", lambda code, chunks: count(
        code, (sizes.append(chunk[1]) or chunk for chunk in chunks)))
    for name in ("grid8", "mixed_weight"):
        code = SIM_CODES[name]()
        width = max(code.n, code.geometry.num_lines)
        monkeypatch.setattr(repair, "_CHUNK_CELLS", cases_per_chunk * width)
        for kwargs, want in zip(CHUNK_RUNS, scanned_reports(name)):
            per_case = 8 * width if kwargs["model"] == "iid" else code.n + 1 + 8 * kwargs["u"]
            size = 64 * max(1, 8 * cases_per_chunk * width // (64 * per_case))
            sizes.clear()
            assert report_text(simulate_availability(code, **kwargs)) == want, (name, kwargs)
            assert set(sizes[:-1]) <= {size} and 0 < sizes[-1] <= size, (name, kwargs)


def unavailable_sets(code, p=None, u=None, trials=200, seed=7):
    """Seeded iid sets when p is given, else every u-set when there are at
    most ``_EXHAUSTIVE_LIMIT`` of them, else ``trials`` sampled u-sets."""
    n = code.n
    if u is None:
        return [np.flatnonzero(trial_rng(seed, trial).random(n) < p)
                for trial in range(trials)]
    if math.comb(n, u) <= _EXHAUSTIVE_LIMIT:
        return [np.array(c, dtype=np.intp) for c in itertools.combinations(range(n), u)]
    return [trial_rng(seed, trial).choice(n, size=u, replace=False)
            for trial in range(trials)]


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_bit_sliced_kernel_matches_the_bytewise_counts(name):
    # the simulator's chunk size, chunks that end a uint64 word early, on
    # its last bit and one case into the next, chunks about one byte of
    # the transpose (8 and 9 cases) and one of two whole words.  Each
    # chunk reaches the kernel as a mask through the iid path's pack and
    # transpose and, for u-sets, as index arrays through the set path's
    # scatter, of the sets or, when u > n - u, of their complements, as
    # the simulator enumerates them.  The kernel that packed along the
    # strided case axis counts the same at the simulator's chunk size;
    # it is an oracle, so its other chunkings would test only itself
    code = SIM_CODES[name]()
    n = code.n
    default = 64 * max(1, repair._CHUNK_CELLS // (64 * max(n, code.geometry.num_lines)))
    for kwargs in (dict(p=0.0), dict(p=0.35), dict(p=1.0), dict(u=0), dict(u=1), dict(u=2),
                   dict(u=n - 1), dict(u=n)):
        sets = unavailable_sets(code, **kwargs)
        mask = np.zeros((len(sets), n), dtype=bool)
        for case, unavailable in enumerate(sets):
            mask[case, unavailable] = True
        want = availability_counts_bytewise(code, sets)
        u = kwargs.get("u")
        if u is not None:
            complement = u > n - u
            drawn = np.array([np.flatnonzero(row != complement) for row in mask],
                             dtype=np.intp).reshape(len(sets), min(u, n - u))
        chunks = np.split(mask, range(default, len(sets), default))
        assert availability_counts_by_strided_pack(code, chunks) == want, kwargs
        for size in (default, 1, 7, 8, 9, 63, 64, 65, 128):
            cuts = range(size, len(sets), size)
            chunks = np.split(mask, cuts)
            assert (repair._availability_counts(code, map(repair._case_words, chunks))
                    == want), (kwargs, size)
            if u is not None:
                assert repair._availability_counts(code, (
                    repair._set_words(chunk, n, complement) for chunk in np.split(drawn, cuts)
                )) == want, (kwargs, size)


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_set_chunks_match_the_chunks_of_tuples(name):
    # every u-set, or its complement when u > n - u, where there are at
    # most the limit of them, and sampled u-sets as the simulator draws
    # them, in chunks of the simulator's byte budget, each scattered into
    # its mask (the test below takes chunks of 1, 7, 64 and 200 cases)
    code = SIM_CODES[name]()
    n = code.n
    for u in sorted({0, 1, 2, n - 1, n}):
        sources = [(u, lambda size: repair._sampled_sets(7, 200, n, u, size),
                    lambda: (rng.choice(n, size=u, replace=False)
                             for rng in repair._trial_rngs(7, 200)))]
        drawn = min(u, n - u)
        if math.comb(n, u) <= _EXHAUSTIVE_LIMIT:
            sources.append((drawn, lambda size: repair._subsets(n, drawn, size),
                            lambda: itertools.combinations(range(n), drawn)))
        for width, chunks, sets in sources:
            size = repair._chunk_size(code, "adversarial", width)
            got = [set_mask(chunk, n) for chunk in chunks(size)]
            assert chunks_match(got, list(set_chunks_by_tuples(sets(), n, width, size))), u


def chunks_match(got, want):
    return len(got) == len(want) and all(
        g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_set_index_arrays_match_the_combinations_and_the_choice_stream(monkeypatch, name):
    # the exhaustive runs of the last index, in chunks that cut runs (1, 7
    # and 64 cut grid(8)'s pairs, whose runs have 80 down to 1 sets) or
    # hold several, must be itertools' u-sets in order, with at most one
    # chunk and n - 1 sets pending under the prefixes pulled; each trial's
    # row must be its own generator's choice; and both must scatter into
    # the masks of the symbol stream and of the chunked tuples (the
    # exhaustive masks from 7 cases a chunk up: grid(8)'s and W(4)'s
    # triples come 10^5 chunks of one)
    code = SIM_CODES[name]()
    n = code.n
    pulled = [0]

    def prefixes(pool, r):
        for prefix in itertools.combinations(pool, r):
            pulled[0] += n - 1 - prefix[-1] if prefix else n
            yield prefix

    monkeypatch.setattr(repair, "itertools",
                        types.SimpleNamespace(**{**vars(itertools), "combinations": prefixes}))
    for u in sorted({0, 1, 2, 3, n - 1, n} & set(range(n + 1))):
        count = math.comb(n, u)
        exhaustive = count <= _EXHAUSTIVE_LIMIT
        if exhaustive:
            want_sets = np.array(list(itertools.combinations(range(n), u)),
                                 dtype=np.intp).reshape(count, u)
        draws = [trial_rng(7, trial).choice(n, size=u, replace=False) for trial in range(200)]
        for size in (1, 7, 64, 200):
            sampled = list(repair._sampled_sets(7, 200, n, u, size))
            assert [len(c) for c in sampled] == [min(size, 200 - s) for s in range(0, 200, size)]
            assert all(c.dtype == np.intp and c.shape[1] == u for c in sampled), (u, size)
            assert np.array_equal(np.concatenate(sampled), np.array(draws).reshape(200, u))
            masks = [set_mask(c, n) for c in sampled]
            assert chunks_match(masks, list(set_chunks_by_stream(draws, 200, n, u, size)))
            assert chunks_match(masks, list(set_chunks_by_tuples(draws, n, u, size)))
            if not exhaustive:
                continue
            pulled[0] = yielded = 0
            chunks = []
            for chunk in repair._subsets(n, u, size):
                assert pulled[0] - yielded <= size + n - 1, (u, size)
                yielded += len(chunk)
                chunks.append(chunk)
            assert [len(c) for c in chunks] == [min(size, count - s)
                                                for s in range(0, count, size)]
            assert all(c.dtype == np.intp and c.shape[1] == u for c in chunks), (u, size)
            assert np.array_equal(np.concatenate(chunks), want_sets), (u, size)
            if size == 1:
                continue
            masks = [set_mask(c, n) for c in chunks]
            assert chunks_match(masks, list(set_chunks_by_stream(
                map(tuple, want_sets), count, n, u, size)))
            assert chunks_match(masks, list(set_chunks_by_tuples(
                map(tuple, want_sets), n, u, size)))


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_set_words_match_the_packed_masks(name):
    # each set chunk scattered straight into symbol-major bit rows must be
    # its mask packed along the case rows and transposed, in n + 1 rows of
    # whole words with row n and the bits past the cases zero; an
    # enumerated chunk of (n - u)-complements, for u > n - u, must give
    # the rows of its u-sets.  Chunks end a word early, on its last bit
    # and one case into the next, and about one byte; an enumeration is
    # checked on its first 64 chunks, so the small chunks of a long one
    # stop early (the sampled 200 cases, and the short enumerations, end
    # their last chunk inside a word)
    code = SIM_CODES[name]()
    n = code.n
    everyone = np.arange(n)
    for u in sorted({0, 1, 2, 3, n - 2, n - 1, n} & set(range(n + 1))):
        sampled = math.comb(n, u) > _EXHAUSTIVE_LIMIT
        complement = not sampled and u > n - u
        for size in (1, 7, 8, 9, 63, 64, 65, 200):
            if sampled:
                chunks = repair._sampled_sets(7, 200, n, u, size)
            else:
                chunks = repair._subsets(n, n - u if complement else u, size)
            for chunk in itertools.islice(chunks, 64):
                words, cases = repair._set_words(chunk, n, complement)
                if complement:
                    chunk = np.array([np.setdiff1d(everyone, c) for c in chunk],
                                     dtype=np.intp).reshape(len(chunk), u)
                want = set_words_by_mask(chunk, n)
                assert cases == len(chunk) and words.dtype == np.uint64, (u, size)
                assert words.shape == (n + 1, -(-cases // 64)), (u, size)
                assert np.array_equal(words, want[:n + 1]) and not want[n + 1:].any(), (u, size)
                bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
                assert not bits[n].any() and not bits[:, cases:].any(), (u, size)


@pytest.mark.parametrize("name", ["grid8", "symplectic4", "hyperoval8", "mixed_weight"])
def test_set_chunks_stay_within_the_byte_budget(monkeypatch, name):
    # a set chunk's index array and its bool bit rows, n + 1 bytes a case
    # before the packing, take at most the 8 x _CHUNK_CELLS bytes that the
    # iid draws may, but at the floor of one word of cases, and one word
    # more would not fit; every u-set is tried as its (n - u)-complement
    # when u > n - u, so those index arrays are n - u wide.  grid(8)'s
    # 3240 pairs are one chunk, and hyperoval(8)'s u = 511 one chunk of
    # 512 one-symbol complements
    code = SIM_CODES[name]()
    n = code.n
    budget = 8 * repair._CHUNK_CELLS
    chunks = []
    scatter = repair._set_words

    def set_words(sets, n, complement):
        words, size = scatter(sets, n, complement)
        # the bool rows the packing read held a byte for each bit
        chunks.append((size, sets.shape[1], sets.nbytes + 8 * words.nbytes))
        return words, size

    monkeypatch.setattr(repair, "_set_words", set_words)
    for u in sorted({0, 1, 2, 3, n // 2, n - 1, n}):
        chunks.clear()
        simulate_availability(code, model="adversarial", u=u, trials=300, seed=1)
        drawn = min(u, n - u) if math.comb(n, u) <= _EXHAUSTIVE_LIMIT else u
        per_case = n + 1 + 8 * drawn
        size = repair._chunk_size(code, "adversarial", drawn)
        assert size % 64 == 0 and (size + 64) * per_case > budget, u
        assert size == 64 or size * per_case <= budget, u
        assert all(cases == size for cases, _, _ in chunks[:-1]) and chunks[-1][0] <= size, u
        assert {width for _, width, _ in chunks} == {drawn}, u
        assert all(nbytes <= budget or cases <= 64 for cases, _, nbytes in chunks), u
    if name == "grid8":
        chunks.clear()
        simulate_availability(code, model="adversarial", u=2)
        assert chunks == [(3240, 2, 3240 * 16 + 3264 * (n + 1))]
    if name == "hyperoval8":
        chunks.clear()
        simulate_availability(code, model="adversarial", u=n - 1)
        assert chunks == [(n, 1, n * 8 + n * (n + 1))]


@pytest.mark.parametrize("name", sorted(SIM_CODES))
def test_code_matrices_transpose_as_the_unpacking_transpose_did(name):
    code = SIM_CODES[name]()
    for m in (code.generator, code.parity_check, incidence_matrix(code.geometry)):
        assert m.transpose().data == tuple(transpose_by_unpacking(m.data, m.cols))


@pytest.mark.parametrize("name", ["grid3", "grid8", "symplectic2", "symplectic3", "elliptic2"])
@pytest.mark.parametrize("u", [2, 3, -3, -2], ids=["2", "3", "n-3", "n-2"])
def test_adversarial_success_is_the_inclusion_exclusion_count(name, u):
    # the t+1 line helper sets through a point are disjoint, s points each;
    # a u-set that avoids k given ones is a u-set of the other n - k*s
    # points, so inclusion-exclusion counts the u-sets that avoid one.
    # At u = n - 3 and n - 2 every u-set is tried as its complement
    code = ladder_code(name) if name in LADDER else small_code(name)
    n, s, t = code.n, code.pg.s, code.pg.t
    u %= n
    avoiding = sum((-1) ** (k + 1) * math.comb(t + 1, k) * math.comb(n - k * s, u)
                   for k in range(1, t + 2))
    report = simulate_availability(code, model="adversarial", u=u)
    assert report.coverage == "exhaustive"
    assert report.per_symbol_success == (avoiding / math.comb(n, u),) * n


@pytest.mark.parametrize("name", sorted(LADDER))
def test_iid_success_is_near_the_line_availability_probability(name):
    # a line through i is open with probability (1-p)^s, independently of
    # the other t lines (their helper sets are disjoint): one more line
    # per symbol, at s more helpers, is one more chance of a local repair
    code = ladder_code(name)
    p, trials = 0.3, 1000
    exact = 1 - (1 - (1 - p) ** code.pg.s) ** (code.pg.t + 1)
    report = simulate_availability(code, model="iid", p=p, trials=trials, seed=2024)
    # per trial, the share of symbols repaired lies in [0, 1] with mean
    # exact, so its variance is at most exact * (1 - exact)
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(statistics.fmean(report.per_symbol_success) - exact) < 5 * sigma
