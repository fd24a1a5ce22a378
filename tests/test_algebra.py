import random
import tracemalloc

import numpy as np
import pytest

from pgblrc.algebra import (
    BitMatrix,
    SUPPORTED_FIELD_ORDERS,
    independent_row_indices,
    nullspace2,
    rref2,
    small_field,
)

from oracles import (FIELD_ORDERS, bits_to_array, matrix_array, matrix_product, np_nullspace2,
                     np_rank2, np_rref2, rank2, small_field_tables_by_digits, solve2)


def random_bitmatrix(rng, rows, cols, density=0.5):
    return BitMatrix.from_rows(
        [[1 if rng.random() < density else 0 for _ in range(cols)]
         for _ in range(rows)]
    )


# ---------------------------------------------------------------- BitMatrix


def test_bitmatrix_round_trips():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert m.rows == 2 and m.cols == 3
    assert matrix_array(m).tolist() == [[1, 0, 1], [0, 1, 1]]
    assert (m.data[0] >> 0) & 1 == 1 and (m.data[0] >> 1) & 1 == 0
    assert [c for c in range(m.cols) if (m.data[1] >> c) & 1] == [1, 2]
    assert m.data[0].bit_count() == 2
    assert np.array_equal(matrix_array(m), np.array([[1, 0, 1], [0, 1, 1]]))
    assert BitMatrix.from_rows(matrix_array(m), cols=m.cols) == m
    assert m.transpose().transpose() == m


def test_bitmatrix_validation():
    with pytest.raises(ValueError, match="inconsistent lengths"):
        BitMatrix.from_rows([[1, 0], [1]])
    with pytest.raises(ValueError, match="is not a bit"):
        BitMatrix.from_rows([[1, 2]])
    with pytest.raises(ValueError, match="cannot infer column count"):
        BitMatrix.from_rows([])
    with pytest.raises(ValueError, match="row 0 has bits outside columns 0..1"):
        BitMatrix(rows=1, cols=2, data=(4,))  # bit set outside the columns
    for data in ((-1,), (0, 1 << 64), (1 << 200,)):   # a negative row, a bit at column 64
        with pytest.raises(ValueError, match=rf"row {len(data) - 1} has bits outside columns 0..63"):
            BitMatrix(len(data), 64, data)
    assert BitMatrix(2, 64, (0, (1 << 64) - 1)).data[1] >> 63 == 1
    with pytest.raises(ValueError, match="non-negative"):
        BitMatrix(-1, 2, ())
    with pytest.raises(ValueError, match="expected 2 rows"):
        BitMatrix(2, 2, (1,))
    assert BitMatrix.from_rows([], cols=3).rows == 0


def test_bitmatrix_checks_a_wide_row_without_a_mask_as_wide_as_the_matrix():
    tracemalloc.start()
    try:
        BitMatrix(2, 10**7, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024   # a 10**7-bit mask alone is 1.25 MB


def test_bitmatrix_matmul():
    a = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    b = BitMatrix.from_rows([[1, 0], [1, 1], [0, 1]])
    assert matrix_array(matrix_product(a, b)).tolist() == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="shape mismatch"):
        matrix_product(b, b)


def test_identity_and_zeros():
    eye = BitMatrix.from_bitrows((1 << i for i in range(3)), 3)
    z = BitMatrix.from_bitrows((0, 0), 3)
    assert matrix_array(eye).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert not any(z.data) and any(eye.data)
    m = BitMatrix.from_rows([[1, 1, 0], [0, 1, 1]])
    assert matrix_product(m, eye) == m


# ------------------------------------------------------------- elimination


def test_rank2_hand_examples():
    assert rank2(BitMatrix.from_rows([[1, 0], [0, 1]])) == 2
    assert rank2(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1
    assert rank2(BitMatrix.from_bitrows((0, 0, 0), 4)) == 0
    # three rows summing to zero: rank drops to 2
    assert rank2(BitMatrix.from_rows([[1, 1, 0], [0, 1, 1], [1, 0, 1]])) == 2


def test_rref2_hand_example():
    reduced, pivots = rref2(BitMatrix.from_rows([[1, 1, 0], [1, 1, 1]]))
    assert matrix_array(reduced).tolist() == [[1, 1, 0], [0, 0, 1]]
    assert pivots == (0, 2)


def test_nullspace2_parity_check():
    basis = nullspace2(BitMatrix.from_rows([[1, 1]]))
    assert matrix_array(basis).tolist() == [[1, 1]]


def test_independent_row_indices_prefers_earliest():
    m = BitMatrix.from_rows([
        [1, 1, 0],
        [1, 1, 0],  # duplicate of row 0, skipped
        [0, 0, 1],
        [1, 1, 1],  # sum of rows 0 and 2, skipped
    ])
    assert independent_row_indices(m) == (0, 2)
    assert rank2(m) == 2


def test_solve2_hand_examples():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
    # x0 + x1 = 1, x1 = 1  ->  x = (0, 1)
    assert solve2(m, 0b11) == 0b10
    singular = BitMatrix.from_rows([[1, 1], [1, 1]])
    assert solve2(singular, 0b01) is None  # inconsistent
    assert solve2(singular, 0b00) is None  # underdetermined
    with pytest.raises(ValueError, match="square"):
        solve2(BitMatrix.from_rows([[1, 0, 1]]), 0b1)
    with pytest.raises(ValueError, match="outside the row range"):
        solve2(m, 0b100)  # a bit beyond n = 2
    with pytest.raises(ValueError, match="outside the row range"):
        solve2(m, -1)


def test_elimination_matches_oracle_on_random_matrices():
    rng = random.Random(20260814)
    for trial in range(120):
        rows = rng.randrange(1, 12)
        cols = rng.randrange(1, 12)
        m = random_bitmatrix(rng, rows, cols, density=rng.choice([0.2, 0.5, 0.8]))
        arr = matrix_array(m)
        r = rank2(m)
        assert r == np_rank2(arr)
        assert r == rank2(m.transpose())
        assert len(independent_row_indices(m)) == r

        reduced, pivots = rref2(m)
        expected, expected_pivots = np_rref2(arr)
        assert matrix_array(reduced).tolist() == expected.tolist()
        assert list(pivots) == expected_pivots
        again, again_pivots = rref2(reduced)
        assert again == reduced and again_pivots == pivots


def test_nullspace_matches_oracle_on_random_matrices():
    rng = random.Random(97)
    for trial in range(80):
        rows = rng.randrange(1, 10)
        cols = rng.randrange(1, 10)
        m = random_bitmatrix(rng, rows, cols)
        basis = nullspace2(m)
        assert basis.rows == cols - rank2(m)
        for brow in basis.data:
            assert all((row & brow).bit_count() % 2 == 0 for row in m.data)
        expected = np_nullspace2(matrix_array(m))
        assert matrix_array(basis).tolist() == expected.tolist()
        # basis rows are independent
        assert rank2(basis) == basis.rows


def test_rank2_of_ragged_rows_across_word_boundaries():
    rng = random.Random(1938)
    assert rank2(BitMatrix.from_bitrows((), 0)) == 0
    assert rank2(BitMatrix.from_bitrows([0, 0], 0)) == 0
    for trial in range(60):
        rows = [rng.getrandbits(rng.choice([0, 1, 5, 63, 64, 65, 130]))
                for _ in range(rng.randrange(1, 40))]
        width = max(row.bit_length() for row in rows)
        arr = np.array([bits_to_array(row, width) for row in rows]).reshape(len(rows), width)
        assert rank2(BitMatrix.from_bitrows(rows, width)) == np_rank2(arr)


@pytest.mark.parametrize("n", [63, 64, 65, 128])
def test_solve2_across_a_word_boundary(n):
    """The right-hand side is column n of the augmented system: the last
    bit of a word at n = 63, the first of a new word at n = 64 and 128."""
    rng = random.Random(n)
    while True:
        m = random_bitmatrix(rng, n, n)
        if rank2(m) == n:
            break
    x = rng.getrandbits(n)
    rhs = sum(((row & x).bit_count() & 1) << r for r, row in enumerate(m.data))
    assert solve2(m, rhs) == x
    # row 1 repeats row 0: singular, and inconsistent when their bits differ
    singular = BitMatrix(n, n, (m.data[0], m.data[0]) + m.data[2:])
    assert rank2(singular) < n
    for rhs in (rng.getrandbits(n) & ~0b11, rng.getrandbits(n) | 0b11,
                (rng.getrandbits(n) & ~0b11) | 0b01):
        assert solve2(singular, rhs) is None


def test_solve2_recovers_random_solutions():
    rng = random.Random(4242)
    solved = 0
    for trial in range(150):
        n = rng.randrange(1, 9)
        m = random_bitmatrix(rng, n, n)
        x = rng.getrandbits(n)
        rhs = 0
        for i, row in enumerate(m.data):
            rhs |= ((row & x).bit_count() & 1) << i
        got = solve2(m, rhs)
        if rank2(m) == n:
            assert got == x
            solved += 1
        elif got is not None:
            # a consistent underdetermined system may solve differently,
            # but the result must satisfy the system
            for i, row in enumerate(m.data):
                assert (row & got).bit_count() & 1 == (rhs >> i) & 1
    assert solved > 20  # the loop saw plenty of invertible systems


# ------------------------------------------------------------ small fields


def test_gf4_arithmetic():
    f = small_field(4)
    assert f.mul(2, 2) == 3   # x * x = x + 1
    assert f.mul(2, 3) == 1   # x * (x + 1) = 1
    assert f.inv(2) == 3
    assert f.add(3, 3) == 0   # characteristic 2


def test_gf9_arithmetic():
    f = small_field(9)
    # elements are base-3 digit vectors: 3 = x, 4 = x + 1
    assert f.add(3, 4) == 7          # x + (x + 1) = 2x + 1
    assert f.mul(3, 3) == 4          # x^2 = x + 1
    assert f.mul(f.inv(5), 5) == 1
    assert f.neg(1) == 2


@pytest.mark.parametrize("q", SUPPORTED_FIELD_ORDERS)
def test_field_tables_match_the_digit_by_digit_oracle(q):
    # the quadrangle oracles compute through small_field too, so only this
    # test would see a wrong table
    assert SUPPORTED_FIELD_ORDERS == FIELD_ORDERS
    f = small_field(q)
    tables = (f._add, f._mul, f._neg, f._inv)
    for table, expected in zip(tables, small_field_tables_by_digits(q)):
        assert np.array_equal(table, np.array(expected))
        assert not table.flags.writeable   # the field is cached and shared
    for x in f.elements():
        values = [f.neg(x), *(g(x, y) for g in (f.add, f.sub, f.mul) for y in f.elements())]
        if x:
            values.append(f.inv(x))
        assert all(type(v) is int for v in values)


@pytest.mark.parametrize("q", SUPPORTED_FIELD_ORDERS)
def test_field_axioms_exhaustively(q):
    f = small_field(q)
    els = list(f.elements())
    assert els == list(range(q))
    for x in els:
        assert f.add(x, 0) == x and f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
        for y in els:
            assert f.add(x, y) == f.add(y, x)
            if f.p == 2:
                assert f.add(x, y) == x ^ y   # hyperoval_gq adds points by XOR
            assert f.mul(x, y) == f.mul(y, x)
            assert f.sub(x, y) == f.add(x, f.neg(y))
            for z in els:
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
                assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))


def test_field_multiplicative_group_is_cyclic():
    for q in SUPPORTED_FIELD_ORDERS:
        f = small_field(q)
        orders = set()
        for x in range(1, q):
            power, order = x, 1
            while power != 1:
                power = f.mul(power, x)
                order += 1
            orders.add(order)
        assert max(orders) == q - 1  # a generator exists


def test_field_error_paths():
    with pytest.raises(ZeroDivisionError, match="zero has no inverse"):
        small_field(8).inv(0)
    with pytest.raises(ValueError, match="outside 0"):
        small_field(4).add(4, 0)
    with pytest.raises(ValueError):
        small_field(6)
    with pytest.raises(ValueError):
        small_field(32)
