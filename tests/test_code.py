import dataclasses
import random
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pgblrc.algebra import BitMatrix, _eliminate, _words, independent_row_indices
from pgblrc.code import (
    BlrcCode,
    _forced_zero_symbol,
    build_code,
    encode,
    export_code,
    rate,
    reconstruct,
)
from pgblrc.errors import (
    DegenerateCodeError,
    NotInformationSetError,
    ParameterError,
)
from pgblrc.geometry import (
    elliptic_quadric_gq,
    grid,
    hyperoval_gq,
    incidence_matrix,
    load,
    symplectic_gq,
)
from pgblrc.repair import line_repair_sets, repair_symbol

from oracles import (as_bits_checked_first, footprint, is_mds, matrix_array, matrix_from_rows,
                     matrix_product, np_rank2, rank2, reconstruct_bitwise)

FIXTURES = Path(__file__).parent / "fixtures"


def checks_hold(code, word_bits):
    N = incidence_matrix(code.geometry)
    return all((row & word_bits).bit_count() % 2 == 0 for row in N.data)


def bits_of(arr):
    out = 0
    for j, v in enumerate(arr):
        out |= int(v) << j
    return out


# ------------------------------------------------------------ construction


def test_grid2_code_shape():
    code = build_code(grid(2))
    assert (code.n, code.k) == (9, 4)
    assert code.parity_check.rows == 5
    assert rate(code) == Fraction(4, 9)
    assert footprint(code) == Fraction(9, 4)
    assert code.info_set == (4, 5, 7, 8)
    # H spans the same row space as the full incidence matrix
    N = incidence_matrix(code.geometry)
    assert rank2(N) == 5
    assert rank2(BitMatrix.from_bitrows(code.parity_check.data + N.data, code.n)) == 5
    # H is made of incidence rows, scanned in canonical order
    assert all(row in N.data for row in code.parity_check.data)


def test_grid2_generator_is_systematic():
    code = build_code(grid(2))
    assert code.generator.rows == code.k
    for j, i in enumerate(code.info_set):
        for r in range(code.k):
            assert (code.generator.data[r] >> i) & 1 == (1 if r == j else 0)
    product = matrix_product(code.generator, code.parity_check.transpose())
    assert not any(product.data)


def test_symplectic2_code_shape():
    code = build_code(symplectic_gq(2))
    # rank frozen after cross-checking two independent eliminators
    assert (code.n, code.k) == (15, 5)
    assert rate(code) == Fraction(1, 3)
    assert np_rank2(matrix_array(incidence_matrix(code.geometry))) == 10


def test_elliptic2_code_shape():
    code = build_code(elliptic_quadric_gq(2))
    assert (code.n, code.k) == (27, 6)
    assert rate(code) == Fraction(6, 27)


def test_grid1_is_the_repetition_code():
    code = build_code(grid(1))
    assert (code.n, code.k) == (4, 1)
    assert sorted(b for b in code.geometry.lines) == [
        (0, 1), (0, 2), (1, 3), (2, 3)]
    assert is_mds(code)
    assert np.array_equal(encode(code, [1]), np.ones(4, dtype=np.uint8))


def test_fano_fixture_code():
    code = build_code(load(FIXTURES / "fano.txt"))
    assert (code.n, code.k) == (7, 3)


def test_full_rank_incidence_is_rejected():
    inc = load(FIXTURES / "ag23.txt")
    with pytest.raises(DegenerateCodeError, match="degenerate code"):
        build_code(inc)


def forced_zero_symbol(rows, cols):
    """``_forced_zero_symbol`` on the kernel's packed reduced rows."""
    reduced, pivots, _ = _eliminate(_words(rows, cols))
    return _forced_zero_symbol(reduced, pivots)


def test_forced_zero_symbol_detector():
    assert forced_zero_symbol([0b001, 0b110], 3) == 0
    assert forced_zero_symbol([0b011, 0b110], 3) is None
    # the weight-1 row is the second reduced row, after 0b011
    assert forced_zero_symbol([0b011, 0b100], 3) == 2
    # past column 63 the weight-1 row sits in the second uint64 word
    assert forced_zero_symbol([0b11, 1 << 65], 70) == 65
    # one bit in each word is weight 2, not two weight-1 words
    assert forced_zero_symbol([(1 << 3) | (1 << 64)], 70) is None


def test_forced_zero_symbol_on_packed_rows():
    # reduced rows as uint64 words, little-endian, with each row's pivot
    # column: the row of popcount 1 names its pivot, and without one, None
    reduced = np.array([[0b0110, 0], [0b1000, 0], [0, 0b11]], dtype=np.uint64)
    assert _forced_zero_symbol(reduced, [1, 3, 64]) == 3
    assert _forced_zero_symbol(reduced[[0, 2]], [1, 64]) is None


def test_code_is_immutable():
    code = build_code(grid(2))
    with pytest.raises(AttributeError):
        code.k = 3


def test_a_code_is_its_five_parts():
    # n, k and the generator columns are read off the generator, so a
    # hand-built code cannot be given a length that disagrees with it
    parts = ["parity_check", "generator", "info_set", "geometry", "pg"]
    assert [field.name for field in dataclasses.fields(BlrcCode)] == parts
    code = build_code(grid(2))
    with pytest.raises(TypeError):
        BlrcCode(n=6, **{name: getattr(code, name) for name in parts})


def test_parts_that_disagree_on_n_are_refused():
    # grid(2) has 9 points, grid(3) 16: before the check, a grid(3)
    # geometry under grid(2)'s matrices built, and repairs then raised a
    # bare IndexError
    small, big = build_code(grid(2)), build_code(grid(3))
    with pytest.raises(ParameterError, match="disagree on n: 16 points, 9 parity-check"):
        dataclasses.replace(small, geometry=big.geometry, pg=big.pg)
    with pytest.raises(ParameterError, match="16 parity-check columns, 9 generator"):
        dataclasses.replace(small, parity_check=big.parity_check)


def test_an_info_set_outside_the_symbols_is_refused():
    code = build_code(grid(2))
    for info_set in [(0, 99), (-1, 0), (0, 9)]:
        with pytest.raises(ParameterError, match=r"lies outside range\(9\)"):
            dataclasses.replace(code, info_set=info_set)
    # the information set's size is not checked: a bare code may leave it empty
    assert dataclasses.replace(code, info_set=()).info_set == ()


# --------------------------------------------------------- encode and dual


def test_encode_round_trips_message_on_info_set():
    code = build_code(grid(2))
    rng = random.Random(11)
    for _ in range(50):
        msg = [rng.randint(0, 1) for _ in range(code.k)]
        word = encode(code, msg)
        assert [int(word[i]) for i in code.info_set] == msg
        assert checks_hold(code, bits_of(word))


def test_encode_validates_input():
    code = build_code(grid(2))
    with pytest.raises(ValueError, match="length 4"):
        encode(code, [1, 0])
    with pytest.raises(ValueError, match="must be bits"):
        encode(code, [1, 0, 2, 0])
    with pytest.raises(ValueError, match=r"message entries must be bits, got \[1\]$"):
        encode(code, [1, 0, [1], 0])  # an unhashable entry


@pytest.mark.parametrize("bad", [1.5, 1.9, 0.7, -0.5, "1"])
def test_entries_that_only_truncate_to_bits_are_refused(bad):
    code = build_code(grid(2))
    got = re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"matrix entry {got} is not a bit$"):
        matrix_from_rows([[1, 0], [0, bad]])
    with pytest.raises(ValueError, match=f"matrix entry {got} is not a bit$"):
        matrix_from_rows([[bad, 1]], cols=2)
    with pytest.raises(ValueError, match=f"message entries must be bits, got {got}$"):
        encode(code, [bad, 0, 1, 1])
    coords = list(code.info_set)
    with pytest.raises(ValueError, match=f"values entries must be bits, got {got}$"):
        reconstruct(code, coords, [0, 1, bad, 1])
    received = [int(b) for b in encode(code, [1, 0, 1, 1])]
    helper = line_repair_sets(code, 0)[0].helpers(0)[0]
    received[0], received[helper] = None, bad
    with pytest.raises(ValueError,
                       match=f"received entries must be bits, got {got} at coordinate {helper}$"):
        repair_symbol(code, received, 0)
    # entries equal to 0 or 1 of any numeric type are bits
    word = encode(code, [True, np.uint8(0), 1.0, np.int64(1)])
    assert [int(word[i]) for i in code.info_set] == [1, 0, 1, 1]
    assert matrix_from_rows([[True, np.uint8(0), 1.0, np.int64(1)]]).data == (0b1101,)


def test_encode_accepts_a_bit_of_any_type_and_refuses_the_rest():
    # ints, bools and numpy integers are copied as bytes; 1.0, Fraction(1)
    # and np.bool_, which has no __index__, take the array route
    code = build_code(grid(2))
    want = encode(code, [1, 0, 1, 1]).tolist()
    for message in ([True, False, True, True],
                    np.array([1, 0, 1, 1], dtype=np.uint8),
                    [np.int64(1), np.int64(0), np.int64(1), 1],
                    [np.bool_(True), np.bool_(False), 1, np.bool_(True)],
                    [1.0, 0.0, 1, 1],
                    [Fraction(1), 0, Fraction(1), 1]):
        word = encode(code, message)
        assert word.dtype == np.uint8 and word.tolist() == want
    for bad in (2, 0.5, None, "1"):
        with pytest.raises(ValueError,
                           match=f"message entries must be bits, got {re.escape(repr(bad))}$"):
            encode(code, [1, 0, bad, 1])


class OnlyIndex:
    """An object whose one numeric method is ``__index__``."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"OnlyIndex({self.value})"


def test_an_entry_whose_index_is_0_or_1_is_a_bit():
    # a 0-d integer array and an object with only __index__ are bits when
    # their index is 0 or 1, as coordinates and seeds are read by theirs;
    # the check-first rule refused both, as unhashable or unequal to 1
    code = build_code(grid(2))
    want = encode(code, [1, 0, 1, 1]).tolist()
    helper = line_repair_sets(code, 0)[0].helpers(0)[0]
    for one in (np.array(1), OnlyIndex(1)):
        with pytest.raises(ValueError, match="must be bits"):
            as_bits_checked_first([one, 0, 1, 1], code.k, "message")
        # alone among ints, and beside 1.0, which sends the entries through np.array
        for message in ([one, 0, 1, 1], [one, np.array(0), 1.0, OnlyIndex(1)]):
            assert encode(code, message).tolist() == want
            assert reconstruct(code, code.info_set, message).tolist() == [1, 0, 1, 1]
            assert matrix_from_rows([message]).data == (0b1101,)
        received = list(want)
        received[0], received[helper] = None, 1
        value = repair_symbol(code, received, 0).value
        received[helper] = one
        assert repair_symbol(code, received, 0).value == value
    for two in (np.array(2), OnlyIndex(2)):
        got = re.escape(repr(two))
        for message in ([1, 0, two, 1], [1.0, 0, two, 1]):
            with pytest.raises(ValueError, match=f"message entries must be bits, got {got}$"):
                encode(code, message)
        received = list(want)
        received[0], received[helper] = None, two
        with pytest.raises(ValueError,
                           match=f"received entries must be bits, got {got} at coordinate {helper}$"):
            repair_symbol(code, received, 0)


def test_every_codeword_satisfies_every_incidence_row():
    # walk the whole 16-word code of grid(2)
    code = build_code(grid(2))
    words = set()
    for m in range(1 << code.k):
        word = encode(code, [(m >> j) & 1 for j in range(code.k)])
        words.add(bits_of(word))
        assert checks_hold(code, bits_of(word))
    assert len(words) == 16


# ------------------------------------------------------------- reconstruct


def test_reconstruct_from_info_set():
    code = build_code(symplectic_gq(2))
    rng = random.Random(5150)
    for _ in range(50):
        msg = [rng.randint(0, 1) for _ in range(code.k)]
        word = encode(code, msg)
        got = reconstruct(code, code.info_set, [word[i] for i in code.info_set])
        assert got.tolist() == msg


def test_reconstruct_from_random_information_sets():
    code = build_code(grid(2))
    rng = random.Random(77)
    word = encode(code, [1, 0, 0, 1])
    hits = misses = 0
    for _ in range(120):
        coords = sorted(rng.sample(range(code.n), code.k))
        subrank = rank2(BitMatrix.from_bitrows((code.gen_cols[c] for c in coords), code.k))
        if subrank == code.k:
            got = reconstruct(code, coords, [word[c] for c in coords])
            assert got.tolist() == [1, 0, 0, 1]
            hits += 1
        else:
            with pytest.raises(NotInformationSetError):
                reconstruct(code, coords, [word[c] for c in coords])
            misses += 1
    assert hits and misses


def test_line_plus_point_is_never_an_information_set():
    # a full line carries a parity dependency, so no 4-set containing one
    # can determine the message
    code = build_code(grid(2))
    word = encode(code, [0, 1, 1, 0])
    for line in code.geometry.lines:
        for extra in range(code.n):
            if extra in line:
                continue
            coords = sorted(set(line) | {extra})
            with pytest.raises(NotInformationSetError, match="not an information set"):
                reconstruct(code, coords, [word[c] for c in coords])


@pytest.fixture(scope="module")
def hyperoval8():
    """k = 213: each system spans four 64-bit words."""
    return build_code(hyperoval_gq(8))


def test_reconstruct_refuses_dependent_coordinates_across_words(hyperoval8):
    code = hyperoval8
    k, info = code.k, list(code.info_set)
    rng = random.Random(213)
    word = encode(code, [rng.randrange(2) for _ in range(k)])
    # line 0's 8 points sum to zero in every codeword, so with k - 8
    # information-set coordinates off the line they determine no message
    line = code.geometry.lines[0]
    cases = [list(line) + [i for i in info if i not in line][:k - 8]]
    # rank exactly k - 1: message bit j is left out and coordinate c's
    # column has no bit j, so a flipped value at c puts a pivot at column k
    for j in (0, 100, k - 1):
        c = next(c for c in range(code.n) if c not in info and not code.gen_cols[c] >> j & 1)
        cases.append(info[:j] + info[j + 1:] + [c])
    for coords in cases:
        assert len(coords) == k
        values = [int(word[c]) for c in coords]
        for given in (values, values[:-1] + [1 - values[-1]]):
            for step in (1, -1):
                with pytest.raises(NotInformationSetError, match="not an information set"):
                    reconstruct(code, coords[::step], given[::step])


def test_reconstruct_matches_the_bitwise_solve_across_words(hyperoval8):
    code = hyperoval8
    rng = random.Random(8)
    accepted = [list(code.info_set), list(code.info_set)[::-1]]
    while len(accepted) < 5:
        perm = rng.sample(range(code.n), code.n)
        keep = independent_row_indices(
            BitMatrix.from_bitrows((code.gen_cols[c] for c in perm), code.k))
        accepted.append([perm[j] for j in keep])
    for coords in accepted:
        message = [rng.randrange(2) for _ in range(code.k)]
        values = encode(code, message)[coords].tolist()
        got = reconstruct(code, coords, values)
        assert got.dtype == np.uint8 and got.tolist() == message
        assert np.array_equal(got, reconstruct_bitwise(code, coords, values))


def test_reconstruct_accepts_sets_and_validates():
    code = build_code(grid(2))
    word = encode(code, [1, 1, 1, 1])
    got = reconstruct(code, set(code.info_set), [word[i] for i in code.info_set])
    assert got.tolist() == [1, 1, 1, 1]
    with pytest.raises(ValueError, match="exactly k=4"):
        reconstruct(code, [0, 1, 2], [0, 1, 1])
    with pytest.raises(ValueError, match="distinct"):
        reconstruct(code, [0, 0, 1, 2], [0, 0, 1, 1])
    with pytest.raises(ValueError, match="out of range"):
        reconstruct(code, [0, 1, 2, 99], [0, 0, 1, 1])
    with pytest.raises(ValueError, match="length 4"):
        reconstruct(code, list(code.info_set), [0, 1])
    with pytest.raises(ValueError, match=r"values entries must be bits, got \{\}$"):
        reconstruct(code, list(code.info_set), [0, {}, 1, 1])  # an unhashable entry


# ------------------------------------------------------------------- tools


def test_is_mds_flags_grid2():
    assert not is_mds(build_code(grid(2)))


def test_is_mds_guard():
    # the derivation takes no work guard, even where a subset scan would
    # test all C(15, 5) information sets
    assert not is_mds(build_code(symplectic_gq(2)))


def test_export_code_layout():
    code = build_code(grid(2))
    doc = export_code(code)
    assert doc["schema_version"] == 1
    assert (doc["n"], doc["k"]) == (9, 4)
    assert doc["info_set"] == [4, 5, 7, 8]
    assert doc["H"] == ["007", "049", "092", "124", "038"]
    assert [int(h, 16) for h in doc["H"]] == list(code.parity_check.data)
    assert [int(g, 16) for g in doc["G"]] == list(code.generator.data)
    assert export_code(code) == doc  # deterministic


def test_generator_rows_are_independent():
    for make in (lambda: grid(3), lambda: symplectic_gq(2),
                 lambda: elliptic_quadric_gq(2)):
        code = build_code(make())
        assert rank2(code.generator) == code.k
        assert not any(matrix_product(code.generator, code.parity_check.transpose()).data)
