import itertools
import json
import math
import random
import re
from collections.abc import Sequence

import numpy as np
import pytest

from pgblrc import repair
from pgblrc.algebra import small_field
from pgblrc.bounds import catalog, rank_bounds, rate_lower, vartheta
from pgblrc.code import BlrcCode, build_code, encode, reconstruct
from pgblrc.errors import GuardExceededError, NotLocallyRepairableError, ParameterError
from pgblrc.geometry import (
    IncidenceStructure,
    PgParams,
    elliptic_quadric_gq,
    grid,
    hyperoval_gq,
    symplectic_gq,
)
from pgblrc.repair import (
    RepairVector,
    blocking_set,
    line_repair_sets,
    minimum_hitting_set,
    omega_r,
    repair_profile,
    repair_symbol,
    simulate_availability,
)

from oracles import (brute_minimum_hitting_set, brute_repair_degree, dual_codewords_upto, field_add,
                     matrix_from_rows)


def make_code(name):
    makers = {
        "grid2": lambda: grid(2),
        "grid3": lambda: grid(3),
        "w2": lambda: symplectic_gq(2),
        "q2": lambda: elliptic_quadric_gq(2),
    }
    return build_code(makers[name]())


# frozen by the exhaustive search and confirmed against the Gray-code
# census of each full dual code
EXPECTED_PROFILE = {
    "grid2": dict(r=2, a=2, delta=2),
    "grid3": dict(r=3, a=2, delta=2),
    "w2": dict(r=2, a=3, delta=3),
    "q2": dict(r=2, a=5, delta=5),
}


def unbalanced_code():
    """Hand-built 5-symbol code: three symbols tied by one check, two by
    another, so tolerances differ (2, 2, 2, 1, 1)."""
    generator = matrix_from_rows([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    parity = matrix_from_rows(
        [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]])
    geometry = IncidenceStructure(5, ((0, 1, 2), (3, 4)))
    pg = PgParams(s=1, t=0, alpha=1, num_points=5, num_lines=2,
                  pg_class="proper", grid_degenerate=False)
    return BlrcCode(parity_check=parity, generator=generator,
                    info_set=(0, 3), geometry=geometry, pg=pg)


# -------------------------------------------------------------- line checks


def test_line_repair_sets_grid2():
    code = make_code("grid2")
    vecs = line_repair_sets(code, 0)
    assert [v.support for v in vecs] == [(0, 1, 2), (0, 3, 6)]
    assert [v.line for v in vecs] == [0, 1]
    assert vecs[0].helpers(0) == (1, 2)
    assert vecs[0].helpers(1) == (0, 2) and vecs[0].helpers(2) == (0, 1)
    assert vecs[0].helpers(3) == (0, 1, 2)  # not in the support: every point is read
    assert vecs[0].weight == 3


def test_line_helper_sets_are_pairwise_disjoint():
    for name in ("grid2", "w2", "q2"):
        code = make_code(name)
        for i in range(code.n):
            helper_sets = [set(v.helpers(i)) for v in line_repair_sets(code, i)]
            for a, b in itertools.combinations(helper_sets, 2):
                assert not (a & b)


# ------------------------------------------------------------------ omega_r


@pytest.mark.parametrize("name", ["grid2", "grid3", "w2", "q2"])
def test_omega_matches_the_dual_code_census(name):
    code = make_code(name)
    r = EXPECTED_PROFILE[name]["r"]
    census = dual_codewords_upto(list(code.parity_check.data), r + 1)
    by_symbol = {i: set() for i in range(code.n)}
    for vec in census:
        for i in range(code.n):
            if (vec >> i) & 1:
                by_symbol[i].add(tuple(
                    j for j in range(code.n) if (vec >> j) & 1))
    for i in range(code.n):
        got = {v.support for v in omega_r(code, i, r)}
        assert got == by_symbol[i]


def test_omega_tags_line_vectors():
    code = make_code("w2")
    for i in range(code.n):
        line_supports = {v.support: v.line for v in line_repair_sets(code, i)}
        for v in omega_r(code, i, 2):
            assert v.line == line_supports.get(v.support)


def test_omega_orders_by_weight():
    code = make_code("q2")
    weights = [v.weight for v in omega_r(code, 3, 4)]
    assert weights == sorted(weights)


def test_omega_guard():
    code = make_code("q2")
    with pytest.raises(GuardExceededError, match="search guard"):
        omega_r(code, 0, 5, guard=10)


# ----------------------------------------------------------- repair degree


@pytest.mark.parametrize("name", ["grid2", "grid3", "w2", "q2"])
def test_repair_degree_both_modes(name):
    code = make_code(name)
    expected = EXPECTED_PROFILE[name]["r"]
    assert repair_profile(code, mode="geometric").r == code.pg.s
    exact = repair_profile(code, mode="exhaustive")
    assert exact.r == expected
    for i in (0, code.n // 2, code.n - 1):
        assert exact.per_symbol_r[i] == expected
        oracle = brute_repair_degree(list(code.gen_cols), code.k, i, code.pg.s)
        assert oracle == expected


def test_repair_degree_sees_sub_line_checks():
    # duplicate generator columns give a weight-2 dual vector, below any line
    code = unbalanced_code()
    assert repair_profile(code, mode="exhaustive").per_symbol_r[0] == 1
    assert repair_profile(code, mode="geometric").per_symbol_r[0] == code.pg.s == 1


def test_geometric_mode_ignores_the_guard():
    code = make_code("grid2")
    assert (repair_profile(code, mode="geometric", guard=-5)
            == repair_profile(code, mode="geometric"))
    assert (blocking_set(code, 0, 2, mode="geometric", guard=-1)
            == blocking_set(code, 0, 2, mode="geometric"))
    # a guard of 0 is a bound, and every census exceeds it
    with pytest.raises(GuardExceededError, match="search guard of 0;"):
        omega_r(code, 0, 2, guard=0)


def test_census_weight_stops_at_n():
    # no support is heavier than n, so any r >= n - 1 takes the same census
    code = make_code("grid2")
    n = code.n
    for i in (0, 4, n - 1):
        assert omega_r(code, i, 10**9) == omega_r(code, i, n - 1)
        assert blocking_set(code, i, 10**9) == blocking_set(code, i, n - 1)
    huge, whole = (repair_profile(code, "exhaustive", r=r) for r in (10**9, n - 1))
    assert (huge.r, whole.r) == (10**9, n - 1)
    assert huge.repair_sets == whole.repair_sets
    assert ((huge.a, huge.delta, huge.per_symbol_a, huge.per_symbol_delta)
            == (whole.a, whole.delta, whole.per_symbol_a, whole.per_symbol_delta))


def test_census_guard_counts_no_weight_past_n():
    # hyperoval(8): the estimate is summed only until it passes the guard,
    # so the refusal comes before the terms grow to C(512, 256)
    code = build_code(hyperoval_gq(8))
    with pytest.raises(GuardExceededError,
                       match=r"weight <= 512 on n = 512 symbols needs at least \d+ half-supports"):
        omega_r(code, 0, 10**9)
    with pytest.raises(GuardExceededError, match="weight <= 512 on n = 512 symbols"):
        repair_profile(code, "exhaustive", r=10**9)


def test_repair_degree_validation():
    code = make_code("grid2")
    with pytest.raises(ValueError, match="out of range"):
        omega_r(code, 9, 2)
    with pytest.raises(ValueError, match="unknown mode"):
        repair_profile(code, mode="fast")
    with pytest.raises(GuardExceededError):
        repair_profile(code, guard=3)


@pytest.mark.parametrize("mode", ["geometric", "exhaustive"])
def test_negative_repair_degree_bound_is_rejected(mode):
    code = make_code("grid2")
    with pytest.raises(ValueError, match="non-negative"):
        repair_profile(code, mode=mode, r=-1)
    with pytest.raises(ValueError, match="non-negative"):
        blocking_set(code, 0, -1, mode=mode)


@pytest.mark.parametrize("call, message", [
    (lambda code: omega_r(code, 9, 2), "coordinate 9 out of range for length 9"),
    (lambda code: line_repair_sets(code, -1), "coordinate -1 out of range"),
    (lambda code: repair_symbol(code, [None] * 9, 9), "coordinate 9 out of range"),
    (lambda code: reconstruct(code, [0, 1, 2, 99], [0, 0, 1, 1]), "coordinate 99 out of range"),
    (lambda code: repair_profile(code, mode="fast"), "unknown mode 'fast'"),
    (lambda code: blocking_set(code, 0, 2, mode="fast"), "unknown mode 'fast'"),
    (lambda code: omega_r(code, 0, -1), "repair degree bound must be non-negative"),
    (lambda code: vartheta(0, 1, 1), "require s >= 1 and t >= 1"),
    (lambda code: rank_bounds(2, 2, 4), "alpha must lie in"),
    # operator.index refuses non-integers, even those int() would truncate or parse
    (lambda code: reconstruct(code, [4.5, 5.5, 7.5, 8.5], [0, 0, 1, 1]),
     "coordinate must be an integer, got 4.5"),
    (lambda code: reconstruct(code, ["4", "5", "7", "8"], [0, 0, 1, 1]),
     "coordinate must be an integer, got '4'"),
    (lambda code: repair_profile(code, r=1.5), "r must be an integer, got 1.5"),
    (lambda code: omega_r(code, 0, 1.5), "r must be an integer, got 1.5"),
    (lambda code: line_repair_sets(code, 1.5), "coordinate must be an integer, got 1.5"),
    (lambda code: repair_symbol(code, [None] * 9, 1.0), "coordinate must be an integer, got 1.0"),
    (lambda code: vartheta(1.5, 1, 1), "s must be an integer, got 1.5"),
    (lambda code: rate_lower(2.5, 3), "r must be an integer, got 2.5"),
    (lambda code: grid(2.5), "s must be an integer, got 2.5"),
    (lambda code: grid("2"), "s must be an integer, got '2'"),
    # small_field(3) may be cached already: 3.0 must not be read as 3
    (lambda code: symplectic_gq(3.0), "q must be an integer, got 3.0"),
    (lambda code: elliptic_quadric_gq(2.0), "q must be an integer, got 2.0"),
    (lambda code: hyperoval_gq(8.0), "q must be an integer, got 8.0"),
    (lambda code: small_field(4.0), "q must be an integer, got 4.0"),
    (lambda code: field_add(small_field(4), 2.5, 0), "element must be an integer, got 2.5"),
    (lambda code: field_add(small_field(4), "1", 0), "element must be an integer, got '1'"),
    (lambda code: field_add(small_field(4), None, 0), "element must be an integer, got None"),
    (lambda code: catalog(max_n=2.5), "max_n must be an integer, got 2.5"),
    (lambda code: catalog(max_n="9"), "max_n must be an integer, got '9'"),
    (lambda code: repair_profile(code, "exhaustive", guard="x"),
     "guard must be an integer, got 'x'"),
    (lambda code: omega_r(code, 0, 2, guard=2.5), "guard must be an integer, got 2.5"),
    (lambda code: blocking_set(code, 0, 2, guard=None), "guard must be an integer, got None"),
    # a negative guard is refused before the census work is compared
    (lambda code: omega_r(code, 0, 2, guard=-1), "guard must be non-negative, got -1"),
    (lambda code: blocking_set(code, 0, 2, guard=-1), "guard must be non-negative, got -1"),
    (lambda code: repair_profile(code, guard=-5), "guard must be non-negative, got -5"),
], ids=["omega_r", "line_repair_sets", "repair_symbol", "reconstruct", "repair_profile",
        "blocking_set", "degree_bound", "vartheta", "rank_bounds",
        "reconstruct_float", "reconstruct_str", "repair_profile_float_r", "omega_r_float_r",
        "line_repair_sets_float", "repair_symbol_float", "vartheta_float", "rate_lower_float",
        "grid_float", "grid_str", "symplectic_float", "elliptic_float", "hyperoval_float",
        "small_field_float", "field_element_float", "field_element_str",
        "field_element_none", "catalog_float", "catalog_str", "repair_profile_str_guard",
        "omega_r_float_guard", "blocking_set_none_guard", "omega_r_negative_guard",
        "blocking_set_negative_guard", "repair_profile_negative_guard"])
def test_out_of_range_arguments_raise_parameter_error(call, message):
    with pytest.raises(ParameterError, match=message):
        call(make_code("grid2"))


def test_numpy_integer_arguments_are_accepted():
    code = make_code("grid2")
    word = encode(code, [1, 0, 0, 1])
    coords = list(np.array(code.info_set))
    assert reconstruct(code, coords, [word[c] for c in coords]).tolist() == [1, 0, 0, 1]
    received = [None] + [int(b) for b in word[1:]]
    assert repair_symbol(code, received, np.int64(0)) == repair_symbol(code, received, 0)
    assert line_repair_sets(code, np.int32(3)) == line_repair_sets(code, 3)
    assert omega_r(code, np.int64(0), np.int64(2)) == omega_r(code, 0, 2)
    assert repair_profile(code, r=np.int64(2)) == repair_profile(code, r=2)
    assert repair_profile(code, guard=np.int64(10**6)) == repair_profile(code)
    assert vartheta(np.int64(2), np.int64(2), np.int64(1)) == vartheta(2, 2, 1)
    assert rate_lower(np.int64(2), np.int64(3)) == rate_lower(2, 3)
    assert grid(np.int64(2)) == grid(2)
    assert symplectic_gq(np.int64(2)) == symplectic_gq(2)
    assert elliptic_quadric_gq(np.int32(2)) == elliptic_quadric_gq(2)
    assert hyperoval_gq(np.int64(4)) == hyperoval_gq(4)
    assert small_field(np.int64(9)).q == 9
    assert catalog(max_n=np.int64(40)) == catalog(max_n=40)


# ------------------------------------------------- alternativity, tolerance


@pytest.mark.parametrize("name", ["grid2", "grid3", "w2", "q2"])
def test_alternativity_and_tolerance(name):
    code = make_code(name)
    want = EXPECTED_PROFILE[name]
    prof = repair_profile(code)
    assert prof.r == want["r"]
    assert prof.a == want["a"]
    assert prof.delta == want["delta"]
    # geometric mode sees exactly the t+1 line alternatives
    assert repair_profile(code, mode="geometric", r=code.pg.s).a == code.pg.t + 1
    for i in (0, code.n - 1):
        assert prof.per_symbol_a[i] == want["a"]
        assert prof.per_symbol_delta[i] == want["delta"]


@pytest.mark.parametrize("name", ["grid2", "w2"])
def test_tolerance_matches_brute_force(name):
    code = make_code(name)
    r = EXPECTED_PROFILE[name]["r"]
    prof = repair_profile(code, r=r)
    for i in range(code.n):
        helper_sets = [frozenset(v.helpers(i)) for v in omega_r(code, i, r)]
        assert prof.per_symbol_delta[i] == len(brute_minimum_hitting_set(helper_sets))


def test_blocking_set_blocks_everything():
    code = make_code("w2")
    for i in (0, 7, 14):
        block = blocking_set(code, i, 2)
        assert len(block) == 3 and i not in block
        for v in omega_r(code, i, 2):
            assert block & set(v.helpers(i))


@pytest.mark.parametrize("inc", [grid(3), symplectic_gq(3)], ids=["grid3", "w3"])
def test_geometric_blocking_set_has_the_profile_tolerance(inc):
    # geometric blocking_set builds only the lines through i; its witness
    # must still hit every line through i and have size delta(i)
    code = build_code(inc)
    s = code.pg.s
    profile = repair_profile(code, mode="geometric")
    for i in range(code.n):
        block = blocking_set(code, i, s, mode="geometric")
        assert len(block) == profile.per_symbol_delta[i]
        assert all(block & set(v.helpers(i)) for v in line_repair_sets(code, i))


# ------------------------------------------------------ minimum hitting set


def test_minimum_hitting_set_hand_cases():
    assert minimum_hitting_set([]) == frozenset()
    assert minimum_hitting_set([frozenset({3})]) == frozenset({3})
    triangle = [frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 2})]
    assert len(minimum_hitting_set(triangle)) == 2
    disjoint = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]
    hit = minimum_hitting_set(disjoint)
    assert len(hit) == 3 and all(hit & s for s in disjoint)
    with pytest.raises(ValueError, match="empty set"):
        minimum_hitting_set([frozenset()])


def test_minimum_hitting_set_is_deterministic():
    family = [frozenset({1, 4}), frozenset({2, 4}), frozenset({1, 2, 3})]
    first = minimum_hitting_set(family)
    assert first == minimum_hitting_set(list(reversed(family)))
    assert all(first & s for s in family)


def test_minimum_hitting_set_matches_brute_force():
    rng = random.Random(314159)
    for trial in range(60):
        ground = range(rng.randrange(4, 10))
        family = [
            frozenset(rng.sample(ground, rng.randrange(1, 4)))
            for _ in range(rng.randrange(1, 7))
        ]
        got = minimum_hitting_set(family)
        assert all(got & s for s in family)
        assert len(got) == len(brute_minimum_hitting_set(family))


# ---------------------------------------------------------------- profiles


@pytest.mark.parametrize("name", ["grid2", "grid3", "w2", "q2"])
def test_repair_profile_values(name):
    code = make_code(name)
    want = EXPECTED_PROFILE[name]
    prof = repair_profile(code, mode="exhaustive")
    assert (prof.r, prof.a, prof.delta) == (want["r"], want["a"], want["delta"])
    assert prof.balanced
    assert prof.safe_unavailability == want["delta"] - 1
    assert prof.per_symbol_r == (want["r"],) * code.n
    assert prof.per_symbol_a == (want["a"],) * code.n
    assert prof.per_symbol_delta == (want["delta"],) * code.n
    assert len(prof.repair_sets) == code.n
    assert all(len(sets) == want["a"] for sets in prof.repair_sets)


def test_profile_json_shape():
    prof = repair_profile(make_code("grid2"))
    doc = prof.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["mode"] == "exhaustive"
    assert (doc["r"], doc["a"], doc["delta"]) == (2, 2, 2)
    assert doc["safe_unavailability"] == 1
    assert doc["balanced"] is True
    assert doc["per_symbol"]["delta"] == [2] * 9
    assert doc["repair_sets"][0] == [[1, 2], [3, 6]]
    # the CLI writes the fields with the per-symbol columns as arrays
    fields = prof._json_fields()
    assert all(type(column) is np.ndarray for column in fields["per_symbol"].values())
    assert json.loads(json.dumps(fields, default=np.ndarray.tolist)) == doc


def test_geometric_profile_uses_design_values():
    code = make_code("w2")
    prof = repair_profile(code, mode="geometric")
    assert (prof.r, prof.a, prof.delta) == (2, 3, 3)
    assert prof.balanced


def test_unbalanced_code_is_detected():
    code = unbalanced_code()
    prof = repair_profile(code, mode="exhaustive")
    assert prof.per_symbol_delta == (2, 2, 2, 1, 1)
    assert not prof.balanced
    assert prof.delta == 1
    assert repair_profile(make_code("grid2")).balanced


def test_delta_guarantee_is_sharp_on_grid2():
    # below delta nothing can block a symbol; at delta a blocking set exists
    code = make_code("grid2")
    for i in range(code.n):
        others = [j for j in range(code.n) if j != i]
        vectors = omega_r(code, i, 2)
        for unavail in itertools.combinations(others, 1):
            assert any(
                not set(unavail) & set(v.helpers(i)) for v in vectors)
        block = blocking_set(code, i, 2)
        assert all(set(block) & set(v.helpers(i)) for v in vectors)


# ------------------------------------------------------------ repair_symbol


def test_repair_symbol_recovers_erasures():
    code = make_code("w2")
    rng = random.Random(999)
    for _ in range(40):
        msg = [rng.randint(0, 1) for _ in range(code.k)]
        word = [int(b) for b in encode(code, msg)]
        i = rng.randrange(code.n)
        received = list(word)
        received[i] = None
        out = repair_symbol(code, received, i)
        assert out.value == word[i]
        assert out.retrieved == 2
        assert out.vector.line is not None


def test_repair_symbol_prefers_low_line_index():
    code = make_code("grid2")
    word = [int(b) for b in encode(code, [1, 0, 1, 0])]
    received = list(word)
    received[0] = None
    assert repair_symbol(code, received, 0).vector.line == 0
    # blocking the first line forces the second
    out = repair_symbol(code, received, 0, unavailable={1})
    assert out.vector.line == 1 and out.value == word[0]


def test_repair_symbol_applies_wider_vector_lists():
    code = unbalanced_code()
    word = [0, 0, 0, 1, 1]
    received = [None, 0, 0, 1, 1]
    out = repair_symbol(code, received, 0, vectors=omega_r(code, 0, 1))
    assert out.value == 0 and out.retrieved == 1  # weight-2 check wins


class _NoReads(list):
    """A received word that fails the test if any symbol is looked at."""

    def __getitem__(self, j):
        raise AssertionError(f"symbol {j} was read")

    def __iter__(self):
        raise AssertionError("the received word was read")


def test_repair_symbol_rejects_vectors_that_are_not_dual_codewords():
    code = make_code("grid2")
    word = [int(b) for b in encode(code, [0, 1, 0, 0])]
    received = list(word)
    received[0] = None
    assert word[0] == 1
    # {0, 4} is not a check of grid(2): its columns do not XOR to zero
    for support in ((0, 4), (0, 0), (0, 1, 9), (-9, 0, 1)):
        with pytest.raises(ValueError, match=re.escape(f"support {support}")):
            repair_symbol(code, received, 0, vectors=[RepairVector(support)])
        with pytest.raises(ValueError, match="not a dual codeword"):
            repair_symbol(code, _NoReads(received), 0,
                          vectors=[RepairVector((0, 1, 2)), RepairVector(support)])
    # a bad vector that does not cover the symbol is never considered
    out = repair_symbol(code, received, 0,
                        vectors=[RepairVector((1, 4)), RepairVector((0, 3, 6))])
    assert out.value == word[0] and out.vector.support == (0, 3, 6)


class _RecordingWord(Sequence):
    """A received word that records every position it is asked for."""

    def __init__(self, symbols):
        self.symbols = list(symbols)
        self.asked = set()

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, j):
        self.asked.add(j)
        return self.symbols[j]


@pytest.mark.parametrize("wide", [False, True])
def test_repair_symbol_reads_only_the_helpers_of_the_checks_it_tries(wide):
    code = make_code("q2")
    word = [int(b) for b in encode(code, [1, 0, 1, 1, 0, 1])]
    vectors = omega_r(code, 0, code.pg.s) if wide else None
    checks = line_repair_sets(code, 0)
    # the first check is blocked, the second has an erased helper, the
    # third is open: the read may touch symbol 0 and these helpers only
    unavailable = {checks[0].helpers(0)[1]}
    received = list(word)
    received[0] = received[checks[1].helpers(0)[0]] = None
    recorded = _RecordingWord(received)
    out = repair_symbol(code, recorded, 0, unavailable=unavailable, vectors=vectors)
    assert out.vector == checks[2] and out.value == word[0]
    assert unavailable == {checks[0].helpers(0)[1]}
    tried = {0}.union(*(v.helpers(0) for v in checks[:3]))
    assert set(checks[2].helpers(0)) <= recorded.asked <= tried
    # a read that finds no open check has still touched only their helpers
    recorded = _RecordingWord(received)
    blocked = {v.helpers(0)[0] for v in checks}
    with pytest.raises(NotLocallyRepairableError):
        repair_symbol(code, recorded, 0, unavailable=blocked, vectors=vectors)
    assert recorded.asked <= {0}.union(*(v.helpers(0) for v in checks))


def test_repair_symbol_rejects_helpers_that_are_not_bits():
    code = make_code("grid2")
    received = [int(b) for b in encode(code, [1, 0, 1, 0])]
    received[0] = None
    received[1] = 2
    with pytest.raises(ValueError, match="received entries must be bits, got 2 at coordinate 1"):
        repair_symbol(code, received, 0)
    # only the helpers that are read are checked: line 1 avoids symbol 1
    out = repair_symbol(code, received, 0, unavailable={1})
    assert out.vector.line == 1 and 1 not in out.vector.helpers(0)


def test_repair_symbol_blocked_raises():
    code = make_code("grid2")
    word = [int(b) for b in encode(code, [1, 1, 0, 0])]
    received = list(word)
    received[4] = None
    # 3 blocks the row through 4, 7 blocks the column
    with pytest.raises(NotLocallyRepairableError, match="not locally repairable"):
        repair_symbol(code, received, 4, unavailable={3, 7})
    out = repair_symbol(code, received, 4, unavailable={3})
    assert out.value == word[4] and out.vector.line is not None


def test_repair_symbol_preconditions():
    code = make_code("grid2")
    word = [int(b) for b in encode(code, [1, 1, 0, 0])]
    with pytest.raises(ValueError, match="nothing to repair"):
        repair_symbol(code, word, 4)
    with pytest.raises(ValueError, match="length 9"):
        repair_symbol(code, word[:5], 0)
    # an unavailable-but-present symbol may be recomputed
    out = repair_symbol(code, word, 4, unavailable={4})
    assert out.value == word[4]


def test_repair_symbol_unavailable_helpers_are_not_read():
    code = make_code("q2")
    word = [int(b) for b in encode(code, [1, 0, 1, 1, 0, 1])]
    received = list(word)
    received[0] = None
    unavailable = set(line_repair_sets(code, 0)[0].helpers(0))
    out = repair_symbol(code, received, 0, unavailable=unavailable)
    assert out.value == word[0]
    assert not unavailable & set(out.vector.helpers(0))


# ---------------------------------------------------------------- simulator


def test_simulation_is_seed_deterministic():
    code = make_code("grid2")
    a = simulate_availability(code, model="iid", p=0.3, trials=150, seed=42)
    b = simulate_availability(code, model="iid", p=0.3, trials=150, seed=42)
    c = simulate_availability(code, model="iid", p=0.3, trials=150, seed=43)
    assert a.to_csv() == b.to_csv()
    assert a.to_json_dict() == b.to_json_dict()
    assert a.to_csv() != c.to_csv()


def test_simulation_counts_the_repairs_repair_symbol_makes():
    # the simulator and the executor share one repair rule, so every case
    # the report counts as a success is a repair_symbol call that succeeds
    code = make_code("w2")
    report = simulate_availability(code, model="adversarial", u=3)
    succ = [0] * code.n
    retrieved = [0] * code.n
    for combo in itertools.combinations(range(code.n), 3):
        for i in range(code.n):
            received = [0] * code.n
            received[i] = None
            try:
                out = repair_symbol(code, received, i, unavailable=combo)
            except NotLocallyRepairableError:
                continue
            succ[i] += 1
            retrieved[i] += out.retrieved
    assert report.coverage == "exhaustive"
    assert report.per_symbol_success == tuple(x / report.cases for x in succ)
    assert report.per_symbol_mean_retrieved == tuple(
        x / y for x, y in zip(retrieved, succ))
    assert 0 < report.overall_success < 1


def test_simulation_iid_extremes():
    code = make_code("grid2")
    clear = simulate_availability(code, model="iid", p=0.0, trials=50, seed=1)
    assert clear.overall_success == 1.0
    assert clear.all_symbols_success == 1.0
    assert clear.mean_retrieved == 2.0
    assert clear.cases == 50 and clear.coverage == "sampled"
    down = simulate_availability(code, model="iid", p=1.0, trials=50, seed=1)
    assert down.overall_success == 0.0
    assert down.all_symbols_success == 0.0
    assert all(math.isnan(x) for x in down.per_symbol_mean_retrieved)


def test_simulation_kernel_counts_a_chunk_past_65535_cases():
    # a set chunk can hold 72 768 cases on grid(2); with nothing
    # unavailable, every symbol's first line opens in all of them, a
    # count per (step, symbol) that a uint16 sum would wrap
    code = make_code("grid2")
    size = 70_000
    unavailable = np.zeros((code.n + 1, -(-size // 64)), dtype=np.uint64)
    succ, retrieved, all_ok = repair._chunk_counts(code, unavailable, size)
    assert succ.tolist() == [size] * code.n
    assert retrieved.tolist() == [2 * size] * code.n
    assert all_ok == size


def test_simulation_adversarial_exhaustive_grid2():
    code = make_code("grid2")
    # u = 1 never blocks: the two line alternatives are disjoint
    one = simulate_availability(code, model="adversarial", u=1)
    assert one.coverage == "exhaustive" and one.cases == 9
    assert one.overall_success == 1.0
    # u = 2: a symbol fails only for the 4 cross pairs among its 36 cases
    two = simulate_availability(code, model="adversarial", u=2)
    assert two.coverage == "exhaustive" and two.cases == 36
    for rate_i in two.per_symbol_success:
        assert abs(rate_i - 32 / 36) < 1e-12
    assert abs(two.overall_success - 32 / 36) < 1e-12
    assert abs(two.all_symbols_success - 0.5) < 1e-12
    assert two.mean_retrieved == 2.0


def test_simulation_adversarial_u0_and_full():
    code = make_code("grid2")
    zero = simulate_availability(code, model="adversarial", u=0)
    assert zero.cases == 1 and zero.overall_success == 1.0
    everything = simulate_availability(code, model="adversarial", u=9)
    assert everything.cases == 1 and everything.overall_success == 0.0


def test_simulation_sampled_adversarial():
    # C(40, 5) = 658 008 five-sets: past the exhaustive limit, so sampled
    code = build_code(symplectic_gq(3))
    rep = simulate_availability(code, model="adversarial", u=5, trials=64, seed=5)
    assert rep.coverage == "sampled" and rep.cases == 64
    again = simulate_availability(code, model="adversarial", u=5, trials=64, seed=5)
    assert rep.to_csv() == again.to_csv()


def test_simulation_report_formats():
    code = make_code("grid2")
    rep = simulate_availability(code, model="adversarial", u=2)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "symbol,success_rate,mean_retrieved"
    assert len(lines) == code.n + 2
    assert lines[1] == "0,0.888889,2.000000"
    assert lines[-1] == "overall,0.888889,2.000000"
    doc = rep.to_json_dict()
    assert doc["schema_version"] == 1
    assert doc["model"] == "adversarial" and doc["parameter"] == 2
    assert doc["coverage"] == "exhaustive"


# schema version 1 of the availability report, written out here so that a
# field added to the report changes this list on purpose, not silently
REPORT_KEYS_V1 = [
    "schema_version", "model", "parameter", "seed", "cases", "coverage",
    "per_symbol_success", "per_symbol_mean_retrieved", "overall_success",
    "all_symbols_success", "mean_retrieved",
]


def test_simulation_report_json_has_the_schema_v1_keys():
    grid2 = make_code("grid2")
    reports = [
        simulate_availability(grid2, model="iid", p=0.2, trials=64, seed=3),
        simulate_availability(grid2, model="adversarial", u=2),
        simulate_availability(build_code(symplectic_gq(3)), model="adversarial",
                              u=5, trials=64, seed=5),
    ]
    assert [(rep.model, rep.coverage) for rep in reports] == [
        ("iid", "sampled"), ("adversarial", "exhaustive"), ("adversarial", "sampled")]
    for rep in reports:
        doc = rep.to_json_dict()
        assert list(doc) == REPORT_KEYS_V1
        assert doc["schema_version"] == 1
        for key in ("per_symbol_success", "per_symbol_mean_retrieved"):
            assert type(doc[key]) is list and doc[key] == list(getattr(rep, key))
        assert not any(isinstance(value, (tuple, np.ndarray)) for value in doc.values())
        assert doc["cases"] == rep.cases and doc["overall_success"] == rep.overall_success


def test_simulation_validation():
    code = make_code("grid2")
    with pytest.raises(ValueError, match="unknown model"):
        simulate_availability(code, model="chaos")
    with pytest.raises(ValueError, match="p must lie"):
        simulate_availability(code, model="iid", p=1.5)
    for p in ("0.5", None):
        with pytest.raises(ParameterError, match="p must lie"):
            simulate_availability(code, model="iid", p=p)
    with pytest.raises(ValueError, match="u must lie"):
        simulate_availability(code, model="adversarial", u=10)
    with pytest.raises(ValueError, match="trials must be positive"):
        simulate_availability(code, model="iid", p=0.5, trials=0)
    with pytest.raises(ValueError, match="seed"):
        simulate_availability(code, model="iid", p=0.5, seed=-1)
    # the generator key is 128 bits wide: a larger seed would alias a smaller one
    with pytest.raises(ValueError, match="seed"):
        simulate_availability(code, model="iid", p=0.5, seed=7 + 2**128)
    top = simulate_availability(code, model="iid", p=0.5, trials=4, seed=2**128 - 1)
    assert top.seed == 2**128 - 1
