from fractions import Fraction

import numpy as np
import pytest

from pgblrc import bounds, code, geometry
from pgblrc.bounds import (
    CatalogEntry,
    ESTIMATORS,
    GRID_FAMILY_KEY,
    bounds_table,
    bounds_table_csv,
    catalog,
    known_gq_parameters,
    rank_bounds,
    rate_lower,
    rate_lower_general,
    rate_upper,
    rate_upper_general,
    surviving_keys,
    vartheta,
)
from pgblrc.code import build_code, rate
from pgblrc.errors import ParameterError
from pgblrc.geometry import (
    dual,
    elliptic_quadric_gq,
    grid,
    hyperoval_gq,
    incidence_matrix,
    symplectic_gq,
)

from oracles import (catalog_by_fold, exact_rate_by_building, matrix_array, rank2,
                     rate_lower_closed, rate_upper_closed)

F = Fraction


# ------------------------------------------------------------- rank bounds


def test_vartheta_values():
    assert vartheta(2, 2, 1) == 9
    assert vartheta(3, 3, 1) == 24
    assert vartheta(4, 4, 1) == 50
    assert vartheta(2, 4, 1) == 20
    assert vartheta(3, 5, 1) == 45
    assert vartheta(2, 1, 1) == 4
    for s in range(1, 10):
        assert vartheta(s, 1, 1) == 2 * s  # grids
    assert vartheta(3, 3, 2) == F(72, 5)  # need not be an integer


def test_vartheta_is_symmetric_in_s_and_t():
    for s in range(1, 8):
        for t in range(1, 8):
            assert vartheta(s, t, 1) == vartheta(t, s, 1)


def test_vartheta_validation():
    with pytest.raises(ValueError, match="alpha must lie"):
        vartheta(2, 2, 4)
    with pytest.raises(ValueError, match="alpha must lie"):
        vartheta(2, 2, 0)
    with pytest.raises(ValueError, match="s >= 1"):
        vartheta(0, 2, 1)


def test_rank_bounds_parity():
    assert rank_bounds(2, 2, 1) == (9, 10)      # s+t+1-alpha = 4
    assert rank_bounds(2, 1, 1) == (None, 5)    # parity 3: no floor
    assert rank_bounds(3, 1, 1) == (6, 7)
    assert rank_bounds(2, 4, 1) == (20, 21)


def test_rational_rank_is_vartheta_plus_one():
    # the incidence matrix always has vartheta+1 independent rows over the
    # rationals; the binary rank can only fall from there
    for inc, s, t in [(grid(2), 2, 1), (symplectic_gq(2), 2, 2),
                      (elliptic_quadric_gq(2), 2, 4), (hyperoval_gq(4), 3, 5)]:
        arr = matrix_array(incidence_matrix(inc)).astype(float)
        assert np.linalg.matrix_rank(arr) == vartheta(s, t, 1) + 1


def test_rank_sandwich_on_constructed_instances():
    cases = [
        (symplectic_gq(2), 2, 2), (symplectic_gq(3), 3, 3),
        (symplectic_gq(4), 4, 4), (elliptic_quadric_gq(2), 2, 4),
        (dual(elliptic_quadric_gq(2)), 4, 2),
        (hyperoval_gq(4), 3, 5), (dual(hyperoval_gq(4)), 5, 3),
    ]
    cases += [(grid(s), s, 1) for s in range(1, 10)]
    for inc, s, t in cases:
        m = rank2(incidence_matrix(inc))
        lower, upper = rank_bounds(s, t, 1)
        assert m <= upper
        if lower is not None:
            assert lower <= m


def test_binary_rank_can_fall_below_the_even_parity_floor():
    # Both hyperoval quadrangles fall below their even-parity floor:
    # pg(7, 9, 1) = hyperoval(8) has binary rank 299 against 315 (the
    # rational rank is the full 316), and pg(15, 17, 1) = hyperoval(16)
    # has 1938 against 2295.  Their duals have the same ranks and the same
    # floors.  The floor is therefore a design aid, not a certainty;
    # analyze() reports such instances as out of bounds rather than
    # hiding them.
    assert rank2(incidence_matrix(hyperoval_gq(8))) == 299
    assert rank_bounds(7, 9, 1) == rank_bounds(9, 7, 1) == (315, 316)
    assert rank2(incidence_matrix(hyperoval_gq(16))) == 1938
    assert rank_bounds(15, 17, 1) == rank_bounds(17, 15, 1) == (2295, 2296)


# ------------------------------------------------------------- rate bounds


def test_rate_lower_values():
    assert rate_lower(2, 3) == F(1, 3)
    assert rate_lower(2, 2) == F(4, 9)
    assert rate_lower(4, 5) == F(2, 5)
    assert rate_lower(3, 4) == F(3, 8)
    assert rate_lower(5, 4) == F(25, 48)
    assert rate_lower(2, 5) == F(2, 9)
    assert rate_lower(3, 6) == F(9, 32)


def test_rate_upper_values():
    assert rate_upper(2, 3) == F(2, 5)
    assert rate_upper(4, 5) == F(7, 17)
    assert rate_upper(2, 5) == F(7, 27)
    assert rate_upper(3, 6) == F(19, 64)
    assert rate_upper(4, 3) == F(5, 9)
    assert rate_upper(5, 4) == F(17, 32)
    assert rate_upper(3, 4) == F(2, 5)


def test_rate_upper_parity_gate():
    assert rate_upper(2, 2) is None
    assert rate_upper(3, 3) is None
    assert rate_upper(2, 4) is None
    assert rate_upper(3, 2) == F(5, 8)


def test_rate_bound_validation():
    for bad in [(1, 3), (2, 1), (0, 0)]:
        with pytest.raises(ValueError, match=">= 2"):
            rate_lower(*bad)
        with pytest.raises(ValueError, match=">= 2"):
            rate_upper(*bad)


def test_bounds_reduce_to_the_general_forms_at_alpha_one():
    for r in range(2, 41):
        for a in range(2, 41):
            assert rate_lower(r, a) == rate_lower_general(r, a - 1, 1)
            assert rate_lower(r, a) == rate_lower_closed(r, a)
            upper = rate_upper(r, a)
            assert upper == rate_upper_closed(r, a)
            if upper is not None:
                assert upper == rate_upper_general(r, a - 1, 1)


def test_alpha_one_maximizes_both_bounds():
    for s in range(1, 9):
        for t in range(1, 9):
            for alpha in range(2, min(s + 1, t + 1) + 1):
                assert rate_lower_general(s, t, 1) >= rate_lower_general(s, t, alpha)
                assert rate_upper_general(s, t, 1) >= rate_upper_general(s, t, alpha)


# ------------------------------------------------------------ bounds table


def test_bounds_table_covers_the_grid():
    rows = bounds_table(range(2, 11), range(2, 11))
    assert len(rows) == 81
    assert [(row.r, row.a) for row in rows[:3]] == [(2, 2), (2, 3), (2, 4)]
    for row in rows:
        assert row.lower == rate_lower(row.r, row.a)
        assert row.upper == rate_upper(row.r, row.a)
        assert row.applicable == ((row.r + row.a - 1) % 2 == 0)
        assert row.vartheta == vartheta(row.r, row.a - 1, 1)
        if row.applicable:
            assert row.lower <= row.upper


def test_bounds_table_monotonicity():
    rows = {(row.r, row.a): row for row in bounds_table(range(2, 11), range(2, 11))}
    for r in range(2, 11):
        for a in range(2, 10):
            assert rows[(r, a)].lower >= rows[(r, a + 1)].lower
    for a in range(2, 11):
        for r in range(2, 10):
            assert rows[(r, a)].lower <= rows[(r + 1, a)].lower


def test_bounds_table_dedupes_and_sorts():
    rows = bounds_table([3, 2, 3], [5, 2])
    assert [(row.r, row.a) for row in rows] == [(2, 2), (2, 5), (3, 2), (3, 5)]


def test_bounds_table_csv_format():
    text = bounds_table_csv(bounds_table([2], [2, 3]))
    lines = text.splitlines()
    assert lines[0] == (
        "r,a,rate_lower,rate_upper,applicable,"
        "rate_lower_decimal,rate_upper_decimal")
    assert lines[1] == "2,2,4/9,NA,false,0.444444,"
    assert lines[2] == "2,3,1/3,2/5,true,0.333333,0.400000"
    assert text.endswith("\n")
    assert text == bounds_table_csv(bounds_table([2], [2, 3]))


# ----------------------------------------------------------------- catalog


def test_known_gq_parameters_cover_the_classical_families():
    pairs = known_gq_parameters()
    assert {(2, 2), (2, 4), (3, 3), (3, 9), (3, 5), (4, 4), (4, 6), (4, 8),
            (4, 16)} <= set(pairs)
    assert (3, 5) in pairs            # q = 4 hyperoval parameters
    assert (16, 16) in pairs and (16, 256) in pairs
    assert (256, 4096) in pairs
    assert (1, 7) in pairs
    assert pairs == sorted(set(pairs))  # ordered, no duplicates
    assert (4, 2) not in pairs          # duals stay out until catalog time


def test_constructible_quadrangles_are_pinned():
    # every (s, t) with s >= 2 that catalog(estimator="exact-rank") rates
    # exactly: the label of the primal it builds, and whether (s, t) is
    # that primal's transpose, whose rate it reads off the same rank
    expected = {(z, 1): (f"grid({z})", False) for z in range(2, 32)}
    expected.update({
        (2, 2): ("symplectic-gq(2)", False), (3, 3): ("symplectic-gq(3)", False),
        (4, 4): ("symplectic-gq(4)", False),
        (2, 4): ("elliptic-quadric-gq(2)", False),
        (3, 9): ("elliptic-quadric-gq(3)", False),
        (4, 2): ("elliptic-quadric-gq(2)", True),
        (9, 3): ("elliptic-quadric-gq(3)", True),
        (3, 5): ("hyperoval-gq(4)", False), (7, 9): ("hyperoval-gq(8)", False),
        (15, 17): ("hyperoval-gq(16)", False),
        (5, 3): ("hyperoval-gq(4)", True), (9, 7): ("hyperoval-gq(8)", True),
        (17, 15): ("hyperoval-gq(16)", True),
    })
    found = {}
    for s in range(2, 41):
        for t in range(1, 41):
            transposed = (s, t) not in bounds._BUILT
            built = bounds._BUILT.get((t, s) if transposed else (s, t))
            if built is not None:
                name, value = built
                inc = geometry._CONSTRUCTORS[name][1](value)
                points, lines = (t, s) if transposed else (s, t)
                assert len(inc.lines[0]) == points + 1
                assert len(inc.lines_through[0]) == lines + 1
                found[(s, t)] = (inc.label, transposed)
    assert found == expected


def test_exact_rank_entries_equal_the_rates_of_built_codes():
    # the catalog reads a dual's rate off its primal's rank; the oracle
    # builds the dual and its code.  Up to n = 1100 that covers the duals
    # of elliptic(2), elliptic(3), hyperoval(4) and hyperoval(8)
    entries = catalog(max_n=1100, estimator="exact-rank")
    duals = set()
    for entry in entries[1:]:
        oracle = exact_rate_by_building(entry.s, entry.t)
        assert (entry.estimator == "exact-rank") == (oracle is not None and entry.n <= 1100)
        if entry.estimator == "exact-rank":
            assert entry.rate_estimate == oracle
            if entry.via_dual:
                duals.add((entry.s, entry.t))
    assert duals == {(4, 2), (9, 3), (5, 3), (9, 7)}
    # the grid family carries its worst rate, its smallest member's
    family = entries[0]
    assert family.estimator == "exact-rank"
    assert family.rate_estimate == exact_rate_by_building(family.family_r_range[0], 1)


def test_exact_rank_catalog_builds_no_dual_and_no_code(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the catalog built a dual or a code")

    monkeypatch.setattr(geometry, "dual", refuse)
    monkeypatch.setattr(code, "build_code", refuse)
    bounds._incidence_rank.cache_clear()
    by_key = {e.key: e for e in catalog(max_n=4700, estimator="exact-rank")}
    assert by_key[(17, 16)].estimator == "exact-rank"
    assert by_key[(17, 16)].rate_estimate == F(445, 768)


@pytest.mark.parametrize("max_n, dual_exact", [(4096, False), (4607, False), (4608, True)])
def test_exact_rank_reads_each_entrys_own_length(max_n, dual_exact):
    # T2*(O) at q = 16 has n = 4096, its dual n = 4608: between the two,
    # the primal is rated exactly and the dual falls back to its bound
    by_key = {e.key: e for e in catalog(max_n=max_n, estimator="exact-rank")}
    primal, dual_entry = by_key[(15, 18)], by_key[(17, 16)]
    assert (primal.estimator, primal.rate_estimate) == ("exact-rank", F(1079, 2048))
    if dual_exact:
        assert (dual_entry.estimator, dual_entry.rate_estimate) == ("exact-rank", F(445, 768))
        assert dual_entry.rate_estimate == F(4608 - 1938, 4608)
    else:
        assert dual_entry.estimator == "theorem-upper-bound"
        assert dual_entry.rate_estimate == F(257, 512)


def test_catalog_reproduces_the_practical_pairs():
    entries = catalog(max_n=100, min_rate=F(1, 3))
    keys = surviving_keys(entries)
    assert keys == {GRID_FAMILY_KEY, (2, 3), (4, 3), (3, 4), (5, 4), (4, 5)}
    family = next(e for e in entries if e.family_r_range)
    assert family.key == GRID_FAMILY_KEY == "(r,2)"
    assert family.family_r_range == (2, 9)
    assert family.rate_estimate == F(4, 9)   # the r = 2 member
    assert family.n == 100                   # the r = 9 member
    assert family.passes_filter


def test_catalog_default_estimator_details():
    by_key = {e.key: e for e in catalog()}
    w2 = by_key[(2, 3)]
    assert (w2.s, w2.t, w2.n) == (2, 2, 15)
    assert w2.rate_estimate == F(2, 5) and w2.estimator == "theorem-upper-bound"
    assert not w2.via_dual
    dual_elliptic = by_key[(4, 3)]
    assert (dual_elliptic.s, dual_elliptic.t, dual_elliptic.n) == (4, 2, 45)
    assert dual_elliptic.via_dual
    big = by_key[(3, 10)]
    assert not big.passes_filter
    assert big.n == 112 and "exceeds max_n" in big.exclusion
    low = by_key[(2, 5)]
    assert not low.passes_filter
    assert low.rate_estimate == F(7, 27) and "not above" in low.exclusion


def test_catalog_alternative_estimators_drop_the_borderline_pair():
    # with the optimistic estimator the (2,3) quadrangle scrapes past the
    # filter at 2/5; its lower bound and its real rate both sit exactly on
    # 1/3 and fall to the strict cut
    for estimator in ("theorem-lower-bound", "exact-rank"):
        entries = catalog(estimator=estimator)
        keys = surviving_keys(entries)
        assert keys == {GRID_FAMILY_KEY, (4, 3), (3, 4), (5, 4), (4, 5)}
        w2 = next(e for e in entries if e.key == (2, 3))
        assert not w2.passes_filter
        assert w2.rate_estimate == F(1, 3)


def test_catalog_exact_rank_measures_real_rates():
    by_key = {e.key: e for e in catalog(estimator="exact-rank")}
    assert by_key[(2, 3)].rate_estimate == rate(build_code(symplectic_gq(2)))
    assert by_key[(2, 5)].rate_estimate == F(6, 27)
    assert by_key[(2, 5)].estimator == "exact-rank"
    # non-constructible parameters fall back to the bound estimators
    assert by_key[(4, 7)].estimator in ("theorem-upper-bound",
                                        "theorem-lower-bound")


def test_catalog_smaller_length_budget():
    keys = surviving_keys(catalog(max_n=40))
    assert keys == {GRID_FAMILY_KEY, (2, 3), (3, 4)}
    family = next(e for e in catalog(max_n=40) if e.family_r_range)
    assert family.family_r_range == (2, 5)


def test_catalog_filter_is_strict():
    # raising the floor to exactly 2/5 must evict the pairs sitting on it
    keys = surviving_keys(catalog(min_rate=F(2, 5)))
    assert (2, 3) not in keys and (3, 4) not in keys
    assert (4, 3) in keys and (5, 4) in keys


@pytest.mark.parametrize("max_n", [100, 1100])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_catalog_is_deterministic_and_ordered(estimator, max_n):
    first = catalog(max_n=max_n, estimator=estimator)
    second = catalog(max_n=max_n, estimator=estimator)
    assert first == second
    # the grid family leads, then the pairs in (r, a) order
    assert first[0].t == 1 and first[0].r is None
    keyed = [(e.r, e.a) for e in first[1:]]
    assert keyed == sorted(set(keyed))


@pytest.mark.parametrize("max_n", [0, 4, 8, 9, 15, 16, 100, 1100, 4700, 10**6])
@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_catalog_matches_the_grid_by_grid_fold(estimator, max_n):
    # the grid family comes from its least and largest surviving z; the
    # oracle rates every grid and folds them, at floors that leave no
    # grid, every grid or only the larger ones
    for min_rate in (F(1, 3), F(-1), F(0), F(9, 16), F(961, 1024), F(99, 100), F(1)):
        assert catalog(max_n, min_rate, estimator) == catalog_by_fold(max_n, min_rate, estimator)


def test_catalog_grid_family_at_any_length_budget():
    entries = catalog(max_n=2**128, min_rate=F(1, 2) - F(1, 2**100))
    assert entries[0].family_r_range == (3, 2**64 - 1)
    assert entries[0].n == 2**128
    assert entries[0].rate_estimate == F(5, 8)   # the upper bound at z = 3
    assert catalog(max_n=2**128, min_rate=1)[0].exclusion == "rate estimate 4/9 is not above 1"
    # far up, the least surviving grid is the first whose rate is above the floor
    floor = 1 - F(1, 2**40)
    least = catalog(max_n=2**128, min_rate=floor)[0].family_r_range[0]
    rates = [bounds._estimate_rate(z, 1, (z + 1)**2, "theorem-upper-bound", 2**128)[0]
             for z in (least - 1, least)]
    assert rates[0] <= floor < rates[1]


def test_catalog_rejects_unknown_estimator():
    with pytest.raises(ValueError, match="unknown estimator"):
        catalog(estimator="optimism")
    assert set(ESTIMATORS) == {
        "theorem-upper-bound", "theorem-lower-bound", "exact-rank"}


@pytest.mark.parametrize("min_rate, cause", [
    (float("nan"), ValueError), (float("inf"), OverflowError), ("1/0", ZeroDivisionError),
    ("abc", ValueError), (None, TypeError)])
def test_catalog_refuses_an_unreadable_min_rate(min_rate, cause):
    with pytest.raises(ParameterError, match="min_rate must be a rational number") as exc:
        catalog(min_rate=min_rate)
    assert type(exc.value.__cause__) is cause


def test_catalog_reads_min_rate_as_a_fraction():
    assert catalog(min_rate="1/3") == catalog(min_rate=F(1, 3))
    assert catalog(min_rate=0.5) == catalog(min_rate=F(1, 2))


def test_catalog_entries_expose_their_source():
    for entry in catalog():
        assert isinstance(entry, CatalogEntry)
        if entry.family_r_range is None:
            assert entry.key == (entry.r, entry.a)
            assert entry.a == entry.t + 1
            assert entry.r == entry.s
        if not entry.passes_filter:
            assert entry.exclusion
