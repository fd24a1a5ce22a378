"""End-to-end acceptance gates for the package.

Each test exercises one advertised capability and prints a single
"criterion N (<label>): PASS/FAIL" line, so a verbose run doubles as an
audit report.  Frozen constants were recomputed with the brute-force
oracles in ``oracles.py`` before being pinned here.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from oracles import brute_minimum_hitting_set, matrix_product, rank2

from pgblrc.bounds import (
    GRID_FAMILY_KEY,
    bounds_table,
    bounds_table_csv,
    catalog,
    rate_lower,
    rate_upper,
    surviving_keys,
    vartheta,
)
from pgblrc.code import build_code, encode, rate, reconstruct
from pgblrc.errors import NotLocallyRepairableError, PgValidationError
from pgblrc.geometry import (
    IncidenceStructure,
    dual,
    elliptic_quadric_gq,
    grid,
    hyperoval_gq,
    incidence_matrix,
    load,
    symplectic_gq,
    validate_pg,
)
from pgblrc.repair import (
    blocking_set,
    line_repair_sets,
    repair_profile,
    repair_symbol,
    simulate_availability,
)

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS in "
          f"{time.perf_counter() - started:.2f}s")


def reference_instances():
    """Every constructible quadrangle the package advertises, with (s, t)."""
    cases = [(grid(s), s, 1) for s in range(1, 10)]
    cases += [(symplectic_gq(q), q, q) for q in (2, 3, 4)]
    cases += [(elliptic_quadric_gq(2), 2, 4),
              (dual(elliptic_quadric_gq(2)), 4, 2)]
    cases += [(hyperoval_gq(4), 3, 5), (dual(hyperoval_gq(4)), 5, 3)]
    return cases


def oracle_instances():
    """The desk-scale instances small enough for exhaustive measurement."""
    return [(grid(2), 2, 1), (grid(3), 3, 1),
            (symplectic_gq(2), 2, 2), (elliptic_quadric_gq(2), 2, 4)]


def test_criterion_1_geometry_axioms():
    with criterion(1, "geometry axioms and cardinalities"):
        started = time.perf_counter()
        for inc, s, t in reference_instances():
            params = validate_pg(inc)
            assert (params.s, params.t, params.alpha) == (s, t, 1)
            assert params.num_points == (s + 1) * (s * t + 1)
            assert params.num_lines == (t + 1) * (s * t + 1)
            assert inc.num_points == params.num_points
            assert inc.num_lines == params.num_lines
        assert time.perf_counter() - started < 10.0


def test_criterion_2_rank_sandwich():
    with criterion(2, "incidence rank sandwich"):
        started = time.perf_counter()
        covered = 0
        for inc, s, t in reference_instances():
            if (s + t) % 2:  # s + t + 1 - alpha even, with alpha = 1
                continue
            theta = vartheta(s, t, 1)
            m = rank2(incidence_matrix(inc))
            assert theta <= m <= theta + 1
            covered += 1
        assert covered >= 9
        assert vartheta(2, 2, 1) == 9
        assert rank2(incidence_matrix(symplectic_gq(2))) == 10
        assert time.perf_counter() - started < 5.0


def test_criterion_3_rate_conformance():
    with criterion(3, "measured rate against the bounds"):
        for inc, s, t in reference_instances():
            if s < 2:
                continue
            measured = rate(build_code(inc))
            lower = rate_lower(s, t + 1)
            upper = rate_upper(s, t + 1)
            assert measured >= lower
            if upper is not None:
                assert measured <= upper


def test_criterion_4_exhaustive_repair_metrics():
    with criterion(4, "exhaustive repair metrics"):
        started = time.perf_counter()
        for inc, s, t in oracle_instances():
            profile = repair_profile(build_code(inc), mode="exhaustive")
            assert profile.r <= s
            assert profile.a >= t + 1
            assert profile.delta >= t + 1
            assert profile.balanced
        assert time.perf_counter() - started < 300.0


def _brute_helper_sets(built, i, max_support_weight):
    """All repair helper sets for i found by raw generator-column search."""
    others = [j for j in range(built.n) if j != i]
    found = []
    for extra in range(1, max_support_weight):
        for combo in itertools.combinations(others, extra):
            acc = built.gen_cols[i]
            for j in combo:
                acc ^= built.gen_cols[j]
            if acc == 0:
                found.append(frozenset(combo))
    return found


def test_criterion_5_grid2_exact_profile():
    with criterion(5, "grid(2) exact profile"):
        built = build_code(grid(2))
        assert (built.n, built.k) == (9, 4)
        assert rate(built) == Fraction(4, 9) == rate_lower(2, 2)
        profile = repair_profile(built, mode="exhaustive")
        assert profile.per_symbol_r == (2,) * 9
        assert profile.per_symbol_a == (2,) * 9
        assert profile.per_symbol_delta == (2,) * 9
        assert profile.balanced
        # recompute every frozen value straight from the generator columns
        for i in range(built.n):
            helper_sets = _brute_helper_sets(built, i, max_support_weight=3)
            assert min(len(h) for h in helper_sets) == 2
            assert len(helper_sets) == 2
            assert len(brute_minimum_hitting_set(helper_sets)) == 2


def test_criterion_6_repair_round_trips():
    with criterion(6, "repair round trips and blocking sets"):
        rng = random.Random(8261)
        for inc, s, t in oracle_instances():
            built = build_code(inc)
            word = encode(built, [rng.randrange(2) for _ in range(built.k)])
            for i in range(built.n):
                vectors = line_repair_sets(built, i)
                assert len(vectors) == t + 1
                received = [int(b) for b in word]
                received[i] = None
                for v in vectors:
                    outcome = repair_symbol(built, received, i, vectors=[v])
                    assert outcome.value == int(word[i])
                    assert outcome.vector.line == v.line
        for inc in (grid(2), symplectic_gq(2)):
            built = build_code(inc)
            profile = repair_profile(built, mode="exhaustive")
            word = encode(built, [rng.randrange(2) for _ in range(built.k)])
            for i in range(built.n):
                received = [int(b) for b in word]
                received[i] = None
                others = [j for j in range(built.n) if j != i]
                for size in range(profile.per_symbol_delta[i]):
                    for unavailable in itertools.combinations(others, size):
                        outcome = repair_symbol(
                            built, received, i, unavailable=unavailable)
                        assert outcome.value == int(word[i])
                block = blocking_set(built, i, r=profile.r)
                assert len(block) == profile.per_symbol_delta[i]
                with pytest.raises(NotLocallyRepairableError):
                    repair_symbol(built, received, i, unavailable=block)


def test_criterion_7_bound_table():
    with criterion(7, "rate bound table and monotonicity"):
        started = time.perf_counter()
        rows = bounds_table(range(2, 11), range(2, 11))
        rendered = bounds_table_csv(rows)
        assert len(rows) == 81
        assert len(rendered.splitlines()) == 82
        for row in rows:
            if row.applicable:
                assert row.lower <= row.upper
        by = {(row.r, row.a): row for row in rows}
        for r in range(2, 11):
            for a in range(2, 10):
                assert by[(r, a)].lower >= by[(r, a + 1)].lower
        for a in range(2, 11):
            for r in range(2, 10):
                assert by[(r, a)].lower <= by[(r + 1, a)].lower
        assert time.perf_counter() - started < 1.0


def test_criterion_8_catalog_reproduction():
    with criterion(8, "practical pair catalog"):
        expected = {GRID_FAMILY_KEY, (2, 3), (4, 3), (3, 4), (5, 4), (4, 5)}
        entries = catalog(max_n=100, min_rate=Fraction(1, 3))
        keys = surviving_keys(entries)
        if keys != expected:  # diagnostic dump before the failure
            for entry in entries:
                print(f"  {entry.key}: n = {entry.n}, "
                      f"rate = {entry.rate_estimate}, "
                      f"passes = {entry.passes_filter} ({entry.exclusion})")
        assert keys == expected


def test_criterion_9_property_suites():
    with criterion(9, "algebraic, mutation, and determinism properties"):
        rng = random.Random(900913)
        for inc, s, t in oracle_instances():
            built = build_code(inc)
            assert not any(matrix_product(built.generator, built.parity_check.transpose()).data)
            inc_rows = incidence_matrix(inc).data
            for _ in range(500):
                message = [rng.randrange(2) for _ in range(built.k)]
                word = encode(built, message)
                word_bits = 0
                for j in range(built.n):
                    word_bits |= int(word[j]) << j
                for row in inc_rows:
                    assert (row & word_bits).bit_count() % 2 == 0
                recovered = reconstruct(
                    built, built.info_set,
                    [int(word[j]) for j in built.info_set])
                assert [int(b) for b in recovered] == message
        for name in ("fano.txt", "ag23.txt"):
            base = load(f"{FIXTURES}/{name}")
            validate_pg(base)
            mutations = 0
            for idx, line in enumerate(base.lines):
                originals = [list(other) for other in base.lines]
                for p in line:
                    mutated = [list(other) for other in originals]
                    mutated[idx] = [x for x in line if x != p]
                    with pytest.raises(PgValidationError):
                        validate_pg(
                            IncidenceStructure.build(base.num_points, mutated))
                    mutations += 1
                for p in range(base.num_points):
                    if p in line:
                        continue
                    mutated = [list(other) for other in originals]
                    mutated[idx] = sorted([*line, p])
                    with pytest.raises(PgValidationError):
                        validate_pg(
                            IncidenceStructure.build(base.num_points, mutated))
                    mutations += 1
            assert mutations >= 45
        built = build_code(symplectic_gq(2))
        first = simulate_availability(built, model="iid", p=0.3,
                                      trials=500, seed=17)
        second = simulate_availability(built, model="iid", p=0.3,
                                       trials=500, seed=17)
        assert first.to_csv() == second.to_csv()
        assert first.to_json_dict() == second.to_json_dict()
