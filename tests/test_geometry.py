import io
import itertools
import re
from pathlib import Path

import numpy as np
import pytest

from pgblrc import algebra
from pgblrc.cli import main
from pgblrc.code import build_code
from pgblrc.errors import IncidenceFileError, ParameterError, PgValidationError
from pgblrc.geometry import (
    CLASS_GQ,
    CLASS_NET,
    CLASS_PROPER,
    CLASS_STEINER,
    IncidenceStructure,
    _classify,
    dual,
    elliptic_quadric_gq,
    from_text,
    grid,
    hyperoval_gq,
    incidence_matrix,
    load,
    save,
    symplectic_gq,
    to_text,
    validate_pg,
)
from pgblrc.repair import repair_profile

from oracles import structurally_equal

FIXTURES = Path(__file__).parent / "fixtures"


def brute_force_pg_check(inc, s, t, alpha):
    """Re-verify all four axioms by direct set arithmetic, no bit tricks."""
    points = range(inc.num_points)
    lines = [set(b) for b in inc.lines]
    assert all(len(b) == s + 1 for b in lines)
    for p in points:
        assert sum(p in b for b in lines) == t + 1
    for b1, b2 in itertools.combinations(lines, 2):
        assert len(b1 & b2) <= 1
    collinear = {p: set() for p in points}
    for b in lines:
        for p in b:
            collinear[p] |= b
    for p in points:
        for b in lines:
            if p not in b:
                assert len(collinear[p] & b) == alpha
    assert inc.num_points == (s + 1) * (s * t + alpha) // alpha
    assert inc.num_lines == (t + 1) * (s * t + alpha) // alpha


# ------------------------------------------------------------ constructors


@pytest.mark.parametrize("s", [1, 2, 5, 9])
def test_grid_parameters(s):
    inc = grid(s)
    params = validate_pg(inc)
    assert (params.s, params.t, params.alpha) == (s, 1, 1)
    assert params.num_points == (s + 1) ** 2
    assert params.num_lines == 2 * (s + 1)
    assert params.pg_class == CLASS_GQ
    assert params.grid_degenerate
    brute_force_pg_check(inc, s, 1, 1)


def test_grid_rejects_zero():
    with pytest.raises(ValueError, match="s >= 1"):
        grid(0)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_symplectic_parameters(q):
    inc = symplectic_gq(q)
    params = validate_pg(inc)
    assert (params.s, params.t, params.alpha) == (q, q, 1)
    assert params.num_points == (q + 1) * (q * q + 1)
    assert params.num_lines == params.num_points
    assert params.pg_class == CLASS_GQ
    assert not params.grid_degenerate


def test_symplectic_axioms_by_brute_force():
    brute_force_pg_check(symplectic_gq(2), 2, 2, 1)


@pytest.mark.parametrize("q", [2, 3])
def test_elliptic_quadric_parameters(q):
    inc = elliptic_quadric_gq(q)
    params = validate_pg(inc)
    assert (params.s, params.t, params.alpha) == (q, q * q, 1)
    assert params.num_points == (q + 1) * (q ** 3 + 1)
    assert params.num_lines == (q * q + 1) * (q ** 3 + 1)
    assert params.pg_class == CLASS_GQ


def test_elliptic_quadric_axioms_by_brute_force():
    brute_force_pg_check(elliptic_quadric_gq(2), 2, 4, 1)


def test_elliptic_quadric_rejects_other_orders():
    with pytest.raises(ValueError, match="q in \\{2, 3\\}"):
        elliptic_quadric_gq(4)


@pytest.mark.parametrize("q", [4, 8])
def test_hyperoval_parameters(q):
    inc = hyperoval_gq(q)
    params = validate_pg(inc)
    assert (params.s, params.t, params.alpha) == (q - 1, q + 1, 1)
    assert params.num_points == q ** 3
    assert params.num_lines == q * q * (q + 2)


def test_hyperoval_largest_supported_order():
    # n = 4096: the lines are XOR cosets and validation is per point, so the
    # top rung builds in about 0.04 s and validates in about 0.25 s
    params = validate_pg(hyperoval_gq(16))
    assert (params.s, params.t, params.alpha) == (15, 17, 1)
    assert params.num_points == 4096
    assert params.num_lines == 4608


@pytest.mark.parametrize("q", [2, 5, 32])
def test_hyperoval_rejects_other_orders(q):
    with pytest.raises(ValueError, match="q in \\{4, 8, 16\\}"):
        hyperoval_gq(q)


# ------------------------------------------------------------------- duals


def test_dual_swaps_parameters():
    inc = elliptic_quadric_gq(2)
    d = dual(inc)
    params = validate_pg(d)
    assert (params.s, params.t, params.alpha) == (4, 2, 1)
    assert params.num_points == 45 and params.num_lines == 27
    assert d.label == "dual(elliptic-quadric-gq(2))"


@pytest.mark.parametrize("make", [lambda: grid(2), lambda: symplectic_gq(2),
                                  lambda: hyperoval_gq(4)])
def test_dual_is_an_involution(make):
    inc = make()
    assert structurally_equal(dual(dual(inc)), inc)


def test_dual_preserves_incidence_count():
    inc = hyperoval_gq(4)
    d = dual(inc)
    assert sum(len(b) for b in inc.lines) == sum(len(b) for b in d.lines)
    # transposed incidence matrices
    assert incidence_matrix(d) == incidence_matrix(inc).transpose()


@pytest.mark.parametrize("num_points, lines, kind, message, witness", [
    # points 0 and 1 both lie on lines 0 and 1 and nowhere else
    (3, ((0, 1, 2), (0, 1)), "line-intersection",
     "points 0 and 1 lie on the same lines (0, 1)", (0, 1)),
    # points 1 and 2 lie on line 0 only
    (4, ((0, 1, 2), (0, 3)), "point-degree", "points 1 and 2 lie on the same lines (0,)", (1, 2)),
    # as many incidences as points, yet point 3 lies on no line
    (4, ((0, 1), (0, 2)), "point-degree", "point 3 lies on no line", 3),
], ids=["repeated-pencil", "repeated-one-line-pencil", "empty-pencil"])
def test_dual_refuses_a_repeated_or_empty_pencil(num_points, lines, kind, message, witness):
    with pytest.raises(PgValidationError, match=re.escape(message)) as ei:
        dual(IncidenceStructure(num_points, lines))
    assert (ei.value.kind, ei.value.witness) == (kind, witness)


# ---------------------------------------------------------------- fixtures


def test_fano_fixture_is_a_steiner_geometry():
    params = validate_pg(load(FIXTURES / "fano.txt"))
    assert (params.s, params.t, params.alpha) == (2, 2, 3)
    assert params.pg_class == CLASS_STEINER
    assert (params.num_points, params.num_lines) == (7, 7)


def test_affine_plane_fixture_is_a_steiner_geometry():
    params = validate_pg(load(FIXTURES / "ag23.txt"))
    assert (params.s, params.t, params.alpha) == (2, 3, 3)
    assert params.pg_class == CLASS_STEINER
    assert (params.num_points, params.num_lines) == (9, 12)


# -------------------------------------------------------------------- nets


def latin_square_net(m):
    """The 3-net of the cyclic Latin square of order m: points (r, c) of
    Z_m^2 as r m + c, lines the rows, the columns and the sets r + c = v."""
    def parallel_class(key):
        return [[r * m + c for r in range(m) for c in range(m) if key(r, c) == v]
                for v in range(m)]
    lines = (parallel_class(lambda r, c: r) + parallel_class(lambda r, c: c)
             + parallel_class(lambda r, c: (r + c) % m))
    return IncidenceStructure.build(m * m, lines, label=f"net({m})")


@pytest.mark.parametrize("m, k, geometric, exhaustive", [
    # order 4: the census finds 7 checks of weight <= 4 per symbol, more
    # than the t + 1 = 3 lines through it
    (4, 7, (3, 3, 3), (3, 7, 3)),
    (5, 12, (4, 3, 3), (4, 3, 3)),
])
def test_latin_square_net_runs_through_the_pipeline(m, k, geometric, exhaustive,
                                                     capsys, tmp_path):
    inc = latin_square_net(m)
    params = validate_pg(inc)
    assert (params.s, params.t, params.alpha) == (m - 1, 2, 2)
    assert params.pg_class == CLASS_NET and not params.grid_degenerate
    assert (params.num_points, params.num_lines) == (m * m, 3 * m)
    code = build_code(inc)
    assert (code.n, code.k) == (m * m, k)
    for mode, want in (("geometric", geometric), ("exhaustive", exhaustive)):
        profile = repair_profile(code, mode=mode)
        assert (profile.r, profile.a, profile.delta) == want
        assert profile.balanced
    path = tmp_path / "net.txt"
    save(inc, path)
    assert main(["validate", "--file", str(path)]) == 0
    assert '"class": "net"' in capsys.readouterr().out


def test_classify_names_a_proper_geometry():
    assert _classify(5, 5, 2) == (CLASS_PROPER, False)


# ------------------------------------------------------- validator rejects


def test_validator_rejects_uneven_point_degree():
    base = grid(2)
    clipped = IncidenceStructure(base.num_points, base.lines[:-1])
    with pytest.raises(PgValidationError, match="non-uniform point degree") as ei:
        validate_pg(clipped)
    assert ei.value.kind == "point-degree"
    # uniform, but every point on a single line
    with pytest.raises(PgValidationError, match="at least 2 lines") as ei:
        validate_pg(IncidenceStructure(4, ((0, 1), (2, 3))))
    assert (ei.value.kind, ei.value.witness) == ("point-degree", 0)


def test_validator_rejects_uneven_line_size():
    # every point on two lines, but line sizes mix 3 and 2
    inc = IncidenceStructure.build(
        6, [(0, 1, 2), (3, 4, 5), (0, 3), (1, 4), (2, 5)])
    with pytest.raises(PgValidationError, match="non-uniform line size") as ei:
        validate_pg(inc)
    assert ei.value.kind == "line-size"


def test_validator_rejects_big_line_intersections():
    # degrees and sizes uniform, but two lines share the pair {0, 1}
    inc = IncidenceStructure.build(
        6, [(0, 1, 2), (0, 1, 3), (2, 4, 5), (3, 4, 5)])
    with pytest.raises(PgValidationError, match="share more than one") as ei:
        validate_pg(inc)
    assert ei.value.kind == "line-intersection"


def test_validator_rejects_inconsistent_alpha():
    # hexagon: uniform degrees and sizes, but bridge counts alternate 0/1
    hexagon = IncidenceStructure.build(6, [(i, (i + 1) % 6) for i in range(6)])
    # only a certificate is kept on the structure: a rejection is raised again
    for _ in range(2):
        with pytest.raises(PgValidationError) as ei:
            validate_pg(hexagon)
        assert ei.value.kind == "alpha"


def test_validator_mutation_sweep_on_fano():
    base = load(FIXTURES / "fano.txt")
    validate_pg(base)
    # dropping any single line must be caught
    for drop in range(len(base.lines)):
        lines = tuple(b for i, b in enumerate(base.lines) if i != drop)
        with pytest.raises(PgValidationError):
            validate_pg(IncidenceStructure(base.num_points, lines))
    # moving any single incidence to a different point must be caught
    mutations = 0
    for li, line in enumerate(base.lines):
        for drop_p in line:
            for add_p in range(base.num_points):
                if add_p in line:
                    continue
                mutated = tuple(sorted(set(line) - {drop_p} | {add_p}))
                lines = list(base.lines)
                lines[li] = mutated
                if len(set(lines)) < len(lines):
                    continue
                mutations += 1
                with pytest.raises(PgValidationError):
                    validate_pg(IncidenceStructure(base.num_points, tuple(lines)))
    assert mutations > 50


def test_validator_rejects_empty_structures():
    with pytest.raises(PgValidationError, match="no lines"):
        validate_pg(IncidenceStructure(3, ()))


def test_huge_point_count_fails_before_any_per_point_table(monkeypatch):
    def refuse(supports, cols):
        raise AssertionError(f"lines packed over {cols} columns")

    monkeypatch.setattr(algebra, "_support_words", refuse)
    inc = IncidenceStructure(10**12, ((0, 1),))
    for call in (validate_pg, dual):
        with pytest.raises(PgValidationError, match="point 2 lies on no line") as ei:
            call(inc)
        assert (ei.value.kind, ei.value.witness) == ("point-degree", 2)
    assert "lines_through" not in vars(inc) and "_line_words" not in vars(inc)
    with pytest.raises(AssertionError, match="lines packed over 9 columns"):
        validate_pg(grid(2))   # the stand-in is the packer validation calls


def test_each_structure_packs_its_lines_once_into_a_read_only_array(monkeypatch):
    from pgblrc import bounds

    packed = []
    packer = algebra._support_words

    def counting(supports, cols):
        packed.append(cols)
        return packer(supports, cols)

    monkeypatch.setattr(algebra, "_support_words", counting)
    bounds._incidence_rank.cache_clear()
    for inc in (grid(3), hyperoval_gq(4), dual(symplectic_gq(2))):
        validate_pg(inc)
        build_code(inc)
        incidence_matrix(inc)
        assert packed == [inc.num_points]
        assert not inc._line_words.flags.writeable
        packed.clear()
    assert bounds._incidence_rank("symplectic", 3) == 25
    assert packed == [40]


# -------------------------------------------------------------- text files


def test_to_text_is_canonical_and_stable():
    text = to_text(grid(2))
    assert text.splitlines()[0] == "# label: grid(2)"
    assert text.splitlines()[1] == "9 6"
    assert text == to_text(from_text(text))


WRITABLE_LABELS = [None, "x", "grid(2)", "a b", "a\tb", "a#b", "label: y", "# label: z",
                   "géométrie — \U0001d53d"]
# empty, padded, or split by str.splitlines: from_text would read back
# another label, or (after a line break) another structure
UNWRITABLE_LABELS = ["", " ", "x ", " x", "\tx", "x\n", "x\n9 6\n5 8", "a\rb", "a\r\nb",
                     "a\u2028b", "a\x85b", "a\x0bb", "a\x1cb", 7]


@pytest.mark.parametrize("label", WRITABLE_LABELS + UNWRITABLE_LABELS)
def test_to_text_writes_a_label_only_if_it_reads_back_unchanged(tmp_path, label):
    inc = IncidenceStructure(3, ((0,), (0, 1), (1,), (2,)), label=label)
    if label in WRITABLE_LABELS:
        assert from_text(to_text(inc)) == inc
        return
    with pytest.raises(ParameterError, match="cannot be written on one comment line"):
        to_text(inc)
    with pytest.raises(ParameterError):
        save(inc, tmp_path / "out.txt")
    assert not (tmp_path / "out.txt").exists()


def test_save_and_load_path_round_trip(tmp_path):
    target = tmp_path / "geometry.txt"
    inc = symplectic_gq(2)
    save(inc, target)
    back = load(target)
    assert structurally_equal(back, inc)
    assert back.label == "symplectic-gq(2)"


def test_save_and_load_file_objects():
    buf = io.StringIO()
    save(grid(3), buf)
    back = load(io.StringIO(buf.getvalue()))
    assert structurally_equal(back, grid(3))


def test_from_text_accepts_comments_and_blank_lines():
    inc = from_text("""
# leading comment

4 4
0 1
# interior comment
2 3
0 2
1 3
""")
    assert inc.num_points == 4 and inc.num_lines == 4
    assert inc.label is None
    assert validate_pg(inc).s == 1


@pytest.mark.parametrize("text,fragment", [
    ("4\n0 1\n", "line 1: expected header"),
    ("a b\n", "line 1: point and line counts must be integers"),
    ("4 1\n1 0\n", "line 2: point indices must be strictly increasing"),
    ("4 1\n0 9\n", "line 2: point index 9 out of range"),
    ("4 2\n0 1\n0 1\n", "line 3: duplicate of the line record at line 2"),
    ("4 1\n0 1\n2 3\n", "line 3: more than the declared 1"),
    ("4 2\n0 1\n", "expected 2 line records, found 1"),
    ("# only a comment\n", "missing header"),
    ("-1 2\n", "line 1: counts must be non-negative"),
    ("4 1\n0 1.5\n", "line 2: point indices must be integers"),
])
def test_from_text_reports_line_numbers(text, fragment):
    with pytest.raises(IncidenceFileError) as ei:
        from_text(text)
    assert fragment in str(ei.value)


@pytest.mark.parametrize("record, fragment", [
    ("1 0", "point indices must be strictly increasing"),
    ("0 9", "point index 9 out of range"),
    ("0 1", "duplicate of the line record at line 5"),
], ids=["order", "range", "repeat"])
def test_from_text_refusals_land_on_the_record_line(record, fragment):
    # record 1 sits on line 7 of the text, its predecessor on line 5
    text = "# label: x\n\n4 2\n# comment\n0 1\n\n" + record + "\n"
    with pytest.raises(IncidenceFileError) as ei:
        from_text(text)
    assert ei.value.line_number == 7
    assert str(ei.value).startswith("line 7: " + fragment)


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load(tmp_path / "absent.txt")


def test_load_refuses_text_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n4 1\n0 1\n")
    with path.open(encoding="utf-8") as stream:
        for source in (path, str(path), stream):
            with pytest.raises(IncidenceFileError,
                               match="not utf-8 text: byte 0xe9 at offset 5 cannot be decoded"):
                load(source)


# --------------------------------------------------- structure validation


def test_structure_rejects_malformed_lines():
    with pytest.raises(ValueError, match="strictly increasing"):
        IncidenceStructure(4, ((1, 0),))
    with pytest.raises(ValueError, match="outside 0..3"):
        IncidenceStructure(4, ((0, 7),))
    with pytest.raises(ValueError, match="empty"):
        IncidenceStructure(4, ((),))
    with pytest.raises(ValueError, match="duplicate"):
        IncidenceStructure(4, ((0, 1), (0, 1)))
    with pytest.raises(ValueError, match="line 0: point indices must be integers"):
        IncidenceStructure.build(4, [(0, 1.5), (2, 3), (0, 2), (1, 3)])
    # a line that sorted() cannot order is left to the same rule
    with pytest.raises(ValueError, match="line 0: point indices must be integers"):
        IncidenceStructure.build(4, [(0, "a"), (2, 3)])


SQUARE = ((0, 1), (2, 3), (0, 2), (1, 3))


@pytest.mark.parametrize("num_points, lines, message", [
    (4.0, SQUARE, "num_points must be an integer, got 4.0"),
    ("4", SQUARE, "num_points must be an integer, got '4'"),
    (-1, (), "num_points must be non-negative, got -1"),
    (-1, ((0, 1),), "num_points must be non-negative, got -1"),
])
def test_structure_refuses_a_point_count_that_is_no_count(num_points, lines, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        IncidenceStructure(num_points, lines)


def test_structure_takes_a_numpy_point_count_as_an_int():
    inc = IncidenceStructure(np.int64(4), SQUARE)
    assert type(inc.num_points) is int and inc.num_points == 4
    assert to_text(inc).startswith("4 4\n")
    assert structurally_equal(from_text(to_text(inc)), inc)
    assert validate_pg(inc).num_points == 4


@pytest.mark.parametrize("lines", [
    [[0, 1], [2, 3], [0, 2], [1, 3]],
    np.array(SQUARE),
    list(SQUARE),
    [np.array(line, dtype=np.int64) for line in SQUARE],
])
def test_structure_stores_any_sequence_of_records_as_int_tuples(lines):
    inc = IncidenceStructure(4, lines)
    assert inc == IncidenceStructure(4, SQUARE)
    assert type(inc.lines) is tuple
    assert all(type(line) is tuple and set(map(type, line)) == {int} for line in inc.lines)
    assert hash(inc) == hash(IncidenceStructure(4, SQUARE))
    assert validate_pg(inc).pg_class == "generalized-quadrangle"


def test_structure_refuses_a_repeated_record_given_as_lists():
    with pytest.raises(ValueError, match="line 1: duplicate of the line record at line 0"):
        IncidenceStructure(4, [[0, 1], [0, 1]])
    with pytest.raises(ValueError, match="line 2: duplicate of the line record at line 0"):
        IncidenceStructure(4, np.array([[0, 1], [2, 3], [0, 1]]))


def test_build_sorts_within_lines():
    inc = IncidenceStructure.build(4, [(3, 1), (0, 2)])
    assert inc.lines == ((1, 3), (0, 2))
    assert inc.lines_through[1] == (0,)


def test_canonical_lines_ignores_input_order():
    a = IncidenceStructure.build(4, [(0, 1), (2, 3)])
    b = IncidenceStructure.build(4, [(2, 3), (0, 1)])
    assert a.canonical_lines() == b.canonical_lines()
    assert structurally_equal(a, b)
