import enum
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from pgblrc import __version__, cli, geometry, repair
from pgblrc.cli import build_parser, main
from pgblrc.geometry import grid

from oracles import dumps_indented, structurally_equal

FIXTURES = __file__.rsplit("/", 1)[0] + "/fixtures"


class Level(enum.IntEnum):
    HIGH = 3


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_document(got, want) -> None:
    """Assert got == want for documents (str or bytes) or lists of pieces.

    A mismatch reports the first line or piece that differs, by number,
    with both versions, where pytest would diff the whole documents with
    difflib, which takes minutes on thousands of differing lines.
    """
    if got == want:
        return
    kind = "piece"
    if not isinstance(got, list):
        kind = "line"
        got, want = got.splitlines(keepends=True), want.splitlines(keepends=True)
    j = next((j for j, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    pytest.fail(f"documents differ first at {kind} {j + 1}:\n"
                f"  got:  {got[j] if j < len(got) else 'end of document'!r}\n"
                f"  want: {want[j] if j < len(want) else 'end of document'!r}")


# --------------------------------------------------------------- construct


def test_construct_writes_incidence_text(capsys):
    code, out, err = run(capsys, "construct", "grid", "--s", "1")
    assert code == 0
    assert out == "# label: grid(1)\n4 4\n0 1\n0 2\n1 3\n2 3\n"
    assert err == ""


def test_construct_roundtrips_through_validate(capsys, tmp_path):
    path = str(tmp_path / "g2.txt")
    code, out, _ = run(capsys, "construct", "grid", "--s", "2",
                       "--output", path)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "validate", "--file", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["valid"] is True
    assert payload["label"] == "grid(2)"
    assert (payload["s"], payload["t"], payload["alpha"]) == (2, 1, 1)
    assert payload["class"] == "generalized-quadrangle"
    assert payload["grid_degenerate"] is True
    assert (payload["num_points"], payload["num_lines"]) == (9, 6)


def test_construct_dual(capsys):
    code, out, _ = run(capsys, "construct", "elliptic", "--q", "2", "--dual")
    assert code == 0
    assert out.startswith("# label: dual(elliptic-quadric-gq(2))\n45 27\n")


def test_construct_missing_parameter(capsys):
    code, _, err = run(capsys, "construct", "grid")
    assert code == 2
    assert "needs --s" in err


@pytest.mark.parametrize("argv, message", [
    (["construct", "grid", "--s", "1", "--q", "7"], "constructor 'grid' takes --s, not --q"),
    (["analyze", "--geometry", "hyperoval", "--q", "4", "--s", "3"],
     "constructor 'hyperoval' takes --q, not --s"),
    (["analyze", "--file", f"{FIXTURES}/fano.txt", "--q", "7"], "--q does not apply to --file"),
    (["simulate", "--file", f"{FIXTURES}/fano.txt", "--s", "2", "--p", "0.1"],
     "--s does not apply to --file"),
])
def test_a_parameter_the_source_does_not_take_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_construct_unsupported_order(capsys):
    code, _, err = run(capsys, "construct", "hyperoval", "--q", "5")
    assert code == 3
    assert "validation error" in err


# ---------------------------------------------------------------- validate


def test_validate_rejects_a_non_geometry(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("6 5\n0 1 2\n3 4 5\n0 3\n1 4\n2 5\n")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 3
    assert "validation error" in err


def test_validate_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "validate", "--file", str(tmp_path / "no.txt"))
    assert code == 5
    assert "file error" in err


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "mangled.txt"
    path.write_text("not a header\n")
    code, _, err = run(capsys, "validate", "--file", str(path))
    assert code == 5
    assert "file error" in err


def test_validate_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"# caf\xe9\n4 1\n0 1\n")
    code, out, err = run(capsys, "validate", "--file", str(path))
    assert code == 5
    assert out == ""
    assert err.startswith("file error: not utf-8 text: byte 0xe9 at offset 5")


def test_validate_dual_of_two_points_on_the_same_lines(capsys, tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text("3 2\n0 1 2\n0 1\n")
    code, out, err = run(capsys, "validate", "--file", str(path), "--dual")
    assert code == 3
    assert out == ""
    assert err.startswith("validation error: points 0 and 1 lie on the same lines (0, 1)")


def test_validate_fixture_with_dual(capsys):
    code, out, _ = run(capsys, "validate", "--file", f"{FIXTURES}/fano.txt",
                       "--dual")
    assert code == 0
    payload = json.loads(out)
    assert (payload["s"], payload["t"], payload["alpha"]) == (2, 2, 3)
    assert payload["class"] == "steiner-2-design"


@pytest.mark.parametrize("argv", [["validate"], ["analyze", "--dual"]])
def test_huge_declared_point_count_fails_fast(capsys, tmp_path, argv):
    # a trillion points but one two-point line: rejected before any
    # per-point table or full-width bit mask is built
    path = tmp_path / "hostile.txt"
    path.write_text("1000000000000 1\n0 1\n")
    code, out, err = run(capsys, *argv, "--file", str(path))
    assert code == 3
    assert out == ""
    assert "validation error: point 2 lies on no line" in err


# ----------------------------------------------------------------- analyze


def test_analyze_json_payload(capsys):
    code, out, _ = run(capsys, "analyze", "--geometry", "symplectic",
                       "--q", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["geometry"]["label"] == "symplectic-gq(2)"
    assert payload["code"] == {
        "n": 15,
        "k": 5,
        "rate": "1/3",
        "rate_decimal": pytest.approx(1 / 3),
        "info_set": payload["code"]["info_set"],
    }
    assert len(payload["code"]["info_set"]) == 5
    met = payload["metrics"]
    assert met["mode"] == "geometric"
    assert (met["r"], met["a"], met["delta"]) == (2, 3, 3)
    conf = payload["conformance"]
    assert conf["vartheta"] == "9"
    assert conf["rank"] == 10
    assert (conf["rank_lower"], conf["rank_upper"]) == ("9", "10")
    assert conf["rank_within_bounds"] is True
    assert (conf["rate_lower"], conf["rate_upper"]) == ("1/3", "2/5")
    assert conf["rate_within_bounds"] is True


def test_analyze_exhaustive_mode(capsys):
    code, out, _ = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                       "--exhaustive")
    assert code == 0
    met = json.loads(out)["metrics"]
    assert met["mode"] == "exhaustive"
    assert (met["r"], met["a"], met["delta"]) == (2, 2, 2)
    assert met["balanced"] is True
    assert met["safe_unavailability"] == 1


def test_analyze_text_report(capsys):
    code, out, _ = run(capsys, "analyze", "--geometry", "symplectic",
                       "--q", "2", "--format", "text")
    assert code == 0
    assert out == (
        "geometry  symplectic-gq(2)\n"
        "          pg(2, 2, 1), class generalized-quadrangle, "
        "15 points, 15 lines\n"
        "code      [n = 15, k = 5], rate 1/3 = 0.333333\n"
        "metrics   mode geometric: r = 2, a = 3, delta = 3, "
        "balanced = True, safe unavailability = 2\n"
        "bounds    rank 10 in [9, 10]: True\n"
        "          rate 1/3 in [1/3, 2/5]: True\n"
    )


def test_analyze_text_skips_bounds_below_r2(capsys):
    code, out, _ = run(capsys, "analyze", "--geometry", "grid", "--s", "1",
                       "--format", "text")
    assert code == 0
    assert out.endswith("rate bounds not applicable (r or a below 2)\n")


def test_analyze_guard_exceeded(capsys):
    code, _, err = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                       "--exhaustive", "--guard", "1")
    assert code == 4
    assert "guard exceeded" in err
    # grid(2): n = 9, s = 2, so weights up to 3 and 10 + 18 + 45 half-supports,
    # summed until the sum passes the guard: here after weight 1
    assert "weight <= 3" in err
    assert "n = 9" in err
    assert "needs at least 10 half-supports" in err
    assert "search guard of 1;" in err
    # a guard that only the last weight passes sees the whole estimate
    code, _, err = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                       "--exhaustive", "--guard", "72")
    assert code == 4
    assert "weight <= 3" in err
    assert "needs at least 73 half-supports" in err
    assert "search guard of 72;" in err


def test_analyze_negative_guard_is_a_validation_error(capsys):
    code, out, err = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                         "--exhaustive", "--guard", "-5")
    assert (code, out) == (3, "")
    assert "guard must be non-negative, got -5" in err
    assert "guard exceeded" not in err
    # geometric mode takes no census, so the guard is not read
    code, out, err = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                         "--guard", "-5")
    assert code == 0 and json.loads(out)["metrics"]["mode"] == "geometric"


def test_analyze_file_source_with_dual(capsys, tmp_path):
    path = str(tmp_path / "e2.txt")
    assert run(capsys, "construct", "elliptic", "--q", "2",
               "--output", path)[0] == 0
    code, out, _ = run(capsys, "analyze", "--file", path, "--dual")
    assert code == 0
    geo = json.loads(out)["geometry"]
    assert (geo["s"], geo["t"]) == (4, 2)
    assert (geo["num_points"], geo["num_lines"]) == (45, 27)
    # --dual applies to a file; the constructor's --q does not
    code, out, err = run(capsys, "analyze", "--file", path, "--dual", "--q", "2")
    assert (code, out) == (2, "") and "--q does not apply to --file" in err


def test_analyze_degenerate_code(capsys):
    code, _, err = run(capsys, "analyze", "--file", f"{FIXTURES}/ag23.txt")
    assert code == 3
    assert "degenerate" in err


# ---------------------------------------------------------------- simulate


def test_simulate_requires_the_model_parameter(capsys):
    code, _, err = run(capsys, "simulate", "--geometry", "grid", "--s", "2")
    assert code == 2 and "--p" in err
    code, _, err = run(capsys, "simulate", "--geometry", "grid", "--s", "2",
                       "--model", "adversarial")
    assert code == 2 and "--u" in err


def test_simulate_adversarial_csv(capsys):
    code, out, _ = run(capsys, "simulate", "--geometry", "grid", "--s", "2",
                       "--model", "adversarial", "--u", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "symbol,success_rate,mean_retrieved"
    assert lines[1] == "0,0.888889,2.000000"
    assert lines[-1] == "overall,0.888889,2.000000"
    assert len(lines) == 11


def test_simulate_json_shape_and_determinism(capsys):
    argv = ("simulate", "--geometry", "symplectic", "--q", "2",
            "--p", "0.2", "--trials", "64", "--seed", "7")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert first == second
    payload = json.loads(first)
    assert payload["schema_version"] == 1
    assert payload["model"] == "iid"
    assert payload["parameter"] == 0.2
    assert payload["seed"] == 7
    assert payload["cases"] == 64
    assert len(payload["per_symbol_success"]) == 15
    code, reseeded, _ = run(capsys, *argv[:-1], "8")
    assert reseeded != first


def test_simulate_rejects_a_seed_beyond_the_generator_key(capsys):
    code, out, err = run(capsys, "simulate", "--geometry", "grid", "--s", "2",
                         "--p", "0.1", "--seed", str(2**128))
    assert code == 3 and out == ""
    assert "seed" in err


def test_simulate_output_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "simulate", "--geometry", "grid", "--s", "2",
                       "--model", "adversarial", "--u", "1",
                       "--format", "csv", "--output", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("symbol,success_rate,mean_retrieved\n")
    assert text.rstrip().endswith("overall,1.000000,2.000000")


# ------------------------------------------------------------------ bounds


def test_bounds_csv_default_span(capsys):
    code, out, _ = run(capsys, "bounds")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 82  # header + 9 x 9 rows
    assert lines[0].startswith("r,a,rate_lower,rate_upper,applicable")
    assert lines[1] == "2,2,4/9,NA,false,0.444444,"
    assert lines[2] == "2,3,1/3,2/5,true,0.333333,0.400000"


def test_bounds_accepts_ranges_and_lists(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "2,4..5", "--a", "3")
    assert code == 0
    rows = out.splitlines()[1:]
    assert [row.split(",")[:2] for row in rows] == [
        ["2", "3"], ["4", "3"], ["5", "3"]]


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--r", "2", "--a", "2..3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["rows"] == [
        {"r": 2, "a": 2, "rate_lower": "4/9", "rate_upper": None,
         "applicable": False},
        {"r": 2, "a": 3, "rate_lower": "1/3", "rate_upper": "2/5",
         "applicable": True},
    ]


def test_bounds_rejects_bad_range(capsys):
    code, _, err = run(capsys, "bounds", "--r", "x")
    assert code == 2 and "cannot parse" in err
    code, _, err = run(capsys, "bounds", "--r", "5..2")
    assert code == 2 and "empty range" in err


def test_bounds_refuses_a_huge_range_before_building_it(capsys):
    # 10^12 values: counted, not expanded, so this fails at once
    code, out, err = run(capsys, "bounds", "--r", "2..1000000000000")
    assert code == 2 and out == ""
    assert err == "error: '2..1000000000000' lists more than 1000 values\n"
    # the count spans the whole comma list; 1000 values are still accepted
    code, _, err = run(capsys, "bounds", "--a", "1..600,2000..2400")
    assert code == 2 and "lists more than 1000 values" in err
    code, out, _ = run(capsys, "bounds", "--r", "2..1001", "--a", "2")
    assert code == 0 and len(out.splitlines()) == 1001


# ----------------------------------------------------------------- catalog


def test_catalog_text_lists_the_practical_pairs(capsys):
    code, out, _ = run(capsys, "catalog", "--format", "text")
    assert code == 0
    head, _, tail = out.partition("excluded:\n")
    assert head == (
        "practical pairs:\n"
        "  (r, 2) for r in 2..9  grids, worst rate 4/9\n"
        "  (2, 3)  from pg(2, 2, 1), n = 15, rate 2/5 [theorem-upper-bound]\n"
        "  (3, 4)  from pg(3, 3, 1), n = 40, rate 2/5 [theorem-upper-bound]\n"
        "  (4, 3)  from pg(4, 2, 1) via dual, n = 45, rate 5/9 "
        "[theorem-upper-bound]\n"
        "  (4, 5)  from pg(4, 4, 1), n = 85, rate 7/17 [theorem-upper-bound]\n"
        "  (5, 4)  from pg(5, 3, 1) via dual, n = 96, rate 17/32 "
        "[theorem-upper-bound]\n"
    )
    assert "  (2, 5): rate estimate 7/27 is not above 1/3" in tail
    assert "  (3, 10): n = 112 exceeds max_n = 100" in tail


def test_catalog_json(capsys):
    code, out, _ = run(capsys, "catalog", "--max-n", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == 1
    assert payload["max_n"] == 40
    assert payload["estimator"] == "theorem-upper-bound"
    passing = [e["key"] for e in payload["entries"] if e["passes_filter"]]
    assert passing == ["(r,2)", "(2,3)", "(3,4)"]
    family = payload["entries"][0]
    assert family["family_r_range"] == [2, 5]
    assert family["rate_estimate"] == "4/9"


def test_catalog_rejects_bad_min_rate(capsys):
    for text in ("x", "1/0", "nan", "inf"):
        code, _, err = run(capsys, "catalog", "--min-rate", text)
        assert code == 2 and "cannot parse" in err


# ------------------------------------------------------------------- shell


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_geometry_source_is_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze"])
    assert exc.value.code == 2


def test_parser_program_name():
    assert build_parser().prog == "pgblrc"


def option_strings(parser, command):
    """One subcommand's options, one long name each, in the order declared."""
    (subparsers,) = (a for a in parser._actions if a.dest == "command")
    return [a.option_strings[-1] for a in subparsers.choices[command]._actions
            if a.option_strings]


@pytest.mark.parametrize("command, options", [
    ("construct", ["--help", "--output", "--s", "--q", "--dual"]),
    ("validate", ["--help", "--output", "--file", "--dual"]),
    ("analyze", ["--help", "--output", "--file", "--geometry", "--s", "--q", "--dual",
                 "--exhaustive", "--guard", "--format"]),
    ("simulate", ["--help", "--output", "--file", "--geometry", "--s", "--q", "--dual",
                  "--model", "--p", "--u", "--trials", "--seed", "--format"]),
])
def test_geometry_commands_keep_their_options(command, options):
    assert option_strings(build_parser(), command) == options


def test_a_new_family_parameter_reaches_every_geometry_command(capsys, monkeypatch):
    # a family whose parameter the table does not have yet needs no parser edit
    monkeypatch.setitem(geometry._CONSTRUCTORS, "toy", ("m", grid, lambda m: (m, 1)))
    parser = build_parser()
    for command in ("construct", "analyze", "simulate"):
        assert "--m" in option_strings(parser, command)
    assert option_strings(parser, "validate") == ["--help", "--output", "--file", "--dual"]
    args = parser.parse_args(["analyze", "--geometry", "toy", "--m", "3", "--dual"])
    assert structurally_equal(cli._load_geometry(args), geometry.dual(grid(3)))
    for toy, known in [
        (["construct", "toy", "--m", "2", "--dual"], ["construct", "grid", "--s", "2", "--dual"]),
        (["analyze", "--geometry", "toy", "--m", "2", "--format", "text"],
         ["analyze", "--geometry", "grid", "--s", "2", "--format", "text"]),
        (["simulate", "--geometry", "toy", "--m", "2", "--p", "0.2", "--trials", "5"],
         ["simulate", "--geometry", "grid", "--s", "2", "--p", "0.2", "--trials", "5"]),
    ]:
        assert run(capsys, *toy) == run(capsys, *known)
    code, out, err = run(capsys, "construct", "toy", "--s", "2")
    assert (code, out) == (2, "") and "constructor 'toy' needs --m" in err


# exit 3 is kept for the package's typed errors: every parameter check a
# command line argument reaches raises ParameterError
@pytest.mark.parametrize("argv, message", [
    (["construct", "grid", "--s", "0"], "grid requires s >= 1"),
    (["construct", "elliptic", "--q", "4"], "supports q in {2, 3}"),
    (["construct", "hyperoval", "--q", "5"], "supports q in {4, 8, 16}"),
    (["construct", "symplectic", "--q", "6"], "unsupported field order 6"),
    (["bounds", "--r", "1"], "repair degree >= 2"),
    (["catalog", "--max-n", "-1"], "max_n must be non-negative"),
    (["simulate", "--geometry", "grid", "--s", "2", "--p", "0.1", "--seed", "-1"],
     "seed must lie"),
    (["simulate", "--geometry", "grid", "--s", "2", "--p", "1.5"], "p must lie"),
    (["simulate", "--geometry", "grid", "--s", "2", "--model", "adversarial",
      "--u", "10"], "u must lie"),
    (["simulate", "--geometry", "grid", "--s", "2", "--p", "0.1", "--trials", "0"],
     "trials must be positive"),
])
def test_parameter_errors_exit_3(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("validation error: ") and message in err


@pytest.mark.parametrize("argv", [
    ["construct", "grid", "--s", "128"],
    ["construct", "grid", "--s", str(2**128)],
    ["analyze", "--geometry", "grid", "--s", "100000"],
    ["simulate", "--geometry", "grid", "--s", "128", "--p", "0.1"],
], ids=["construct-128", "construct-2**128", "analyze-100000", "simulate-128"])
def test_an_unbounded_grid_is_refused_before_it_is_built(capsys, argv):
    s = int(argv[argv.index("--s") + 1])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == f"validation error: grid supports s <= 127, got {s}\n"


def test_an_untyped_value_error_is_not_a_validation_failure(capsys, monkeypatch):
    import pgblrc.repair

    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(pgblrc.repair, "repair_profile", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["analyze", "--geometry", "grid", "--s", "2"])


# ------------------------------------------------------------ JSON writer

WRITTEN = [
    *(f"analyze --geometry {rung}" for rung in (
        "grid --s 8", "symplectic --q 4", "elliptic --q 3", "hyperoval --q 8",
        "elliptic --q 2 --dual")),
    # grid(8) is left out here: its exhaustive census takes tens of seconds
    *(f"analyze --exhaustive --geometry {rung}" for rung in (
        "symplectic --q 4", "elliptic --q 3", "elliptic --q 2 --dual")),
    # p = 1 leaves no symbol repairable, so the mean retrieved counts are NaN
    "simulate --geometry grid --s 2 --p 1 --trials 3",
    "bounds --format json",
    "catalog",
]


def record_payloads(monkeypatch) -> list:
    """Record each top-level object handed to the JSON writer."""
    payloads = []
    writer = cli._json_walk

    def recording(obj):
        payloads.append(obj)
        return writer(obj)

    monkeypatch.setattr(cli, "_json_walk", recording)
    return payloads


@pytest.mark.parametrize("command", WRITTEN)
def test_writer_matches_indented_json_dumps_on_cli_payloads(capsys, monkeypatch, command):
    payloads = record_payloads(monkeypatch)
    code, out, _ = run(capsys, *command.split())
    assert code == 0 and len(payloads) == 1
    assert_same_document(out, dumps_indented(payloads[0]) + "\n")


@pytest.mark.parametrize("obj", [
    [], {}, None, [[]], {"a": {}}, (), [None, True, False, 0, -1, 2.5],
    [float("nan"), float("inf"), -float("inf"), 1e300, 0.1],
    {"label": "géométrie — \U0001d53d", "quote\"d": "tab\there"},
    {"repair_sets": [[], [[]], [[], [0, 1]], ([2], (3, 4))]},
    [1, True], [True, 1], [1, 2.0], [[1, 2], 3],
    0, -(2**70), [0], [0, -1, -17, 10**30, -(2**70)], (10**30, -(2**70)),
    list(range(-2500, 2500)),
    # one int list at two depths
    [[1, 2, 3], {"deeper": [[4, 5, 6], (7, 8, 9)]}, [10, 11, 12]],
    [True, False], [Level.HIGH], [1, Level.HIGH], [[Level.HIGH, 2], [1, 2]],
    # a block is rows of plain ints, all of one non-zero length
    [[1, 2], [3]], [[1], []], [[], []], [[1, 2], [3, True]], [[1, 2], [Level.HIGH, 4]],
    [[1, 2], [3, 4.0]], [[1, 2], [3, None]], [[1, 2], 3], [[1, 2], [[3], 4]], [[1, 2], "ab"],
    ((1, 2), (3, 4)), ([1, 2], (3, 4)), [[7]], ((-(2**70),),),
    [[[1, 2], [3, 4]], [[5, 6], [7, 8]], [[9, 10], [11, 12]]],
    # one block shape at two depths
    [[[1, 2], [3, 4]], {"deeper": [[[5, 6], [7, 8]]]}, [[9, 10], [11, 12]]],
    # a document of about 600 kB, with blocks and lists side by side in one dict
    {"sets": [[[i, i + 1, i + 2]] * 3 for i in range(3000)], "after": list(range(5000))},
    # numpy reads these as float64, uint64, uint64, float64 and float64
    [2, 2**64 - 1], [2**63], [2**64 - 1], [-1, 2**64 - 1], [[2**64 - 1], [3]],
    # shaped like an exhaustive profile's repair sets: symbol, set, helper
    tuple(tuple((i, i + j + 1, 2 * i + j + 2) for j in range(4)) for i in range(9)),
    # ragged at the top (two sets or one), rectangular per symbol
    (((1, 2), (3, 4)), ((5, 6),), ((7, 8), (9, 10)), [(11, 12)]),
])
def test_writer_matches_indented_json_dumps_on_edge_payloads(obj):
    assert_same_document("".join(cli._json_walk(obj)), dumps_indented(obj))


@pytest.mark.parametrize("obj", [[range(2), range(2)], (range(3),), [[1, 2], range(2)]])
def test_writer_refuses_a_nest_json_dumps_refuses(obj):
    # numpy reads each as integers, but a range is no JSON list
    with pytest.raises(TypeError):
        dumps_indented(obj)
    with pytest.raises(TypeError, match="range is not JSON serializable"):
        "".join(cli._json_walk(obj))


def indented(obj, indent: str) -> str:
    """``dumps_indented(obj)`` as the writer places it at ``indent``."""
    return dumps_indented(obj).replace("\n", "\n" + indent)


# the digit-count edges; the dtype's largest value is added where the
# array is smaller than it, so its digits come from its own entries
# rather than from the table of 0..max
EDGE_VALUES = (0, 9, 10, 99, 100, 999, 1000, 4095, 4096)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64])
@pytest.mark.parametrize("shape, extreme", [
    ((12,), True), ((4, 3), True), ((2, 3, 2), True),
    ((4100,), False), ((1025, 4), False), ((300, 2, 7), False),
])
def test_array_writer_matches_indented_json_dumps(dtype, shape, extreme):
    top = np.iinfo(dtype).max
    values = [v for v in EDGE_VALUES if v <= top] + [top] * extreme
    arr = np.resize(np.array(values, dtype), shape)
    for indent in ("", "    "):
        pieces = list(cli._array_pieces(arr, indent))
        assert len(pieces) == (shape[0] if len(shape) > 2 else 1)
        assert_same_document("".join(pieces), indented(arr, indent))
    # a top-level array is written by the array writer alone
    assert list(cli._json_walk(arr)) == list(cli._array_pieces(arr, ""))


@pytest.mark.parametrize("arr", [
    np.array([3, -1, 7]), np.array([[0, 5], [-2, 1]], np.int32),
    np.array([np.iinfo(np.int64).min, 0, np.iinfo(np.int64).max]),
    np.zeros(0, np.uint16), np.zeros((3, 0), np.int64), np.zeros((2, 0, 3), np.uint8),
    np.zeros((0, 2, 2), np.int32), np.array(7),
], ids=["negative", "negative2d", "int64_extremes", "empty", "empty_rows", "empty_middle",
        "empty_first", "no_axis"])
def test_array_writer_walks_negative_or_empty_arrays_as_lists(monkeypatch, arr):
    def refuse(part, indent):
        raise AssertionError(f"the array writer was handed {part!r}")

    # json encodes the whole array as its tolist(), the row [0, 5] of
    # negative2d included
    monkeypatch.setattr(cli, "_array_pieces", refuse)
    assert_same_document("".join(cli._json_walk(arr)), dumps_indented(arr))


@pytest.mark.parametrize("first", [1, cli._ARRAY_CHUNK - 1, cli._ARRAY_CHUNK,
                                   cli._ARRAY_CHUNK + 1])
def test_array_writer_yields_one_piece_per_first_index_across_chunks(first):
    arr = (np.arange(first * 6, dtype=np.uint16) * 7 % 1001).reshape(first, 2, 3)
    pieces = list(cli._array_pieces(arr, "  "))
    assert len(pieces) == first
    # in a list, the writer splices the same pieces in between its brackets
    assert list(cli._json_walk([arr])) == ["[\n  ", *pieces, "\n", "]"]
    # each piece is one first index's block after the separator before it
    for i, piece in enumerate(pieces):
        want = ("[" if i == 0 else ",") + "\n    " + indented(arr[i], "    ")
        assert piece == want + ("\n  ]" if i == first - 1 else ""), i


def test_array_writer_matches_indented_json_dumps_nested_in_dicts():
    arr = (np.arange(60, dtype=np.uint16) * 37).reshape(5, 3, 4)
    doc = {"top": arr, "a": {"b": np.arange(11, dtype=np.int32), "c": {
        "d": arr[:, 0], "e": [arr, {"f": arr[0], "g": np.arange(24).reshape(2, 3, 2, 2)}]}},
        "after": [1, 2]}
    assert_same_document("".join(cli._json_walk(doc)), dumps_indented(doc))


SPLICED = (np.arange(24, dtype=np.uint16) * 37).reshape(2, 3, 4)


@pytest.mark.parametrize("doc", [
    {"a": "", "b": SPLICED, "c": ""}, ["", SPLICED, "", SPLICED], SPLICED,
    {"a": [1, [SPLICED[0]], "null", None], "b": {"c": [SPLICED[1, 1]]}},
    # arrays json encodes as their tolist(), beside spliced ones
    [np.array([-3, 4]), SPLICED, np.zeros((2, 0), np.int64), SPLICED[0, 0],
     np.array([True, False]), np.array([0.5, 2.0]), np.array(7), {"d": SPLICED}],
], ids=["empty_strings_in_dict", "empty_strings_in_list", "top_level", "list_in_dict",
        "beside_tolist"])
def test_writer_splices_each_array_where_the_encoder_reaches_it(monkeypatch, doc):
    calls = []
    writer = cli._array_pieces

    def counting(arr, indent):
        calls.append(arr)
        return writer(arr, indent)

    monkeypatch.setattr(cli, "_array_pieces", counting)
    assert_same_document("".join(cli._json_walk(doc)), dumps_indented(doc))
    assert calls and all(arr.min() >= 0 and arr.size for arr in calls)


@pytest.mark.parametrize("obj", [{1, 2}, [np.int64(3)], {"a": [1, range(2)]}, frozenset()])
def test_writer_refuses_what_json_refuses_with_its_message(obj):
    with pytest.raises(TypeError) as refused:
        json.dumps(obj)
    with pytest.raises(TypeError) as written:
        "".join(cli._json_walk(obj))
    assert str(written.value) == str(refused.value)
    assert str(written.value).endswith("is not JSON serializable")


@pytest.mark.parametrize("command", [
    "--geometry grid --s 8", "--geometry hyperoval --q 4 --dual",
    # an exhaustive profile, whose repair sets are a (15, 3, 2) nest of tuples
    "--exhaustive --geometry symplectic --q 2",
])
def test_analyze_writes_each_integer_nest_with_one_array_writer_call(capsys, monkeypatch, command):
    calls = []
    writer = cli._array_pieces

    def counting(arr, indent):
        calls.append(arr.shape)
        return writer(arr, indent)

    monkeypatch.setattr(cli, "_array_pieces", counting)
    code, out, _ = run(capsys, "analyze", *command.split())
    doc = json.loads(out)
    n, sets = doc["code"]["n"], doc["metrics"]["repair_sets"]
    # info_set and the three per-symbol columns; a geometric profile's
    # repair sets are one array too, an exhaustive profile's are tuples
    # that json encodes
    arrays = [(len(doc["code"]["info_set"]),), (n,), (n,), (n,)]
    if "--exhaustive" not in command:
        arrays.append((n, len(sets[0]), len(sets[0][0])))
    assert code == 0 and calls == arrays


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_builds_no_repair_set_tuples(capsys, monkeypatch, fmt):
    def refuse(sets):
        raise AssertionError("the repair-set tuples were built")

    monkeypatch.setattr(repair, "_set_tuples", refuse)
    code, out, _ = run(capsys, "analyze", "--geometry", "hyperoval", "--q", "4", "--format", fmt)
    assert code == 0 and out
    # reading a geometric profile's sets is what builds them
    profile = repair.repair_profile(cli.code_mod.build_code(geometry.hyperoval_gq(4)), "geometric")
    with pytest.raises(AssertionError, match="were built"):
        profile.repair_sets


def test_analyze_json_is_written_in_pieces(monkeypatch):
    payloads = record_payloads(monkeypatch)
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["analyze", "--geometry", "hyperoval", "--q", "8"]) == 0
    document = dumps_indented(payloads[0])
    chunks = list(cli._json_walk(payloads[0]))
    assert_same_document("".join(chunks), document)
    assert_same_document(writes, chunks + ["\n"])
    # no piece comes near the whole document, which runs to about 660 kB
    assert max(map(len, chunks)) < len(document) / 10


def int_nests(obj, depth=0):
    """(depth, nest) for each list of ints, or list of int lists, in obj,
    reading a numpy array as its ``tolist()``."""
    def ints(items):
        return all(type(x) is int for x in items)

    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        for value in obj.values():
            yield from int_nests(value, depth + 1)
    elif isinstance(obj, (list, tuple)):
        if ints(obj) or all(isinstance(x, (list, tuple)) and ints(x) for x in obj):
            yield depth, obj
        else:
            for value in obj:
                yield from int_nests(value, depth + 1)


def test_analyze_json_writes_no_piece_longer_than_one_int_list_or_block(monkeypatch):
    payloads = record_payloads(monkeypatch)
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["analyze", "--geometry", "hyperoval", "--q", "8"]) == 0
    document = dumps_indented(payloads[0])
    assert_same_document("".join(writes), document + "\n")
    # each nest is indented by two spaces a level on every line but its first
    longest = max(len(text) + 2 * depth * text.count("\n")
                  for depth, nest in int_nests(payloads[0])
                  for text in [dumps_indented(nest)])
    assert max(map(len, writes)) <= longest


# one command of each subcommand
COMMANDS = [
    "construct symplectic --q 3",
    "analyze --geometry hyperoval --q 4",
    "simulate --geometry grid --s 2 --p 0.2 --trials 16",
    f"validate --file {FIXTURES}/fano.txt",
    "bounds --format json",
    "catalog",
]


@pytest.mark.parametrize("command", COMMANDS)
def test_output_file_holds_the_stdout_bytes_but_the_last_newline(capfdbinary, tmp_path, command):
    path = tmp_path / "out.json"
    assert main([*command.split(), "--output", str(path)]) == 0
    assert capfdbinary.readouterr().out == b""
    assert main(command.split()) == 0
    sys.stdout.flush()
    # stdout adds a final newline only where the document has none: the
    # incidence text of construct already ends in one
    final = b"" if command.startswith("construct") else b"\n"
    assert_same_document(path.read_bytes() + final, capfdbinary.readouterr().out)


@pytest.mark.parametrize("command", COMMANDS)
def test_an_output_file_that_cannot_be_opened_exits_5(capsys, tmp_path, command):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, *command.split(), "--output", str(path))
    assert code == 5 and out == ""
    assert err.startswith("file error: ") and str(path) in err
    assert not path.parent.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_an_empty_output_path_is_a_path_and_exits_5(capsys, tmp_path, monkeypatch, command):
    # "" names no file, and is not an absent --output: nothing goes to stdout
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command.split(), "--output", "")
    assert code == 5 and out == ""
    assert err.startswith("file error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["validate", "analyze", "simulate --p 0.1"])
def test_an_empty_file_path_is_a_path_and_exits_5(capsys, tmp_path, monkeypatch, command):
    # "" is read as a path, the current directory, and not taken for an
    # absent --file that falls through to the constructors
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command.split(), "--file", "")
    assert code == 5 and out == ""
    assert err.startswith("file error: ")


def test_guard_exceeded_writes_no_output_file(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "analyze", "--geometry", "grid", "--s", "2",
                       "--exhaustive", "--guard", "1", "--output", str(path))
    assert code == 4 and out == ""
    assert not path.exists()
