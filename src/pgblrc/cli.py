"""Command line front end.

Subcommands: construct, validate, analyze, simulate, bounds, catalog.
Each returns its document's text pieces; ``main`` alone writes them, to
stdout or ``--output`` (``_emit``), and maps errors to exit codes: 0
success, 2 usage (argparse), 3 validation failure or an out-of-range
parameter (the package's typed errors only; any other exception
propagates), 4 search guard exceeded, 5 file I/O failure, a failed
write included.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from fractions import Fraction
from typing import Iterable

import numpy as np

from . import __version__, bounds, code as code_mod, geometry, repair
from .errors import (
    DegenerateCodeError,
    GuardExceededError,
    IncidenceFileError,
    ParameterError,
    PgValidationError,
)

EXIT_OK = 0
EXIT_VALIDATION = 3
EXIT_GUARD = 4
EXIT_IO = 5


class _UsageError(Exception):
    """Bad argument combination caught after parsing."""


def _frac_str(f: Fraction | None) -> str | None:
    """``str(f)``, which writes a whole Fraction as an integer; None stays None."""
    return None if f is None else str(f)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"cannot parse {text!r} as a rational number") from exc


# ``bounds`` tabulates at most this many values of r or of a; each part's
# count is checked before its range is expanded, so no list is built huge
_MAX_LIST_VALUES = 1000


def _parse_int_set(text: str) -> list[int]:
    """Parse '4', '2..10', or a comma list of either into sorted ints."""
    values: set[int] = set()
    count = 0
    for part in text.split(","):
        part = part.strip()
        try:
            lo_text, dots, hi_text = part.partition("..")
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError as exc:
            raise _UsageError(f"cannot parse {part!r} as an integer or range") from exc
        if hi < lo:
            raise _UsageError(f"empty range {part!r}")
        count += hi - lo + 1
        if count > _MAX_LIST_VALUES:
            raise _UsageError(f"{text!r} lists more than {_MAX_LIST_VALUES} values")
        values.update(range(lo, hi + 1))
    return sorted(values)


def _constructor_params() -> list[str]:
    """Each parameter of the constructor table once, in table order."""
    return list(dict.fromkeys(row[0] for row in geometry._CONSTRUCTORS.values()))


def _load_geometry(args: argparse.Namespace) -> geometry.IncidenceStructure:
    """The geometry that ``--file`` or the constructor names, dualized
    with ``--dual``; a constructor parameter the source does not take is
    a usage error rather than ignored."""
    given = [param for param in _constructor_params() if getattr(args, param, None) is not None]
    if getattr(args, "file", None) is not None:
        if given:
            raise _UsageError(f"--{given[0]} does not apply to --file")
        inc = geometry.load(args.file)
    else:
        param_name, constructor, _ = geometry._CONSTRUCTORS[args.geometry]
        value = getattr(args, param_name)
        if value is None:
            raise _UsageError(f"constructor {args.geometry!r} needs --{param_name}")
        other = [param for param in given if param != param_name]
        if other:
            raise _UsageError(f"constructor {args.geometry!r} takes --{param_name}, "
                              f"not --{other[0]}")
        inc = constructor(value)
    return geometry.dual(inc) if args.dual else inc


def _json_walk(obj) -> Iterable[str]:
    """Yield ``json.dumps(obj, indent=2)`` in pieces.  With an indent,
    ``iterencode`` runs json's pure-Python encoder, which calls ``default``
    on an object it cannot encode just before it yields that object's one
    chunk: ``default`` notes an array that ``_array_pieces`` takes (integer,
    non-negative, no zero-length axis) and returns None, and that ``null``
    is replaced by the array's pieces at the indent of the encoder's line.
    Other arrays are their ``tolist()``; anything else is json's TypeError."""
    arrays = []

    def default(o):
        if not isinstance(o, np.ndarray):
            return json.JSONEncoder.default(encoder, o)
        if o.dtype.kind in "iu" and o.size and o.ndim and o.min() >= 0:
            arrays.append(o)
            return None
        return o.tolist()

    encoder = json.JSONEncoder(indent=2, default=default)
    line = ""   # the text after the last newline yielded
    for chunk in encoder.iterencode(obj):
        if arrays:   # the array's last line keeps the indent of its first
            yield from _array_pieces(arrays.pop(), line[:len(line) - len(line.lstrip(" "))])
            continue
        if "\n" in chunk:
            line = chunk.rpartition("\n")[2]
        yield chunk


# indices of the first axis per chunk of an array of three or more axes
_ARRAY_CHUNK = 256


def _byte_rows(texts: list[str]) -> np.ndarray:
    """The ASCII texts as rows of one uint8 array, padded with zero bytes."""
    return np.array([text.encode() for text in texts]).view(np.uint8).reshape(len(texts), -1)


def _array_pieces(arr: np.ndarray, indent: str) -> Iterable[str]:
    """Yield ``json.dumps(arr.tolist(), indent=2)`` at ``indent`` for a
    non-negative integer array with no zero-length axis: one piece for
    one or two axes, else one a first-axis index, after its separator.

    Every row (along the last axis) takes the same bytes, zero bytes
    padding what its text leaves out: a lead of separator and brackets
    (``leads``, by how many of its leading indices are 0), one slot an
    entry (separator, newline, indent, then the digits right-aligned,
    taken in one ``np.take`` from a slot per value 0..max, or per entry
    where the array is smaller than its maximum) and a trail of brackets
    (``trails``, by how many are the last).  One compress of a chunk's
    nonzero bytes gives its text, so no int is formatted on its own.
    """
    m, width = arr.ndim, arr.shape[-1]
    ind = [indent + "  " * level for level in range(m + 1)]
    top = int(arr.max())
    if top < arr.size:
        values, index = np.arange(top + 1, dtype=arr.dtype), arr.reshape(-1, width)
    else:
        values, index = arr.ravel(), np.arange(arr.size).reshape(-1, width)
    powers = np.array([10 ** p for p in range(len(str(top)) - 1, -1, -1)], arr.dtype)
    digits = (values[:, None] // powers % 10 + ord("0")).astype(np.uint8)
    digits[:, :-1][values[:, None] < powers[:-1]] = 0
    sep = _byte_rows([",\n" + ind[m]])
    slots = np.empty((len(values), sep.shape[1] + digits.shape[1]), np.uint8)
    slots[:, :sep.shape[1]], slots[:, sep.shape[1]:] = sep, digits
    slots = slots.view(np.dtype((np.void, slots.shape[1])))[:, 0]
    # by z, the number of trailing leading indices that are 0 (z = m - 1
    # at row 0 only), and by e, of those that are the last
    leads = _byte_rows([(",\n" + ind[m - 1 - z] if z < m - 1 else "")
                        + "".join("[\n" + ind[level] for level in range(m - z, m))
                        for z in range(m)])
    trails = _byte_rows(["".join("\n" + ind[level] + "]" for level in range(m - 1, m - 2 - e, -1))
                         for e in range(m)])
    # row r's leading index at axis L is 0 when r is a multiple of spans[L]
    spans = np.cumprod(arr.shape[-2::-1])[::-1]
    piece = math.prod(arr.shape[1:-1]) if m > 2 else len(index)
    step = piece * (_ARRAY_CHUNK if m > 2 else 1)
    for start in range(0, len(index), step):
        stop = min(start + step, len(index))
        rows = np.arange(start, stop)
        entries = np.take(slots, index[start:stop]).view(np.uint8).reshape(len(rows), -1)
        entries[:, 0] = ord("[")
        buf = np.concatenate([leads[(rows[:, None] % spans == 0).sum(1)], entries,
                              trails[((rows[:, None] + 1) % spans == 0).sum(1)]], axis=1)
        keep = buf != 0
        text = str(buf[keep], "ascii")
        del buf, entries
        sizes = np.add.reduce(keep.reshape(-1, piece * keep.shape[1]), axis=1,
                              dtype=np.min_scalar_type(piece * keep.shape[1]))
        begin = 0
        for end in itertools.accumulate(sizes.tolist()):
            yield text[begin:end]
            begin = end


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write each text chunk as it comes, one write a chunk (for JSON,
    each piece ``_json_walk`` yields): to the ``output`` file, or to stdout
    with a final newline unless the last chunk ends with one."""
    if output is not None:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        write = sys.stdout.write
        last = ""
        for last in chunks:
            write(last)
        if not last.endswith("\n"):
            write("\n")


def _geometry_dict(inc: geometry.IncidenceStructure,
                   params: geometry.PgParams) -> dict:
    return {
        "label": inc.label,
        "num_points": params.num_points,
        "num_lines": params.num_lines,
        "s": params.s,
        "t": params.t,
        "alpha": params.alpha,
        "class": params.pg_class,
        "grid_degenerate": params.grid_degenerate,
    }


# ----------------------------------------------------------------------
# subcommands


def _cmd_construct(args: argparse.Namespace) -> Iterable[str]:
    return [geometry.to_text(_load_geometry(args))]


def _cmd_validate(args: argparse.Namespace) -> Iterable[str]:
    inc = _load_geometry(args)
    params = geometry.validate_pg(inc)
    return _json_walk({"schema_version": 1, "valid": True, **_geometry_dict(inc, params)})


def _conformance_dict(params: geometry.PgParams, built,
                      profile: repair.RepairProfile) -> dict:
    theta = bounds.vartheta(params.s, params.t, params.alpha)
    rank_lo, rank_hi = bounds.rank_bounds(params.s, params.t, params.alpha)
    rank = built.n - built.k
    rate = code_mod.rate(built)
    out = {
        "vartheta": _frac_str(theta),
        "rank": rank,
        "rank_lower": _frac_str(rank_lo),
        "rank_upper": _frac_str(rank_hi),
        "rank_within_bounds": (rank_lo is None or rank_lo <= rank) and rank <= rank_hi,
        "rate": _frac_str(rate),
        # the rate bounds apply from r = a = 2 on
        "rate_lower": None,
        "rate_upper": None,
        "rate_within_bounds": None,
    }
    if profile.r >= 2 and profile.a >= 2:
        lower = bounds.rate_lower(profile.r, profile.a)
        upper = bounds.rate_upper(profile.r, profile.a)
        out["rate_lower"] = _frac_str(lower)
        out["rate_upper"] = _frac_str(upper)
        out["rate_within_bounds"] = lower <= rate and (upper is None or rate <= upper)
    return out


def _analyze_text(payload: dict) -> str:
    geo = payload["geometry"]
    cd = payload["code"]
    met = payload["metrics"]
    conf = payload["conformance"]
    lines = [
        f"geometry  {geo['label']}",
        f"          pg({geo['s']}, {geo['t']}, {geo['alpha']}), "
        f"class {geo['class']}, {geo['num_points']} points, "
        f"{geo['num_lines']} lines",
        f"code      [n = {cd['n']}, k = {cd['k']}], rate {cd['rate']} "
        f"= {cd['rate_decimal']:.6f}",
        f"metrics   mode {met['mode']}: r = {met['r']}, a = {met['a']}, "
        f"delta = {met['delta']}, balanced = {met['balanced']}, "
        f"safe unavailability = {met['safe_unavailability']}",
        f"bounds    rank {conf['rank']} in "
        f"[{conf['rank_lower'] or '-'}, {conf['rank_upper']}]: "
        f"{conf['rank_within_bounds']}",
    ]
    if conf["rate_within_bounds"] is None:
        lines.append("          rate bounds not applicable (r or a below 2)")
    else:
        lines.append(
            f"          rate {conf['rate']} in "
            f"[{conf['rate_lower']}, {conf['rate_upper'] or 'NA'}]: "
            f"{conf['rate_within_bounds']}"
        )
    return "\n".join(lines) + "\n"


def _cmd_analyze(args: argparse.Namespace) -> Iterable[str]:
    inc = _load_geometry(args)
    params = geometry.validate_pg(inc)
    built = code_mod.build_code(inc)
    mode = "exhaustive" if args.exhaustive else "geometric"
    profile = repair.repair_profile(built, mode=mode, guard=args.guard)
    rate = code_mod.rate(built)
    payload = {
        "schema_version": 1,
        "geometry": _geometry_dict(inc, params),
        "code": {
            "n": built.n,
            "k": built.k,
            "rate": _frac_str(rate),
            "rate_decimal": float(rate),
            "info_set": np.array(built.info_set),
        },
        "metrics": profile._json_fields(),
        "conformance": _conformance_dict(params, built, profile),
    }
    if args.format == "text":
        return [_analyze_text(payload)]
    return _json_walk(payload)


def _cmd_simulate(args: argparse.Namespace) -> Iterable[str]:
    if args.model == "iid" and args.p is None:
        raise _UsageError("the iid model needs --p")
    if args.model == "adversarial" and args.u is None:
        raise _UsageError("the adversarial model needs --u")
    inc = _load_geometry(args)
    built = code_mod.build_code(inc)
    report = repair.simulate_availability(
        built,
        model=args.model,
        p=args.p if args.p is not None else 0.0,
        u=args.u if args.u is not None else 0,
        trials=args.trials,
        seed=args.seed,
    )
    if args.format == "csv":
        return [report.to_csv()]
    return _json_walk(report.to_json_dict())


def _cmd_bounds(args: argparse.Namespace) -> Iterable[str]:
    rows = bounds.bounds_table(_parse_int_set(args.r), _parse_int_set(args.a))
    if args.format == "csv":
        return [bounds.bounds_table_csv(rows)]
    return _json_walk({
        "schema_version": 1,
        "rows": [
            {
                "r": row.r,
                "a": row.a,
                "rate_lower": _frac_str(row.lower),
                "rate_upper": _frac_str(row.upper),
                "applicable": row.applicable,
            }
            for row in rows
        ],
    })


def _catalog_entry_dict(entry: bounds.CatalogEntry) -> dict:
    key = entry.key
    return {
        "key": key if isinstance(key, str) else f"({key[0]},{key[1]})",
        "r": entry.r,
        "a": entry.a,
        "s": entry.s,
        "t": entry.t,
        "via_dual": entry.via_dual,
        "n": entry.n,
        "rate_estimate": _frac_str(entry.rate_estimate),
        "estimator": entry.estimator,
        "passes_filter": entry.passes_filter,
        "exclusion": entry.exclusion,
        "family_r_range": list(entry.family_r_range) if entry.family_r_range else None,
    }


def _catalog_text(entries: list[bounds.CatalogEntry]) -> str:
    lines = ["practical pairs:"]
    for entry in entries:
        if not entry.passes_filter:
            continue
        if entry.family_r_range:
            lo, hi = entry.family_r_range
            lines.append(
                f"  (r, 2) for r in {lo}..{hi}  grids, worst rate "
                f"{_frac_str(entry.rate_estimate)}"
            )
        else:
            lines.append(
                f"  ({entry.r}, {entry.a})  from pg({entry.s}, {entry.t}, 1)"
                f"{' via dual' if entry.via_dual else ''}, n = {entry.n}, "
                f"rate {_frac_str(entry.rate_estimate)} [{entry.estimator}]"
            )
    lines.append("excluded:")
    for entry in entries:
        if entry.passes_filter:
            continue
        name = "(r, 2) grids" if entry.t == 1 else f"({entry.r}, {entry.a})"
        lines.append(f"  {name}: {entry.exclusion}")
    return "\n".join(lines) + "\n"


def _cmd_catalog(args: argparse.Namespace) -> Iterable[str]:
    entries = bounds.catalog(
        max_n=args.max_n,
        min_rate=_parse_fraction(args.min_rate),
        estimator=args.estimator,
    )
    if args.format == "text":
        return [_catalog_text(entries)]
    return _json_walk({
        "schema_version": 1,
        "max_n": args.max_n,
        "min_rate": args.min_rate,
        "estimator": args.estimator,
        "entries": [_catalog_entry_dict(e) for e in entries],
    })


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgblrc",
        description="build and analyze locally repairable codes from "
                    "partial geometries",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    families = sorted(geometry._CONSTRUCTORS)
    output, file_only, source, params, dual = (
        argparse.ArgumentParser(add_help=False) for _ in range(5))
    output.add_argument("--output", help="write here instead of stdout, "
                                         "without stdout's final newline")
    file_only.add_argument("--file", required=True)
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="read the geometry from an incidence file")
    group.add_argument("--geometry", choices=families,
                       help="build a geometry by constructor name")
    # one --<parameter> for each parameter in the constructor table
    for param in _constructor_params():
        takers = [name for name, row in geometry._CONSTRUCTORS.items() if row[0] == param]
        params.add_argument(f"--{param}", type=int, help="parameter of " + ", ".join(takers))
    dual.add_argument("--dual", action="store_true", help="swap the roles of points and lines")
    add_parser = functools.partial(sub.add_parser, parents=[output])

    p_construct = add_parser(
        "construct", help="build a geometry and write its incidence file",
        parents=[output, params, dual])
    p_construct.add_argument("geometry", choices=families)
    p_construct.set_defaults(func=_cmd_construct)

    p_validate = add_parser(
        "validate", help="check the partial-geometry axioms of an incidence file",
        parents=[output, file_only, dual])
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = add_parser(
        "analyze", help="build the code and report its repair metrics",
        parents=[output, source, params, dual])
    p_analyze.add_argument("--exhaustive", action="store_true",
                           help="measure the repair degree by search instead "
                                "of taking the geometric value")
    p_analyze.add_argument("--guard", type=int,
                           default=repair.DEFAULT_SEARCH_GUARD,
                           help="abort exhaustive search beyond this many "
                                "half-supports: the sum over weights w up to "
                                "r+1 of C(n, ceil(w/2)) + C(n, floor(w/2))")
    p_analyze.add_argument("--format", choices=("json", "text"), default="json")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_simulate = add_parser(
        "simulate", help="estimate repair success under symbol unavailability",
        parents=[output, source, params, dual])
    p_simulate.add_argument("--model", choices=repair.AVAILABILITY_MODELS,
                            default="iid")
    p_simulate.add_argument("--p", type=float,
                            help="per-symbol unavailability probability "
                                 "(iid model)")
    p_simulate.add_argument("--u", type=int,
                            help="number of unavailable symbols "
                                 "(adversarial model)")
    p_simulate.add_argument("--trials", type=int, default=1000)
    p_simulate.add_argument("--seed", type=int, default=0)
    p_simulate.add_argument("--format", choices=("json", "csv"), default="json")
    p_simulate.set_defaults(func=_cmd_simulate)

    p_bounds = add_parser(
        "bounds", help="tabulate the rate bounds over ranges of (r, a)")
    p_bounds.add_argument("--r", default="2..10",
                          help="values like '4', '2..10', or '2,4..6'")
    p_bounds.add_argument("--a", default="2..10")
    p_bounds.add_argument("--format", choices=("csv", "json"), default="csv")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_catalog = add_parser(
        "catalog", help="list the practical (r, a) pairs from known quadrangles")
    p_catalog.add_argument("--max-n", type=int, default=100)
    p_catalog.add_argument("--min-rate", default="1/3")
    p_catalog.add_argument("--estimator", choices=bounds.ESTIMATORS,
                           default="theorem-upper-bound")
    p_catalog.add_argument("--format", choices=("json", "text"), default="json")
    p_catalog.set_defaults(func=_cmd_catalog)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.func(args), args.output)
        return EXIT_OK
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IncidenceFileError, OSError) as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except GuardExceededError as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (PgValidationError, DegenerateCodeError, ParameterError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
