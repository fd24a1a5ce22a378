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
import sys
from fractions import Fraction
from typing import Iterable

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

_CONSTRUCTORS = {
    "grid": ("s", geometry.grid),
    "symplectic": ("q", geometry.symplectic_gq),
    "elliptic": ("q", geometry.elliptic_quadric_gq),
    "hyperoval": ("q", geometry.hyperoval_gq),
}


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


def _load_geometry(args: argparse.Namespace) -> geometry.IncidenceStructure:
    if getattr(args, "file", None):
        inc = geometry.load(args.file)
    else:
        param_name, constructor = _CONSTRUCTORS[args.geometry]
        value = getattr(args, param_name)
        if value is None:
            raise _UsageError(f"constructor {args.geometry!r} needs --{param_name}")
        inc = constructor(value)
    return geometry.dual(inc) if args.dual else inc


def _json_walk(obj, indent: str = ""):
    """Yield ``json.dumps(obj, indent=2)`` at ``indent`` in pieces, for
    objects with string keys, leaving keys and scalars to ``json.dumps``
    (so NaN, null, floats and non-ASCII text come out as before).

    json's C encoder has no indented form, so ``indent=2`` falls back to
    the pure-Python encoder, which formats every int of an analyze
    payload's repair sets one call at a time.  This walks dicts, lists and
    tuples the same way but fills each list of plain ints, or block of
    equal-length rows of them, into one cached ``_template``.  A piece is
    at most one such list or block (one symbol's repair sets), so the
    document is never held whole; an outer list of blocks is walked, not
    flattened, for that reason.
    """
    if isinstance(obj, dict):
        if not obj:
            yield "{}"
            return
        inner = indent + "  "
        opening = "{\n" + inner
        for key, value in obj.items():
            yield f"{opening}{json.dumps(key)}: "
            yield from _json_walk(value, inner)
            opening = ",\n" + inner
        yield f"\n{indent}}}"
    elif isinstance(obj, (list, tuple)):
        if not obj:
            yield "[]"
            return
        first = obj[0]
        if type(first) is int and set(map(type, obj)) == {int}:
            yield _template((len(obj),), indent) % tuple(obj)
            return
        if isinstance(first, (list, tuple)) and first and type(first[0]) is int:
            # a block: rows of plain ints, all of one length; the first
            # row's first item is checked before flattening, so an outer
            # list of blocks is never flattened
            if set(map(type, obj)) <= {list, tuple} and len(set(map(len, obj))) == 1:
                flat = tuple(itertools.chain.from_iterable(obj))
                if set(map(type, flat)) == {int}:
                    yield _template((len(obj), len(first)), indent) % flat
                    return
        inner = indent + "  "
        opening = "[\n" + inner
        for value in obj:
            yield opening
            yield from _json_walk(value, inner)
            opening = ",\n" + inner
        yield f"\n{indent}]"
    else:
        yield json.dumps(obj)


@functools.lru_cache(maxsize=64)
def _template(shape: tuple[int, ...], indent: str) -> str:
    """The ``%d`` template of a rectangular nest of ints at ``indent``:
    ``(length,)`` for a list, ``(rows, length)`` for a block."""
    inner = indent + "  "
    item = _template(shape[1:], inner) if len(shape) > 1 else "%d"
    return f"[\n{inner}" + (",\n" + inner).join([item] * shape[0]) + f"\n{indent}]"


def _emit(chunks: Iterable[str], output: str | None) -> None:
    """Write each text chunk as it comes, one write a chunk (for JSON, one
    piece from ``_json_walk``): to the ``output`` file, or to stdout with
    a final newline unless the last chunk ends with one."""
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        write = sys.stdout.write
        last = ""
        for last in chunks:
            write(last)
        if not last.endswith("\n"):
            write("\n")


def _add_geometry_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--file", help="read the geometry from an incidence file")
    group.add_argument("--geometry", choices=sorted(_CONSTRUCTORS),
                       help="build a geometry by constructor name")
    parser.add_argument("--s", type=int, help="grid side parameter")
    parser.add_argument("--q", type=int, help="field order for the quadrangles")
    parser.add_argument("--dual", action="store_true",
                        help="swap the roles of points and lines")


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
            "info_set": list(built.info_set),
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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write here instead of stdout, "
                                         "without stdout's final newline")
    add_parser = functools.partial(sub.add_parser, parents=[output])

    p_construct = add_parser(
        "construct", help="build a geometry and write its incidence file")
    p_construct.add_argument("geometry", choices=sorted(_CONSTRUCTORS))
    p_construct.add_argument("--s", type=int, help="grid side parameter")
    p_construct.add_argument("--q", type=int, help="field order")
    p_construct.add_argument("--dual", action="store_true")
    p_construct.set_defaults(func=_cmd_construct)

    p_validate = add_parser(
        "validate", help="check the partial-geometry axioms of an incidence file")
    p_validate.add_argument("--file", required=True)
    p_validate.add_argument("--dual", action="store_true")
    p_validate.set_defaults(func=_cmd_validate)

    p_analyze = add_parser(
        "analyze", help="build the code and report its repair metrics")
    _add_geometry_source(p_analyze)
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
        "simulate", help="estimate repair success under symbol unavailability")
    _add_geometry_source(p_simulate)
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
