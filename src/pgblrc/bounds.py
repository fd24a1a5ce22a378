"""Rate bounds for partial-geometry codes and the catalog of practical
(repair degree, alternativity) pairs reachable from known generalized
quadrangles.

All bound arithmetic is exact rational; floats appear only in rendered
output columns.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable

from . import algebra, geometry
from .errors import ParameterError, _as_index

__all__ = [
    "CatalogEntry",
    "ESTIMATORS",
    "GRID_FAMILY_KEY",
    "RateBounds",
    "bounds_table",
    "bounds_table_csv",
    "catalog",
    "known_gq_parameters",
    "rank_bounds",
    "rate_lower",
    "rate_lower_general",
    "rate_upper",
    "rate_upper_general",
    "surviving_keys",
    "vartheta",
]


def _check_pg_params(s: int, t: int, alpha: int) -> None:
    if _as_index(s, "s") < 1 or _as_index(t, "t") < 1:
        raise ParameterError("require s >= 1 and t >= 1")
    if not 1 <= _as_index(alpha, "alpha") <= min(s + 1, t + 1):
        raise ParameterError(
            f"alpha must lie in [1, min(s+1, t+1)] = [1, {min(s + 1, t + 1)}]"
        )


def vartheta(s: int, t: int, alpha: int) -> Fraction:
    """Rank estimate for the incidence matrix of a pg(s, t, alpha).

    The GF(2) rank is at most vartheta + 1; ``rank_bounds``' lower end,
    vartheta, is an estimate, not a proven floor (hyperoval(8): 299 < 315).
    """
    _check_pg_params(s, t, alpha)
    return Fraction(s * t * (s + 1) * (t + 1), alpha * (t + s + 1 - alpha))


def rank_bounds(s: int, t: int, alpha: int) -> tuple[Fraction | None, Fraction]:
    """(lower, upper) ends for the GF(2) incidence rank; lower, the estimate
    vartheta, is None when s + t + 1 - alpha is odd (see ``vartheta``)."""
    theta = vartheta(s, t, alpha)
    lower = theta if (s + t + 1 - alpha) % 2 == 0 else None
    return lower, theta + 1


def _num_points(s: int, t: int, alpha: int) -> Fraction:
    return Fraction((s + 1) * (s * t + alpha), alpha)


def rate_lower_general(s: int, t: int, alpha: int) -> Fraction:
    """Guaranteed rate when the incidence rank is at its maximum vartheta+1."""
    return 1 - (vartheta(s, t, alpha) + 1) / _num_points(s, t, alpha)


def rate_upper_general(s: int, t: int, alpha: int) -> Fraction:
    """Rate at incidence rank vartheta, an upper value only for ranks >=
    vartheta; evaluable whatever the parity of s + t + 1 - alpha."""
    return 1 - vartheta(s, t, alpha) / _num_points(s, t, alpha)


def _check_ra(r: int, a: int) -> None:
    if _as_index(r, "r") < 2 or _as_index(a, "a") < 2:
        raise ParameterError("bounds require repair degree >= 2 and alternativity >= 2")


def rate_lower(r: int, a: int) -> Fraction:
    """Rate achievable by any pg code with repair degree r and alternativity a:
    the general lower bound at (s, t, alpha) = (r, a-1, 1), which is
    r^2 / ((a+r-1)(r+1))."""
    _check_ra(r, a)
    return rate_lower_general(r, a - 1, 1)


def rate_upper(r: int, a: int) -> Fraction | None:
    """Rate of an (r, a) pg code of incidence rank >= vartheta: the general
    upper value at (s, t, alpha) = (r, a-1, 1), which is (a(r^2-r+1) -
    (r-1)^2) / ((a+r-1)(r(a-1)+1)); None when r + a - 1 is odd.  It is no
    ceiling below that rank: W(8), W(16), hyperoval(8) and hyperoval(16)
    fall below it, and W(8)'s rate 287/585 (rank 298 < vartheta = 324)
    exceeds rate_upper(8, 9) = 29/65.  ``rate_lower`` rests on the proven
    rank ceiling vartheta + 1, so it stays a floor."""
    _check_ra(r, a)
    if rank_bounds(r, a - 1, 1)[0] is None:
        return None
    return rate_upper_general(r, a - 1, 1)


@dataclass(frozen=True)
class RateBounds:
    """One row of the rate-bounds table."""

    r: int
    a: int
    lower: Fraction
    upper: Fraction | None
    vartheta: Fraction  # for the underlying (s, t, alpha) = (r, a-1, 1)

    @property
    def applicable(self) -> bool:
        """Whether the upper value is defined: r + a - 1 is even."""
        return self.upper is not None


def bounds_table(r_values: Iterable[int], a_values: Iterable[int]) -> list[RateBounds]:
    """Cross product of (r, a) rows, r ascending then a ascending."""
    rows = []
    for r in sorted(set(r_values)):
        for a in sorted(set(a_values)):
            rows.append(
                RateBounds(
                    r=r,
                    a=a,
                    lower=rate_lower(r, a),
                    upper=rate_upper(r, a),
                    vartheta=vartheta(r, a - 1, 1),
                )
            )
    return rows


def _frac_str(f: Fraction | None) -> str:
    return "NA" if f is None else f"{f.numerator}/{f.denominator}"


def _frac_dec(f: Fraction | None) -> str:
    return "" if f is None else f"{float(f):.6f}"


def bounds_table_csv(rows: Iterable[RateBounds]) -> str:
    """CSV rendering: exact p/q columns first, decimals appended."""
    out = ["r,a,rate_lower,rate_upper,applicable,rate_lower_decimal,rate_upper_decimal"]
    for row in rows:
        out.append(
            f"{row.r},{row.a},{_frac_str(row.lower)},{_frac_str(row.upper)},"
            f"{'true' if row.applicable else 'false'},"
            f"{_frac_dec(row.lower)},{_frac_dec(row.upper)}"
        )
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# catalog of practical (r, a) pairs

ESTIMATORS = ("theorem-upper-bound", "theorem-lower-bound", "exact-rank")

GRID_FAMILY_KEY = "(r,2)"

# the values at which the catalog builds each constructor (W(q) to q = 4)
_CATALOG_VALUES = {
    "grid": range(1, 32), "symplectic": (2, 3, 4),
    "elliptic": (2, 3), "hyperoval": (4, 8, 16),
}
# (s, t) -> (constructor, value) of the quadrangle of that order built here
_BUILT = {geometry._CONSTRUCTORS[name][2](value): (name, value)
          for name, values in _CATALOG_VALUES.items() for value in values}


@functools.cache
def _incidence_rank(name: str, value: int) -> int:
    """The GF(2) incidence rank of ``name`` built at ``value``, certified."""
    inc = geometry._CONSTRUCTORS[name][1](value)
    geometry.validate_pg(inc)
    return len(algebra._eliminate(inc._line_words)[1])


def known_gq_parameters(max_z: int = 16) -> list[tuple[int, int]]:
    """Parameter pairs (s, t) of known generalized quadrangles, primal only.

    The classical families (1, z) for z <= max_z and (q-1, q+1), (q, q),
    (q, q^2), (q^2, q^3) over the supported field orders q; duals are
    handled by the catalog itself.  The nine small pairs (2, 2) to (4, 16)
    sometimes listed apart as sporadic are all members of these families.
    """
    pairs = set()
    for q in algebra.SUPPORTED_FIELD_ORDERS:
        pairs.add((q - 1, q + 1))
        pairs.add((q, q))
        pairs.add((q, q * q))
        pairs.add((q * q, q ** 3))
    for z in range(1, max_z + 1):
        pairs.add((1, z))
    return sorted(pairs)


@dataclass(frozen=True)
class CatalogEntry:
    """One candidate (r, a) pair with its source quadrangle and filter verdict.

    The grid family collapses to a single entry with ``family_r_range``
    set; there n is the largest member's length and rate_estimate the
    smallest member's rate.
    """

    r: int | None
    a: int
    s: int | None
    t: int | None
    via_dual: bool
    n: int | None
    rate_estimate: Fraction | None
    estimator: str
    passes_filter: bool
    exclusion: str | None = None
    family_r_range: tuple[int, int] | None = None

    @property
    def key(self):
        if self.family_r_range is not None:
            return GRID_FAMILY_KEY
        return (self.r, self.a)


def _estimate_rate(s: int, t: int, n: int, estimator: str, max_n: int) -> tuple[Fraction, str]:
    """Rate estimate for the length-n code of a pg(s, t, 1) and the
    estimator used: (n - rank) / n where asked for, n <= max_n (nothing is
    built to be rejected on length) and a quadrangle of order (s, t) or
    (t, s) is built here, whose rank serves both, since a dual's incidence
    matrix is its primal's transpose; else the upper bound where it applies
    and the lower one is not asked for; else the lower bound."""
    built = _BUILT.get((s, t), _BUILT.get((t, s)))
    if estimator == "exact-rank" and n <= max_n and built is not None:
        return Fraction(n - _incidence_rank(*built), n), "exact-rank"
    upper = None if estimator == "theorem-lower-bound" else rate_upper(s, t + 1)
    if upper is not None:
        return upper, "theorem-upper-bound"
    return rate_lower(s, t + 1), "theorem-lower-bound"


def _catalog_entry(s: int, t: int, via_dual: bool, max_n: int, min_rate: Fraction,
                   estimator: str) -> CatalogEntry:
    """The entry of (r, a) = (s, t+1), with the filter's verdict."""
    n = (s + 1) * (s * t + 1)
    rate_est, est_used = _estimate_rate(s, t, n, estimator, max_n)
    if n > max_n:
        exclusion = f"n = {n} exceeds max_n = {max_n}"
    elif rate_est <= min_rate:
        exclusion = f"rate estimate {rate_est} is not above {min_rate}"
    else:
        exclusion = None
    return CatalogEntry(
        r=s, a=t + 1, s=s, t=t, via_dual=via_dual, n=n,
        rate_estimate=rate_est, estimator=est_used,
        passes_filter=exclusion is None, exclusion=exclusion,
    )


def _grid_family(max_n: int, min_rate: Fraction, estimator: str) -> CatalogEntry:
    """The grids (z, 1), z >= 2, folded into one entry: over the survivors,
    the worst rate and the largest n; with none, the smallest grid's verdict.

    n = (z+1)^2 grows with z, and so does every estimate a grid gets.  Its
    rank is 2z + 1, so its real rate, like the lower bound, is
    z^2 / (z+1)^2; the upper bound, at odd z, is (z^2+1) / (z+1)^2; and at
    z >= 3 the upper bound at z-1 is below the lower one at z, as
    (z^2-2z+2)(z+1)^2 = z^4 - z^2 + 2z + 2 < z^4.  So the survivors are the
    z from the least whose estimate is above min_rate, found by bisection,
    to the largest with n <= max_n."""
    def entry(z: int) -> CatalogEntry:
        return _catalog_entry(z, 1, True, max_n, min_rate, estimator)

    largest = math.isqrt(max_n) - 1
    least, above = 2, largest + 1
    while least < above:
        mid = (least + above) // 2
        if entry(mid).passes_filter:
            above = mid
        else:
            least = mid + 1
    if least > largest:
        return entry(2)
    return replace(entry(least), n=(largest + 1) ** 2, family_r_range=(least, largest))


def catalog(max_n: int = 100, min_rate: Fraction = Fraction(1, 3),
            estimator: str = "theorem-upper-bound") -> list[CatalogEntry]:
    """Evaluate every known quadrangle parameter pair (and its dual) as a
    candidate (r, a) = (s, t+1) code family.

    An entry passes when its length n = (s+1)(st+1) stays within max_n and
    its rate estimate is strictly above min_rate.  Pairs with s = 1 are
    dropped outright: repairing from a single node is plain replication.
    Entries that fail remain in the output with the reason, so the filter
    is auditable; the grid pairs (z, 1) collapse into one family entry.
    """
    if estimator not in ESTIMATORS:
        raise ParameterError(f"unknown estimator {estimator!r}; choose from {ESTIMATORS}")
    max_n = _as_index(max_n, "max_n")
    if max_n < 0:
        raise ParameterError("max_n must be non-negative")
    try:
        min_rate = Fraction(min_rate)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ParameterError(f"min_rate must be a rational number, got {min_rate!r}") from exc

    # no pair (1, z): those are dropped, and their duals are the grids
    primal = set(known_gq_parameters(max_z=0))
    entries = [_catalog_entry(s, t, (s, t) not in primal, max_n, min_rate, estimator)
               for s, t in sorted(primal | {(t, s) for s, t in primal}) if s >= 2 and t >= 2]
    family = _grid_family(max_n, min_rate, estimator)
    # the family leads; the rest keep the order of the sorted (s, t)
    # pairs, which is (r, a) order
    return [replace(family, r=None, s=None, via_dual=True), *entries]


def surviving_keys(entries: Iterable[CatalogEntry]) -> set:
    """Keys of the entries that pass the filter; the grid family contributes
    the single key '(r,2)'."""
    return {e.key for e in entries if e.passes_filter}
