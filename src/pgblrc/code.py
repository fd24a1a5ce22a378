"""Binary linear codes whose parity checks are the lines of a partial geometry.

Each geometry point carries one code symbol and each line demands that its
points XOR to zero.  The parity-check matrix keeps a maximal independent
subset of incidence rows, and the generator is systematic on the non-pivot
columns, so messages appear verbatim at those coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from . import algebra
from .algebra import BitMatrix
from .errors import DegenerateCodeError, NotInformationSetError, ParameterError, _as_index
from .geometry import IncidenceStructure, PgParams, validate_pg

__all__ = [
    "BlrcCode",
    "build_code",
    "encode",
    "export_code",
    "rate",
    "reconstruct",
]

@dataclass(frozen=True)
class BlrcCode:
    """A binary code with locality inherited from a partial geometry, built
    from five parts; n, k and ``gen_cols`` are read off the generator.
    Parts that disagree on n, or an information set outside range(n), are
    refused with ``ParameterError``.

    parity_check: (n-k) x n full-rank matrix of independent line checks
    generator:    k x n matrix, identity on the info_set columns
    info_set:     coordinates that carry the message symbols verbatim
    geometry:     the partial geometry whose lines are the checks
    pg:           its parameters (s, t, alpha, ...)
    """

    parity_check: BitMatrix
    generator: BitMatrix
    info_set: tuple[int, ...]
    geometry: IncidenceStructure
    pg: PgParams

    def __post_init__(self) -> None:
        n = self.generator.cols
        if not self.geometry.num_points == self.parity_check.cols == n:
            raise ParameterError(
                f"the parts disagree on n: {self.geometry.num_points} points, "
                f"{self.parity_check.cols} parity-check columns, {n} generator columns"
            )
        if not all(0 <= i < n for i in self.info_set):
            raise ParameterError(f"info_set {self.info_set} lies outside range({n})")

    @property
    def n(self) -> int:
        """Length: the generator's column count."""
        return self.generator.cols

    @property
    def k(self) -> int:
        """Dimension: the generator's row count."""
        return self.generator.rows

    @cached_property
    def gen_cols(self) -> tuple[int, ...]:
        """Generator columns as k-bit masks (bit j = row j), transposed on
        first use by the census, ``reconstruct`` or a check of given
        repair vectors."""
        return self.generator.transpose().data

    @cached_property
    def _gen_words(self) -> np.ndarray:
        """The generator packed as a read-only ceil(n/64) x k array of
        uint64 words, column j holding row j, so that the rows a message
        selects are one ``compress`` along a contiguous axis; built on
        first use by ``encode``, 64 rows at a time, so the row-major
        packing is never held whole."""
        rows, n = self.generator.data, self.n
        words = np.empty(((n + 63) // 64, len(rows)), dtype=np.uint64)
        for lo in range(0, len(rows), 64):
            words[:, lo:lo + 64] = algebra._words(rows[lo:lo + 64], n).T
        words.flags.writeable = False
        return words

    @cached_property
    def _line_table(self) -> tuple:
        """``repair._line_table(self)``, built once per code."""
        from .repair import _line_table
        return _line_table(self)

    @cached_property
    def _line_arrays(self) -> tuple:
        """``repair._line_arrays(self)``, built once per code, by the
        simulator only."""
        from .repair import _line_arrays
        return _line_arrays(self)


def _forced_zero_symbol(reduced: np.ndarray, pivots: Sequence[int]) -> int | None:
    """Column index pinned to zero by a weight-1 parity check, if any: in
    reduced form, a packed row (``algebra._eliminate``'s) of popcount 1."""
    ones = np.flatnonzero(np.bitwise_count(reduced).sum(axis=1) == 1)
    return pivots[ones[0]] if ones.size else None


def build_code(inc: IncidenceStructure) -> BlrcCode:
    """Assemble the systematic code a partial geometry defines.

    The geometry is certified by ``validate_pg``, which computes its
    result once per structure, so a caller that validated ``inc`` first
    does not pay for a second pass.  One elimination of the lines, packed
    from their points, gives everything: the independent line checks that
    form the parity-check matrix, the reduced form whose non-pivot columns
    are the information set, and the generator read off the reduced rows.
    """
    pg = validate_pg(inc)
    n = inc.num_points
    lines = inc._line_words
    reduced, pivots, independent = algebra._eliminate(lines)
    k = n - len(pivots)
    if k == 0:
        raise DegenerateCodeError("degenerate code (full-rank incidence)")
    # cannot fire when s is odd: sums of lines of s + 1 points have even weight
    forced = _forced_zero_symbol(reduced, pivots)
    if forced is not None:
        raise DegenerateCodeError(
            f"all-zero row in the redundancy part of the parity checks: "
            f"symbol {forced} is forced to zero in every codeword"
        )
    info_set, basis = algebra._nullspace(reduced, pivots, n)
    return BlrcCode(
        parity_check=BitMatrix.from_bitrows(algebra._ints(lines[independent]), n),
        generator=BitMatrix(k, n, basis),
        info_set=info_set,
        geometry=inc,
        pg=pg,
    )


def _check_coord(code: BlrcCode, i: int) -> None:
    if not 0 <= _as_index(i, "coordinate") < code.n:
        raise ParameterError(f"coordinate {i} out of range for length {code.n}")


def _as_bits(values: Sequence[int], expected: int, what: str) -> np.ndarray:
    """The values as a uint8 array; there must be ``expected`` of them and
    every entry must be a bit by the rule of ``algebra._bit_bytes``.  A
    list is read as it is; any other sequence is copied to one first (an
    int64 array handed to ``bytes`` would give 8 bytes per entry)."""
    vals = values if type(values) is list else list(values)
    if len(vals) != expected:
        raise ValueError(f"{what} must have length {expected}, got {len(vals)}")
    bits = algebra._bit_bytes(vals)
    if isinstance(bits, int):
        raise ValueError(f"{what} entries must be bits, got {vals[bits]!r}")
    return np.frombuffer(bits, np.uint8)


def encode(code: BlrcCode, message: Sequence[int]) -> np.ndarray:
    """Codeword for a k-bit message; message bits reappear on info_set.

    The codeword is the XOR of the generator rows the message selects,
    taken as 64-bit words: one ``compress`` gathers the selected columns
    of the packed generator and one reduction XORs them.
    """
    selected = code._gen_words.compress(_as_bits(message, code.k, "message"), axis=1)
    return algebra._bits(np.bitwise_xor.reduce(selected, axis=1)[None], code.n)[0]


def reconstruct(code: BlrcCode, coords, values: Sequence[int]) -> np.ndarray:
    """Recover the message from symbol values at k coordinates.

    ``values[j]`` is the symbol at ``coords[j]``; passing a set sorts the
    coordinates ascending.  Raises NotInformationSetError when the chosen
    coordinates do not determine the message.
    """
    coords = sorted(coords) if isinstance(coords, (set, frozenset)) else list(coords)
    if len(coords) != code.k:
        raise ValueError(f"need exactly k={code.k} coordinates, got {len(coords)}")
    for c in coords:
        _check_coord(code, c)
    if len(set(coords)) != len(coords):
        raise ValueError("coordinates must be distinct")
    k = code.k
    bits = _as_bits(values, k, "values").tolist()
    # the generator columns at coords, each with its value as bit k
    system = [code.gen_cols[c] | b << k for c, b in zip(coords, bits)]
    reduced, pivots, _ = algebra._eliminate(algebra._words(system, k + 1))
    if len(pivots) < k or (pivots and pivots[-1] == k):
        raise NotInformationSetError("not an information set")
    # pivot i is column i, so row i ends in message bit i
    return ((reduced[:, k // 64] >> (k % 64)) & 1).astype(np.uint8)


def rate(code: BlrcCode) -> Fraction:
    """Exact rate k/n."""
    return Fraction(code.k, code.n)


def export_code(code: BlrcCode) -> dict:
    """JSON-ready description with hex-packed matrix rows.

    Each row is the hexadecimal rendering of its bit-packed form, zero
    padded to ceil(n/4) digits; column 0 is the least significant bit.
    Field order is fixed for deterministic serialization.
    """
    width = max(1, (code.n + 3) // 4)
    return {
        "schema_version": 1,
        "n": code.n,
        "k": code.k,
        "info_set": list(code.info_set),
        "H": [f"{row:0{width}x}" for row in code.parity_check.data],
        "G": [f"{row:0{width}x}" for row in code.generator.data],
    }
