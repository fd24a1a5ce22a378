"""Exact linear algebra over GF(2), plus small finite fields GF(q), q <= 16.

Binary matrices are bit-packed: each row is a Python int whose bit ``j``
(least significant first) holds the entry in column ``j``.  Bit rows are
packed for numpy one way only, into little-endian uint64 words: the
elimination reduces those words 64 rows a block against pivot rows it
keeps fully reduced, eliminates each block's rows against each other as
Python ints and clears the block's new pivot columns from the older
pivot rows by the Method of Four Russians, so that one pass gives the
reduced row echelon form, its pivot columns and the rows independent of
those above them: a code's checks, generator and information set, and
``code.reconstruct``'s message, are read off it.  Every array of bits
is unpacked from the words.  One byte-wise kernel transposes packed
bits, for the matrices here and the simulator's chunks of cases.  A
small field keeps its addition, multiplication, negation and inverse
tables as read-only integer arrays, built in one numpy pass over the
base-p digits of all q elements, which the quadrangle constructors
index directly.  Everything here is immutable after construction and
safe to share.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError, _as_index

__all__ = [
    "SUPPORTED_FIELD_ORDERS",
    "BitMatrix",
    "SmallField",
    "independent_row_indices",
    "nullspace2",
    "rref2",
    "small_field",
]


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2); ``data[r]`` bit ``j`` is the (r, j) entry."""

    rows: int
    cols: int
    data: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.data) != self.rows:
            raise ValueError(f"expected {self.rows} rows, got {len(self.data)}")
        for r, row in enumerate(self.data):
            if row < 0 or row >> self.cols:
                raise ValueError(
                    f"row {r} has bits outside columns 0..{self.cols - 1}"
                )

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]], cols: int | None = None) -> BitMatrix:
        """Build from nested 0/1 entries (lists, tuples, arrays)."""
        packed = []
        width = cols
        for row in rows:
            entries = list(row)
            if width is None:
                width = len(entries)
            elif len(entries) != width:
                raise ValueError("rows have inconsistent lengths")
            raw = _bit_bytes(entries)
            if isinstance(raw, int):
                raise ValueError(f"matrix entry {entries[raw]!r} is not a bit")
            packed.append(raw)
        if width is None:
            raise ValueError("cannot infer column count from an empty row iterable")
        bits = np.frombuffer(b"".join(packed), np.uint8).reshape(len(packed), width)
        return cls(len(packed), width, tuple(_pack(bits)))

    @classmethod
    def from_bitrows(cls, bitrows: Iterable[int], cols: int) -> BitMatrix:
        data = tuple(bitrows)
        return cls(len(data), cols, data)

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.cols, self.rows, tuple(_transpose(self.data, self.cols)))


# ----------------------------------------------------------------------
# the bit-row codec: every conversion between bit rows and arrays,
# supports or columns in the package goes through these.  Bit rows are
# packed one way, as uint64 words (``_words``), and supports are
# scattered straight into the same words (``_support_words``); arrays of
# bits are unpacked from the words (``_bits``) and packed back with ``_pack``.
# Packed bits are transposed by one kernel, ``_bit_transpose``.
# A caller's bits are accepted by one rule: an entry is a bit when it
# equals 0 or 1, of any type (``1.0``, ``Fraction(1)``, ``np.bool_``), or
# when it has ``__index__`` and its index is 0 or 1, and no other entry
# is.  The index clause is the contract ``errors._as_index`` sets for
# coordinates and seeds; it makes a 0-d integer array and an object with
# only ``__index__`` bits, which equality alone refused (as unhashable,
# or unequal to 1).  ``_bit_bytes`` applies the rule in one C pass when
# every entry has an index; ``_first_non_bit`` judges the entries only
# when that pass refuses, and names the first entry that is no bit.

_BITS = frozenset((0, 1))


def _bit_bytes(values: list) -> bytes | int:
    """A list's entries as bytes, 0 or 1 each, when every entry is a bit;
    otherwise the index of the first entry that is not.  The list is
    converted before it is checked: ``bytes`` applies ``operator.index``
    and the range 0..255 to every entry, and one ``translate`` finds any
    byte above 1.  Entries without an index go through ``np.array``."""
    try:
        raw = bytes(values)
    except (TypeError, ValueError):  # an entry without an index, or out of range
        pass
    else:
        if not raw.translate(None, b"\x00\x01"):
            return raw
    bad = _first_non_bit(values)
    if bad is not None:
        return bad
    return np.array(values, dtype=np.uint8).tobytes()


def _first_non_bit(values: Sequence) -> int | None:
    """Index of the first entry that is no bit, or None when every entry
    is one."""
    try:
        if _BITS.issuperset(values):  # every entry equals 0 or 1, in one C loop
            return None
    except TypeError:  # an unhashable entry, which the scan judges
        pass
    for j, v in enumerate(values):
        try:
            if v in _BITS:
                continue
        except TypeError:  # unhashable
            pass
        try:
            if operator.index(v) in _BITS:
                continue
        except TypeError:  # no index
            pass
        return j
    return None


def _words(rows: Sequence[int], cols: int) -> np.ndarray:
    """Bit rows as a len(rows) x ceil(cols/64) array of little-endian
    uint64 words: column c is bit c % 64 of word c // 64.  Each row's
    bytes are copied into one preallocated buffer as they are made, so
    the peak is the result and one row."""
    size = 8 * ((cols + 63) // 64)
    buffer = bytearray(size * len(rows))
    for r, row in enumerate(rows):
        buffer[r * size:(r + 1) * size] = row.to_bytes(size, "little")
    return np.frombuffer(buffer, dtype="<u8").reshape(len(rows), size // 8)


def _support_words(supports: Sequence[Sequence[int]], cols: int) -> np.ndarray:
    """Supports, each a sequence of columns, laid out as ``_words`` lays
    out bit rows, in one scatter of every column's bit into its word."""
    rows = np.repeat(np.arange(len(supports)), [len(s) for s in supports])
    at = np.fromiter(itertools.chain.from_iterable(supports), dtype=np.intp, count=rows.size)
    words = np.zeros((len(supports), (cols + 63) // 64), dtype="<u8")
    np.bitwise_or.at(words, (rows, at >> 6), np.uint64(1) << (at & 63).astype(np.uint64))
    return words


def _ints(words: np.ndarray) -> list[int]:
    """Rows of little-endian words (uint64, or bytes) as bit rows; undoes
    ``_words``."""
    return [int.from_bytes(row.tobytes(), "little") for row in words]


def _bits(words: np.ndarray, cols: int) -> np.ndarray:
    """The first cols columns of rows of little-endian uint64 words as a
    uint8 array, one byte per bit."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=cols, bitorder="little")


def _pack(bits: np.ndarray) -> list[int]:
    """The rows of a 0/1 uint8 array as bit rows."""
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(bits, axis=1, bitorder="little")]


# The delta swaps (shift, mask) that transpose the 8 x 8 bits of a word
# held a row to a byte: each exchanges the off-diagonal quarters of every
# 2 x 2, then 4 x 4, then the 8 x 8 block (Warren, Hacker's Delight,
# section 7-3).
_DELTA_SWAPS = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in (
    (7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))


def _bit_transpose(rows: np.ndarray) -> np.ndarray:
    """The columns of a packed bit matrix as packed rows.

    ``rows`` is a uint8 array whose row r holds bit c at bit c % 8 of
    byte c // 8; the result has one row per column c, 8 per byte of
    ``rows``, with bit r of it at bit r % 8 of byte r // 8, and the bits
    past the last row zero.  Each group of 8 rows' bytes at one byte
    column becomes one word, byte k from row k; three delta swaps
    transpose each word's 8 x 8 bits, after which its byte j is column
    j's byte for those 8 rows, and the bytes are regrouped by column.
    """
    count, width = rows.shape
    if count % 8:
        rows = np.concatenate((rows, np.zeros((-count % 8, width), np.uint8)))
    groups = len(rows) // 8
    # a copy, even where the regrouping alone would be a view: the swaps work in place
    x = rows.reshape(groups, 8, width).transpose(0, 2, 1).copy().view("<u8")
    for shift, mask in _DELTA_SWAPS:
        t = (x ^ (x >> shift)) & mask
        x ^= t ^ (t << shift)
    return x.view(np.uint8).reshape(groups, 8 * width).T.copy()


def _transpose(rows: Sequence[int], cols: int) -> list[int]:
    """The cols columns of bit rows as bit rows: bit r of column c is
    rows[r] at c.  The rows are packed into words once, and their bytes
    transposed by ``_bit_transpose``."""
    return _ints(_bit_transpose(_words(rows, cols).view(np.uint8))[:cols])


# ----------------------------------------------------------------------
# elimination
#
# One kernel, ``_eliminate``, serves every elimination here.  It reads
# the rows top down as packed uint64 words (``_words``), 64 rows a block,
# and keeps its pivot rows fully reduced: each is zero at every other
# pivot column.  A block is first reduced against the pivot rows so far
# in one step: each of its rows XORs in the pivot rows whose pivot
# columns it has set, and since each of those is zero at the other pivot
# columns, the sum creates no fill-in there.  The rows are then
# eliminated against each other as Python ints, in input order; a row
# left nonzero is independent of the rows above it and pivots on its
# lowest set bit.  Last, the block's new pivot columns are cleared from
# the old pivot rows by the Method of Four Russians (Albrecht, Bard and
# Hart, "Algorithm 898", ACM TOMS 37(1), 2010): each group of 8 new rows
# gives a table of their 256 XOR combinations, and an old row XORs in the
# one table row its 8 bits at their pivot columns select.  The pivot rows
# are then the reduced row echelon form, which is unique, with no
# back-substitution, and the kept rows are those the row-by-row scan
# keeps.

_BLOCK = 64   # input rows a block
_GROUP = 8    # new pivot rows a Four-Russians table, of 2**8 rows; their bits are a byte
_GATHER = 1 << 17   # pivot-row words gathered at once to reduce a block


def _eliminate(words: np.ndarray) -> tuple[np.ndarray, list[int], list[int]]:
    """The reduced pivot rows of packed rows, ordered by pivot column,
    their pivot columns, and the indices of the input rows that were
    independent of the rows before them."""
    nrows, width = words.shape
    most = min(nrows, 64 * width)
    reduced = np.empty((most, width), dtype="<u8")
    # the pivot row whose pivot is column c, and every pivot column's bit
    row_of = np.empty(64 * width, dtype=np.intp)
    pivot_bits = np.zeros(width, dtype="<u8")
    pivots: list[int] = []
    keep: list[int] = []
    for start in range(0, nrows, _BLOCK):
        rank = len(pivots)
        block = _reduce_block(words[start:start + _BLOCK], reduced, row_of, pivot_bits)
        kept, new, cols = _eliminate_block(block)
        if not kept:
            continue
        keep += [start + i for i in kept]
        at = np.array(cols, dtype=np.intp)
        new_word = at >> 6
        new_bit = np.uint64(1) << (at & 63).astype(np.uint64)
        if rank:
            _clear_columns(reduced[:rank], new, new_word, new_bit)
        reduced[rank:rank + len(cols)] = new
        row_of[at] = np.arange(rank, rank + len(cols))
        np.bitwise_or.at(pivot_bits, new_word, new_bit)
        pivots += cols
    order = np.argsort(pivots)
    return reduced[order], [pivots[i] for i in order], keep


def _reduce_block(block: np.ndarray, reduced: np.ndarray, row_of: np.ndarray,
                  pivot_bits: np.ndarray) -> np.ndarray:
    """The block's rows, each XORed with the pivot rows whose pivot
    columns it has set; the block itself when it sets none.

    One AND with the pivot columns' bits finds the words that hit, and
    one unpacking of those words the columns; each row's pivot rows are
    gathered in turn and summed by one ``bitwise_xor.reduceat``, a few
    rows at a time when a dense block would gather more than
    ``_GATHER`` words."""
    hit = block & pivot_bits
    at = np.flatnonzero(hit)
    if not at.size:
        return block
    bits = np.flatnonzero(np.unpackbits(hit.ravel()[at].view(np.uint8), bitorder="little"))
    word = at[bits >> 6]
    width = block.shape[1]
    rows = word // width
    sources = row_of[(word - rows * width) * 64 + (bits & 63)]
    firsts = np.flatnonzero(np.diff(rows, prepend=-1))
    ends = np.append(firsts, rows.size)
    block = block.copy()
    pieces = min(firsts.size, -(-rows.size * width // _GATHER))
    for part in np.array_split(np.arange(firsts.size), pieces):
        lo, hi = ends[part[0]], ends[part[-1] + 1]
        block[rows[firsts[part]]] ^= np.bitwise_xor.reduceat(
            reduced[sources[lo:hi]], firsts[part] - lo)
    return block


def _eliminate_block(block: np.ndarray) -> tuple[list[int], np.ndarray, list[int]]:
    """The positions of the block's rows independent of those before
    them, their span's reduced rows as packed words, ordered by pivot
    column, and those pivot columns.

    The rows are Python ints.  Each is reduced against the rows kept so
    far, found by its bits at their pivot columns, lowest first (a row
    XORed in sets no lower bit); then each kept row, highest pivot first,
    XORs in the reduced rows at the higher pivot columns it has set."""
    size = 8 * block.shape[1]
    raw = block.tobytes()
    found: dict[int, int] = {}   # pivot column + 1 -> row
    mask = 0                     # the pivot columns' bits
    kept = []
    for i in range(len(block)):
        x = int.from_bytes(raw[i * size:(i + 1) * size], "little")
        hits = x & mask
        while hits:
            x ^= found[(hits & -hits).bit_length()]
            hits = x & mask
        if x:
            low = x & -x
            found[low.bit_length()] = x
            mask |= low
            kept.append(i)
    tops = sorted(found)
    for top in reversed(tops):
        x = found[top]
        hits = x & mask
        hits &= hits - 1   # all but its own pivot
        while hits:
            low = hits & -hits
            x ^= found[low.bit_length()]
            hits ^= low
        found[top] = x
    new = np.frombuffer(b"".join(found[top].to_bytes(size, "little") for top in tops),
                        dtype="<u8").reshape(len(tops), block.shape[1])
    return kept, new, [top - 1 for top in tops]


def _clear_columns(old: np.ndarray, new: np.ndarray, new_word: np.ndarray,
                   new_bit: np.ndarray) -> None:
    """Clear the new pivot columns from the old pivot rows, in place.

    The new rows, ordered by pivot column, are zero at the old pivot
    columns and at each other's.  Each group of 8 gives a table of their
    XOR combinations, from the word of the group's least pivot onward,
    before which they are all zero; an old row set at any of the group's
    pivot columns XORs in the table row those 8 bits select."""
    # each old row's bits at the new pivot columns, a byte per group: the
    # columns are padded to whole groups with bits that are never set
    groups = -(-len(new) // _GROUP)
    at_word = np.zeros(groups * _GROUP, dtype=np.intp)
    at_bit = np.zeros(groups * _GROUP, dtype=np.uint64)
    at_word[:len(new)], at_bit[:len(new)] = new_word, new_bit
    hit = old[:, at_word]
    np.bitwise_and(hit, at_bit, out=hit)
    index = np.packbits((hit != 0).ravel(), bitorder="little").reshape(len(old), groups)
    width = old.shape[1]
    for g in range(groups):
        pick = index[:, g]
        rows = np.flatnonzero(pick)
        if not rows.size:
            continue
        w = int(new_word[g * _GROUP])
        group = new[g * _GROUP:(g + 1) * _GROUP, w:]
        table = np.empty((1 << len(group), width - w), dtype="<u8")
        table[0] = 0
        for k, row in enumerate(group):
            np.bitwise_xor(table[:1 << k], row, out=table[1 << k:2 << k])
        old[rows, w:] ^= table[pick[rows]]


def _nullspace(reduced: np.ndarray, pivots: Sequence[int], cols: int
               ) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The free columns of ``_eliminate``'s reduced rows and a null-space
    basis systematic on them.

    Basis row j is free column j plus, at each pivot column, the reduced
    row's entry in free column j.  So a pivot column is its reduced row
    cut down to the free columns, and the basis rows are those cuts
    transposed.  Three bit transposes (``_bit_transpose``) do it on
    packed bytes: the reduced rows' columns, of which the free ones,
    transposed back, are the cuts; the cuts and the free columns' own
    bits, scattered into one byte row per column, transposed once more
    are the basis rows.
    """
    pivot_set = set(pivots)
    free = tuple(c for c in range(cols) if c not in pivot_set)
    take, j = np.array(free, dtype=np.intp), np.arange(len(free))
    cuts = _bit_transpose(_bit_transpose(reduced.view(np.uint8))[take])
    by_col = np.zeros((cols, (len(free) + 7) // 8), dtype=np.uint8)
    by_col[list(pivots)] = cuts[:len(pivots)]
    by_col[take, j >> 3] = (1 << (j & 7)).astype(np.uint8)
    return free, tuple(_ints(_bit_transpose(by_col)[:len(free)]))


def independent_row_indices(m: BitMatrix) -> tuple[int, ...]:
    """Indices of the greedy maximal independent row set, scanning top down.

    Deterministic: a row is kept exactly when it is independent of all
    kept rows above it, so the result is the first spanning subset in
    row order.
    """
    return tuple(_eliminate(_words(m.data, m.cols))[2])


def rref2(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot columns.

    The nonzero rows come first in pivot column order, then the zero
    rows, so the shape is that of the input.
    """
    reduced, pivots, _ = _eliminate(_words(m.data, m.cols))
    data = _ints(reduced) + [0] * (m.rows - len(pivots))
    return BitMatrix(m.rows, m.cols, tuple(data)), tuple(pivots)


def nullspace2(m: BitMatrix) -> BitMatrix:
    """Basis of the right null space {v : M v^T = 0}, one row per basis vector.

    Row j of the result has a 1 in the j-th non-pivot (free) column of
    rref2(m) and 0 in every other free column, so the basis is systematic
    on the free columns and ordered by free column index.
    """
    reduced, pivots, _ = _eliminate(_words(m.data, m.cols))
    basis = _nullspace(reduced, pivots, m.cols)[1]
    return BitMatrix(len(basis), m.cols, basis)


# ----------------------------------------------------------------------
# small finite fields

# GF(q) = GF(p)[x] / (x^m - c0 - c1 x - ... - c(m-1) x^(m-1)), given as
# q: (p, m, (c0, ..., c(m-1))), from the usual primitive polynomials:
# GF(4) x^2+x+1, GF(8) x^3+x+1, GF(9) x^2+2x+2, GF(16) x^4+x+1.  A prime
# field is GF(p)[x] / (x), so its rule is x = 0.
_FIELDS = {
    2: (2, 1, (0,)), 3: (3, 1, (0,)), 4: (2, 2, (1, 1)), 5: (5, 1, (0,)),
    7: (7, 1, (0,)), 8: (2, 3, (1, 1, 0)), 9: (3, 2, (1, 1)),
    11: (11, 1, (0,)), 13: (13, 1, (0,)), 16: (2, 4, (1, 1, 0, 0)),
}

SUPPORTED_FIELD_ORDERS = tuple(sorted(_FIELDS))


class SmallField:
    """Arithmetic tables for GF(q), q <= 16, with elements encoded 0..q-1.

    An element is the integer whose base-p digits are its coefficients
    over the polynomial basis 1, x, ..., x^(m-1), so 0 encodes the zero
    element and 1 the multiplicative identity for every supported order.
    The tables ``_add``, ``_mul`` (q x q), ``_neg`` and ``_inv`` (q) are
    read-only integer arrays, built in one pass over the digits of all q
    elements: a sum adds digits mod p, and a product a b accumulates
    a_j (x^j b) over j, where x^(j+1) b shifts the digits of x^j b up one
    place and folds its x^m coefficient back through the reduction rule.
    ``_inv[0]`` is 0.
    """

    def __init__(self, q: int):
        q = _as_index(q, "q")
        if q not in _FIELDS:
            raise ParameterError(
                f"unsupported field order {q}; supported orders: {SUPPORTED_FIELD_ORDERS}"
            )
        p, m, reduction = _FIELDS[q]
        self.q, self.p, self.m = q, p, m
        powers = p ** np.arange(m)
        digits = np.arange(q)[:, None] // powers % p   # row e: the digits of e
        # times x: digit i moves up to i + 1, and x^m folds back as the rule
        times_x = np.eye(m, k=1, dtype=np.intp)
        times_x[-1] = reduction
        product = np.zeros((q, q, m), dtype=np.intp)
        shifted = digits                                # row b: the digits of x^j b
        for j in range(m):
            product += digits[:, None, j, None] * shifted
            shifted = shifted @ times_x % p
        self._add = (digits[:, None] + digits) % p @ powers
        self._mul = product % p @ powers
        self._neg = -digits % p @ powers
        self._inv = np.argmax(self._mul == 1, axis=1)
        for table in (self._add, self._mul, self._neg, self._inv):
            table.flags.writeable = False

    def _check(self, x: int) -> int:
        x = _as_index(x, "element")
        if not 0 <= x < self.q:
            raise ParameterError(f"element {x!r} outside 0..{self.q - 1}")
        return x

    def add(self, x: int, y: int) -> int:
        return int(self._add[self._check(x), self._check(y)])

    def neg(self, x: int) -> int:
        return int(self._neg[self._check(x)])

    def sub(self, x: int, y: int) -> int:
        return int(self._add[self._check(x), self._neg[self._check(y)]])

    def mul(self, x: int, y: int) -> int:
        return int(self._mul[self._check(x), self._check(y)])

    def inv(self, x: int) -> int:
        x = self._check(x)
        if x == 0:
            raise ZeroDivisionError("zero has no inverse")
        return int(self._inv[x])

    def elements(self) -> range:
        return range(self.q)

    def __repr__(self) -> str:
        return f"SmallField(q={self.q})"


@lru_cache(maxsize=None, typed=True)
def small_field(q: int) -> SmallField:
    """Cached field instance for a supported order q; typed, so 4.0 is refused, not read as 4."""
    return SmallField(q)
