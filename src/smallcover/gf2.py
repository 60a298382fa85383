"""Exact linear algebra over the two-element field.

A vector is a Python int: coordinate i is bit i, so low index = low bit
and reading a vector as a binary integer gives the canonical ordering used
everywhere downstream.  A matrix is a BitMatrix, one such int per row; its
columns are ints too (column_bits, from_column_bits).  All values are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, InternalConsistencyError


# The most rows row_space enumerates: the result has up to 2^rows elements,
# and analyze computes one full-subcomplex cohomology for each.  On a 2-core
# Xeon, `analyze --conditions 2` of a single n-vertex facet took 0.6 s and
# 54 MB at n = 14, 2.8 s and 176 MB at n = 16, and 12.9 s and 666 MB at
# n = 18: memory grows about fourfold per two rows.  The catalog's largest n
# is 8.
ROW_SPACE_GUARD = 16


@dataclass(frozen=True)
class BitMatrix:
    """Dense matrix over GF(2), stored as one bit-packed integer per row."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InternalConsistencyError("negative dimension")
        if len(self.row_bits) != self.rows:
            raise InternalConsistencyError(f"expected {self.rows} rows, got {len(self.row_bits)}")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise InternalConsistencyError(f"row 0b{r:b} out of range for {self.cols} columns")

    @classmethod
    def from_lists(cls, entries: Sequence[Sequence[int]]) -> "BitMatrix":
        """The matrix with these 0/1 rows; entry j of a row is bit j."""
        if not entries:
            return cls(0, 0, ())
        cols = len(entries[0])
        rows = []
        for row in entries:
            if len(row) != cols:
                raise InternalConsistencyError("rows have unequal lengths")
            bits = 0
            for j, c in enumerate(row):
                if c not in (0, 1):
                    raise InternalConsistencyError(f"coordinate {c!r} is not 0 or 1")
                bits |= c << j
            rows.append(bits)
        return cls(len(rows), cols, tuple(rows))

    @classmethod
    def from_column_bits(cls, rows: int, columns: Sequence[int]) -> "BitMatrix":
        """The rows x len(columns) matrix whose column j is the int columns[j]."""
        for c in columns:
            if c < 0 or c >> rows:
                raise InternalConsistencyError(f"column 0b{c:b} out of range for {rows} rows")
        return cls(rows, len(columns), tuple(_transpose_bits(columns, rows)))

    def column_bits(self) -> list[int]:
        """Every column as a bit-packed int (bit i is row i), in one pass."""
        return _transpose_bits(self.row_bits, self.cols)

    def __matmul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.cols != other.rows:
            raise InternalConsistencyError(f"inner dimensions {self.cols} != {other.rows}")
        out = []
        for r in self.row_bits:
            acc = 0
            k = 0
            rr = r
            while rr:
                if rr & 1:
                    acc ^= other.row_bits[k]
                rr >>= 1
                k += 1
            out.append(acc)
        return BitMatrix(self.rows, other.cols, tuple(out))


def _transpose_bits(vectors: Sequence[int], length: int) -> list[int]:
    """The `length` ints t with bit k of t[i] equal to bit i of vectors[k].

    Walks only the set bits of each vector.
    """
    out = [0] * length
    for k, v in enumerate(vectors):
        bit = 1 << k
        while v:
            low = v & -v
            out[low.bit_length() - 1] |= bit
            v ^= low
    return out


def bit_positions(bits: int) -> list[int]:
    """Indices of the set bits of a nonnegative int, lowest first."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def echelon_insert(rows: dict[int, int], v: int) -> bool:
    """Insert v into an echelon basis keyed by each row's lowest set bit.

    Walks up v's lowest set bit: the row keyed there clears it and changes
    only higher bits.  v is stored at the first lowest bit with no row, and
    no row is back-substituted (see reduce_echelon), so the cost follows the
    bits of v, not the number of rows.  True if the rank grew.
    """
    while v:
        p = (v & -v).bit_length() - 1
        row = rows.get(p)
        if row is None:
            rows[p] = v
            return True
        v ^= row
    return False


def reduce_echelon(rows: dict[int, int]) -> None:
    """Back-substitute an echelon basis in place, highest pivot first.

    Every row then is zero at every other pivot: the reduced echelon form,
    which is unique for the span.  Keys and their order do not change.
    """
    above = 0
    for p in sorted(rows, reverse=True):
        row = rows[p]
        # rows above p are already reduced, so each XOR clears one pivot bit
        for q in bit_positions(row & above):
            row ^= rows[q]
        rows[p] = row
        above |= 1 << p


def rank(a: BitMatrix) -> int:
    """Row rank over GF(2): the inserts that grow an echelon basis."""
    rows: dict[int, int] = {}
    return sum(echelon_insert(rows, v) for v in a.row_bits)


def row_space(a: BitMatrix) -> list[int]:
    """All elements of the row space, as bit-packed ints over the columns.

    Element k is the XOR of the basis rows at the set bits of k, where the
    basis is the lexicographically first maximal independent subset of the
    rows; the result always starts with the zero vector.
    """
    if a.rows > ROW_SPACE_GUARD:
        raise InputError(f"row count {a.rows} exceeds enumeration guard {ROW_SPACE_GUARD}")
    echelon: dict[int, int] = {}
    out = [0]
    for v in a.row_bits:
        if echelon_insert(echelon, v):
            out += [x ^ v for x in out]
    return out


def invert(a: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises InternalConsistencyError if singular."""
    if a.rows != a.cols:
        raise InternalConsistencyError(f"matrix {a.rows}x{a.cols} is not square")
    n = a.rows
    work = list(a.row_bits)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            raise InternalConsistencyError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for r in range(n):
            if r != col and (work[r] >> col) & 1:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return BitMatrix(n, n, tuple(inv))


def find_basis_change(vectors: Sequence[int], n: int) -> BitMatrix:
    """Invertible G with G @ vectors[i] = e_{i+1} for n independent vectors."""
    if len(vectors) != n:
        raise InternalConsistencyError(f"expected {n} vectors, got {len(vectors)}")
    columns = BitMatrix.from_column_bits(n, vectors)
    try:
        return invert(columns)
    except InternalConsistencyError:
        raise InternalConsistencyError("vectors are linearly dependent") from None
