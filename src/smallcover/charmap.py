"""Characteristic matrices and their pullback classification.

A characteristic matrix assigns a GF(2) column vector to every vertex of a
pure complex so that the columns on each facet are linearly independent.
Classification decides whether the assignment factors, up to a left GL(n,2)
action, through the canonical column patterns of the linear model (image a
basis) or of the boundary-of-simplex model (image inside a basis plus its
total sum).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .errors import InputError, InternalConsistencyError
from .gf2 import (
    BitMatrix,
    bit_positions,
    echelon_insert,
    find_basis_change,
    invert,
    rank,
    row_space,
)
from .simplicial import SimplicialComplex


class CharMapError(InputError):
    """A column count that differs from the label count, or dependent
    columns on a facet."""


class PullbackLabel(enum.Enum):
    LINEAR_MODEL = "linear-model"
    SIMPLEX_PROPER = "simplex-proper"
    NOT_SIMPLEX = "not-simplex"


@dataclass(frozen=True)
class CharacteristicMatrix:
    """Validated n x m characteristic matrix over its companion complex.

    Column j corresponds to the complex's j-th declared vertex label.
    """

    complex: SimplicialComplex
    matrix: BitMatrix

    def __post_init__(self) -> None:
        K = self.complex
        if self.matrix.cols != K.vertex_count:
            raise CharMapError(
                f"{self.matrix.cols} columns for {K.vertex_count} vertex labels"
            )
        bad = first_dependent_facet(K, self.matrix.column_bits())
        if bad is not None:
            raise CharMapError(f"columns on facet {K.facets[bad]} are linearly dependent")

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def m(self) -> int:
        return self.matrix.cols

    def facet_coordinates(self, fm: int) -> tuple[int, ...]:
        """The rows of B_F^-1 Lambda for the facet with mask fm, cached.

        B_F is the n x n matrix of the facet's columns in declared label
        order, so row r holds the coordinate on the facet's r-th vertex of
        every column, as a mask over K's labels: the facet's own columns
        read e_1, ..., e_n.  __post_init__ has proved the facet's columns
        independent, so B_F is invertible when the facet has n vertices.
        """
        cache = self._facet_coordinates
        got = cache.get(fm)
        if got is None:
            if fm.bit_count() != self.n:
                raise InternalConsistencyError(
                    f"facet {self.complex.labels_of(fm)} has "
                    f"{fm.bit_count()} vertices, not n = {self.n}"
                )
            cols = self.matrix.column_bits()
            b = BitMatrix.from_column_bits(
                self.n, [cols[j] for j in range(fm.bit_length()) if fm >> j & 1]
            )
            got = cache[fm] = (invert(b) @ self.matrix).row_bits
        return got

    @cached_property
    def _facet_coordinates(self) -> dict[int, tuple[int, ...]]:
        return {}


def first_dependent_facet(K: SimplicialComplex, cols) -> int | None:
    """Index into K.facet_masks of the first facet with dependent columns, or None.

    cols[j] is the column of K's j-th declared label as an int, so bit j of a
    facet mask selects cols[j].  Each facet's columns are reduced into an XOR
    basis: v ^ b < v exactly when v has b's leading bit, and XORing b then
    clears it.  Every basis vector is stored reduced, so it lacks the leading
    bits of the vectors stored before it; one pass in storage order therefore
    clears all leading bits, and v reduces to 0 exactly when it lies in the
    span.  Storing unreduced columns would break this: after 0b01 and 0b11,
    the pass would leave 0b10 nonzero although 0b10 = 0b01 ^ 0b11.  This
    hot loop of rejection sampling keeps its own list basis: the shared
    gf2.echelon_insert took about 1.35 times as long here (0.27 s against
    0.20 s, best of five, on 120,000 draws over the six fuzz-corpus
    complexes, in-process on a shared 2-core Xeon).
    """
    for idx, fm in enumerate(K.facet_masks):
        basis: list[int] = []
        while fm:
            low = fm & -fm
            fm ^= low
            v = cols[low.bit_length() - 1]
            for b in basis:
                if v ^ b < v:
                    v ^= b
            if not v:
                return idx
            basis.append(v)
    return None


@dataclass(frozen=True)
class PullbackClass:
    """Classification of a characteristic matrix with an optional witness.

    The witness is a coloring c mapping vertex labels to 1..n+1 such that
    some basis change G takes every column to the standard vector e_i
    (color i) or to the all-ones sum (color n+1).
    """

    label: PullbackLabel
    is_simplex_pullback: bool
    coloring: dict[int, int] | None = None

    def __post_init__(self) -> None:
        if self.label is PullbackLabel.LINEAR_MODEL and not self.is_simplex_pullback:
            raise InternalConsistencyError("linear model must be a simplex pullback")
        if self.is_simplex_pullback != (self.coloring is not None):
            raise InternalConsistencyError("witness must be present exactly for simplex pullbacks")


def _distinct_columns(M: CharacteristicMatrix) -> list[int]:
    return sorted(set(M.matrix.column_bits()))


def _pullback_witness(M: CharacteristicMatrix) -> dict[int, int]:
    """The coloring of a matrix whose image fits the simplex model, read
    off the images of its columns under the basis change G that sends the
    first basis of distinct columns to e_1, ..., e_n."""
    n = M.n
    distinct = _distinct_columns(M)
    echelon: dict[int, int] = {}
    basis = [v for v in distinct if echelon_insert(echelon, v)]
    if len(basis) != n:
        raise InternalConsistencyError("columns do not span the full space")
    g = find_basis_change(basis, n)
    all_ones = (1 << n) - 1
    coloring: dict[int, int] = {}
    for label, image in zip(M.complex.labels, (g @ M.matrix).column_bits()):
        if image.bit_count() == 1:
            coloring[label] = image.bit_length()
        elif image == all_ones:
            coloring[label] = n + 1
        else:
            raise InternalConsistencyError(
                "witness construction failed: column image is neither a standard "
                "vector nor the all-ones sum"
            )
    return coloring


def classify_pullback(M: CharacteristicMatrix) -> PullbackClass:
    """Classification via the image condition on distinct columns."""
    n = M.n
    distinct = _distinct_columns(M)
    d_matrix = BitMatrix(len(distinct), n, tuple(distinct))
    if rank(d_matrix) != n:
        raise InternalConsistencyError("no facet provides a basis: distinct columns have low rank")
    if len(distinct) == n:
        return PullbackClass(PullbackLabel.LINEAR_MODEL, True, _pullback_witness(M))
    total = 0
    for v in distinct:
        total ^= v
    if len(distinct) == n + 1 and total == 0:
        return PullbackClass(PullbackLabel.SIMPLEX_PROPER, True, _pullback_witness(M))
    return PullbackClass(PullbackLabel.NOT_SIMPLEX, False)


def _facet_flip_supports(M: CharacteristicMatrix, fm: int) -> list[frozenset[int]]:
    """Flip supports at positions 1..n of the facet with mask fm: the set
    bits of the flip vertex's column in the facet's coordinates."""
    K = M.complex
    rows = M.facet_coordinates(fm)
    supports = []
    bits = fm
    while bits:
        low = bits & -bits
        bits ^= low
        p = K.flip_bit(fm, low).bit_length() - 1
        supports.append(frozenset(r + 1 for r, row in enumerate(rows) if row >> p & 1))
    return supports


def flip_supports(M: CharacteristicMatrix):
    """Yield (facet, i, S) for every facet of K.facets in order and every
    position i = 1..n.  S is the subset of positions 1..n with lambda(p) =
    the sum of the facet's columns at the positions in S, where p is the
    vertex that replaces the facet's i-th vertex (in declared label order)
    across the ridge left when that vertex is dropped."""
    K = M.complex
    for facet, fm in zip(K.facets, K.facet_masks):
        for i, s in enumerate(_facet_flip_supports(M, fm), start=1):
            yield facet, i, s


def classify_via_flips(M: CharacteristicMatrix) -> PullbackClass:
    """Classification via ridge-flip supports; independent of classify_pullback.

    Requires a strongly connected closed pseudomanifold, which is what makes
    the local flip condition equivalent to the global image condition.
    """
    K = M.complex
    if not K.is_closed_pseudomanifold():
        raise InternalConsistencyError("flip classification requires a closed pseudomanifold")
    if not K.is_strongly_connected():
        raise InternalConsistencyError("flip classification requires a strongly connected complex")
    full = frozenset(range(1, M.n + 1))
    all_identity = True
    for _, i, s in flip_supports(M):
        if s == frozenset({i}):
            continue
        all_identity = False
        if s != full:
            return PullbackClass(PullbackLabel.NOT_SIMPLEX, False)
    label = PullbackLabel.LINEAR_MODEL if all_identity else PullbackLabel.SIMPLEX_PROPER
    return PullbackClass(label, True, _pullback_witness(M))


def omega_descriptors(
    M: CharacteristicMatrix, coloring: dict[int, int] | None = None
) -> list[int]:
    """The supports of all 2^n row-space elements, as vertex masks over
    K's labels, in ascending coefficient order (see gf2.row_space).

    Without a coloring, coefficients are over the raw matrix rows.  With a
    coloring, they are over the rows of the canonical matrix the coloring
    describes (column j is the standard vector of color j, or the all-ones
    sum); that matrix spans the same row space, and for every element the
    support is asserted to be c^{-1}(chi), where chi is the set of nonzero
    coefficient positions in 1..n, with n+1 adjoined when it is odd.
    """
    n = M.n
    if rank(M.matrix) != n:
        raise InternalConsistencyError("matrix rows are dependent; descriptors need full rank")
    if coloring is None:
        return row_space(M.matrix)
    K = M.complex
    # color_masks[c] is the vertex mask of c^{-1}(c), for c = 1..n+1
    color_masks = [0] * (n + 2)
    for j, v in enumerate(K.labels):
        color_masks[coloring[v]] |= 1 << j
    rows = tuple(color_masks[i] | color_masks[n + 1] for i in range(1, n + 1))
    stacked = BitMatrix(2 * n, M.m, M.matrix.row_bits + rows)
    if rank(stacked) != n:
        raise InternalConsistencyError(
            "coloring describes a different row space than the matrix"
        )
    supports = row_space(BitMatrix(n, M.m, rows))
    for k, support in enumerate(supports):
        expected = color_masks[n + 1] if k.bit_count() % 2 else 0
        for i in bit_positions(k):
            expected |= color_masks[i + 1]
        if expected != support:
            coeffs = "".join(str(k >> i & 1) for i in range(n))
            raise InternalConsistencyError(
                f"coloring inconsistent with row space at coefficients {coeffs}: "
                f"support {sorted(K.labels_of(support))} != preimage "
                f"{sorted(K.labels_of(expected))}"
            )
    return supports


def lambda_boundary_simplex(n: int) -> CharacteristicMatrix:
    """The canonical matrix over the boundary of the n-simplex: columns
    e_1, ..., e_n and e_1 + ... + e_n."""
    from .simplicial import boundary_of_simplex

    cols = [1 << i for i in range(n)] + [(1 << n) - 1]
    return CharacteristicMatrix(boundary_of_simplex(n), BitMatrix.from_column_bits(n, cols))


def block_product(M1: CharacteristicMatrix, M2: CharacteristicMatrix) -> CharacteristicMatrix:
    """Block-diagonal matrix over the join of the companion complexes."""
    joined = M1.complex.join(M2.complex)
    cols = M1.matrix.column_bits() + [c << M1.n for c in M2.matrix.column_bits()]
    return CharacteristicMatrix(joined, BitMatrix.from_column_bits(M1.n + M2.n, cols))
