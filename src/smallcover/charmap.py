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
        """The columns of B_F^-1 Lambda for the facet with mask fm, cached.

        B_F is the n x n matrix of the facet's columns, so entry j is the
        column of K's j-th label in the facet's basis, as the vertex mask
        (a subset of fm) of the facet vertices whose columns sum to it: the
        facet's own vertices read themselves.

        A facet that shares a ridge with a cached facet G = fm - v + u is one
        basis exchange away: with c the entry of v in G, which holds u
        exactly when fm's columns are independent, an entry x of G becomes
        x ^ c | v when it holds u and stays x otherwise.  Only a facet with
        no cached ridge neighbour inverts B_F.  flip_supports reads these
        coordinates only for a flip that neither column test decides, so
        analyze of bier9 solves and inverts one basis, the ring's first
        facet's.
        """
        cache = self._facet_coordinates
        got = cache.get(fm)
        if got is not None:
            return got
        K = self.complex
        _check_facet_size(self, fm)
        if K.is_pure():
            table, facets = K.ridge_table(), K.facet_masks
            bits = fm
            while bits and got is None:
                v = bits & -bits
                bits ^= v
                for idx in table.get(fm ^ v, ()):
                    src = cache.get(facets[idx])
                    if src is not None:
                        u = facets[idx] & ~fm
                        c = src[v.bit_length() - 1]
                        if not c & u:
                            raise InternalConsistencyError(
                                f"pivot column of vertex {K.labels_of(v)} misses "
                                f"{K.labels_of(u)} in the basis of {K.labels_of(facets[idx])}"
                            )
                        got = tuple(x ^ c | v if x & u else x for x in src)
                        break
        if got is None:
            cols = self.matrix.column_bits()
            positions = bit_positions(fm)
            b = BitMatrix.from_column_bits(self.n, [cols[j] for j in positions])
            got = tuple(
                sum(1 << positions[r] for r in bit_positions(x))
                for x in (invert(b) @ self.matrix).column_bits()
            )
        cache[fm] = got
        return got

    @cached_property
    def _facet_coordinates(self) -> dict[int, tuple[int, ...]]:
        return {}


def _check_facet_size(M: CharacteristicMatrix, fm: int) -> None:
    """InternalConsistencyError unless the facet with mask fm has n vertices,
    so that its columns are a basis."""
    if fm.bit_count() != M.n:
        raise InternalConsistencyError(
            f"facet {M.complex.labels_of(fm)} has {fm.bit_count()} vertices, not n = {M.n}"
        )


def first_dependent_facet(K: SimplicialComplex, cols) -> int | None:
    """Index into K.facet_masks of the first facet with dependent columns, or None.

    cols[j] is the column of K's j-th declared label as an int, so bit j of a
    facet mask selects cols[j].  Each facet's columns are reduced into an XOR
    basis: v ^ b < v exactly when v has b's leading bit, and XORing b then
    clears it.  Every basis vector is stored reduced, so it lacks the leading
    bits of the vectors stored before it; one pass in storage order therefore
    clears all leading bits, and v reduces to 0 exactly when it lies in the
    span.  Storing unreduced columns would break this: after 0b01 and 0b11,
    the pass would leave 0b10 nonzero although 0b10 = 0b01 ^ 0b11.  It
    validates every CharacteristicMatrix, the sampler's accepted draws
    included; the sampler's rejection loop runs the same list basis inline
    on the columns of each drawn word.  A list basis, not the shared
    gf2.echelon_insert, which took about 1.35 times as long when this was
    the sampler's loop (0.27 s against 0.20 s, best of five, on 120,000
    draws over the six fuzz-corpus complexes, in-process on a shared 2-core
    Xeon).
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


def flip_supports(M: CharacteristicMatrix):
    """Yield (fm, v, S) for every facet mask fm of K.facet_masks in order
    and every vertex bit v of fm, lowest first.  S is the vertex mask, a
    subset of fm, with lambda(p) = the sum of the columns at S, where p is
    the vertex that replaces v across the ridge fm - v: the entry of p in
    the facet's coordinates.

    Each facet is checked for n vertices, so its columns are a basis and S
    is unique: S = {v} exactly when lambda(p) = lambda(v), and S = fm
    exactly when lambda(p) is the sum of fm's columns.  Only a flip that is
    neither reads the facet's coordinates."""
    K = M.complex
    cols = M.matrix.column_bits()
    for fm in K.facet_masks:
        _check_facet_size(M, fm)
        total = 0
        for j in bit_positions(fm):
            total ^= cols[j]
        bits = fm
        while bits:
            v = bits & -bits
            bits ^= v
            p = K.flip_bit(fm, v).bit_length() - 1
            if cols[p] == cols[v.bit_length() - 1]:
                yield fm, v, v
            elif cols[p] == total:
                yield fm, v, fm
            else:
                yield fm, v, M.facet_coordinates(fm)[p]


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
    all_identity = True
    for fm, v, s in flip_supports(M):
        if s == v:
            continue
        all_identity = False
        if s != fm:
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
