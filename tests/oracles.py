"""Test support.  Ring identities of the paper used as oracles, as
functions of a GradedRingBasis: the total Steenrod square, the colour-class
sum tau, the square identity, and the total Stiefel-Whitney class of a
pullback.  The shelling lemmas: critical generators and the two-degree
concentration.  The prefix-scan shelling search that the incremental search
must match.  Also a closed 3-manifold that is not a sphere.

Linear algebra and homology oracles: Smith normal form of a dense matrix
through the package's sparse kernel, dense coboundary matrices, mod-2
cohomology by GF(2) elimination (independent of the integer path), both
reduced Euler characteristics, the enumeration of GL(n, 2) and a
matrix-vector product by row parities.  The pairwise maximality filter that
SimplicialComplex's star-mask filter must match.  Combinatorial lookups the
commands never make: the ridge flip of a facet position, its flip support,
a label's column, orientability for n = 3 and building every ring degree.
"""

from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from smallcover.charmap import CharacteristicMatrix, flip_supports
from smallcover.cover import RealToricSpace
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.facering import GradedRingBasis, RingClass
from smallcover.gf2 import BitMatrix, bit_positions, echelon_insert
from smallcover.homology import (
    CohomologyProfile,
    FinAbGroup,
    _coboundary_rows,
    _sparse_snf_factors,
)
from smallcover.shelling import Shelling, ShellingBudgetExceeded, verify_shelling
from smallcover.simplicial import SimplicialComplex


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (zeros last) of an integer matrix,
    from the package's sparse kernel, dense phase included."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    for row in matrix:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    row_dicts = [{j: int(v) for j, v in enumerate(row) if v} for row in matrix]
    return tuple(_sparse_snf_factors(row_dicts, ncols)[0])


def coboundary_matrix(K: SimplicialComplex, d: int) -> list[list[int]]:
    """Matrix of delta: C^d -> C^{d+1} over Z.

    Rows are (d+1)-dimensional faces, columns d-dimensional faces, both in
    ascending mask order; the entry for omitting the j-th vertex of the
    row face is (-1)^j.  Degree -1 is the augmentation (columns = empty face).
    """
    if d < -1 or d > K.dim:
        raise InternalConsistencyError(f"degree {d} outside [-1, {K.dim}]")
    cols = {m: j for j, m in enumerate(K.face_masks(d))}
    rows = _coboundary_rows(K.face_masks(d + 1), cols)
    return [[row.get(j, 0) for j in range(len(cols))] for row in rows]


def mod2_reduced_cohomology(K: SimplicialComplex, wm: int | None = None) -> CohomologyProfile:
    """Reduced cohomology of K_W with Z_2 coefficients, W a vertex mask over
    K's labels, dimensions in the rank slot: GF(2) elimination of every
    coboundary, none cleared."""
    if wm is None:
        wm = (1 << K.vertex_count) - 1
    if not wm:
        return CohomologyProfile({-1: FinAbGroup.free(1)})
    if any(wm & f == wm for f in K.facet_masks):
        return CohomologyProfile()
    faces: dict[int, list[int]] = {}
    for q in range(-1, min(K.dim, wm.bit_count() - 1) + 1):
        fq = [m for m in K.face_masks(q) if m & wm == m]
        if not fq:
            break
        faces[q] = fq
    ranks: dict[int, int] = {}
    for q in range(-1, max(faces)):
        cols = {m: j for j, m in enumerate(faces[q])}
        echelon: dict[int, int] = {}
        ranks[q] = sum(
            echelon_insert(echelon, sum(1 << j for j in row))
            for row in _coboundary_rows(faces[q + 1], cols)
        )
    groups = {}
    for q, fq in faces.items():
        free = len(fq) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        assert free >= 0, (K.labels, K.facets, wm, q)
        if free:
            groups[q] = FinAbGroup.free(free)
    return CohomologyProfile(groups)


def complex_euler_characteristic(K: SimplicialComplex) -> int:
    """Alternating face-count sum including the empty face."""
    return sum((-1 if d % 2 else 1) * len(K.face_masks(d)) for d in range(-1, K.dim + 1))


def profile_euler_characteristic(profile: CohomologyProfile) -> int:
    """Alternating sum of the ranks of a reduced cohomology profile."""
    return sum((-1 if q % 2 else 1) * g.rank for q, g in profile.groups.items())


def maximal_masks_quadratic(masks) -> list[int]:
    """The distinct masks no other mask holds, by testing every pair."""
    uniq = set(masks)
    return [m for m in uniq if not any(m != o and m & o == m for o in uniq)]


def enumerate_gl(n: int) -> Iterator[BitMatrix]:
    """All invertible n x n matrices, by recursive extension of independent rows.

    Count grows like 2^(n^2); intended for brute-force cross-checks at n <= 4.
    """
    full = 1 << n

    def extend(rows: tuple[int, ...], span: frozenset[int]) -> Iterator[BitMatrix]:
        if len(rows) == n:
            yield BitMatrix(n, n, rows)
            return
        for v in range(1, full):
            if v in span:
                continue
            new_span = frozenset(s ^ v for s in span) | span
            yield from extend(rows + (v,), new_span)

    yield from extend((), frozenset([0]))


def ridge_flip(K: SimplicialComplex, facet, i: int) -> int:
    """The unique vertex p with (facet \\ {u_i}) + {p} a facet.

    u_i is the i-th vertex of the facet (1-based) in declared label order:
    the facet's mask bit order and the order K.facets lists it in.
    """
    fm = K.mask_of(facet)
    if fm not in K.facet_masks:
        raise InternalConsistencyError(f"{tuple(sorted(facet))} is not a facet")
    positions = bit_positions(fm)
    if not 1 <= i <= len(positions):
        raise InternalConsistencyError(f"position {i} outside [1, {len(positions)}]")
    p = K.flip_bit(fm, 1 << positions[i - 1])
    return K.labels[p.bit_length() - 1]


def ridge_flip_support(chi: CharacteristicMatrix, facet, i: int) -> frozenset[int]:
    """The subset S of positions 1..n with lambda(ridge_flip(facet, i)) =
    sum of the facet's columns at the positions in S, read off
    flip_supports."""
    K = chi.complex
    ridge_flip(K, facet, i)  # rejects a non-facet, a bad position or an open ridge
    facet = K.labels_of(K.mask_of(facet))
    return next(s for f, j, s in flip_supports(chi) if f == facet and j == i)


def column_for_label(chi: CharacteristicMatrix, label: int) -> int:
    """The column of the vertex with this label, as an int over the rows."""
    return chi.matrix.column_bits()[chi.complex.labels.index(label)]


def apply(g: BitMatrix, v: int) -> int:
    """g @ v for a column vector v, one row parity at a time."""
    return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(g.row_bits))


def is_orientable_3d(M: RealToricSpace) -> bool:
    """Orientability of a 3-dimensional instance: the simplex-pullback test."""
    if M.n != 3:
        raise ValueError(f"orientability test is for n = 3, got n = {M.n}")
    return M.classification.is_simplex_pullback


def verify_all_dimensions(ring: GradedRingBasis) -> None:
    """Force-build every degree; InternalConsistencyError on any h-vector mismatch."""
    for d in range(ring.n + 1):
        ring._ensure_degree(d)


def reduce_monomial(ring: GradedRingBasis, d: int, idx: int) -> int:
    """Basis coordinates of the degree-d monomial at index idx."""
    return ring._reduce_vector(d, 1 << idx)


def total_sq(ring: GradedRingBasis, x: RingClass) -> dict[int, RingClass]:
    """Total Steenrod square of a homogeneous class, degrees x.deg..n.

    Sq is multiplicative with Sq(v) = v + v^2, so Sq(v^e) = v^e (1 + v)^e,
    and by Lucas C(e, c) is odd exactly when c is a binary submask of e.
    """
    d = x.degree
    ring._ensure_degree(d)
    keys: dict[int, list[int]] = {}
    for pos in bit_positions(x.bits):
        key = ring._basis_key(d, pos)
        terms = [(key, d)]
        for unit in ring._units:
            e = key // unit & ring._field
            terms = [
                (t + c * unit, deg + c)
                for t, deg in terms
                for c in range(e + 1)
                if not c & ~e and deg + c <= ring.n
            ]
        for t, deg in terms:
            keys.setdefault(deg, []).append(t)
    out = {}
    for deg in sorted(keys):
        ring._ensure_degree(deg)
        index = ring._mono_index[deg]
        vec = 0
        for t in keys[deg]:
            vec ^= 1 << index[t]
        bits = ring._reduce_vector(deg, vec)
        if bits:
            out[deg] = RingClass(deg, bits)
    return out


def tau_classes(ring: GradedRingBasis, coloring: dict[int, int]) -> list[RingClass]:
    """Color-class sums of generators; raises if they are not all equal."""
    colors = sorted(set(coloring.values()))
    expected = ring.n + 1 if (ring.n + 1) in colors else ring.n
    taus = []
    for color in range(1, expected + 1):
        acc = RingClass(1, 0)
        for label, c in coloring.items():
            if c == color:
                acc = ring.add(acc, ring._generator_class(label))
        taus.append(acc)
    if any(t != taus[0] for t in taus[1:]):
        raise InternalConsistencyError("color-class sums are unequal: coloring is not valid")
    return taus


def tau(ring: GradedRingBasis, coloring: dict[int, int]) -> RingClass:
    return tau_classes(ring, coloring)[0]


def square_identity_check(ring: GradedRingBasis, coloring: dict[int, int]) -> bool:
    """Every generator g satisfies g^2 = tau * g."""
    t = tau(ring, coloring)
    for label in ring.K.labels:
        g = ring._generator_class(label)
        if ring.multiply(g, g) != ring.multiply(t, g):
            return False
    return True


def total_sw(ring: GradedRingBasis) -> list[RingClass]:
    """Total Stiefel-Whitney class: product of (1 + generator), by degree."""
    element: dict[int, RingClass] = {0: ring.one()}
    for label in ring.K.labels:
        g = ring._generator_class(label)
        nxt = dict(element)
        for deg, cls in element.items():
            if deg + 1 > ring.n:
                continue
            term = ring.multiply(cls, g)
            prev = nxt.get(deg + 1)
            nxt[deg + 1] = term if prev is None else ring.add(prev, term)
        element = nxt
    return [element.get(d, RingClass(d, 0)) for d in range(ring.n + 1)]


def sw_pullback_check(ring: GradedRingBasis, coloring: dict[int, int]) -> bool:
    """Total SW class equals the binomial expansion of (1 + tau)^(n+1)."""
    t = tau(ring, coloring)
    sw = total_sw(ring)
    power = ring.one()
    for d in range(ring.n + 1):
        if d > 0:
            power = ring.multiply(power, t)
        expected = power if comb(ring.n + 1, d) % 2 else RingClass(d, 0)
        if sw[d] != expected:
            return False
    return True


def circle_times_tetrahedron_boundary():
    """Staircase triangulation of S^1 x S^2 with vertices 4a + b + 1 for a
    in Z/3 and b in 0..3: a closed 3-manifold with H^1(K; Z_2) = Z_2."""

    def v(a, b):
        return 4 * a + b + 1

    facets = []
    for a in range(3):
        a2 = (a + 1) % 3
        for t0, t1, t2 in combinations(range(4), 3):
            facets += [
                (v(a, t0), v(a2, t0), v(a2, t1), v(a2, t2)),
                (v(a, t0), v(a, t1), v(a2, t1), v(a2, t2)),
                (v(a, t0), v(a, t1), v(a, t2), v(a2, t2)),
            ]
    K = SimplicialComplex(range(1, 13), facets)
    cols = [2, 4, 14, 13, 12, 9, 3, 8, 7, 2, 8, 6]
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(4, cols))


def interval_size_total(shelling: Shelling) -> int:
    """Faces in the intervals [restriction face, facet] of a shelling."""
    return sum(
        1 << (fm.bit_count() - r.bit_count())
        for fm, r in zip(shelling.order, shelling.restriction)
    )


def critical_generators(shelling: Shelling, wm: int) -> list[tuple[int, int]]:
    """Indices i (1-based) with facet_i intersect W equal to the restriction
    face, each tagged with cochain degree |restriction| - 1; W is a vertex
    mask."""
    out = []
    for i, (fm, restr) in enumerate(zip(shelling.order, shelling.restriction), start=1):
        if fm & wm == restr:
            out.append((i, restr.bit_count() - 1))
    return out


def two_degree_concentration_check(
    K: SimplicialComplex, shelling: Shelling, coloring: dict[int, int], chi
) -> bool:
    """Critical generators for W = coloring preimage of chi sit in degrees
    |chi| - 2 and |chi| - 1; also re-checks the facet intersection sizes
    against whether the facet's missed color lies in chi."""
    chi = frozenset(chi)
    if len(chi) % 2:
        raise ValueError(f"chi {sorted(chi)} must be an even subset")
    n = shelling.order[0].bit_count() if shelling.order else 0
    n_plus_1 = n + 1
    w = {v for v, c in coloring.items() if c in chi}
    for facet in map(K.labels_of, shelling.order):
        facet_colors = {coloring[v] for v in facet}
        if len(facet_colors) != len(facet):
            return False
        missed = set(range(1, n_plus_1 + 1)) - facet_colors
        if len(missed) != 1:
            return False
        p = next(iter(missed))
        eta = set(facet) & w
        expected = len(chi) - 1 if p in chi else len(chi)
        if len(eta) != expected:
            return False
    allowed = {len(chi) - 2, len(chi) - 1}
    return all(deg in allowed for _, deg in critical_generators(shelling, K.mask_of(w)))


def _restriction_mask(
    table: dict[int, tuple[int, ...]], used: list[bool], prefix: list[int], fm: int
) -> int | None:
    """Mask of the minimal new face of fm against the earlier facets, or None
    if the shelling condition fails at this step.

    prefix holds the earlier facet masks and used[j] marks facet j of
    K.facet_masks as earlier; table is K's ridge table.  K is pure, so a
    ridge of fm lies in an earlier facet exactly when an earlier facet holds
    it in the table.
    """
    d = 0
    bits = fm
    while bits:
        low = bits & -bits
        for j in table[fm ^ low]:
            if used[j]:
                d |= low
                break
        bits ^= low
    if prefix and (d == 0 or any(d & old == d for old in prefix)):
        return None
    return d


def shelling_search_reference(
    K: SimplicialComplex, budget: int
) -> tuple[Shelling | None, int]:
    """The prefix-scan search: every facet is a candidate at every depth and
    is tested against each earlier facet.  Returns (first shelling or None,
    facets placed); raises ShellingBudgetExceeded as find_shelling does."""
    if not K.is_pure():
        raise InputError("shellings are defined for pure complexes")
    facets = K.facet_masks
    total = len(facets)
    table = K.ridge_table()
    prefix: list[int] = []
    prefix_idx: list[int] = []
    used = [False] * total
    iters = [iter(range(total))]
    placed = 0
    while iters:
        for i in iters[-1]:
            if used[i] or _restriction_mask(table, used, prefix, facets[i]) is None:
                continue
            if placed == budget:
                raise ShellingBudgetExceeded(
                    f"no shelling found within the search budget of {budget} facet "
                    f"placements ({total} facets); the complex may still be shellable"
                )
            placed += 1
            prefix.append(facets[i])
            prefix_idx.append(i)
            used[i] = True
            if len(prefix) == total:
                return verify_shelling(K, [K.labels_of(m) for m in prefix]), placed
            iters.append(iter(range(total)))
            break
        else:
            iters.pop()
            if prefix_idx:
                used[prefix_idx.pop()] = False
                prefix.pop()
    return None, placed
