"""Test support.  Ring identities of the paper used as oracles, as
functions of a GradedRingBasis: the total Steenrod square, the colour-class
sum tau, the square identity, and the total Stiefel-Whitney class of a
pullback.  The shelling lemmas: critical generators and the two-degree
concentration.  The prefix-scan shelling search that the incremental search
must match.  Also a closed 3-manifold that is not a sphere, spheres moved by
stellar subdivisions and bistellar flips, and closed pseudomanifolds that
are not spheres.

Linear algebra and homology oracles: Smith normal form of a dense matrix
through the package's sparse kernel, dense coboundary matrices, integral
cohomology from sympy's Smith normal form, mod-2 cohomology by GF(2)
elimination (independent of the integer path), both reduced Euler
characteristics, the enumeration of GL(n, 2) and a
matrix-vector product by row parities.  The pairwise maximality filter that
SimplicialComplex's star-mask filter must match, the downward stack walk
from the facets that K's face lists must match, and the per-degree filter
of K's faces inside W that SimplicialComplex.faces_within must match for
the K_W, and the apexes of a K_W as the intersection of its maximal
faces, which SimplicialComplex.cone_apex must match.  Union-find
components and cycles of a graph on vertex bits, which
SimplicialComplex.spanning_forest must span without a cycle.  Random
complexes, pure or not, with ghost labels.  K's face set from
the stack walk, its ghost labels, and its Bier sphere from the definition,
which bier_sphere must match.  The Kunneth formula
for integral cohomology of a product and, shifted up one degree, for the
reduced cohomology of a join.  Ghost labels added to a complex.
Combinatorial lookups the commands never make: the ridge flip of a facet position, its flip support
by position, a facet's coordinates by inverting its basis, a label's
column, orientability for n = 3 and building every ring degree.  The
fuzz sampler that draws column by column.  Catalog
instances relabelled v -> 7v + 3 in a shuffled declared order, and any
instance over a shuffled declared order of its own labels.
"""

from itertools import combinations
from math import comb, gcd
from typing import Iterator, Sequence

import pytest

from smallcover.catalog import catalog, get_entry
from smallcover.charmap import CharacteristicMatrix, first_dependent_facet, flip_supports
from smallcover.cover import RealToricSpace
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.facering import GradedRingBasis, RingClass
from smallcover.gf2 import BitMatrix, bit_positions, echelon_insert, invert
from smallcover.homology import (
    CohomologyProfile,
    FinAbGroup,
    _coboundary_rows,
    _sparse_snf_factors,
)
from smallcover.shelling import Shelling, ShellingBudgetExceeded, verify_shelling
from smallcover.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
)


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


def faces_by_filter(K: SimplicialComplex, wm: int) -> dict[int, list[int]]:
    """Degree -> ascending face masks of K_W, from degree -1 to the top
    nonempty one, by keeping the q-faces of K that lie inside W: the
    filter that K.faces_within(wm) must match, list for list and in the
    same order."""
    faces: dict[int, list[int]] = {}
    for q in range(-1, min(K.dim, wm.bit_count() - 1) + 1):
        fq = [m for m in K.face_masks(q) if m & wm == m]
        if not fq:
            break
        faces[q] = fq
    return faces


def cone_apexes(K: SimplicialComplex, wm: int) -> int:
    """Mask of the apexes of K_W: the vertices in every maximal face of
    faces_by_filter(K, wm), so 0 when K_W is no cone."""
    faces = [m for ms in faces_by_filter(K, wm).values() for m in ms]
    apexes = wm
    for m in faces:
        if not any(m != o and m & o == m for o in faces):
            apexes &= m
    return apexes


def union_find(vertices: int, edges) -> tuple[int, bool]:
    """The number of components of the graph on the vertex bits of
    ``vertices`` with the given two-bit edge masks, by union-find, and
    whether the edges are acyclic (no edge joins two vertices already
    joined)."""
    parent = {1 << i: 1 << i for i in range(vertices.bit_length()) if vertices >> i & 1}

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    acyclic = True
    for e in edges:
        a, b = root(e & -e), root(e & (e - 1))
        if a == b:
            acyclic = False
        parent[a] = b
    return sum(1 for x in parent if parent[x] == x), acyclic


def kunneth(p1: CohomologyProfile, p2: CohomologyProfile, shift: int = 0) -> CohomologyProfile:
    """H^k = sum over i + j = k of H^i(X) (x) H^j(Y), plus Tor(H^i(X), H^j(Y))
    over i + j = k + 1, placed in degree k + shift: the integral cohomology
    of X x Y with shift 0, and with shift 1 the reduced cohomology of the
    join X * Y from reduced profiles (H~^-1 = Z for the empty complex).
    Torsion orders are prime powers, so Z_s (x) Z_t = Tor(Z_s, Z_t) = Z_gcd."""
    ranks: dict[int, int] = {}
    orders: dict[int, list[int]] = {}
    for i, a in p1.groups.items():
        for j, b in p2.groups.items():
            k = i + j + shift
            ranks[k] = ranks.get(k, 0) + a.rank * b.rank
            common = [gcd(s, t) for s in a.torsion for t in b.torsion if gcd(s, t) > 1]
            tensor = list(a.torsion) * b.rank + list(b.torsion) * a.rank + common
            orders.setdefault(k, []).extend(tensor)
            orders.setdefault(k - 1, []).extend(common)
    return CohomologyProfile({
        k: FinAbGroup.from_orders(ranks.get(k, 0), orders.get(k, []))
        for k in ranks.keys() | orders.keys()
    })


def faces_by_stack_walk(K: SimplicialComplex) -> dict[int, tuple[int, ...]]:
    """Degree -> ascending face masks of K, from the facets down: every face
    is reached by dropping one vertex of a larger face, and a seen-set keeps
    each once."""
    seen = set(K.facet_masks)
    stack = list(seen)
    while stack:
        fm = stack.pop()
        bits = fm
        while bits:
            low = bits & -bits
            bits ^= low
            face = fm ^ low
            if face not in seen:
                seen.add(face)
                stack.append(face)
    by_dim: dict[int, list[int]] = {}
    for m in seen:
        by_dim.setdefault(m.bit_count() - 1, []).append(m)
    return {d: tuple(sorted(ms)) for d, ms in by_dim.items()}


def face_set(K: SimplicialComplex) -> frozenset[int]:
    """Every face mask of K, the empty face included, from the stack walk."""
    return frozenset().union(*faces_by_stack_walk(K).values())


def ghost_labels(K: SimplicialComplex) -> tuple[int, ...]:
    """The declared labels of K that lie in no facet."""
    return K.labels_of((1 << K.vertex_count) - 1 & ~K.vertex_mask)


def bier_sphere_by_definition(K: SimplicialComplex) -> SimplicialComplex:
    """The Bier sphere of K straight from its definition over face_set: a
    facet sigma + barred(ground - sigma - s) for every face sigma and label
    s outside it with sigma + s no face.  The label of rank i in the sorted
    ground set is i, its barred copy l + i."""
    ground = sorted(K.labels)
    ell = len(ground)
    rank = {v: i + 1 for i, v in enumerate(ground)}
    faces = {frozenset(K.labels_of(m)) for m in face_set(K)}
    gens = []
    for sigma in faces:
        for s in set(ground) - sigma:
            if sigma | {s} not in faces:
                rest = set(ground) - sigma - {s}
                gens.append([rank[v] for v in sigma] + [ell + rank[v] for v in rest])
    return SimplicialComplex(range(1, 2 * ell + 1), gens)


def random_complex(rng, pure: bool) -> SimplicialComplex:
    """A complex over 1 to 8 labels in a shuffled order, up to two of them
    ghosts, with 1 to 10 generators of up to 4 vertices: all of one size
    when pure, else of mixed sizes.  Several components and isolated
    vertices are common."""
    labels = rng.sample(range(1, 20), rng.randint(1, 8))
    used = labels[:rng.randint(max(1, len(labels) - 2), len(labels))]
    top = min(4, len(used))
    size = rng.randint(1, top)
    gens = [rng.sample(used, size if pure else rng.randint(1, top))
            for _ in range(rng.randint(1, 10))]
    return SimplicialComplex(labels, gens)


def with_ghosts(K: SimplicialComplex, count: int, rng) -> SimplicialComplex:
    """K over its labels plus `count` new ghost labels, in a shuffled order."""
    labels = list(K.labels) + [max(K.labels) + 1 + i for i in range(count)]
    rng.shuffle(labels)
    return SimplicialComplex(labels, K.facets)


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
    faces = faces_by_filter(K, wm)
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


def sympy_cohomology(K):
    """Reduced integral cohomology groups of K from sympy's Smith normal
    form of every coboundary matrix, with no clearing."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ranks, torsion = {}, {}
    for d in range(-1, K.dim):
        a = coboundary_matrix(K, d)
        reference = sympy_snf(sympy.Matrix(a))
        diag = [abs(int(reference[i, i])) for i in range(min(len(a), len(a[0])))]
        ranks[d] = sum(1 for f in diag if f)
        torsion[d + 1] = [f for f in diag if f > 1]
    expected = {}
    for q in range(-1, K.dim + 1):
        free = len(K.face_masks(q)) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        g = FinAbGroup.from_orders(free, torsion.get(q, []))
        if not g.is_trivial():
            expected[q] = g
    return expected


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
    flip_supports and turned from a vertex mask into positions."""
    K = chi.complex
    ridge_flip(K, facet, i)  # rejects a non-facet, a bad position or an open ridge
    fm = K.mask_of(facet)
    positions = bit_positions(fm)
    v = 1 << positions[i - 1]
    s = next(s for f, b, s in flip_supports(chi) if f == fm and b == v)
    return frozenset(k + 1 for k, p in enumerate(positions) if s >> p & 1)


def facet_coordinates_by_inversion(chi: CharacteristicMatrix, fm: int) -> tuple[int, ...]:
    """The columns of B_F^-1 Lambda by inverting B_F, the n x n matrix of
    the columns of the facet with mask fm in declared label order: entry j
    is the column of K's j-th label as an int whose bit r is the coordinate
    on the facet's r-th vertex."""
    cols = chi.matrix.column_bits()
    b = BitMatrix.from_column_bits(chi.n, [cols[j] for j in bit_positions(fm)])
    return tuple((invert(b) @ chi.matrix).column_bits())


def scaled_relabelling(entry, rng) -> CharacteristicMatrix:
    """The entry's instance with every label v renamed 7v + 3 and declared
    in a shuffled order, each label keeping its column."""
    K, chi = entry.complex, entry.chi
    column = {7 * v + 3: c for v, c in zip(K.labels, chi.matrix.column_bits())}
    labels = list(column)
    rng.shuffle(labels)
    return CharacteristicMatrix(
        SimplicialComplex(labels, [[7 * v + 3 for v in f] for f in K.facets]),
        BitMatrix.from_column_bits(chi.n, [column[v] for v in labels]),
    )


def shuffled_labels(chi: CharacteristicMatrix, rng) -> CharacteristicMatrix:
    """The same instance over a shuffled declared label order, each label
    keeping its column."""
    K = chi.complex
    labels = list(K.labels)
    rng.shuffle(labels)
    column = dict(zip(K.labels, chi.matrix.column_bits()))
    return CharacteristicMatrix(
        SimplicialComplex(labels, K.facets),
        BitMatrix.from_column_bits(chi.n, [column[v] for v in labels]),
    )


def sample_by_columns(entry_name: str, rng) -> tuple[CharacteristicMatrix, int]:
    """The column-by-column rejection sampler that sample_random_instance
    must match draw for draw: m calls of rng.getrandbits(n) per candidate,
    tested whole by first_dependent_facet.  Returns (matrix, rejections)."""
    entry = get_entry(entry_name)
    K, n = entry.complex, entry.n
    rejections = 0
    while True:
        cols = [rng.getrandbits(n) for _ in range(K.vertex_count)]
        if first_dependent_facet(K, cols) is None:
            return CharacteristicMatrix(K, BitMatrix.from_column_bits(n, cols)), rejections
        rejections += 1


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
                acc = ring.add(acc, ring.express([label]))
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
        g = ring.express([label])
        if ring.multiply(g, g) != ring.multiply(t, g):
            return False
    return True


def total_sw(ring: GradedRingBasis) -> list[RingClass]:
    """Total Stiefel-Whitney class: product of (1 + generator), by degree."""
    element: dict[int, RingClass] = {0: ring.one()}
    for label in ring.K.labels:
        g = ring.express([label])
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


def stellar_subdivision(K, face, new):
    """Subdivide the face at a new vertex: each facet F holding the face
    becomes the facets F - v + new for v in the face."""
    face = set(face)
    facets = [f for f in K.facets if not face <= set(f)]
    for f in K.facets:
        if face <= set(f):
            facets += [tuple(sorted(set(f) - {v} | {new})) for v in face]
    return SimplicialComplex(list(K.labels) + [new], facets)


def bistellar_moves(K):
    """(sigma, tau) with 2 <= |sigma| < facet size, the link of sigma the
    boundary of tau, and tau no face: sigma * boundary(tau) may become
    boundary(sigma) * tau."""
    size = K.dim + 1
    faces = face_set(K)
    out = []
    for k in range(2, size):
        for sigma in map(K.labels_of, K.face_masks(k - 1)):
            link = [set(f) - set(sigma) for f in K.facets if set(sigma) <= set(f)]
            tau = set().union(*link)
            if (
                len(tau) == size + 1 - k
                and len(link) == len(tau)
                and K.mask_of(tau) not in faces
            ):
                out.append((sigma, tuple(sorted(tau))))
    return out


def bistellar_flip(K, sigma, tau):
    sigma = set(sigma)
    facets = [f for f in K.facets if not sigma <= set(f)]
    facets += [tuple(sorted(sigma - {v} | set(tau))) for v in sigma]
    return SimplicialComplex(K.labels, facets)


def moved_sphere(rng):
    """A simplex or cross-polytope boundary after a few stellar subdivisions
    and bistellar flips, over a shuffled declared label order."""
    K = rng.choice([
        boundary_of_simplex(2), boundary_of_simplex(3), boundary_of_simplex(4),
        cross_polytope_boundary(2), cross_polytope_boundary(3),
        cross_polytope_boundary(4),
    ])
    for _ in range(rng.randint(1, 5)):
        moves = bistellar_moves(K)
        if moves and rng.random() < 0.6:
            K = bistellar_flip(K, *rng.choice(moves))
        else:
            facet = rng.choice(K.facets)
            face = rng.sample(facet, rng.randint(2, len(facet)))
            K = stellar_subdivision(K, face, max(K.labels) + 1)
    labels = list(K.labels)
    rng.shuffle(labels)
    return SimplicialComplex(labels, K.facets)


def non_spheres():
    rp2 = catalog()["rp2_6v"].complex
    return {
        "rp2_6v": rp2,
        "rp2_6v*S0": rp2.join(boundary_of_simplex(1)),
        "S0*rp2_6v": boundary_of_simplex(1).join(rp2),
        "rp2_6v*S1": rp2.join(boundary_of_simplex(2)),
        "staircase": circle_times_tetrahedron_boundary().complex,
    }
