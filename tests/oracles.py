"""Test support.  Ring identities of the paper used as oracles, as
functions of a GradedRingBasis: the total Steenrod square, the colour-class
sum tau, the square identity, and the total Stiefel-Whitney class of a
pullback.  The shelling lemmas: critical generators and the two-degree
concentration.  The prefix-scan shelling search that the incremental search
must match.  Also a closed 3-manifold that is not a sphere."""

from itertools import combinations
from math import comb

from smallcover.charmap import CharacteristicMatrix
from smallcover.facering import GradedRingBasis, RingClass, RingError
from smallcover.gf2 import BitMatrix, bit_positions
from smallcover.shelling import Shelling, ShellingBudgetExceeded, verify_shelling
from smallcover.simplicial import SimplicialComplex, SimplicialError


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
        acc = ring.zero(1)
        for label, c in coloring.items():
            if c == color:
                acc = ring.add(acc, ring._generator_class(label))
        taus.append(acc)
    if any(t != taus[0] for t in taus[1:]):
        raise RingError("color-class sums are unequal: coloring is not valid")
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
    return [element.get(d, ring.zero(d)) for d in range(ring.n + 1)]


def sw_pullback_check(ring: GradedRingBasis, coloring: dict[int, int]) -> bool:
    """Total SW class equals the binomial expansion of (1 + tau)^(n+1)."""
    t = tau(ring, coloring)
    sw = total_sw(ring)
    power = ring.one()
    for d in range(ring.n + 1):
        if d > 0:
            power = ring.multiply(power, t)
        expected = power if comb(ring.n + 1, d) % 2 else ring.zero(d)
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


def critical_generators(shelling: Shelling, w) -> list[tuple[int, int]]:
    """Indices i (1-based) with facet_i intersect W equal to the restriction
    face, each tagged with cochain degree |restriction| - 1."""
    wset = set(w)
    for v in wset:
        if v not in shelling.complex.labels:
            raise SimplicialError(f"unknown vertex label {v}")
    out = []
    for i, (facet, restr) in enumerate(zip(shelling.order, shelling.restriction), start=1):
        if set(facet) & wset == set(restr):
            out.append((i, len(restr) - 1))
    return out


def two_degree_concentration_check(
    shelling: Shelling, coloring: dict[int, int], chi
) -> bool:
    """Critical generators for W = coloring preimage of chi sit in degrees
    |chi| - 2 and |chi| - 1; also re-checks the facet intersection sizes
    against whether the facet's missed color lies in chi."""
    chi = frozenset(chi)
    if len(chi) % 2:
        raise ValueError(f"chi {sorted(chi)} must be an even subset")
    n = len(shelling.order[0]) if shelling.order else 0
    n_plus_1 = n + 1
    w = {v for v, c in coloring.items() if c in chi}
    for facet in shelling.order:
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
    return all(deg in allowed for _, deg in critical_generators(shelling, w))


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
        raise SimplicialError("shellings are defined for pure complexes")
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
                return verify_shelling(K, [K._mask_to_face(m) for m in prefix]), placed
            iters.append(iter(range(total)))
            break
        else:
            iters.pop()
            if prefix_idx:
                used[prefix_idx.pop()] = False
                prefix.pop()
    return None, placed
