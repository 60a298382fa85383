"""Invariants of a real toric space and the seven-condition report.

A real toric space is the pair (complex, characteristic matrix).  Its mod-2
Betti numbers are the h-vector entries; rational Betti numbers and integral
cohomology are assembled from the reduced cohomology of the full
subcomplexes indexed by the row space, with the count of order-two torsion
summands closed off through the mod-2 / rational Betti bookkeeping.

When K carries the sphere certificate (a closed pseudomanifold with a
shelling, hence a PL sphere), a full subcomplex on more than half of the
used vertices, and not a cone, is computed on its complement and read off
by Alexander duality.  The certificate is only used once the hypotheses
have been computed, which evaluate_conditions does on entry; table1
computes none and stays direct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import facering
from .charmap import (
    CharacteristicMatrix,
    PullbackClass,
    classify_pullback,
    classify_via_flips,  # noqa: F401  (hooked by name in bench/tracer.py)
    omega_descriptors,
)
from .errors import InputError, InternalConsistencyError
from .homology import CohomologyProfile, FinAbGroup, reduced_cohomology
from .shelling import Shelling, ShellingBudgetExceeded, find_shelling
from .simplicial import SimplicialComplex

# Hypotheses.shelling_found when the search ran out of its budget
BUDGET_EXCEEDED = "budget-exceeded"

# The largest n whose row space evaluate_conditions enumerates: the space has
# 2^n elements, and each needs one full-subcomplex cohomology.  On a 2-core
# Xeon, `analyze --conditions 2` of a single n-vertex facet took 0.6 s and
# 54 MB at n = 14, 2.8 s and 176 MB at n = 16, and 12.9 s and 666 MB at
# n = 18: memory grows about fourfold per two rows.  The catalog's largest n
# is 8.
ROW_SPACE_GUARD = 16


@dataclass(frozen=True)
class Hypotheses:
    """Which structural hypotheses of the equivalence were verified.

    shelling_found is True, False after an exhausted search, or
    BUDGET_EXCEEDED when the search stopped at its budget.
    """

    closed_pseudomanifold: bool
    strongly_connected: bool
    shelling_found: bool | str

    def all_hold(self) -> bool:
        return (
            self.closed_pseudomanifold
            and self.strongly_connected
            and self.shelling_found is True
        )


@dataclass(frozen=True)
class BettiTable:
    """Rational and mod-2 Betti numbers with the even-torsion counts.

    mu has length n+2 so that the identity b2[q] = b[q] + mu[q] + mu[q+1]
    makes sense for every q in 0..n.
    """

    b: tuple[int, ...]
    b_mod2: tuple[int, ...]
    mu: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.b) - 1
        if len(self.b_mod2) != n + 1 or len(self.mu) != n + 2:
            raise InternalConsistencyError("Betti table length mismatch")
        for q in range(n + 1):
            if self.b_mod2[q] != self.b[q] + self.mu[q] + self.mu[q + 1]:
                raise InternalConsistencyError(
                    f"coefficient bookkeeping fails at degree {q}"
                )


@dataclass
class ConditionReport:
    """The seven booleans with witnesses and an equivalence verdict."""

    conditions: dict[int, bool]
    verdict: str
    hypotheses: Hypotheses
    classification: PullbackClass
    betti: BettiTable | None = None
    integral: CohomologyProfile | None = None
    torsion_witness: dict[int, tuple[int, ...]] = field(default_factory=dict)
    sq1_witness: facering.Sq1Witness | None = None

    def agree(self) -> bool:
        vals = set(self.conditions.values())
        return len(vals) == 1


class RealToricSpace:
    """Pair (K, characteristic matrix) with cached derived invariants."""

    def __init__(self, K: SimplicialComplex, chi: CharacteristicMatrix):
        if chi.complex != K:
            raise InternalConsistencyError(
                "characteristic matrix belongs to a different complex"
            )
        if not K.is_pure():
            raise InputError("real toric spaces here require a pure complex")
        if chi.n != K.dim + 1:
            raise InputError(f"matrix rank {chi.n} != dim K + 1 = {K.dim + 1}")
        self.complex = K
        self.chi = chi
        self.n = chi.n
        self.shelling_budget_exceeded = False

    @cached_property
    def classification(self) -> PullbackClass:
        return classify_pullback(self.chi)

    @cached_property
    def shelling(self) -> Shelling | None:
        try:
            return find_shelling(self.complex)
        except ShellingBudgetExceeded:
            self.shelling_budget_exceeded = True
            return None

    @cached_property
    def sphere_certified(self) -> bool:
        """K is a closed pseudomanifold with a shelling, hence a PL sphere
        (Danaraj-Klee, Duke Math. J. 41, 1974)."""
        return self.hypotheses.closed_pseudomanifold and self.shelling is not None

    @cached_property
    def hypotheses(self) -> Hypotheses:
        closed = self.complex.is_closed_pseudomanifold()
        connected = self.complex.is_strongly_connected()
        found = self.shelling is not None  # the search sets the budget flag
        return Hypotheses(
            closed_pseudomanifold=closed,
            strongly_connected=connected,
            shelling_found=BUDGET_EXCEEDED if self.shelling_budget_exceeded else found,
        )

    @cached_property
    def ring(self) -> facering.GradedRingBasis:
        return facering.build_graded_basis(self.complex, self.chi)

    @cached_property
    def omega_profiles(self) -> list[tuple[int, CohomologyProfile]]:
        """(vertex mask of the support, reduced cohomology of K_W) for every
        row-space element, in omega_descriptors order, with at most one
        reduced_cohomology call per W.

        On a certified sphere with vertices V, a W whose part u in V holds
        more than half of V and is no cone is computed on V - u and read off
        by alexander_dual; for a cone u (K.cone_apex, a face of K included)
        K_W = K_u is contractible, so its profile is zero with no further
        call.  This never starts the shelling search: the certificate counts
        only once the hypotheses exist."""
        K = self.complex
        certified = "hypotheses" in self.__dict__ and self.sphere_certified
        used = K.vertex_mask

        def profile(wm: int) -> CohomologyProfile:
            u = wm & used
            if certified and u != used and 2 * u.bit_count() > used.bit_count():
                if K.cone_apex(u):
                    return CohomologyProfile()
                return alexander_dual(reduced_cohomology(K, used ^ u), self.n)
            return reduced_cohomology(K, wm)

        coloring = self.classification.coloring
        return [(wm, profile(wm)) for wm in omega_descriptors(self.chi, coloring)]

    @cached_property
    def h_vector(self) -> tuple[int, ...]:
        return self.complex.h_vector()

    @cached_property
    def rational_betti_numbers(self) -> tuple[int, ...]:
        return rational_betti(self)

    @cached_property
    def integral_profile(self) -> CohomologyProfile:
        return integral_cohomology(self)


def alexander_dual(profile: CohomologyProfile, n: int) -> CohomologyProfile:
    """Reduced cohomology of K_W from the profile of K_{V-W}, for K a PL
    (n-1)-sphere on the vertex set V and W a proper nonempty subset of V.
    Alexander duality gives H~^j(K_W) = H~_{n-2-j}(K_{V-W}), and universal
    coefficients read that homology off cohomology: its rank is the rank of
    H~^{n-2-j}(K_{V-W}) and its torsion the torsion of H~^{n-1-j}(K_{V-W})."""
    ranks = {n - 2 - q: g.rank for q, g in profile.groups.items()}
    torsion = {n - 1 - q: g.torsion for q, g in profile.groups.items()}
    return CohomologyProfile({
        j: FinAbGroup(ranks.get(j, 0), torsion.get(j, ()))
        for j in sorted(ranks.keys() | torsion.keys())
    })


def mod2_betti(M: RealToricSpace) -> tuple[int, ...]:
    """Mod-2 Betti numbers: the h-vector of the underlying complex, which
    they are when K is shellable (see integral_cohomology)."""
    return M.h_vector


def rational_betti(M: RealToricSpace) -> tuple[int, ...]:
    """b^q = sum over the row space of the rational reduced Betti numbers of
    the full subcomplexes, shifted up by one degree."""
    n = M.n
    b = [0] * (n + 1)
    for _, profile in M.omega_profiles:
        for q, group in profile.groups.items():
            b[q + 1] += group.rank
    return tuple(b)


def integral_cohomology(M: RealToricSpace) -> CohomologyProfile:
    """Degreewise assembly: free ranks from the subcomplex sum, odd torsion
    copied, two-primary torsion doubled, and the order-two count solved from
    the Betti bookkeeping.  When the solved count goes negative or fails to
    close at the top degree, raises InternalConsistencyError if K has a
    shelling, and InputError if not: the h-vector is the mod-2 Betti vector
    when K is Cohen-Macaulay over Z_2, which a shelling proves."""
    n = M.n
    b = M.rational_betti_numbers
    b2 = mod2_betti(M)

    def check(ok: bool, degree: int, message: str) -> None:
        if ok:
            return
        if M.shelling is None:
            raise InputError(
                f"even-torsion bookkeeping fails at degree {degree}: the mod-2 Betti "
                "numbers are the h-vector only for a shellable complex, and no "
                "shelling of K was found"
            )
        raise InternalConsistencyError(message)

    odd_torsion: dict[int, list[int]] = {q: [] for q in range(n + 1)}
    doubled: dict[int, list[int]] = {q: [] for q in range(n + 1)}
    for _, profile in M.omega_profiles:
        for q, group in profile.groups.items():
            degree = q + 1
            for t in group.torsion:
                if t % 2:
                    odd_torsion[degree].append(t)
                else:
                    doubled[degree].append(2 * t)
    mu = [0] * (n + 2)
    for q in range(n + 1):
        nxt = b2[q] - b[q] - mu[q]
        check(nxt >= 0, q + 1, f"negative even-torsion count at degree {q + 1}")
        mu[q + 1] = nxt
    check(mu[1] == 0, 1, "degree-1 cohomology acquired torsion")
    check(mu[n + 1] == 0, n + 1, "even-torsion count fails to close at the top")
    groups = {}
    for q in range(n + 1):
        order_two = mu[q] - len(doubled[q])
        check(order_two >= 0, q, f"doubled torsion exceeds the solved count at degree {q}")
        orders = odd_torsion[q] + doubled[q] + [2] * order_two
        groups[q] = FinAbGroup.from_orders(b[q], orders)
    return CohomologyProfile(groups)


def betti_table(M: RealToricSpace) -> BettiTable:
    profile = M.integral_profile
    mu = [profile.mu(q) for q in range(M.n + 2)]
    return BettiTable(b=M.rational_betti_numbers, b_mod2=mod2_betti(M), mu=tuple(mu))


ALL_CONDITIONS = (1, 2, 3, 4, 5, 6, 7)


def sq1_degrees(n: int, requested) -> set[int]:
    """The even degrees on which the requested conditions decide Sq1:
    condition 4 takes every even degree, 5 degree 2."""
    degrees = set(range(0, n + 1, 2)) if 4 in requested else set()
    if 5 in requested:
        degrees.add(2)
    return degrees


def highest_ring_degree(M: RealToricSpace, requested) -> int:
    """The highest ring degree that evaluate_conditions may build for the
    requested conditions: Sq1 on each of sq1_degrees on its side, and degree
    3 for the Sq1 witness on a strongly connected closed pseudomanifold.  0
    when no ring is built."""
    degrees = sq1_degrees(M.n, requested)
    top = max((facering.sq1_degree(M.n, d, M.sphere_certified) for d in degrees), default=0)
    hyp = M.hypotheses
    if degrees and hyp.closed_pseudomanifold and hyp.strongly_connected:
        top = max(top, min(3, M.n))
    return top


def evaluate_conditions(M: RealToricSpace, conditions=None) -> ConditionReport:
    """Evaluate the requested equivalence conditions (default: all seven).

    1: pullback from the simplex (image condition);
    2: odd-degree integral cohomology torsion-free;
    3: degree-3 integral cohomology torsion-free;
    4: first square vanishes on every even degree;
    5: first square vanishes on degree 2;
    6: b^{2k} - b^{2k-1} = mod-2 difference for every k >= 1;
    7: the same for k = 1.
    """
    requested = tuple(sorted(set(conditions or ALL_CONDITIONS)))
    if any(c not in ALL_CONDITIONS for c in requested):
        raise InternalConsistencyError(f"unknown condition in {requested}")
    n = M.n
    # before the hypotheses, whose shelling check enumerates every face of K
    if {2, 3, 6, 7} & set(requested) and n > ROW_SPACE_GUARD:
        raise InputError(f"row count {n} exceeds enumeration guard {ROW_SPACE_GUARD}")
    if {4, 5} & set(requested):
        # the certified side builds the lowest degrees, so this rejects
        # nothing that the exact check after the hypotheses accepts
        lowest = max(facering.sq1_degree(n, d, True) for d in sq1_degrees(n, requested))
        facering.check_ring_size(M.chi.m - n, lowest)
    # The verdict needs the hypotheses anyway; computed first, their sphere
    # certificate lets omega_profiles take the smaller side of each W.
    hyp = M.hypotheses
    results: dict[int, bool] = {}
    table = None
    profile = None
    torsion_witness: dict[int, tuple[int, ...]] = {}
    sq1_witness = None

    if {4, 5} & set(requested):
        facering.check_ring_size(M.chi.m - n, highest_ring_degree(M, requested))

    if 1 in requested:
        results[1] = M.classification.is_simplex_pullback
    if {2, 3, 6, 7} & set(requested):
        profile = M.integral_profile
        table = betti_table(M)
        for q in range(n + 1):
            g = profile.group(q)
            if q % 2 and g.torsion:
                torsion_witness[q] = g.torsion
        if 2 in requested:
            results[2] = all(
                profile.group(q).is_torsion_free() for q in range(1, n + 1, 2)
            )
        if 3 in requested:
            results[3] = profile.group(3).is_torsion_free()
        # b^q = 0 above n, and 2k reaches n + 2
        b, b_mod2 = table.b + (0, 0), table.b_mod2 + (0, 0)
        diffs_ok = {
            k: b[2 * k] - b[2 * k - 1] == b_mod2[2 * k] - b_mod2[2 * k - 1]
            for k in range(1, n // 2 + 2)
        }
        if 6 in requested:
            results[6] = all(diffs_ok.values())
        if 7 in requested:
            results[7] = diffs_ok[1]
    if {4, 5} & set(requested):
        ring = M.ring
        certified = M.sphere_certified
        # each even degree is decided once: condition 4 reuses condition 5's
        vanishes: dict[int, bool] = {}
        if 5 in requested:
            results[5] = vanishes[2] = ring.sq1_vanishes_on_degree(2, certified)
        if 4 in requested:
            results[4] = all(
                vanishes[d] if d in vanishes else ring.sq1_vanishes_on_degree(d, certified)
                for d in range(0, n + 1, 2)
            )
        if hyp.closed_pseudomanifold and hyp.strongly_connected:
            sq1_witness = facering.find_sq1_witness(M.complex, M.chi, ring)

    values = {results[c] for c in requested}
    if not hyp.all_hold():
        verdict = "hypotheses-not-verified"
    elif len(requested) < len(ALL_CONDITIONS):
        verdict = "partial-evaluation"
    elif len(values) > 1:
        verdict = "DISAGREEMENT"
    elif values == {True}:
        verdict = "equivalent-true"
    else:
        verdict = "equivalent-false"
    return ConditionReport(
        conditions=results,
        verdict=verdict,
        hypotheses=hyp,
        classification=M.classification,
        betti=table,
        integral=profile,
        torsion_witness=torsion_witness,
        sq1_witness=sq1_witness,
    )
