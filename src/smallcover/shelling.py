"""Shelling verification and search, restriction faces, critical generators.

A shelling is a facet order in which every facet meets the union of its
predecessors in a nonempty union of its own ridges.  The restriction face of
each step is the unique minimal new face; the intervals [restriction face,
facet] partition the whole face set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalConsistencyError
from .simplicial import SimplicialComplex, SimplicialError


# Facets the search may place, counting every placement again after a
# backtrack.  A search without backtracking places each facet once: 365 on
# the flagship Bier sphere.  The 6-vertex projective plane is exhausted
# after 760; the 36-facet staircase S^1 x S^2, which no search can shell,
# reaches the budget in about a second.
SHELLING_BUDGET = 20_000


class ShellingError(ValueError):
    """Order fails the shelling condition; message names the first bad index."""


class ShellingBudgetExceeded(RuntimeError):
    """The search placed its budget of facets without finishing: the complex
    may or may not be shellable."""


@dataclass(frozen=True)
class Shelling:
    """Verified facet order with restriction faces (both as label tuples)."""

    complex: SimplicialComplex
    order: tuple[tuple[int, ...], ...]
    restriction: tuple[tuple[int, ...], ...]

    def interval_size_total(self) -> int:
        return sum(1 << (len(s) - len(r)) for s, r in zip(self.order, self.restriction))


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


def verify_shelling(K: SimplicialComplex, order) -> Shelling:
    """Check a facet order and compute restriction faces.

    Raises ShellingError at the first index where the new faces are not an
    interval above a nonempty union of ridges (index 1-based).
    """
    if not K.is_pure():
        raise SimplicialError("shellings are defined for pure complexes")
    masks = [K._face_to_mask(f) for f in order]
    if sorted(masks) != sorted(K.facet_masks):
        raise ShellingError("order is not a permutation of the facets")
    table = K.ridge_table()
    index = {fm: j for j, fm in enumerate(K.facet_masks)}
    used = [False] * len(masks)
    prefix: list[int] = []
    restriction = []
    for idx, fm in enumerate(masks, start=1):
        r = _restriction_mask(table, used, prefix, fm)
        if r is None:
            raise ShellingError(f"shelling condition fails at index {idx}")
        restriction.append(r)
        used[index[fm]] = True
        prefix.append(fm)
    shelling = Shelling(
        K,
        tuple(K._mask_to_face(m) for m in masks),
        tuple(K._mask_to_face(r) for r in restriction),
    )
    if shelling.interval_size_total() != K.total_face_count():
        raise InternalConsistencyError(
            "restriction intervals do not partition the face set"
        )
    return shelling


def find_shelling(K: SimplicialComplex, budget: int = SHELLING_BUDGET) -> Shelling | None:
    """Depth-first backtracking over facet orders with lexicographic branching.

    Returns the first shelling found, or None only after exhausting the
    search tree.  Raises ShellingBudgetExceeded when the search would place
    a facet for the (budget + 1)-th time.
    """
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
                return verify_shelling(K, [K._mask_to_face(m) for m in prefix])
            iters.append(iter(range(total)))
            break
        else:
            iters.pop()
            if prefix_idx:
                used[prefix_idx.pop()] = False
                prefix.pop()
    return None


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
