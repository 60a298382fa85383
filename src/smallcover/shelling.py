"""Shelling verification and search, with restriction faces.

A shelling is a facet order in which every facet meets the union of its
predecessors in a nonempty union of its own ridges.  The restriction face of
each step is the unique minimal new face; the intervals [restriction face,
facet] partition the whole face set.

The search is incremental.  Placed facets form one bitmask over K's facet
order; each facet carries the bits of its vertices v whose ridge (facet
minus v) lies in a placed facet, kept up to date on every placement and
backtrack; and a face is old exactly when some placed facet holds it, which
is K.holders of the face among the placed mask: one AND of K's cached
vertex stars.  A frontier facet whose new face is old is blocked, and
stays blocked while facets are only placed and its ridge bits do not
change, so the search tests it again only after a placement touches its
ridges or after a backtrack: the order, the placements and the budget
count are those of testing every frontier facet at every depth.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .errors import InputError, InternalConsistencyError, PropertyViolation
from .simplicial import SimplicialComplex


# Facets the search may place, counting every placement again after a
# backtrack.  A search without backtracking places each facet once: 365 on
# the flagship Bier sphere.  The 6-vertex projective plane is exhausted
# after 760; the 36-facet staircase S^1 x S^2, which no search can shell,
# reaches the budget in about 0.3 s on a 2-core Xeon.
SHELLING_BUDGET = 20_000


class ShellingBudgetExceeded(RuntimeError):
    """The search placed its budget of facets without finishing: the complex
    may or may not be shellable."""


@dataclass(frozen=True)
class Shelling:
    """Verified facet order with restriction faces, both as vertex masks
    over the complex's labels (SimplicialComplex.labels_of turns one into
    labels)."""

    order: tuple[int, ...]
    restriction: tuple[int, ...]


def verify_shelling(K: SimplicialComplex, order) -> Shelling:
    """Check a facet order, given as label tuples as an order file holds
    them, and compute restriction faces.

    Raises PropertyViolation at the first index where the new faces are not an
    interval above a nonempty union of ridges (index 1-based).
    """
    if not K.is_pure():
        raise InputError("shellings are defined for pure complexes")
    masks = [K.mask_of(f) for f in order]
    if sorted(masks) != sorted(K.facet_masks):
        raise PropertyViolation("order is not a permutation of the facets")
    return _verified(K, masks)


def _verified(K: SimplicialComplex, masks: list[int]) -> Shelling:
    """verify_shelling on a permutation of K.facet_masks."""
    table = K.ridge_table()
    index = {fm: j for j, fm in enumerate(K.facet_masks)}
    placed = 0
    restriction = []
    intervals = 0
    for idx, fm in enumerate(masks, start=1):
        # K is pure, so a ridge of fm lies in a placed facet exactly when a
        # placed facet holds it in the ridge table
        d = 0
        bits = fm
        while bits:
            low = bits & -bits
            for j in table[fm ^ low]:
                if placed >> j & 1:
                    d |= low
                    break
            bits ^= low
        if placed and (d == 0 or K.holders(d, placed)):
            raise PropertyViolation(f"shelling condition fails at index {idx}")
        restriction.append(d)
        placed |= 1 << index[fm]
        # the interval [d, fm] holds 2^(|fm| - |d|) faces
        intervals += 1 << (fm.bit_count() - d.bit_count())
    if intervals != K.total_face_count():
        raise InternalConsistencyError(
            "restriction intervals do not partition the face set"
        )
    return Shelling(tuple(masks), tuple(restriction))


def find_shelling(K: SimplicialComplex, budget: int = SHELLING_BUDGET) -> Shelling | None:
    """Depth-first backtracking over facet orders with lexicographic branching.

    At each depth the candidates are tried in facet order: every facet at
    depth 0, then only the frontier, the unplaced facets sharing a ridge
    with a placed one.  Returns the first shelling found, or None only
    after exhausting the search tree.  Raises ShellingBudgetExceeded when
    the search would place a facet for the (budget + 1)-th time.
    """
    if not K.is_pure():
        raise InputError("shellings are defined for pure complexes")
    facets = K.facet_masks
    total = len(facets)
    table = K.ridge_table()
    holders = K.holders
    width = K.vertex_count
    # ridge bits of facet j: its vertices v with facet_j - v in a placed facet;
    # count[j * width + v] is the number of such placed facets, so a ridge in
    # three or more facets keeps its bit until the last of them is unplaced;
    # 4-byte counts keep the search state small
    new = [0] * total
    count = array("i", bytes(4 * total * width))
    placed = 0
    order: list[int] = []
    # the frontier at each depth; depth 0 tries every facet
    frontier = [0]
    everything = (1 << total) - 1

    def move(i: int, step: int) -> int:
        """Add step to the counts of the ridges of facet i in the other
        facets; return the mask of those facets."""
        fm = facets[i]
        touched = 0
        bits = fm
        while bits:
            low = bits & -bits
            bits ^= low
            ridge = fm ^ low
            for j in table[ridge]:
                if j != i:
                    b = facets[j] ^ ridge
                    slot = j * width + b.bit_length() - 1
                    c = count[slot] + step
                    count[slot] = c
                    # the bit flips when the count moves between 0 and 1
                    if c == step or not c:
                        new[j] ^= b
                    touched |= 1 << j
        return touched

    placements = 0
    start = 0  # candidates below this index were tried at this depth
    # facets not known to be blocked (module docstring): a facet found
    # blocked leaves it until move touches it or the search backtracks
    maybe = everything
    while True:
        left = ((frontier[-1] if order else everything) & maybe) >> start << start
        while left:
            bit = left & -left
            left ^= bit
            i = bit.bit_length() - 1
            # past depth 0 every candidate has ridge bits: it is on the frontier
            if not (placed and holders(new[i], placed)):
                break
            maybe ^= bit
        else:
            frontier.pop()
            if not order:
                return None
            i = order.pop()
            placed ^= 1 << i
            move(i, -1)
            start = i + 1
            maybe = everything
            continue
        if placements == budget:
            raise ShellingBudgetExceeded(
                f"no shelling found within the search budget of {budget} facet "
                f"placements ({total} facets); the complex may still be shellable"
            )
        placements += 1
        order.append(i)
        placed |= bit
        if len(order) == total:
            return _verified(K, [facets[j] for j in order])
        touched = move(i, 1)
        maybe |= touched
        frontier.append((frontier[-1] | touched) & ~placed)
        start = 0
