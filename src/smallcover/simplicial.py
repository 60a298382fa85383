"""Simplicial complexes as pure combinatorial face data.

Vertex labels are positive integers and are never compacted: full
subcomplexes and derived constructions keep the original labels.  A vertex
set is an int mask over the declared label order (bit i is the i-th label),
and that is how vertex sets pass between modules.  mask_of and labels_of
are the one place where a mask and its labels meet; outside this module
they are called only to read an order file and to print a shelling or an
error message.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import InputError, InternalConsistencyError


class SimplicialComplex:
    """Immutable complex given by its inclusion-maximal faces.

    The empty face is always present; the complex with no nonempty faces is
    represented with facet list ((),).  Declared labels may include ghost
    vertices that appear in no facet.
    """

    def __init__(self, labels, generators):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise InputError("duplicate vertex labels")
        for v in labels:
            if not isinstance(v, int) or v <= 0:
                raise InputError(f"label {v!r} is not a positive integer")
        self._labels = labels
        self._index = {v: i for i, v in enumerate(labels)}
        masks = []
        for gen in generators:
            gen = tuple(gen)
            if len(set(gen)) != len(gen):
                raise InputError(f"duplicate vertices inside generator {gen}")
            m = 0
            for v in gen:
                if v not in self._index:
                    raise InputError(f"undeclared vertex label {v} in generator {gen}")
                m |= 1 << self._index[v]
            masks.append(m)
        masks = _maximal(masks, len(labels)) or [0]
        pairs = sorted((self.labels_of(m), m) for m in masks)
        self._facets = tuple(face for face, _ in pairs)
        self._facet_masks = tuple(m for _, m in pairs)
        self._faces_by_dim_cache: dict[int, tuple[int, ...]] | None = None
        self._face_mask_set: frozenset[int] | None = None
        self._ridge_table: dict[int, tuple[int, ...]] | None = None

    def labels_of(self, m: int) -> tuple[int, ...]:
        """The labels at the set bits of a vertex mask, in declared order."""
        return tuple(self._labels[i] for i in range(len(self._labels)) if (m >> i) & 1)

    def mask_of(self, labels) -> int:
        """The vertex mask of a set of labels: bit i is the i-th declared label."""
        m = 0
        for v in labels:
            if v not in self._index:
                raise InputError(f"unknown vertex label {v}")
            m |= 1 << self._index[v]
        return m

    @property
    def labels(self) -> tuple[int, ...]:
        return self._labels

    @property
    def vertex_count(self) -> int:
        return len(self._labels)

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self._facets

    @property
    def facet_masks(self) -> tuple[int, ...]:
        return self._facet_masks

    @property
    def dim(self) -> int:
        return max(m.bit_count() for m in self._facet_masks) - 1

    def is_pure(self) -> bool:
        sizes = {m.bit_count() for m in self._facet_masks}
        return len(sizes) == 1

    def _faces_by_dim(self) -> dict[int, tuple[int, ...]]:
        if self._faces_by_dim_cache is None:
            # Every face is reached once, by dropping one vertex of a larger face.
            seen = set(self._facet_masks)
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
            self._faces_by_dim_cache = {d: tuple(sorted(ms)) for d, ms in by_dim.items()}
            self._face_mask_set = frozenset(seen)
        return self._faces_by_dim_cache

    def face_masks(self, d: int) -> tuple[int, ...]:
        """Masks of d-dimensional faces in ascending mask order."""
        return self._faces_by_dim().get(d, ())

    def all_face_masks(self) -> frozenset[int]:
        self._faces_by_dim()
        assert self._face_mask_set is not None
        return self._face_mask_set

    def total_face_count(self) -> int:
        """Number of faces including the empty face."""
        return len(self.all_face_masks())

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_{dim}); f_{-1} = 1 for the empty face."""
        by_dim = self._faces_by_dim()
        return tuple(len(by_dim.get(d, ())) for d in range(-1, self.dim + 1))

    def h_vector(self) -> tuple[int, ...]:
        """(h_0, ..., h_{dim+1}) of a pure complex."""
        if not self.is_pure():
            raise InternalConsistencyError("h-vector requires a pure complex")
        f = self.f_vector()
        n = self.dim + 1
        h = []
        for i in range(n + 1):
            total = 0
            for j in range(i + 1):
                total += (-1) ** (i - j) * comb(n - j, i - j) * f[j]
            h.append(total)
        return tuple(h)

    def full_subcomplex(self, w) -> "SimplicialComplex":
        w = set(w)
        for v in w:
            if v not in self._index:
                raise InternalConsistencyError(f"unknown vertex label {v} in subcomplex request")
        wm = self.mask_of(w)
        cut = {m & wm for m in self._facet_masks}
        sub_labels = [v for v in self._labels if v in w]
        gens = [self.labels_of(m) for m in cut]
        return SimplicialComplex(sub_labels, gens)

    def join(self, other: "SimplicialComplex") -> "SimplicialComplex":
        """The join, with other's labels shifted past this complex's largest."""
        offset = max(self._labels, default=0)
        labels = self._labels + tuple(v + offset for v in other._labels)
        gens = [a + tuple(v + offset for v in b) for a in self.facets for b in other.facets]
        return SimplicialComplex(labels, gens)

    def ridge_table(self) -> dict[int, tuple[int, ...]]:
        """Ridge mask -> indices into facet_masks of the facets holding it, in
        facet order.

        Built once by dropping each vertex of each facet.  In a pure complex
        every facet containing a (dim-1)-face is that face plus one vertex, so
        a ridge lies in a facet exactly when the facet is listed here.
        """
        if self._ridge_table is None:
            if not self.is_pure():
                raise InternalConsistencyError("ridges are defined for pure complexes")
            table: dict[int, list[int]] = {}
            for idx, fm in enumerate(self._facet_masks):
                bits = fm
                while bits:
                    low = bits & -bits
                    table.setdefault(fm ^ low, []).append(idx)
                    bits ^= low
            self._ridge_table = {r: tuple(h) for r, h in table.items()}
        return self._ridge_table

    def is_closed_pseudomanifold(self) -> bool:
        """Pure, and every (dim-1)-face lies in exactly two facets."""
        return self.is_pure() and all(len(h) == 2 for h in self.ridge_table().values())

    def is_strongly_connected(self) -> bool:
        """Facet-ridge adjacency graph is connected (pure complexes only)."""
        if not self.is_pure():
            return False
        table = self.ridge_table()
        seen = {0}
        stack = [0]
        while stack:
            fm = self._facet_masks[stack.pop()]
            bits = fm
            while bits:
                low = bits & -bits
                for nb in table[fm ^ low]:
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
                bits ^= low
        return len(seen) == len(self._facet_masks)

    def flip_bit(self, fm: int, low: int) -> int:
        """Bit of the vertex p with (fm - low) + p a facet, for a facet mask fm
        and one of its bits low; raises unless the ridge lies in two facets."""
        ridge = fm ^ low
        holders = self.ridge_table()[ridge]
        if len(holders) != 2:
            raise InternalConsistencyError(
                f"ridge {self.labels_of(ridge)} lies in {len(holders)} facets, not 2"
            )
        a, b = (self._facet_masks[j] for j in holders)
        return (b if a == fm else a) ^ ridge

    def ghost_labels(self) -> tuple[int, ...]:
        used = 0
        for m in self._facet_masks:
            used |= m
        return tuple(v for i, v in enumerate(self._labels) if not (used >> i) & 1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplicialComplex):
            return NotImplemented
        return self._labels == other._labels and self.facets == other.facets

    def __hash__(self) -> int:
        return hash((self._labels, self._facet_masks))


def _maximal(masks, vertex_count: int) -> list[int]:
    """The distinct masks that no other mask holds.

    Masks are taken largest first, and only a strictly larger kept mask can
    hold one, so a list of one size is kept whole with no test.  A mask is
    held when the AND of its vertices' stars (bitmasks over the kept masks)
    with the kept masks of larger size is nonzero; the AND starts from those
    masks, so the empty mask is dropped exactly when something was kept.
    """
    kept: list[int] = []
    star = [0] * vertex_count
    larger = every = 0
    size = -1
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if m.bit_count() != size:
            size, larger = m.bit_count(), every
        holders = larger
        bits = m
        while bits and holders:
            low = bits & -bits
            holders &= star[low.bit_length() - 1]
            bits ^= low
        if holders:
            continue
        bit = 1 << len(kept)
        kept.append(m)
        every |= bit
        bits = m
        while bits:
            low = bits & -bits
            star[low.bit_length() - 1] |= bit
            bits ^= low
    return kept


def boundary_of_simplex(n: int) -> SimplicialComplex:
    """Boundary of the n-simplex on labels 1..n+1."""
    labels = range(1, n + 2)
    gens = list(combinations(labels, n))
    return SimplicialComplex(labels, gens)


def cross_polytope_boundary(n: int) -> SimplicialComplex:
    """Boundary of the n-dimensional cross-polytope; antipodal pairs (i, n+i)."""
    labels = range(1, 2 * n + 1)
    gens = []
    for mask in range(1 << n):
        gens.append(tuple(i + 1 + ((mask >> i) & 1) * n for i in range(n)))
    return SimplicialComplex(labels, gens)


def polygon(m: int) -> SimplicialComplex:
    """Boundary of an m-gon on labels 1..m."""
    if m < 3:
        raise InternalConsistencyError("polygon needs at least 3 vertices")
    labels = range(1, m + 1)
    gens = [(i, i % m + 1) for i in range(1, m + 1)]
    return SimplicialComplex(labels, gens)
