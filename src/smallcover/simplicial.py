"""Simplicial complexes as pure combinatorial face data.

Vertex labels are positive integers and are never compacted: full
subcomplexes and derived constructions keep the original labels.  A vertex
set is an int mask over the declared label order (bit i is the i-th label),
and that is how vertex sets pass between modules.  mask_of and labels_of
are the one place where a mask and its labels meet; outside this module
they are called only to read an order file, to give the used labels of a
Bier sphere their columns, and to print a shelling or an error message.

K's faces live in one store, the cached per-degree lists (face_masks);
whether a mask is a face is read off them or off holders.  For a full
subcomplex K_W, faces_within grows its faces, cone_apex finds an apex and
spanning_forest a spanning forest of its 1-skeleton, all over the cached
vertex stars and neighbour masks.
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
        sizes = {m.bit_count() for m in masks}
        self._dim = max(sizes) - 1
        self._pure = len(sizes) == 1
        self._vertex_mask = 0
        for m in masks:
            self._vertex_mask |= m
        self._star_masks: dict[int, int] | None = None
        self._neighbours: dict[int, int] | None = None
        self._faces_by_dim_cache: dict[int, tuple[int, ...]] | None = None
        self._f_vector: tuple[int, ...] | None = None
        self._ridge_table: dict[int, tuple[int, ...]] | None = None
        self._h_vector: tuple[int, ...] | None = None
        self._closed: bool | None = None
        self._strongly_connected: bool | None = None

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
        return self._dim

    def is_pure(self) -> bool:
        return self._pure

    @property
    def vertex_mask(self) -> int:
        """Mask of the vertices of K: the labels that lie in some facet."""
        return self._vertex_mask

    def star_masks(self) -> dict[int, int]:
        """Vertex bit -> bitmask over facet_masks of the facets holding it.
        Built with the neighbour masks: vertex bit -> the union of those
        facets, i.e. the vertex and every vertex adjacent to it."""
        if self._star_masks is None:
            star = {1 << i: 0 for i in range(len(self._labels))}
            near = dict.fromkeys(star, 0)
            for j, fm in enumerate(self._facet_masks):
                bits = fm
                while bits:
                    low = bits & -bits
                    star[low] |= 1 << j
                    near[low] |= fm
                    bits ^= low
            self._star_masks, self._neighbours = star, near
        return self._star_masks

    def holders(self, m: int, among: int = -1) -> int:
        """Bitmask over facet_masks of the facets in ``among`` that hold the
        vertex mask m: the AND of m's vertex stars, so m is a face exactly
        when holders(m) is nonzero."""
        star = self.star_masks()
        while m and among:
            low = m & -m
            among &= star[low]
            m ^= low
        return among

    def neighbours(self, m: int) -> int:
        """The AND of the neighbour masks (see star_masks) of the vertices in
        the mask m: every vertex adjacent to all of m, so m plus a vertex
        outside it is no face.  Every label when m is empty."""
        self.star_masks()
        common = (1 << len(self._labels)) - 1
        while m:
            low = m & -m
            common &= self._neighbours[low]
            m ^= low
        return common

    def cone_apex(self, wm: int) -> int:
        """Bit of an apex of the full subcomplex K_W on the vertex mask wm,
        or 0 when K_W is no cone.  Only vertices of K count: ghost labels in
        W are ignored, and a W holding no vertex of K is no cone.  A simplex
        (K.holders) is a cone on its lowest vertex.  Otherwise an apex v is
        adjacent to every other vertex of K_W, and is one exactly when every
        facet F outside v's star has F & wm inside a facet of that star, so
        that every maximal face of K_W holds v."""
        star = self.star_masks()
        wm &= self._vertex_mask
        if not wm or self.holders(wm):
            return wm & -wm
        bits = wm
        while bits:
            v = bits & -bits
            bits ^= v
            if wm & ~self._neighbours[v]:
                continue
            sv = star[v]
            if all(sv >> j & 1 or self.holders(fm & wm, sv)
                   for j, fm in enumerate(self._facet_masks)):
                return v
        return 0

    def spanning_forest(self, wm: int) -> list[int]:
        """Edge masks of a spanning forest of the 1-skeleton of the full
        subcomplex K_W on the vertex mask wm; ghost labels in W are ignored.
        Each tree grows from the lowest vertex of its component over the
        neighbour masks: x in near[y] & wm is exactly "{x, y} is an edge of
        K_W".  So it has f_0 - (number of components) edges."""
        self.star_masks()
        near = self._neighbours
        left = wm & self._vertex_mask
        edges = []
        while left:
            root = left & -left
            left ^= root
            stack = [root]
            while stack:
                y = stack.pop()
                new = near[y] & left
                left ^= new
                while new:
                    x = new & -new
                    new ^= x
                    edges.append(x | y)
                    stack.append(x)
        return edges

    def faces_within(self, wm: int) -> dict[int, list[int]]:
        """Degree -> ascending masks of the faces of K inside the vertex mask
        wm, from the empty face (degree -1) up to the top nonempty degree.

        The faces are grown depth first from the empty face, each carrying
        its holders and the AND of its vertices' neighbour masks: f plus a
        vertex v of wm below f's lowest vertex is a face exactly when
        held & star[v] is nonzero, and only a v in that AND is tried, since
        any other misses an edge to f.  So each face is met once, no face
        set is read, and since a face's vertices are added highest first
        and the vertices below it are tried ascending, each degree comes
        out in ascending mask order."""
        star = self.star_masks()
        near = self._neighbours
        by_size: list[list[int]] = [[] for _ in range(self._dim + 2)]
        stack = [(0, -1, wm)]
        while stack:
            f, held, common = stack.pop()
            by_size[f.bit_count()].append(f)
            below = common & ((f & -f) - 1)  # all of common for the empty face
            while below:
                top = 1 << below.bit_length() - 1
                below ^= top
                h = held & star[top]
                if h:
                    stack.append((f | top, h, common & near[top]))
        return {size - 1: fs for size, fs in enumerate(by_size) if fs}

    def _faces_by_dim(self) -> dict[int, tuple[int, ...]]:
        if self._faces_by_dim_cache is None:
            faces = self.faces_within((1 << len(self._labels)) - 1)
            self._faces_by_dim_cache = {d: tuple(ms) for d, ms in faces.items()}
        return self._faces_by_dim_cache

    def face_masks(self, d: int) -> tuple[int, ...]:
        """Masks of d-dimensional faces in ascending mask order."""
        return self._faces_by_dim().get(d, ())

    def total_face_count(self) -> int:
        """Faces including the empty one: the lengths of K's face lists, built
        and kept if absent, for the ring to read after the shelling check."""
        return sum(map(len, self._faces_by_dim().values()))

    def f_vector(self) -> tuple[int, ...]:
        """(f_{-1}, f_0, ..., f_{dim}); f_{-1} = 1 for the empty face.  Counted
        off the cached face lists, or else off one faces_within pass that is
        not kept, so the counts alone (the h-vector) never keep K's faces."""
        if self._f_vector is None:
            by_dim = self._faces_by_dim_cache or self.faces_within((1 << len(self._labels)) - 1)
            self._f_vector = tuple(len(by_dim.get(d, ())) for d in range(-1, self._dim + 1))
        return self._f_vector

    def h_vector(self) -> tuple[int, ...]:
        """(h_0, ..., h_{dim+1}) of a pure complex."""
        if not self._pure:
            raise InternalConsistencyError("h-vector requires a pure complex")
        if self._h_vector is None:
            f = self.f_vector()
            n = self._dim + 1
            h = []
            for i in range(n + 1):
                total = 0
                for j in range(i + 1):
                    total += (-1) ** (i - j) * comb(n - j, i - j) * f[j]
                h.append(total)
            self._h_vector = tuple(h)
        return self._h_vector

    def full_subcomplex(self, wm: int) -> "SimplicialComplex":
        """The full subcomplex K_W on the vertex mask wm, declared over the
        labels of wm, ghosts included."""
        if wm >> len(self._labels):  # a negative mask shifts to -1
            raise InternalConsistencyError(
                f"vertex mask {wm:#x} has bits past the {len(self._labels)} declared labels"
            )
        gens = [self.labels_of(m) for m in {fm & wm for fm in self._facet_masks}]
        return SimplicialComplex(self.labels_of(wm), gens)

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
            if not self._pure:
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
        if self._closed is None:
            self._closed = self._pure and all(
                len(h) == 2 for h in self.ridge_table().values()
            )
        return self._closed

    def is_strongly_connected(self) -> bool:
        """Facet-ridge adjacency graph is connected (pure complexes only)."""
        if self._strongly_connected is None:
            self._strongly_connected = self._pure and self._reaches_every_facet()
        return self._strongly_connected

    def _reaches_every_facet(self) -> bool:
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
    Only smaller masks read the stars, so the smallest size sets none.
    """
    kept: list[int] = []
    star = [0] * vertex_count
    larger = every = 0
    size = -1
    smallest = min(map(int.bit_count, masks), default=-1)
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
        if size == smallest:
            continue
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
