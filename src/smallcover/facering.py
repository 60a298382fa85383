"""The mod-2 quotient ring Z_2[v_1..v_m]/(monomial ideal + row relations).

Graded linear algebra presentation: the variables on a pivot facet are
eliminated through the row relations, and monomials in the remaining
variables span each degree.  Every degree is built one way, by echelonizing
the ideal with lowest-bit pivots (lazy inserts, one back-substitution), and
has one basis rule and one normal-form representation:

- the basis of degree d is the set of standard monomials that are not
  congruent to a sum of higher (lex-later) monomials modulo the ideal: the
  non-pivot set;
- the normal forms are an h_d-row matrix over the degree's monomials, where
  bit i of row k is the coefficient of basis monomial k in the normal form
  of monomial i.  Reducing a vector is one parity per row.

The generators of the monomial ideal, the minimal non-faces, are found one
size at a time from K's face lists, when the degree of that size is built,
so a ring built up to degree 4 never looks at larger vertex sets.

A degree's echelon grows with the square of its monomial count;
evaluate_conditions checks the largest degree it will build against
MAX_DEGREE_MONOMIALS before any homology or ring work, and first, before
the shelling search, the lowest degree that either Sq1 side could need.

Sq1 on an even degree d is decided directly, from degree d + 1, or, when K
is certified a PL sphere (a shelled closed pseudomanifold), on the Wu side.
The ring is then H*(M; Z_2) of a closed manifold M with Sq1 v = v^2 and
w_1 = sum v_i (Davis-Januszkiewicz, Duke Math. J. 62, 1991).  Sq1 is a
derivation and Wu's formula gives Sq1 y = w_1 y on the degree below the
top, so the perfect pairing makes Sq1 = 0 on degree d equivalent to
Sq1 + w_1 = 0 on degree n - d - 1, which needs degree n - d only.

A monomial is one int, its key: the exponent of the label at position p
sits in bits [w*p, w*p + w), with w = n.bit_length().  No degree exceeds n,
so no field carries and the product of two monomials is the sum of their
keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb

from .charmap import CharacteristicMatrix, flip_supports
from .errors import InputError, InternalConsistencyError
from .gf2 import bit_positions, echelon_insert, reduce_echelon
from .simplicial import SimplicialComplex

# The most monomials a ring degree may have.  Its echelon holds up to that
# many rows of that many bits: the flagship's degree 8, C(17, 8) = 24,310
# monomials, builds in about 0.8 s with a 50 MB peak on a 2-core Xeon.
MAX_DEGREE_MONOMIALS = 25_000


@dataclass(frozen=True)
class RingClass:
    """Homogeneous ring element: coefficient bitmask over a degree's basis."""

    degree: int
    bits: int

    def is_zero(self) -> bool:
        return self.bits == 0


@dataclass(frozen=True)
class Sq1Witness:
    """Certificate that the first Steenrod square is nonzero on degree two."""

    facet: tuple[int, ...]
    position: int
    s: int
    t: int
    witness: RingClass
    image: RingClass


class GradedRingBasis:
    """Per-degree bases and normal forms for the quotient ring.

    The variables are the labels off K's first facet.  The row relations
    make each facet vertex's generator the sum of the variables whose
    coordinate column, a vertex mask from chi.facet_coordinates, holds it.
    Degrees are built lazily.  Degree-d dimensions are asserted against the
    h-vector; any mismatch raises InternalConsistencyError.
    """

    def __init__(self, K: SimplicialComplex, chi: CharacteristicMatrix):
        if chi.complex is not K and chi.complex != K:
            raise InternalConsistencyError(
                "characteristic matrix belongs to a different complex"
            )
        if not K.is_pure():
            raise InternalConsistencyError("graded basis requires a pure complex")
        self.K = K
        self.chi = chi
        self.n = chi.n
        if self.n != K.dim + 1:
            raise InternalConsistencyError(
                f"matrix rank {self.n} != dim K + 1 = {K.dim + 1}"
            )
        self.h = K.h_vector()

        # the variables are the labels off the first facet, in declared order
        fm = K.facet_masks[0]
        free = (1 << K.vertex_count) - 1 & ~fm
        self.variables = K.labels_of(free)
        coords = chi.facet_coordinates(fm)
        # by vertex position: its generator over the variables (bit i is the
        # i-th variable); each facet vertex in the i-th variable's column
        # gets bit i
        self._subst = [0] * K.vertex_count
        for i, p in enumerate(bit_positions(free)):
            self._subst[p] = 1 << i
            for q in bit_positions(coords[p]):
                self._subst[q] |= 1 << i
        self._width = w = self.n.bit_length()
        self._field = (1 << w) - 1
        # the low bit of every field, where an odd exponent shows
        self._low_bits = sum(1 << w * p for p in range(K.vertex_count))
        self._units = [1 << w * p for p in bit_positions(free)]
        # by vertex position: the units whose sum is that vertex's generator
        self._subst_units = [
            [self._units[i] for i in bit_positions(bits)] for bits in self._subst
        ]

        self._monomials: dict[int, list[int]] = {}
        self._mono_index: dict[int, dict[int, int]] = {}
        # echelon of the ideal in a direct degree: input to the next degree
        self._pivot_rows: dict[int, dict[int, int]] = {}
        self._basis_idx: dict[int, list[int]] = {}
        self._nf_rows: dict[int, list[int]] = {}

    # ----- combinatorial bookkeeping -------------------------------------

    def monomials(self, d: int) -> list[int]:
        """Keys of the degree-d monomials in the non-pivot variables, lexicographic."""
        if d not in self._monomials:
            monos = [sum(c) for c in combinations_with_replacement(self._units, d)]
            self._monomials[d] = monos
            self._mono_index[d] = {m: i for i, m in enumerate(monos)}
        return self._monomials[d]

    def _gen_vectors(self, d: int) -> list[int]:
        """Rewritten monomial-ideal generators of degree exactly d."""
        vectors = []
        for gen in _minimal_nonfaces(self.K, d):
            vec = 1
            for deg, p in enumerate(bit_positions(gen)):
                nxt = 0
                for unit in self._subst_units[p]:
                    nxt ^= self._shift(deg, vec, unit)
                vec = nxt
            vectors.append(vec)
        return vectors

    def _shift(self, d: int, vec: int, key: int) -> int:
        """Multiply a degree-d vector over the monomials by a variable."""
        monos = self.monomials(d)
        self.monomials(d + 1)
        index = self._mono_index[d + 1]
        out = 0
        for idx in bit_positions(vec):
            out ^= 1 << index[monos[idx] + key]
        return out

    # ----- per-degree construction ---------------------------------------

    def dimension(self, d: int) -> int:
        if d < 0 or d > self.n:
            return 0
        return self.h[d]

    def _ensure_degree(self, d: int) -> None:
        if d in self._nf_rows or d < 0 or d > self.n:
            return
        rows: dict[int, int] = {}
        if d > 0:
            self._ensure_degree(d - 1)
            for prev in self._pivot_rows[d - 1].values():
                for unit in self._units:
                    echelon_insert(rows, self._shift(d - 1, prev, unit))
            for gen_vec in self._gen_vectors(d):
                echelon_insert(rows, gen_vec)
            reduce_echelon(rows)
        count = len(self.monomials(d))
        dim = count - len(rows)
        if dim != self.dimension(d):
            raise InternalConsistencyError(
                f"degree {d} dimension {dim} does not match h_{d} = {self.dimension(d)}"
            )
        basis = [i for i in range(count) if i not in rows]
        pos = {b: k for k, b in enumerate(basis)}
        nf_rows = [1 << b for b in basis]
        for p, row in rows.items():
            for b in bit_positions(row ^ (1 << p)):
                nf_rows[pos[b]] |= 1 << p
        self._pivot_rows[d] = rows
        self._basis_idx[d], self._nf_rows[d] = basis, nf_rows

    # ----- normal forms and ring operations -------------------------------

    def _reduce_vector(self, d: int, vec: int) -> int:
        """Basis coordinates of a degree-d vector over the monomials."""
        coords = 0
        for k, row in enumerate(self._nf_rows[d]):
            if (row & vec).bit_count() & 1:
                coords |= 1 << k
        return coords

    def _basis_key(self, d: int, pos: int) -> int:
        return self._monomials[d][self._basis_idx[d][pos]]

    def one(self) -> RingClass:
        self._ensure_degree(0)
        return RingClass(0, 1)

    def add(self, x: RingClass, y: RingClass) -> RingClass:
        if x.degree != y.degree:
            raise InternalConsistencyError("cannot add classes of different degrees")
        return RingClass(x.degree, x.bits ^ y.bits)

    def basis_classes(self, d: int) -> list[RingClass]:
        self._ensure_degree(d)
        if d < 0 or d > self.n:
            return []
        return [RingClass(d, 1 << pos) for pos in range(self.dimension(d))]

    def basis_monomial_labels(self, d: int, pos: int) -> tuple[int, ...]:
        """The monomial (as vertex labels with repetition) behind basis slot pos."""
        self._ensure_degree(d)
        key = self._basis_key(d, pos)
        return tuple(sorted(
            v for v, unit in zip(self.variables, self._units)
            for _ in range(key // unit & self._field)
        ))

    def multiply(self, x: RingClass, y: RingClass) -> RingClass:
        d = x.degree + y.degree
        if d > self.n or x.bits == 0 or y.bits == 0:
            return RingClass(d, 0)
        self._ensure_degree(x.degree)
        self._ensure_degree(y.degree)
        self._ensure_degree(d)
        ykeys = [self._basis_key(y.degree, j) for j in bit_positions(y.bits)]
        index = self._mono_index[d]
        vec = 0
        for i in bit_positions(x.bits):
            xkey = self._basis_key(x.degree, i)
            for ykey in ykeys:
                vec ^= 1 << index[xkey + ykey]
        return RingClass(d, self._reduce_vector(d, vec))

    def express(self, monomial) -> RingClass:
        """Normal form of a monomial given as vertex labels with repetition."""
        c = self.one()
        self._ensure_degree(1)
        for label in monomial:
            p = self.K.mask_of([label]).bit_length() - 1
            c = self.multiply(c, RingClass(1, self._reduce_vector(1, self._subst[p])))
        return c

    def sq1(self, x: RingClass) -> RingClass:
        """First Steenrod square, extended from generators by the Leibniz rule.

        Sq1(v^e) = e v^(e+1): each odd exponent, the low bit of its field,
        adds one more factor of its variable.
        """
        d = x.degree
        if d + 1 > self.n:
            return RingClass(d + 1, 0)
        self._ensure_degree(d)
        self._ensure_degree(d + 1)
        index = self._mono_index[d + 1]
        vec = 0
        for pos in bit_positions(x.bits):
            key = self._basis_key(d, pos)
            for b in bit_positions(key & self._low_bits):
                vec ^= 1 << index[key + (1 << b)]
        return RingClass(d + 1, self._reduce_vector(d + 1, vec))

    def sq1_vanishes_on_degree(self, d: int, certified: bool = False) -> bool:
        """Whether Sq1 is zero on the even degree d, decided on the side that
        sq1_degree picks; `certified` says that K is a shelled closed
        pseudomanifold."""
        if d % 2:
            raise InternalConsistencyError(f"degree {d} is odd")
        if d < 0 or d + 1 > self.n:
            return True
        if sq1_degree(self.n, d, certified) < d + 1:
            return self.wu_vanishes_on_degree(self.n - d - 1)
        return all(self.sq1(c).is_zero() for c in self.basis_classes(d))

    def wu_vanishes_on_degree(self, e: int) -> bool:
        """Whether Sq1 + w_1 is zero on degree e, where w_1 = sum of the
        generators.  On a certified sphere that is Sq1 = 0 on degree n - e - 1."""
        self._ensure_degree(1)
        # each label's generator over the variables; the sum is reduced once
        w1_vec = 0
        for bits in self._subst:
            w1_vec ^= bits
        w1 = RingClass(1, self._reduce_vector(1, w1_vec))
        return all(
            self.sq1(y) == self.multiply(w1, y) for y in self.basis_classes(e)
        )

    def render(self, x: RingClass) -> str:
        if x.bits == 0:
            return "0"
        terms = []
        for pos in bit_positions(x.bits):
            labels = self.basis_monomial_labels(x.degree, pos)
            if not labels:
                terms.append("1")
                continue
            parts = []
            for v in sorted(set(labels)):
                e = labels.count(v)
                parts.append(f"v{v}" if e == 1 else f"v{v}^{e}")
            terms.append("*".join(parts))
        return " + ".join(terms)


def _minimal_nonfaces(K: SimplicialComplex, size: int) -> list[int]:
    """Vertex masks of the non-faces of `size` vertices whose proper subsets
    are all faces, ascending.  Each is met once, as the face left when its
    highest vertex is removed plus that vertex.  Membership is tested in a
    set of the two face sizes read, size - 1 and size.  Every pair inside a
    minimal non-face of 3 or more vertices is an edge, so only the common
    neighbours of the face (K.neighbours) are tried as that vertex; sizes 1
    and 2, whose minimal non-faces are the ghost labels and the non-edges,
    try every label."""
    faces = {*K.face_masks(size - 2), *K.face_masks(size - 1)}
    every = (1 << K.vertex_count) - 1
    found = []
    for fm in K.face_masks(size - 2):
        top = fm.bit_length()
        for b in bit_positions((K.neighbours(fm) if size >= 3 else every) >> top << top):
            m = fm | 1 << b
            if m not in faces and all(m ^ 1 << i in faces for i in bit_positions(fm)):
                found.append(m)
    return sorted(found)


def sq1_degree(n: int, d: int, certified: bool) -> int:
    """The ring degree built to decide Sq1 on the even degree d: d + 1
    directly, or n - d on the Wu side, which only a certified sphere takes,
    and only when it is lower.  0 when Sq1 lands above the top degree."""
    if d + 1 > n:
        return 0
    return n - d if certified and n - d < d + 1 else d + 1


def check_ring_size(num_vars: int, degree: int) -> None:
    """InputError when ring degree `degree` in num_vars variables has more
    than MAX_DEGREE_MONOMIALS monomials."""
    count = comb(num_vars + degree - 1, degree) if degree else 1
    if count > MAX_DEGREE_MONOMIALS:
        raise InputError(
            f"ring degree {degree} has {count} monomials, over the limit of "
            f"{MAX_DEGREE_MONOMIALS} for one degree"
        )


def build_graded_basis(
    K: SimplicialComplex, chi: CharacteristicMatrix
) -> GradedRingBasis:
    return GradedRingBasis(K, chi)


def find_sq1_witness(
    K: SimplicialComplex, chi: CharacteristicMatrix, ring: GradedRingBasis
) -> Sq1Witness | None:
    """A degree-2 monomial class with nonzero first square, when one exists.

    Scans ridge-flip supports for a facet vertex v whose support S is
    neither {v} nor the whole facet; returns None exactly when the instance
    is a pullback from the simplex.  The witness multiplies the generators
    of the lowest vertex of S - v and the lowest facet vertex outside S;
    position, s and t count these vertices from 1 in the facet's label
    order.
    """
    if not K.is_closed_pseudomanifold() or not K.is_strongly_connected():
        raise InternalConsistencyError(
            "witness search needs a strongly connected closed pseudomanifold"
        )
    for fm, v, support in flip_supports(chi):
        if support != v and support != fm:
            break
    else:
        return None
    rest, outside = support & ~v, fm & ~support
    s_bit, t_bit = rest & -rest, outside & -outside
    cs = ring.express(K.labels_of(s_bit))
    ct = ring.express(K.labels_of(t_bit))
    witness = ring.multiply(cs, ct)
    image = ring.sq1(witness)
    expected = ring.multiply(witness, ring.add(cs, ct))
    if image != expected:
        raise InternalConsistencyError(
            "Leibniz evaluation disagrees with the square of the witness"
        )
    if image.is_zero():
        raise InternalConsistencyError(
            "flip support certifies a non-pullback but the witness square vanished"
        )
    i, s, t = [(fm & b - 1).bit_count() + 1 for b in (v, s_bit, t_bit)]
    return Sq1Witness(K.labels_of(fm), i, s, t, witness, image)
