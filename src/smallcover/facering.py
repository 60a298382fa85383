"""The mod-2 quotient ring Z_2[v_1..v_m]/(monomial ideal + row relations).

Graded linear algebra presentation: the variables on a pivot facet are
eliminated through the row relations, and monomials in the remaining
variables span each degree.  Every degree has one basis rule and one
normal-form representation:

- the basis of degree d is the set of standard monomials that are not
  congruent to a sum of higher (lex-later) monomials modulo the ideal;
- the normal forms are an h_d-row matrix over the degree's monomials, where
  bit i of row k is the coefficient of basis monomial k in the normal form
  of monomial i.  Reducing a vector is one parity per row.

A degree with at most _DIRECT_LIMIT monomials is built by echelonizing the
ideal with lowest-bit pivots (lazy inserts, one back-substitution); its
basis is the non-pivot set.  A larger degree of an instance whose K is a
closed pseudomanifold with the Z_2-cohomology of a sphere is built by
pairing against the basis of the complementary degree through the
top-degree functional.  A monomial not supported on a face of K lies in the
ideal, so the functional enumerates, and its recursion follows, only
face-supported monomials.  The pairing row of a basis monomial nu is read
off the functional's support: each top monomial t with value 1 sets the bit
of t/nu when nu divides t, looked up as the key t - nu (see below).
Pairing columns are selected from the highest monomial downward; as the
pairing is perfect, that is the same non-pivot set, so the route a degree
takes never changes a basis, a normal form or a rendered class.

A monomial is one int, its key: the exponent of the label at position p
sits in bits [w*p, w*p + w), with w = n.bit_length().  No degree exceeds n,
so no field carries and the product of two monomials is the sum of their
keys.  The difference t - nu of two keys is the quotient's key when nu
divides t; otherwise some field borrows, each borrow raising the decoded
degree by 2^w - 1, so it is never a key of degree deg t - deg nu.  The
presentation and the top-degree evaluator share this key space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement
from math import comb

from .charmap import CharacteristicMatrix, flip_supports
from .errors import InternalConsistencyError
from .gf2 import BitMatrix, bit_positions, echelon_insert, invert, reduce_echelon
from .homology import reduced_cohomology
from .simplicial import SimplicialComplex

# Degrees with more monomials than this go through top-degree pairing.
_DIRECT_LIMIT = 2500


class RingError(InternalConsistencyError):
    """Graded dimension mismatch or a falsified structural identity."""


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
    vertex_s: int
    vertex_t: int
    witness: RingClass
    image: RingClass


class GradedRingBasis:
    """Per-degree bases and normal forms for the quotient ring.

    Degrees are built lazily.  Degree-d dimensions are asserted against the
    h-vector; any mismatch raises RingError.
    """

    def __init__(self, K: SimplicialComplex, chi: CharacteristicMatrix):
        if chi.complex is not K and chi.complex != K:
            raise ValueError("characteristic matrix belongs to a different complex")
        if not K.is_pure():
            raise ValueError("graded basis requires a pure complex")
        self.K = K
        self.chi = chi
        self.n = chi.n
        if self.n != K.dim + 1:
            raise ValueError(f"matrix rank {self.n} != dim K + 1 = {K.dim + 1}")
        self.h = K.h_vector().h

        self._labels = K.labels
        self._label_pos = {v: i for i, v in enumerate(self._labels)}
        self.pivot_facet = K.facets[0]
        rewritten = chi.facet_coordinates(K.facet_masks[0])
        self.variables = tuple(v for v in self._labels if v not in set(self.pivot_facet))
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._subst = {v: 1 << i for v, i in self._var_index.items()}
        for r, u in enumerate(self.pivot_facet):
            bits = 0
            for j, v in enumerate(self._labels):
                if v in self._var_index and (rewritten[r] >> j) & 1:
                    bits |= 1 << self._var_index[v]
            self._subst[u] = bits
        self.num_vars = len(self.variables)
        self._width = w = self.n.bit_length()
        self._field = (1 << w) - 1
        # the low bit of every field, where an odd exponent shows
        self._low_bits = sum(1 << w * p for p in range(len(self._labels)))
        self._high_bits = (self._field ^ 1) * self._low_bits
        self._units = [1 << w * self._label_pos[v] for v in self.variables]
        self._subst_units = {
            v: [self._units[i] for i in bit_positions(b)] for v, b in self._subst.items()
        }

        self._gens = _minimal_nonfaces(K, self.n)
        self._gen_vectors_cache: dict[int, list[int]] = {}

        self._monomials: dict[int, list[int]] = {}
        self._mono_index: dict[int, dict[int, int]] = {}
        # echelon of the ideal in a direct degree: input to the next degree
        self._pivot_rows: dict[int, dict[int, int]] = {}
        self._basis_idx: dict[int, list[int]] = {}
        self._nf_rows: dict[int, list[int]] = {}
        self._gen_class_cache: dict[int, RingClass] = {}
        self._top_keys: list[int] | None = None
        self._facet_for_support: dict[int, int] = {}
        self._facet_rewrite: dict[int, list[list[int]]] = {}
        self._dual_ok: bool | None = None

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
        if d not in self._gen_vectors_cache:
            vectors = []
            for gen in self._gens:
                if len(gen) != d:
                    continue
                vec = 1
                for deg, label in enumerate(gen):
                    nxt = 0
                    for unit in self._subst_units[label]:
                        nxt ^= self._shift(deg, vec, unit)
                    vec = nxt
                vectors.append(vec)
            self._gen_vectors_cache[d] = vectors
        return self._gen_vectors_cache[d]

    def _shift(self, d: int, vec: int, key: int, e: int = 1) -> int:
        """Multiply a degree-d vector over the monomials by a degree-e monomial."""
        monos = self.monomials(d)
        self.monomials(d + e)
        index = self._mono_index[d + e]
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
        if len(self.monomials(d)) <= _DIRECT_LIMIT:
            self._build_direct(d)
        else:
            self._build_dual(d)

    def _build_direct(self, d: int) -> None:
        rows: dict[int, int] = {}
        if d > 0:
            self._ensure_degree(d - 1)
            if d - 1 not in self._pivot_rows:
                raise RingError("direct elimination needs the previous degree echelon")
            for prev in self._pivot_rows[d - 1].values():
                for unit in self._units:
                    echelon_insert(rows, self._shift(d - 1, prev, unit))
            for gen_vec in self._gen_vectors(d):
                echelon_insert(rows, gen_vec)
            reduce_echelon(rows)
        count = len(self.monomials(d))
        dim = count - len(rows)
        if dim != self.dimension(d):
            raise RingError(
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

    def _build_dual(self, d: int) -> None:
        if not self._duality_available():
            raise RingError(
                f"degree {d} has {len(self.monomials(d))} monomials, beyond direct "
                "elimination, and top-degree duality needs a strongly connected "
                "closed pseudomanifold with the Z_2-cohomology of a sphere"
            )
        if self.h[self.n] != 1:
            raise RingError("top-degree duality needs a one-dimensional top degree")
        co = self.n - d
        if len(self.monomials(co)) > _DIRECT_LIMIT:
            raise RingError(f"instance too large: both degree {d} and {co} exceed limits")
        self._ensure_degree(co)
        support = self._top_support()
        monos = self.monomials(d)
        co_monos = self.monomials(co)
        index = self._mono_index[d]
        frows = []
        for b in self._basis_idx[co]:
            nu = co_monos[b]
            bits = 0
            # exact: t - nu is a degree-d key only when nu divides t
            for t in support:
                i = index.get(t - nu)
                if i is not None:
                    bits |= 1 << i
            frows.append(bits)
        pairing = BitMatrix(len(frows), len(monos), tuple(frows))
        columns = pairing.column_bits()
        # highest-first greedy: the direct route's non-pivot set
        selected: list[int] = []
        echelon: dict[int, int] = {}
        nrows = len(frows)
        for j in range(len(monos) - 1, -1, -1):
            if len(selected) == nrows:
                break
            if echelon_insert(echelon, columns[j]):
                selected.append(j)
        if len(selected) != nrows or nrows != self.dimension(d):
            raise RingError(
                f"degree {d} pairing rank {len(selected)} does not match "
                f"h_{d} = {self.dimension(d)}"
            )
        selected.sort()
        # the rows that read the identity on the selected columns
        square = BitMatrix.from_column_bits(nrows, [columns[j] for j in selected])
        rows = list((invert(square) @ pairing).row_bits)
        self._validate_dual_degree(d, rows)
        self._basis_idx[d], self._nf_rows[d] = selected, rows

    def _duality_available(self) -> bool:
        if self._dual_ok is None:
            self._dual_ok = (
                self.K.is_closed_pseudomanifold()
                and self.K.is_strongly_connected()
                and _is_z2_homology_sphere(self.K)
            )
        return self._dual_ok

    def _validate_dual_degree(self, d: int, nf_rows: list[int]) -> None:
        """Pairing functionals must kill ideal elements: check generator
        multiples against deterministic monomial cofactors."""
        for e in range(1, d + 1):
            cofactors = self.monomials(d - e)[:2]
            for vec in self._gen_vectors(e):
                for nu in cofactors:
                    shifted = self._shift(e, vec, nu, d - e)
                    for row in nf_rows:
                        if (row & shifted).bit_count() & 1:
                            raise RingError(
                                f"degree {d} pairing functional fails to annihilate "
                                f"an ideal element of degree {e}"
                            )

    # ----- top-degree evaluation ------------------------------------------

    def _facet_containing(self, mask: int) -> int:
        """Mask of the first facet containing the face with mask `mask`."""
        fm = self._facet_for_support.get(mask)
        if fm is None:
            fm = next(f for f in self.K.facet_masks if f & mask == mask)
            self._facet_for_support[mask] = fm
        return fm

    def _rewrite_rows_for(self, fm: int) -> list[list[int]]:
        """Per facet vertex, the label positions off the facet in its coordinate row."""
        if fm not in self._facet_rewrite:
            self._facet_rewrite[fm] = [
                bit_positions(row & ~fm) for row in self.chi.facet_coordinates(fm)
            ]
        return self._facet_rewrite[fm]

    def _top_support(self) -> list[int]:
        """Keys of the degree-n monomials in the non-pivot variables of value 1.

        Each face sigma off the pivot facet with |sigma| <= n carries the
        C(n-1, |sigma|-1) exponent vectors of support sigma.  One factor of
        the lowest repeated variable is rewritten in the basis of a facet
        containing the support; squarefree facet monomials are the generator.
        """
        if self._top_keys is None:
            faces = self.K.all_face_masks()
            n, w, high_bits = self.n, self._width, self._high_bits
            memo: dict[int, int] = {}

            def value(key: int, mask: int) -> int:
                got = memo.get(key)
                if got is None:
                    if mask.bit_count() == n:
                        got = 1
                    else:
                        got = 0
                        high = key & high_bits
                        rep = ((high & -high).bit_length() - 1) // w
                        fm = self._facet_containing(mask)
                        rest = key - (1 << w * rep)
                        row = self._rewrite_rows_for(fm)[(fm & (1 << rep) - 1).bit_count()]
                        for q in row:
                            if mask | 1 << q in faces:
                                got ^= value(rest + (1 << w * q), mask | 1 << q)
                    memo[key] = got
                return got

            keys = []
            pivot = self.K.facet_masks[0]
            for sigma in faces:
                size = sigma.bit_count()
                if sigma & pivot or not 0 < size <= n:
                    continue
                units = [1 << w * p for p in bit_positions(sigma)]
                # stars and bars: n - 1 gaps, size - 1 of them cut
                for cuts in combinations(range(1, n), size - 1):
                    ends = zip((0, *cuts), (*cuts, n))
                    key = sum(u * (b - a) for u, (a, b) in zip(units, ends))
                    if value(key, sigma):
                        keys.append(key)
            if not keys:
                raise RingError("top-degree functional vanished identically")
            self._top_keys = keys
        return self._top_keys

    # ----- normal forms and ring operations -------------------------------

    def _reduce_vector(self, d: int, vec: int) -> int:
        """Basis coordinates of a degree-d vector over the monomials."""
        coords = 0
        for k, row in enumerate(self._nf_rows[d]):
            if (row & vec).bit_count() & 1:
                coords |= 1 << k
        return coords

    def _reduce_monomial(self, d: int, idx: int) -> int:
        return self._reduce_vector(d, 1 << idx)

    def _basis_key(self, d: int, pos: int) -> int:
        return self._monomials[d][self._basis_idx[d][pos]]

    def one(self) -> RingClass:
        self._ensure_degree(0)
        return RingClass(0, 1)

    def zero(self, d: int) -> RingClass:
        return RingClass(d, 0)

    def add(self, x: RingClass, y: RingClass) -> RingClass:
        if x.degree != y.degree:
            raise RingError("cannot add classes of different degrees")
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

    def _generator_class(self, label: int) -> RingClass:
        got = self._gen_class_cache.get(label)
        if got is None:
            if label not in self._label_pos:
                raise ValueError(f"unknown vertex label {label}")
            self._ensure_degree(1)
            got = RingClass(1, self._reduce_vector(1, self._subst[label]))
            self._gen_class_cache[label] = got
        return got

    def express(self, monomial) -> RingClass:
        """Normal form of a monomial given as vertex labels with repetition."""
        c = self.one()
        for label in monomial:
            c = self.multiply(c, self._generator_class(label))
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

    def sq1_vanishes_on_degree(self, d: int) -> bool:
        if d % 2:
            raise ValueError(f"degree {d} is odd")
        if d < 0 or d > self.n or d + 1 > self.n:
            return True
        return all(self.sq1(c).is_zero() for c in self.basis_classes(d))

    def total_sq(self, x: RingClass) -> dict[int, RingClass]:
        """Total Steenrod square of a homogeneous class, degrees x.deg..n.

        Sq is multiplicative with Sq(v) = v + v^2, so Sq(v^e) = v^e (1 + v)^e,
        and by Lucas C(e, c) is odd exactly when c is a binary submask of e.
        """
        d = x.degree
        self._ensure_degree(d)
        keys: dict[int, list[int]] = {}
        for pos in bit_positions(x.bits):
            key = self._basis_key(d, pos)
            terms = [(key, d)]
            for unit in self._units:
                e = key // unit & self._field
                terms = [
                    (t + c * unit, deg + c)
                    for t, deg in terms
                    for c in range(e + 1)
                    if not c & ~e and deg + c <= self.n
                ]
            for t, deg in terms:
                keys.setdefault(deg, []).append(t)
        out = {}
        for deg in sorted(keys):
            self._ensure_degree(deg)
            index = self._mono_index[deg]
            vec = 0
            for t in keys[deg]:
                vec ^= 1 << index[t]
            bits = self._reduce_vector(deg, vec)
            if bits:
                out[deg] = RingClass(deg, bits)
        return out

    def tau_classes(self, coloring: dict[int, int]) -> list[RingClass]:
        """Color-class sums of generators; raises if they are not all equal."""
        colors = sorted(set(coloring.values()))
        expected = self.n + 1 if (self.n + 1) in colors else self.n
        taus = []
        for color in range(1, expected + 1):
            acc = self.zero(1)
            for label, c in coloring.items():
                if c == color:
                    acc = self.add(acc, self._generator_class(label))
            taus.append(acc)
        if any(t != taus[0] for t in taus[1:]):
            raise RingError("color-class sums are unequal: coloring is not valid")
        return taus

    def tau(self, coloring: dict[int, int]) -> RingClass:
        return self.tau_classes(coloring)[0]

    def square_identity_check(self, coloring: dict[int, int]) -> bool:
        """Every generator g satisfies g^2 = tau * g."""
        t = self.tau(coloring)
        for label in self._labels:
            g = self._generator_class(label)
            if self.multiply(g, g) != self.multiply(t, g):
                return False
        return True

    def total_sw(self) -> list[RingClass]:
        """Total Stiefel-Whitney class: product of (1 + generator), by degree."""
        element: dict[int, RingClass] = {0: self.one()}
        for label in self._labels:
            g = self._generator_class(label)
            nxt = dict(element)
            for deg, cls in element.items():
                if deg + 1 > self.n:
                    continue
                term = self.multiply(cls, g)
                prev = nxt.get(deg + 1)
                nxt[deg + 1] = term if prev is None else self.add(prev, term)
            element = nxt
        return [element.get(d, self.zero(d)) for d in range(self.n + 1)]

    def sw_pullback_check(self, coloring: dict[int, int]) -> bool:
        """Total SW class equals the binomial expansion of (1 + tau)^(n+1)."""
        t = self.tau(coloring)
        sw = self.total_sw()
        power = self.one()
        for d in range(self.n + 1):
            if d > 0:
                power = self.multiply(power, t)
            expected = power if comb(self.n + 1, d) % 2 else self.zero(d)
            if sw[d] != expected:
                return False
        return True

    def verify_all_dimensions(self) -> None:
        """Force-build every degree; RingError on any h-vector mismatch."""
        for d in range(self.n + 1):
            self._ensure_degree(d)

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


def _minimal_nonfaces(K: SimplicialComplex, max_size: int) -> list[tuple[int, ...]]:
    """Non-faces of at most max_size vertices whose proper subsets are all
    faces, by size, then mask.  Each is met once, as the face left when its
    highest vertex is removed plus that vertex."""
    faces = K.all_face_masks()
    out = []
    for s in range(1, max_size + 1):
        found = []
        for fm in K.face_masks(s - 2):
            for b in range(fm.bit_length(), K.vertex_count):
                m = fm | 1 << b
                if m not in faces and all(m ^ 1 << i in faces for i in bit_positions(fm)):
                    found.append(m)
        out += [tuple(K.labels[i] for i in bit_positions(m)) for m in sorted(found)]
    return out


def _is_z2_homology_sphere(K: SimplicialComplex) -> bool:
    """K has the Z_2-cohomology of a (dim K)-sphere.  By universal
    coefficients that is integral cohomology Z in degree dim K only, plus
    odd torsion.  A closed 3-manifold with H^1(K; Z_2) != 0 meets the
    h-vector law in every degree but 3, yet its top-degree pairing is not
    perfect."""
    groups = reduced_cohomology(K, "Z").groups
    ranks = {q: g.rank for q, g in groups.items() if g.rank}
    return ranks == {K.dim: 1} and all(g.mu() == 0 for g in groups.values())


def build_graded_basis(
    K: SimplicialComplex, chi: CharacteristicMatrix
) -> GradedRingBasis:
    return GradedRingBasis(K, chi)


def find_sq1_witness(
    K: SimplicialComplex,
    chi: CharacteristicMatrix,
    basis: GradedRingBasis | None = None,
) -> Sq1Witness | None:
    """A degree-2 monomial class with nonzero first square, when one exists.

    Scans ridge-flip supports for a facet position whose support is neither
    the singleton nor the full index set; returns None exactly when the
    instance is a pullback from the simplex.
    """
    if not K.is_closed_pseudomanifold() or not K.is_strongly_connected():
        raise ValueError("witness search needs a strongly connected closed pseudomanifold")
    full = frozenset(range(1, chi.n + 1))
    for facet, i, s_set in flip_supports(chi):
        if s_set != frozenset({i}) and s_set != full:
            break
    else:
        return None
    s = min(s_set - {i})
    t = min(full - s_set)
    u_s = facet[s - 1]
    u_t = facet[t - 1]
    b = basis if basis is not None else build_graded_basis(K, chi)
    cs = b.express([u_s])
    ct = b.express([u_t])
    witness = b.multiply(cs, ct)
    image = b.sq1(witness)
    expected = b.multiply(witness, b.add(cs, ct))
    if image != expected:
        raise RingError("Leibniz evaluation disagrees with the square of the witness")
    if image.is_zero():
        raise RingError(
            "flip support certifies a non-pullback but the witness square vanished"
        )
    return Sq1Witness(facet, i, s, t, u_s, u_t, witness, image)
