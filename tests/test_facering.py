"""Graded ring: dimensions, products, squares, characteristic classes."""

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcover import facering
from smallcover.catalog import catalog
from smallcover.charmap import (
    CharacteristicMatrix,
    block_product,
    classify_pullback,
    lambda_boundary_simplex,
)
from smallcover.cli import sample_random_instance
from smallcover.facering import RingError, build_graded_basis, find_sq1_witness
from smallcover.gf2 import BitMatrix, BitVec
from smallcover.simplicial import SimplicialComplex, cross_polytope_boundary


def octahedron_linear():
    K = cross_polytope_boundary(3)
    cols = [BitVec.unit(3, i) for i in range(3)]
    return CharacteristicMatrix(K, BitMatrix.from_columns(cols + cols))


def join_negative():
    s0 = SimplicialComplex([1, 2], [(1,), (2,)])
    chi_s0 = CharacteristicMatrix(
        s0, BitMatrix.from_columns([BitVec.unit(1, 0), BitVec.unit(1, 0)])
    )
    return block_product(lambda_boundary_simplex(2), chi_s0)


def parity_instances():
    """Catalog complexes with a matrix and n <= 6, plus the join witness."""
    out = [
        pytest.param(entry.chi, id=name)
        for name, entry in sorted(catalog().items())
        if entry.chi is not None and entry.n <= 6
    ]
    return out + [pytest.param(join_negative(), id="join_negative")]


def ring_instances():
    out = []
    for n in (2, 3, 4):
        chi = lambda_boundary_simplex(n)
        out.append((f"projective-{n}", chi.complex, chi))
    chi = octahedron_linear()
    out.append(("torus-3", chi.complex, chi))
    chi = join_negative()
    out.append(("join", chi.complex, chi))
    return out


class TestDimensions:
    def test_dimensions_equal_h_vector(self):
        for name, K, chi in ring_instances():
            basis = build_graded_basis(K, chi)
            basis.verify_all_dimensions()
            h = K.h_vector().h
            for d in range(chi.n + 1):
                assert basis.dimension(d) == h[d], name

    def test_projective_plane_dims(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        assert [basis.dimension(d) for d in range(3)] == [1, 1, 1]

    def test_out_of_range_degrees_are_zero(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        assert basis.dimension(3) == 0
        assert basis.dimension(-1) == 0

    def test_dual_route_matches_direct(self, monkeypatch):
        # force the pairing route on a small sphere and compare dimensions and
        # products against the plain elimination route
        chi = octahedron_linear()
        direct = build_graded_basis(chi.complex, chi)
        monkeypatch.setattr(facering, "_DIRECT_LIMIT", 4)
        dual = build_graded_basis(chi.complex, chi)
        dual.verify_all_dimensions()
        monkeypatch.undo()
        direct.verify_all_dimensions()
        assert any(len(dual.monomials(d)) > 4 for d in range(4))
        for v in chi.complex.labels:
            for w in chi.complex.labels:
                a = direct.multiply(direct.express([v]), direct.express([w]))
                b = dual.multiply(dual.express([v]), dual.express([w]))
                ra = direct.render(a)
                rb = dual.render(b)
                assert ra == rb, (v, w, ra, rb)

    @pytest.mark.parametrize("make", [octahedron_linear, join_negative])
    def test_dual_route_full_tables_match(self, make, monkeypatch):
        # classes are carried across routes by re-reducing their basis
        # monomials in the other route, so the product and Sq1 tables are
        # compared without assuming the two routes share a basis
        chi = make()
        n = chi.n
        direct = build_graded_basis(chi.complex, chi)
        limit = len(direct.monomials(n // 2))
        monkeypatch.setattr(facering, "_DIRECT_LIMIT", limit)
        dual = build_graded_basis(chi.complex, chi)
        dual.verify_all_dimensions()
        monkeypatch.undo()
        direct.verify_all_dimensions()
        assert any(len(dual.monomials(d)) > limit for d in range(n + 1))

        def crossed(cls):
            acc = 0
            for pos in range(direct.dimension(cls.degree)):
                if (cls.bits >> pos) & 1:
                    idx = direct._basis_idx[cls.degree][pos]
                    acc ^= dual._reduce_monomial(cls.degree, idx)
            return acc

        for d1 in range(n + 1):
            for d2 in range(d1, n + 1):
                if d1 + d2 > n:
                    continue
                for x1 in direct.basis_classes(d1):
                    for x2 in direct.basis_classes(d2):
                        y1 = type(x1)(d1, crossed(x1))
                        y2 = type(x2)(d2, crossed(x2))
                        p_direct = direct.multiply(x1, x2)
                        p_dual = dual.multiply(y1, y2)
                        assert crossed(p_direct) == p_dual.bits, (d1, d2)
        for d in range(n):
            for x in direct.basis_classes(d):
                y = type(x)(d, crossed(x))
                assert crossed(direct.sq1(x)) == dual.sq1(y).bits, d

    @pytest.mark.parametrize("chi", parity_instances())
    def test_route_does_not_change_the_ring(self, chi, monkeypatch):
        # every degree above the middle goes through top-degree pairing when
        # the limit is the middle degree's monomial count; bases, normal forms
        # and everything derived from them must equal the default build
        n = chi.n
        default = build_graded_basis(chi.complex, chi)
        default.verify_all_dimensions()
        limit = len(default.monomials(n // 2))
        monkeypatch.setattr(facering, "_DIRECT_LIMIT", limit)
        paired = build_graded_basis(chi.complex, chi)
        paired.verify_all_dimensions()
        monkeypatch.undo()
        if default.num_vars >= 2:
            assert any(len(paired.monomials(d)) > limit for d in range(n + 1))
        for d in range(n + 1):
            assert paired._basis_idx[d] == default._basis_idx[d], d
            for idx in range(len(default.monomials(d))):
                assert paired._reduce_monomial(d, idx) == default._reduce_monomial(
                    d, idx
                ), (d, idx)
        for d1 in range(n + 1):
            for x in default.basis_classes(d1):
                assert paired.render(x) == default.render(x)
                assert paired.sq1(x) == default.sq1(x)
                for d2 in range(d1, n + 1 - d1):
                    for y in default.basis_classes(d2):
                        assert paired.multiply(x, y) == default.multiply(x, y)

    def test_ghost_vertex_contributes_zero_class(self):
        K = SimplicialComplex([1, 2, 3], [(1,), (2,)])
        chi = CharacteristicMatrix(
            K, BitMatrix.from_columns([BitVec.unit(1, 0)] * 3)
        )
        basis = build_graded_basis(K, chi)
        basis.verify_all_dimensions()
        assert basis.express([3]).is_zero()


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


class TestSphereGate:
    """Top-degree pairing is perfect only on a Z_2-homology sphere.  S^1 x S^2
    meets the h-vector law in every degree but 3, so pairing there would
    assert the wrong dimension h_3."""

    def test_default_routes_raise_the_dimension_law(self):
        chi = circle_times_tetrahedron_boundary()
        assert len(chi.complex.facets) == 36
        assert chi.complex.h_vector().h == (1, 8, 18, 8, 1)
        ring = build_graded_basis(chi.complex, chi)
        with pytest.raises(RingError, match="degree 3 dimension 12 does not match h_3 = 8"):
            ring.verify_all_dimensions()

    def test_pairing_route_refused_off_a_sphere(self, monkeypatch):
        chi = circle_times_tetrahedron_boundary()
        monkeypatch.setattr(facering, "_DIRECT_LIMIT", 100)
        ring = build_graded_basis(chi.complex, chi)
        with pytest.raises(RingError, match="Z_2-cohomology of a sphere"):
            ring.verify_all_dimensions()


class TestExpressAndMultiply:
    def test_projective_plane_generators_coincide(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        u1, u2, u3 = (basis.express([v]) for v in (1, 2, 3))
        assert u1 == u2 == u3
        assert not u1.is_zero()

    def test_truncation_above_top_degree(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([1])
        uu = basis.multiply(u, u)
        assert not uu.is_zero()
        assert basis.multiply(uu, u).is_zero()

    def test_nonedge_product_vanishes(self):
        chi = octahedron_linear()
        basis = build_graded_basis(chi.complex, chi)
        # antipodal vertices 1 and 4 span no edge
        prod = basis.multiply(basis.express([1]), basis.express([4]))
        assert prod.is_zero()

    def test_express_power_equals_repeated_multiply(self):
        chi = lambda_boundary_simplex(3)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([2])
        assert basis.express([2, 2, 2]) == basis.multiply(basis.multiply(u, u), u)

    def test_adding_classes_of_different_degrees_is_internal(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        with pytest.raises(RingError):
            basis.add(basis.express([1]), basis.one())

    def test_commutativity_and_associativity(self):
        chi = lambda_boundary_simplex(4)
        basis = build_graded_basis(chi.complex, chi)
        rng = random.Random(2)
        gens = [basis.express([v]) for v in chi.complex.labels]
        for _ in range(20):
            a, b, c = (gens[rng.randrange(len(gens))] for _ in range(3))
            assert basis.multiply(a, b) == basis.multiply(b, a)
            assert basis.multiply(basis.multiply(a, b), c) == basis.multiply(
                a, basis.multiply(b, c)
            )


class TestSq1:
    def test_projective_plane_sq1_is_squaring(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([1])
        assert basis.sq1(u) == basis.multiply(u, u)

    def test_projective_four_sq1_of_square_vanishes(self):
        chi = lambda_boundary_simplex(4)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([1])
        u2 = basis.multiply(u, u)
        assert basis.sq1(u2).is_zero()

    def test_sq1_sq1_is_zero_everywhere(self):
        for name, K, chi in ring_instances():
            basis = build_graded_basis(K, chi)
            for d in range(chi.n + 1):
                for cls in basis.basis_classes(d):
                    assert basis.sq1(basis.sq1(cls)).is_zero(), (name, d)

    def test_leibniz_identity_on_random_pairs(self):
        rng = random.Random(31)
        for name, K, chi in ring_instances():
            basis = build_graded_basis(K, chi)
            degrees = [d for d in range(1, chi.n) if basis.dimension(d)]
            for _ in range(15):
                d1 = rng.choice(degrees)
                d2 = rng.choice(degrees)
                xs = basis.basis_classes(d1)
                ys = basis.basis_classes(d2)
                x = xs[rng.randrange(len(xs))]
                y = ys[rng.randrange(len(ys))]
                lhs = basis.sq1(basis.multiply(x, y))
                rhs = basis.add(
                    basis.multiply(basis.sq1(x), y),
                    basis.multiply(x, basis.sq1(y)),
                )
                assert lhs == rhs, name

    def test_join_sq1_nonzero_on_degree_two(self):
        chi = join_negative()
        basis = build_graded_basis(chi.complex, chi)
        assert not basis.sq1_vanishes_on_degree(2)

    def test_degree_zero_always_vanishes(self):
        for name, K, chi in ring_instances():
            basis = build_graded_basis(K, chi)
            assert basis.sq1_vanishes_on_degree(0)

    def test_odd_degree_rejected(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        with pytest.raises(ValueError):
            basis.sq1_vanishes_on_degree(1)


class TestTauAndSquares:
    def test_projective_tau_is_generator(self):
        for n in (2, 3):
            chi = lambda_boundary_simplex(n)
            basis = build_graded_basis(chi.complex, chi)
            coloring = classify_pullback(chi).coloring
            taus = basis.tau_classes(coloring)
            assert len(taus) == n + 1
            assert taus[0] == basis.express([1])

    def test_linear_model_tau_vanishes(self):
        chi = octahedron_linear()
        basis = build_graded_basis(chi.complex, chi)
        coloring = classify_pullback(chi).coloring
        taus = basis.tau_classes(coloring)
        assert len(taus) == 3
        assert all(t.is_zero() for t in taus)

    def test_square_identity(self):
        for chi in (lambda_boundary_simplex(3), octahedron_linear()):
            basis = build_graded_basis(chi.complex, chi)
            coloring = classify_pullback(chi).coloring
            assert basis.square_identity_check(coloring)

    def test_total_square_formula(self):
        # Sq(x) = (1 + tau)^q x for homogeneous x of degree q
        from math import comb

        for n in (2, 3, 4):
            chi = lambda_boundary_simplex(n)
            basis = build_graded_basis(chi.complex, chi)
            tau = basis.tau(classify_pullback(chi).coloring)
            for q in range(n + 1):
                for x in basis.basis_classes(q)[:10]:
                    total = basis.total_sq(x)
                    power = basis.one()
                    for i in range(n - q + 1):
                        if i > 0:
                            power = basis.multiply(power, tau)
                        expected = (
                            basis.multiply(power, x)
                            if comb(q, i) % 2
                            else basis.zero(q + i)
                        )
                        got = total.get(q + i, basis.zero(q + i))
                        assert got == expected, (n, q, i)


class TestStiefelWhitney:
    def test_projective_plane_total_class(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([1])
        sw = basis.total_sw()
        assert sw[0] == basis.one()
        assert sw[1] == u
        assert sw[2] == basis.multiply(u, u)

    def test_pullback_formula(self):
        for chi in (
            lambda_boundary_simplex(2),
            lambda_boundary_simplex(4),
            octahedron_linear(),
        ):
            basis = build_graded_basis(chi.complex, chi)
            coloring = classify_pullback(chi).coloring
            assert basis.sw_pullback_check(coloring)

    def test_torus_is_stably_trivial(self):
        chi = octahedron_linear()
        basis = build_graded_basis(chi.complex, chi)
        sw = basis.total_sw()
        assert sw[0] == basis.one()
        assert all(c.is_zero() for c in sw[1:])

    def test_square_torus_total_class_is_one(self):
        from smallcover.simplicial import polygon

        K = polygon(4)
        cols = [BitVec.unit(2, 0), BitVec.unit(2, 1)] * 2
        chi = CharacteristicMatrix(K, BitMatrix.from_columns(cols))
        basis = build_graded_basis(K, chi)
        sw = basis.total_sw()
        assert sw[0] == basis.one()
        assert sw[1].is_zero() and sw[2].is_zero()


class TestPoincarePairing:
    def test_degree_one_pairs_nondegenerately(self):
        for name, K, chi in ring_instances():
            if not K.is_closed_pseudomanifold():
                continue
            basis = build_graded_basis(K, chi)
            n = chi.n
            for a in basis.basis_classes(1):
                assert any(
                    not basis.multiply(a, b).is_zero()
                    for b in basis.basis_classes(n - 1)
                ), name


class TestWitness:
    def test_join_witness_exists_and_verifies(self):
        chi = join_negative()
        w = find_sq1_witness(chi.complex, chi)
        assert w is not None
        basis = build_graded_basis(chi.complex, chi)
        cls = basis.multiply(basis.express([w.vertex_s]), basis.express([w.vertex_t]))
        image = basis.sq1(cls)
        assert not image.is_zero()
        assert image == basis.multiply(
            cls, basis.add(basis.express([w.vertex_s]), basis.express([w.vertex_t]))
        )

    def test_pullbacks_have_no_witness(self):
        for chi in (lambda_boundary_simplex(3), octahedron_linear()):
            assert find_sq1_witness(chi.complex, chi) is None


def total_sq_oracle(ring, x):
    """Total square as the product over the monomial's variables of the
    reduced classes (w + w^2), multiplied out class by class."""
    monos = list(combinations_with_replacement(range(ring.num_vars), x.degree))
    out = {}
    for pos in range(ring.dimension(x.degree)):
        if not (x.bits >> pos) & 1:
            continue
        element = {0: ring.one()}
        for i in monos[ring._basis_idx[x.degree][pos]]:
            w = ring.express([ring.variables[i]])
            nxt = {}
            for deg, cls in element.items():
                for factor in (w, ring.multiply(w, w)):
                    nd = deg + factor.degree
                    if nd <= ring.n:
                        term = ring.multiply(cls, factor)
                        nxt[nd] = ring.add(nxt[nd], term) if nd in nxt else term
            element = nxt
        for deg, cls in element.items():
            out[deg] = out.get(deg, 0) ^ cls.bits
    return {deg: bits for deg, bits in out.items() if bits}


def check_total_sq(ring):
    for d in range(ring.n + 1):
        for x in ring.basis_classes(d):
            got = ring.total_sq(x)
            assert {deg: c.bits for deg, c in got.items()} == total_sq_oracle(ring, x), d
            if d < ring.n:
                assert got.get(d + 1, ring.zero(d + 1)) == ring.sq1(x), d


class TestMonomialEncoding:
    @pytest.mark.parametrize("chi", parity_instances())
    def test_total_square_matches_product_of_generator_squares(self, chi):
        check_total_sq(build_graded_basis(chi.complex, chi))

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(st.sampled_from(["cross4", "rp2xrp2"]), st.integers(0, 2**32 - 1))
    def test_total_square_on_sampled_instances(self, name, seed):
        chi, _ = sample_random_instance(name, random.Random(seed))
        check_total_sq(build_graded_basis(chi.complex, chi))

    @pytest.mark.parametrize("name", ["cross4mixed", "deltas0", "bier9"])
    def test_keys_decode_to_lexicographic_monomials(self, name):
        # the exponent of every variable, up to n, reads back from its own
        # field: no field carries into the next one
        chi = catalog()[name].chi
        ring = build_graded_basis(chi.complex, chi)
        fields = [
            ring._width * chi.complex.labels.index(v) for v in ring.variables
        ]
        for d in range(chi.n + 1):
            decoded = []
            for key in ring.monomials(d):
                exponents = [(key >> s) & ((1 << ring._width) - 1) for s in fields]
                assert sum(e << s for e, s in zip(exponents, fields)) == key
                decoded.append(tuple(i for i, e in enumerate(exponents) for _ in range(e)))
            assert decoded == list(
                combinations_with_replacement(range(ring.num_vars), d)
            ), (name, d)
