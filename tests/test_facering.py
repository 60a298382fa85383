"""Graded ring: dimensions, products, squares, characteristic classes."""

import hashlib
import random
import time
from itertools import combinations, combinations_with_replacement

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcover import facering
from smallcover.bier import bier_instance
from smallcover.catalog import catalog
from smallcover.charmap import (
    CharacteristicMatrix,
    block_product,
    classify_pullback,
    first_dependent_facet,
    lambda_boundary_simplex,
)
from smallcover.cli import main, sample_random_instance
from smallcover.cover import RealToricSpace, evaluate_conditions
from smallcover.errors import InternalConsistencyError
from smallcover.facering import (
    GradedRingBasis,
    RingClass,
    build_graded_basis,
    find_sq1_witness,
    sq1_degree,
)
from smallcover.gf2 import BitMatrix, bit_positions
from smallcover.instancefile import emit_instance
from smallcover.simplicial import SimplicialComplex, cross_polytope_boundary
from oracles import circle_times_tetrahedron_boundary


def octahedron_linear():
    K = cross_polytope_boundary(3)
    cols = [1 << i for i in range(3)]
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(3, cols + cols))


def join_negative():
    s0 = SimplicialComplex([1, 2], [(1,), (2,)])
    chi_s0 = CharacteristicMatrix(s0, BitMatrix.from_column_bits(1, [1, 1]))
    return block_product(lambda_boundary_simplex(2), chi_s0)


def parity_instances():
    """Catalog complexes with a matrix and n <= 6, plus the join witness."""
    out = [
        pytest.param(entry.chi, id=name)
        for name, entry in sorted(catalog().items())
        if entry.chi is not None and entry.n <= 6
    ]
    return out + [pytest.param(join_negative(), id="join_negative")]


def rp2_six_vertex():
    """The 6-vertex projective plane with a sampled matrix: a closed
    pseudomanifold that no search shells."""
    return sample_random_instance("rp2_6v", random.Random(0))[0]


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
            oracles.verify_all_dimensions(basis)
            h = K.h_vector()
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

    @pytest.mark.parametrize("chi", parity_instances())
    def test_route_does_not_change_the_ring(self, chi):
        # deciding Sq1 on the cheaper side builds fewer degrees; each degree
        # it builds, and each answer, equals that of the full direct ring
        n = chi.n
        full = build_graded_basis(chi.complex, chi)
        oracles.verify_all_dimensions(full)
        lazy = build_graded_basis(chi.complex, chi)
        for d in range(0, n + 1, 2):
            assert lazy.sq1_vanishes_on_degree(d, True) == full.sq1_vanishes_on_degree(d), d
        assert max(lazy._nf_rows) == max(sq1_degree(n, d, True) for d in range(0, n + 1, 2))
        for d in lazy._nf_rows:
            assert lazy._basis_idx[d] == full._basis_idx[d], d
            for idx in range(len(full.monomials(d))):
                got = oracles.reduce_monomial(lazy, d, idx)
                assert got == oracles.reduce_monomial(full, d, idx), (d, idx)

    def test_ghost_vertex_contributes_zero_class(self):
        K = SimplicialComplex([1, 2, 3], [(1,), (2,)])
        chi = CharacteristicMatrix(K, BitMatrix.from_column_bits(1, [1] * 3))
        basis = build_graded_basis(K, chi)
        oracles.verify_all_dimensions(basis)
        assert basis.express([3]).is_zero()


class TestSphereGate:
    """The Wu side reads the ring as the cohomology of a closed manifold with
    a perfect pairing, which needs a certified sphere.  S^1 x S^2 is a closed
    3-manifold that no search shells; it meets the h-vector law in every
    degree but 3, and only building that degree directly shows it."""

    def test_default_routes_raise_the_dimension_law(self):
        chi = circle_times_tetrahedron_boundary()
        assert len(chi.complex.facets) == 36
        assert chi.complex.h_vector() == (1, 8, 18, 8, 1)
        ring = build_graded_basis(chi.complex, chi)
        with pytest.raises(
            InternalConsistencyError, match="degree 3 dimension 12 does not match h_3 = 8"
        ):
            oracles.verify_all_dimensions(ring)

    @pytest.mark.parametrize(
        "make, shelling_found, h3",
        [
            pytest.param(rp2_six_vertex, False, "dimension 1 does not match h_3 = 0", id="rp2_6v"),
            pytest.param(
                circle_times_tetrahedron_boundary,
                "budget-exceeded",
                "dimension 12 does not match h_3 = 8",
                id="staircase",
            ),
        ],
    )
    def test_wu_side_refused_off_a_sphere(self, make, shelling_found, h3, monkeypatch):
        # uncertified controls: an exhausted search and a search that ran
        # out of budget; every degree is built directly
        chi = make()
        M = RealToricSpace(chi.complex, chi)
        monkeypatch.setattr(GradedRingBasis, "wu_vanishes_on_degree", refuse_wu_side)
        with pytest.raises(InternalConsistencyError, match=f"degree 3 {h3}"):
            evaluate_conditions(M)
        assert M.hypotheses.shelling_found == shelling_found
        assert M.complex.is_closed_pseudomanifold() and not M.sphere_certified

    def test_analyze_exits_3_within_seconds(self, tmp_path, capsys):
        chi = circle_times_tetrahedron_boundary()
        path = tmp_path / "staircase.json"
        path.write_text(emit_instance("staircase", chi.complex, chi), encoding="utf-8")
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 3
        # no search shells this complex, so only the budget ends it
        assert time.perf_counter() - start < 60
        assert "degree 3 dimension 12 does not match h_3 = 8" in capsys.readouterr().err


def refuse_wu_side(ring, e):
    raise AssertionError("the Wu side was taken without a sphere certificate")


def check_wu_side(chi):
    """On a certified sphere, the Wu side at every even d < n equals Sq1 on
    degree d in the full direct ring."""
    assert RealToricSpace(chi.complex, chi).sphere_certified
    n = chi.n
    full = build_graded_basis(chi.complex, chi)
    oracles.verify_all_dimensions(full)
    wu = build_graded_basis(chi.complex, chi)
    answers = []
    for d in range(0, n, 2):
        direct = full.sq1_vanishes_on_degree(d)
        assert wu.wu_vanishes_on_degree(n - d - 1) == direct, d
        answers.append(direct)
    return answers


def random_bier_instance(rng):
    """The Bier sphere of a random proper complex on at most 7 vertices, with
    its canonical matrix moved by single-column redraws that keep it valid."""
    ground = range(1, rng.randint(3, 7) + 1)
    gens = [rng.sample(ground, rng.randint(1, len(ground) - 1)) for _ in range(rng.randint(1, 4))]
    sphere, chi = bier_instance(SimplicialComplex(ground, gens))
    cols = chi.matrix.column_bits()
    for _ in range(3 * len(cols)):
        trial = list(cols)
        trial[rng.randrange(len(cols))] = rng.randrange(1, 1 << chi.n)
        if first_dependent_facet(sphere, trial) is None:
            cols = trial
    return CharacteristicMatrix(sphere, BitMatrix.from_column_bits(chi.n, cols))


JOIN_FACTORS = ["rp1", "rp2", "rp3", "gon4", "gon5", "gon6klein", "deltas0", "cross3mixed", "rp2xrp2"]
JOIN_PAIRS = [
    (a, b)
    for a in JOIN_FACTORS
    for b in JOIN_FACTORS
    if catalog()[a].n + catalog()[b].n <= 7
]


class TestWuSide:
    """Sq1 = 0 on degree d iff Sq1 + w_1 = 0 on degree n - d - 1, with the
    full direct ring as the oracle.  Dropping w_1 or pairing with degree
    n - d instead fails these tests."""

    @pytest.mark.parametrize(
        "name", sorted(k for k, e in catalog().items() if e.chi is not None)
    )
    def test_catalog_matches_direct(self, name):
        check_wu_side(catalog()[name].chi)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_bier_spheres_of_random_complexes(self, rng):
        check_wu_side(random_bier_instance(rng))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.sampled_from(JOIN_PAIRS), st.integers(0, 2**32 - 1))
    def test_joins_of_catalog_spheres(self, pair, seed):
        rng = random.Random(seed)
        a, b = (sample_random_instance(name, rng)[0] for name in pair)
        chi = block_product(a, b)
        for instance in (chi, shuffled_labels(chi, rng)):
            check_wu_side(instance)

    def test_generated_instances_reach_both_answers_at_both_parities(self):
        rng = random.Random(7)
        seen = set()
        for _ in range(12):
            chi = random_bier_instance(rng)
            seen |= {(chi.n % 2, answer) for answer in check_wu_side(chi)}
        for a, b in JOIN_PAIRS[:12]:
            chi = block_product(catalog()[a].chi, catalog()[b].chi)
            seen |= {(chi.n % 2, answer) for answer in check_wu_side(chi)}
        assert seen == {(0, True), (0, False), (1, True), (1, False)}

    def test_side_degrees(self):
        # the cheaper side; the Wu side only with the certificate
        assert [sq1_degree(8, d, True) for d in range(0, 9, 2)] == [1, 3, 4, 2, 0]
        assert [sq1_degree(8, d, False) for d in range(0, 9, 2)] == [1, 3, 5, 7, 0]
        assert [sq1_degree(3, d, True) for d in (0, 2)] == [1, 1]
        for n in range(1, 13):
            assert max(sq1_degree(n, d, True) for d in range(0, n + 1, 2)) <= (n + 1) // 2


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
        with pytest.raises(InternalConsistencyError):
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
        with pytest.raises(InternalConsistencyError):
            basis.sq1_vanishes_on_degree(1)


class TestTauAndSquares:
    def test_projective_tau_is_generator(self):
        for n in (2, 3):
            chi = lambda_boundary_simplex(n)
            basis = build_graded_basis(chi.complex, chi)
            coloring = classify_pullback(chi).coloring
            taus = oracles.tau_classes(basis, coloring)
            assert len(taus) == n + 1
            assert taus[0] == basis.express([1])

    def test_linear_model_tau_vanishes(self):
        chi = octahedron_linear()
        basis = build_graded_basis(chi.complex, chi)
        coloring = classify_pullback(chi).coloring
        taus = oracles.tau_classes(basis, coloring)
        assert len(taus) == 3
        assert all(t.is_zero() for t in taus)

    def test_square_identity(self):
        for chi in (lambda_boundary_simplex(3), octahedron_linear()):
            basis = build_graded_basis(chi.complex, chi)
            coloring = classify_pullback(chi).coloring
            assert oracles.square_identity_check(basis, coloring)

    def test_total_square_formula(self):
        # Sq(x) = (1 + tau)^q x for homogeneous x of degree q
        from math import comb

        for n in (2, 3, 4):
            chi = lambda_boundary_simplex(n)
            basis = build_graded_basis(chi.complex, chi)
            tau = oracles.tau(basis, classify_pullback(chi).coloring)
            for q in range(n + 1):
                for x in basis.basis_classes(q)[:10]:
                    total = oracles.total_sq(basis, x)
                    power = basis.one()
                    for i in range(n - q + 1):
                        if i > 0:
                            power = basis.multiply(power, tau)
                        expected = (
                            basis.multiply(power, x)
                            if comb(q, i) % 2
                            else RingClass(q + i, 0)
                        )
                        got = total.get(q + i, RingClass(q + i, 0))
                        assert got == expected, (n, q, i)


class TestStiefelWhitney:
    def test_projective_plane_total_class(self):
        chi = lambda_boundary_simplex(2)
        basis = build_graded_basis(chi.complex, chi)
        u = basis.express([1])
        sw = oracles.total_sw(basis)
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
            assert oracles.sw_pullback_check(basis, coloring)

    def test_torus_is_stably_trivial(self):
        chi = octahedron_linear()
        basis = build_graded_basis(chi.complex, chi)
        sw = oracles.total_sw(basis)
        assert sw[0] == basis.one()
        assert all(c.is_zero() for c in sw[1:])

    def test_square_torus_total_class_is_one(self):
        from smallcover.simplicial import polygon

        K = polygon(4)
        cols = [0b01, 0b10] * 2
        chi = CharacteristicMatrix(K, BitMatrix.from_column_bits(2, cols))
        basis = build_graded_basis(K, chi)
        sw = oracles.total_sw(basis)
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
        w = find_sq1_witness(chi.complex, chi, build_graded_basis(chi.complex, chi))
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
            ring = build_graded_basis(chi.complex, chi)
            assert find_sq1_witness(chi.complex, chi, ring) is None


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
            got = oracles.total_sq(ring, x)
            assert {deg: c.bits for deg, c in got.items()} == total_sq_oracle(ring, x), d
            if d < ring.n:
                assert got.get(d + 1, RingClass(d + 1, 0)) == ring.sq1(x), d


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


# sha256 of every degree's basis indices and normal-form rows (ring_digest),
# recorded before the lazy echelon insert and the support-driven pairing rows
RING_PINS = {
    'bier9': '7718c8255ac11fc2590aebdec0e1db91dc8c6ef98bec6dfab36883a2bbbaec47',
    'cross2': 'a3ddbc161731105f804f37517b8a7fa9e938584e674619ee04fa7266a66ba82f',
    'cross2mixed': '697bb1b3e60a94cdfd872f7b7d9e9c556a132be2321020db332e61eb8b647b69',
    'cross3': 'b3d1a6fa3f7c144bfe1f4f1c7a56877e8c061c1cb06d9e051edab0275493c4dd',
    'cross3mixed': 'c5064692aa11de8eebc19cc7edca44b046c6d27d6a62622744ae24f9b6bfdd64',
    'cross3notsimplex': '9f0ec72abfc5709f2c34621cd4884cfce0c475cea9927a4fa530339959f925ff',
    'cross4': 'c419934ca72c0988804aaf46c3d174de9abf498f10e1b3a9953a32e772f3ed0b',
    'cross4mixed': '7ca81b8fb6e54cdfe361372338e634ae5e9accc3a4b29e9028310820a242a390',
    'cross5': '929b6393a1f22cbee13e48b81aaeabff0221ed25309dc082075a5f08c169aa3a',
    'cross5mixed': '28c9761e6277fb6eaf61a91c6e0e0b66eed7190c4ab6b8e7479849fc458446bd',
    'cross6': 'e965d408e27651dcc175b5c8d1c1b158799a857952b90a977b91b0a7d6457644',
    'cross6mixed': 'f318da3e9e9e36ad25638eb2aee01ef6ee6b22f9b7dea7ac133cf12db428759c',
    'deltas0': '35d24f10b15accca41048a40514d0e7f8576aaf3c7a7d255155ee08e2d197e76',
    'gon10': '3114d786e3ea7f3ae9681c94bae4fff4ff1e2ac1a807014a86b0437bbc389915',
    'gon10klein': '5b27fbd844bd1d7528ad1bdfafc5d4bb4b4defa29decfc9d121aa947b3232600',
    'gon11': '6a1ff0875ca63897df8fb4d088dafdc01bdf9522b917c80829b300f89ae649c6',
    'gon12': '090cf1287211b29fa6d367ce2b50f9649b2964a3c4b77c558d59c189fa20b21e',
    'gon12klein': 'eb3584cf104b7915b292f8042b73c5b1993a32c85f3ce53751617ca6a4d9057b',
    'gon4': 'a3ddbc161731105f804f37517b8a7fa9e938584e674619ee04fa7266a66ba82f',
    'gon4klein': '697bb1b3e60a94cdfd872f7b7d9e9c556a132be2321020db332e61eb8b647b69',
    'gon5': '366ad11fd0b264167d8f83117ec83369799011969c8920d46d2532f009b3d120',
    'gon6': '035e6f7ccd1f36874078e35671fea16c9c7712a4468edf41cdc8546711b69d50',
    'gon6klein': 'd95cea9757630fb7e5489323b6a7e1dcccf0274ec7f73065e97aeec8738389bf',
    'gon7': 'a88f8503e57388a0e8eef70ea6f8c54165cf8dae4715aecfcba44e8364f58be7',
    'gon8': '6dce43f2d35696a82e52ea3995d0f3336354e23868769ee9f7c1324d9c41150b',
    'gon8klein': '9304790f5b36beea4e89a51beda631da0d159c89c9df8c5bc568c89495054311',
    'gon9': 'c4bd2782b22099981cf73ca12278ed514c8fedeb03e3491cfbf162cea7c2a2c7',
    'rp1': 'fc3a250ff5d2edec8508871d113fffc315a6e4f4d5acc0d7377dc46c1030ce3c',
    'rp2': '24b7d09beccacc665fcfb04946c2a13ad94ee0d74aa065c72111beb9050cf63d',
    'rp2xrp2': 'efbe612a9abd3d405e1d19582dbec64d0aa3911c4eb5ab3fce777e85a94f77ee',
    'rp3': 'ce38f9b534d4c2199923eba78428f500e173d442a2631e8291b2d9d97a87ca70',
    'rp4': 'b05761e5d1a1fa4bf099a08a5c2f8911ab90cb9d57dc5cf9ae2b63fb041562f6',
    'rp5': 'f54496ff4f3c29d1a0ff95d13bb3cbb7a49b8539f9e421139f8c18ea57aa0033',
    'rp6': '565ec1f1fc33fd5c2936572ddf8261a32d9e85fa91087eb83e74e983145d50b5',
}


def ring_digest(ring):
    h = hashlib.sha256()
    for d in range(ring.n + 1):
        basis = ",".join(map(str, ring._basis_idx[d]))
        rows = ",".join(format(r, "x") for r in ring._nf_rows[d])
        h.update(f"{d}:{basis};{rows}\n".encode())
    return h.hexdigest()


def built_ring(name):
    chi = catalog()[name].chi
    ring = build_graded_basis(chi.complex, chi)
    oracles.verify_all_dimensions(ring)
    return ring


class TestPinnedRing:
    """Elimination order and pairing-row construction are free to change;
    the reduced echelon form and the ring built from it are not."""

    @pytest.mark.parametrize("name", sorted(RING_PINS))
    def test_bases_and_normal_forms_match_pins(self, name):
        assert ring_digest(built_ring(name)) == RING_PINS[name]

    @pytest.mark.parametrize("name", sorted(RING_PINS))
    def test_pivot_rows_are_reduced(self, name):
        ring = built_ring(name)
        for d, rows in ring._pivot_rows.items():
            pivot_mask = sum(1 << p for p in rows)
            for p, row in rows.items():
                assert row & -row == 1 << p, (d, p)
                assert row & pivot_mask == 1 << p, (d, p)

def shuffled_labels(chi, rng):
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


def minimal_nonfaces_oracle(K, max_size):
    """Masks of the vertex sets of size <= max_size that are not faces but
    lose that by dropping any one vertex, by size, then mask."""
    faces = K.all_face_masks()
    out = []
    for size in range(1, max_size + 1):
        masks = sorted(sum(1 << i for i in c) for c in combinations(range(K.vertex_count), size))
        for m in masks:
            if m not in faces and all(m ^ 1 << i in faces for i in bit_positions(m)):
                out.append(m)
    return out


def by_size(K, max_size):
    """The per-size minimal non-faces of every size 1..max_size, in turn."""
    return [g for size in range(1, max_size + 1) for g in facering._minimal_nonfaces(K, size)]


class TestMinimalNonfaces:
    @pytest.mark.parametrize(
        "name", sorted(k for k, e in catalog().items() if e.complex.vertex_count <= 12)
    )
    def test_catalog_matches_oracle(self, name):
        K = catalog()[name].complex
        n = K.dim + 1
        assert by_size(K, n + 1) == minimal_nonfaces_oracle(K, n + 1)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_generated_with_ghosts_and_shuffled_labels(self, rng):
        # some declared labels lie in no generator: ghost vertices, which are
        # minimal non-faces of size one
        labels = rng.sample(range(1, 30), rng.randint(3, 9))
        used = labels[: rng.randint(1, len(labels))]
        gens = [
            rng.sample(used, rng.randint(1, min(4, len(used))))
            for _ in range(rng.randint(1, 6))
        ]
        K = SimplicialComplex(labels, gens)
        assert by_size(K, K.dim + 2) == minimal_nonfaces_oracle(K, K.dim + 2)
