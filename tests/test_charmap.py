"""Characteristic matrices: validation, classification, descriptors."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    apply,
    column_for_label,
    enumerate_gl,
    facet_coordinates_by_inversion,
    ridge_flip,
    ridge_flip_support,
    scaled_relabelling,
    shuffled_labels,
)
from smallcover.catalog import catalog, get_entry
from smallcover import charmap
from smallcover.charmap import (
    CharacteristicMatrix,
    CharMapError,
    PullbackLabel,
    block_product,
    classify_pullback,
    classify_via_flips,
    first_dependent_facet,
    flip_supports,
    lambda_boundary_simplex,
    omega_descriptors,
)
from smallcover.cli import sample_random_instance
from smallcover.errors import InternalConsistencyError
from smallcover.gf2 import BitMatrix, bit_positions, find_basis_change, invert, rank
from smallcover.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
)


def octahedron_linear():
    K = cross_polytope_boundary(3)
    cols = [1 << i for i in range(3)] * 2
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(3, cols))


def join_negative():
    s0 = SimplicialComplex([1, 2], [(1,), (2,)])
    chi_s0 = CharacteristicMatrix(s0, BitMatrix.from_column_bits(1, [1, 1]))
    return block_product(lambda_boundary_simplex(2), chi_s0)


def brute_force_is_simplex_pullback(chi):
    """Oracle: search all of GL(n, 2) for a basis change putting every column
    inside the standard target set."""
    n = chi.n
    target = {1 << i for i in range(n)} | {(1 << n) - 1}
    cols = set(chi.matrix.column_bits())
    for g in enumerate_gl(n):
        if all(apply(g, c) in target for c in cols):
            return True
    return False


def brute_force_is_linear_model(chi):
    n = chi.n
    target = {1 << i for i in range(n)}
    cols = set(chi.matrix.column_bits())
    for g in enumerate_gl(n):
        if all(apply(g, c) in target for c in cols):
            return True
    return False


class TestValidation:
    def test_boundary_simplex_valid(self):
        chi = lambda_boundary_simplex(2)
        assert chi.n == 2 and chi.m == 3
        assert chi.matrix == BitMatrix.from_lists([[1, 0, 1], [0, 1, 1]])

    def test_octahedron_valid(self):
        octahedron_linear()

    def test_repeated_column_on_edge_rejected(self):
        K = boundary_of_simplex(2)
        with pytest.raises(CharMapError) as err:
            CharacteristicMatrix(K, BitMatrix.from_lists([[1, 0, 1], [0, 1, 0]]))
        assert "facet (1, 3)" in str(err.value)

    def test_column_count_mismatch(self):
        with pytest.raises(CharMapError):
            CharacteristicMatrix(boundary_of_simplex(2), BitMatrix(2, 2, (1, 2)))


def rank_per_facet(K, matrix):
    """Index of the first dependent facet by one GF(2) rank per facet tuple."""
    index = {v: i for i, v in enumerate(K.labels)}
    cols = matrix.column_bits()
    for idx, facet in enumerate(K.facets):
        vecs = [cols[index[v]] for v in facet]
        if vecs and rank(BitMatrix(len(vecs), matrix.rows, tuple(vecs))) != len(vecs):
            return idx
    return None


# Beyond the catalog: the complex with no nonempty face (two ghost vertices),
# and a non-pure complex with non-ascending labels and a ghost vertex (11).
EXTRA_COMPLEXES = {
    "empty_with_ghosts": SimplicialComplex([1, 2], [()]),
    "unsorted_with_ghost": SimplicialComplex(
        [6, 2, 9, 4, 11, 3], [(6, 2, 9), (2, 9, 4), (6, 4, 3), (2, 3), (9, 3)]
    ),
}


class TestFacetCheck:
    @pytest.mark.parametrize("name", sorted(catalog()) + sorted(EXTRA_COMPLEXES))
    def test_agrees_with_rank_per_facet(self, name):
        """Same verdict and same named facet on 200 seeded matrices: uniform
        ones (with dim + 1 or dim + 2 rows), and, where the catalog has a
        matrix, that matrix with one bit flipped, which fails late or not at all."""
        entry = catalog().get(name)
        K = EXTRA_COMPLEXES[name] if entry is None else entry.complex
        chi = None if entry is None else entry.chi
        m = K.vertex_count
        rng = random.Random(f"facet-check/{name}")
        if chi is not None:
            assert first_dependent_facet(K, chi.matrix.column_bits()) is None
        for k in range(200):
            if chi is not None and k % 2:
                rows = list(chi.matrix.row_bits)
                rows[rng.randrange(chi.n)] ^= 1 << rng.randrange(m)
                matrix = BitMatrix(chi.n, m, tuple(rows))
            else:
                n = max(K.dim + 1, 1) + rng.randrange(2)
                matrix = BitMatrix(n, m, tuple(rng.getrandbits(m) for _ in range(n)))
            expected = rank_per_facet(K, matrix)
            assert first_dependent_facet(K, matrix.column_bits()) == expected
            if expected is None:
                CharacteristicMatrix(K, matrix)
                continue
            with pytest.raises(CharMapError) as err:
                CharacteristicMatrix(K, matrix)
            facet = K.facets[expected]
            assert str(err.value) == f"columns on facet {facet} are linearly dependent"

    def test_reduction_needs_the_reduced_basis(self):
        # 0b01 ^ 0b11 = 0b10: a basis holding 0b01 and an unreduced 0b11
        # would leave 0b10 nonzero and call the facet independent.
        K = SimplicialComplex([1, 2, 3], [(1, 2, 3)])
        assert first_dependent_facet(K, [0b01, 0b11, 0b10]) == 0
        assert first_dependent_facet(K, [0b001, 0b011, 0b110]) is None

    def test_names_the_first_dependent_facet_in_facet_order(self):
        K = boundary_of_simplex(3)
        cols = [0b001, 0b010, 0b011, 0b100]
        assert K.facets == ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert first_dependent_facet(K, cols) == 0
        with pytest.raises(CharMapError) as err:
            CharacteristicMatrix(K, BitMatrix.from_column_bits(3, cols))
        assert str(err.value) == "columns on facet (1, 2, 3) are linearly dependent"


class TestClassifyPullback:
    def test_boundary_simplex_is_proper(self):
        cls = classify_pullback(lambda_boundary_simplex(3))
        assert cls.label is PullbackLabel.SIMPLEX_PROPER
        assert cls.is_simplex_pullback
        assert cls.coloring == {1: 1, 2: 2, 3: 3, 4: 4}

    def test_octahedron_is_linear(self):
        cls = classify_pullback(octahedron_linear())
        assert cls.label is PullbackLabel.LINEAR_MODEL
        assert cls.is_simplex_pullback

    def test_join_is_not_simplex(self):
        cls = classify_pullback(join_negative())
        assert cls.label is PullbackLabel.NOT_SIMPLEX
        assert not cls.is_simplex_pullback
        assert cls.coloring is None

    def test_join_matches_gl3_brute_force(self):
        assert not brute_force_is_simplex_pullback(join_negative())

    def test_witness_reproduces_coloring(self):
        for chi in (lambda_boundary_simplex(3), octahedron_linear()):
            cls = classify_pullback(chi)
            n = chi.n
            # G sends a column of each color i <= n to e_i
            column = dict(zip(chi.complex.labels, chi.matrix.column_bits()))
            first = {}
            for label in chi.complex.labels:
                first.setdefault(cls.coloring[label], column[label])
            g = invert(BitMatrix.from_column_bits(n, [first[i] for i in range(1, n + 1)]))
            for label in chi.complex.labels:
                image = apply(g, column[label])
                if cls.coloring[label] <= n:
                    assert image == 1 << (cls.coloring[label] - 1)
                else:
                    assert image == (1 << n) - 1

    def test_coloring_nondegenerate_on_facets(self):
        for chi in (lambda_boundary_simplex(4), octahedron_linear()):
            coloring = classify_pullback(chi).coloring
            for facet in chi.complex.facets:
                colors = [coloring[v] for v in facet]
                assert len(set(colors)) == len(colors)

    def test_witness_on_a_non_pullback_is_internal(self):
        # only the classifier's pullback branches call the witness; reaching
        # it with any other matrix is a bug, not bad input
        with pytest.raises(InternalConsistencyError, match="witness construction failed"):
            charmap._pullback_witness(catalog()["cross3notsimplex"].chi)


class TestRidgeFlipSupport:
    def test_boundary_simplex_full_support(self):
        chi = lambda_boundary_simplex(3)
        facet = (1, 2, 3)
        for i in (1, 2, 3):
            assert ridge_flip_support(chi, facet, i) == frozenset({1, 2, 3})

    def test_octahedron_singleton_support(self):
        chi = octahedron_linear()
        for facet in chi.complex.facets:
            for i in (1, 2, 3):
                assert ridge_flip_support(chi, facet, i) == frozenset({i})

    def test_join_has_intermediate_support(self):
        chi = join_negative()
        full = frozenset({1, 2, 3})
        bad = []
        for facet in chi.complex.facets:
            for i in (1, 2, 3):
                s = ridge_flip_support(chi, facet, i)
                if s != frozenset({i}) and s != full:
                    bad.append((facet, i, s))
        assert bad, "expected some support outside {{i}, [n]}"


    def test_positions_follow_declared_order(self):
        # lambda(flip vertex) is the sum of the facet's columns at the support
        # positions, counted in declared label order, for every label order.
        for chi in (octahedron_linear(), join_negative(), lambda_boundary_simplex(3)):
            K = chi.complex
            labels = list(reversed(K.labels))
            column = dict(zip(K.labels, chi.matrix.column_bits()))
            R = SimplicialComplex(labels, K.facets)
            rchi = CharacteristicMatrix(
                R, BitMatrix.from_column_bits(chi.n, [column[v] for v in labels])
            )
            for facet in R.facets:
                for i in range(1, chi.n + 1):
                    total = 0
                    for j in ridge_flip_support(rchi, facet, i):
                        total ^= column[facet[j - 1]]
                    assert total == column[ridge_flip(R, facet, i)]


class TestClassifyViaFlips:
    def test_agreement_on_fixed_instances(self):
        for chi in (
            lambda_boundary_simplex(2),
            lambda_boundary_simplex(3),
            octahedron_linear(),
            join_negative(),
        ):
            assert classify_via_flips(chi).label == classify_pullback(chi).label

    def test_requires_closed_pseudomanifold(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2, 3)])
        chi = CharacteristicMatrix(K, BitMatrix(3, 3, (1, 2, 4)))
        with pytest.raises(InternalConsistencyError):
            classify_via_flips(chi)

    def test_agreement_and_brute_force_on_random_octahedra(self):
        rng = random.Random(314)
        checked = 0
        while checked < 12:
            cols = [rng.getrandbits(3) for _ in range(6)]
            try:
                chi = CharacteristicMatrix(
                    cross_polytope_boundary(3), BitMatrix.from_column_bits(3, cols)
                )
            except CharMapError:
                continue
            checked += 1
            cls = classify_pullback(chi)
            assert classify_via_flips(chi).label == cls.label
            assert cls.is_simplex_pullback == brute_force_is_simplex_pullback(chi)
            assert (cls.label is PullbackLabel.LINEAR_MODEL) == brute_force_is_linear_model(chi)

    def test_invariance_under_basis_change(self):
        rng = random.Random(11)
        chi = octahedron_linear()
        gls = list(enumerate_gl(3))
        for _ in range(10):
            g = gls[rng.randrange(len(gls))]
            cols = [apply(g, c) for c in chi.matrix.column_bits()]
            changed = CharacteristicMatrix(chi.complex, BitMatrix.from_column_bits(3, cols))
            assert classify_pullback(changed).label is PullbackLabel.LINEAR_MODEL

    def test_invariance_under_vertex_relabeling(self):
        chi = lambda_boundary_simplex(3)
        perm = {1: 3, 2: 1, 3: 4, 4: 2}
        K = chi.complex
        relabeled = SimplicialComplex(
            sorted(perm.values()),
            [tuple(sorted(perm[v] for v in f)) for f in K.facets],
        )
        inv = {w: v for v, w in perm.items()}
        cols = [column_for_label(chi, inv[w]) for w in relabeled.labels]
        changed = CharacteristicMatrix(relabeled, BitMatrix.from_column_bits(chi.n, cols))
        assert classify_pullback(changed).label is PullbackLabel.SIMPLEX_PROPER


def color_set(K, coloring, wm):
    """The colors of the vertices in the mask wm."""
    return frozenset(coloring[v] for v in K.labels_of(wm))


class TestOmegaDescriptors:
    def test_boundary_simplex_two(self):
        # element k has coefficient vector k; chi adds color n + 1 = 3 to
        # an odd set of coefficient positions
        chi = lambda_boundary_simplex(2)
        cls = classify_pullback(chi)
        K = chi.complex
        supports = omega_descriptors(chi, cls.coloring)
        assert len(supports) == 4
        rho1 = supports[0b01]
        assert K.labels_of(rho1) == (1, 3)
        assert color_set(K, cls.coloring, rho1) == {1, 3}
        zero = supports[0]
        assert zero == 0
        assert color_set(K, cls.coloring, zero) == frozenset()
        both = supports[0b11]
        assert K.labels_of(both) == (1, 2)
        assert color_set(K, cls.coloring, both) == {1, 2}

    def test_even_subset_bijection(self):
        chi = lambda_boundary_simplex(3)
        coloring = classify_pullback(chi).coloring
        supports = omega_descriptors(chi, coloring)
        chis = {color_set(chi.complex, coloring, wm) for wm in supports}
        assert len(chis) == 8
        assert all(len(c) % 2 == 0 for c in chis)

    def test_color_swap_is_still_consistent(self):
        # swapping colors 1 and 2 matches a different basis change, so it is
        # a legitimate witness and must be accepted
        chi = lambda_boundary_simplex(2)
        omega_descriptors(chi, {1: 2, 2: 1, 3: 3})

    def test_inconsistent_coloring_rejected(self):
        chi = lambda_boundary_simplex(2)
        bad = {1: 1, 2: 2, 3: 2}  # describes a different row space
        with pytest.raises(InternalConsistencyError):
            omega_descriptors(chi, bad)

    def test_cross_check_names_labels(self, monkeypatch):
        # a row space out of coefficient order breaks c^-1(chi) = support
        chi = lambda_boundary_simplex(2)
        coloring = classify_pullback(chi).coloring
        real = charmap.row_space
        monkeypatch.setattr(charmap, "row_space", lambda a: real(a)[::-1])
        with pytest.raises(
            InternalConsistencyError,
            match=r"at coefficients 00: support \[1, 2\] != preimage \[\]$",
        ):
            omega_descriptors(chi, coloring)

    def test_canonical_order(self):
        chi = octahedron_linear()
        supports = omega_descriptors(chi)
        rows = chi.matrix.row_bits
        expected = []
        for k in range(8):
            omega = 0
            for i in bit_positions(k):
                omega ^= rows[i]
            expected.append(omega)
        assert supports == expected


def coords(chi):
    """The coordinates of every column, lowest index first."""
    return [tuple(c >> i & 1 for i in range(chi.n)) for c in chi.matrix.column_bits()]


class TestBuilders:
    def test_lambda_boundary_simplex_columns(self):
        chi = lambda_boundary_simplex(2)
        assert coords(chi) == [
            (1, 0), (0, 1), (1, 1),
        ]

    def test_block_product_of_segments(self):
        seg = lambda_boundary_simplex(1)
        prod = block_product(seg, seg)
        assert prod.n == 2 and prod.m == 4
        assert coords(prod) == [(1, 0), (1, 0), (0, 1), (0, 1)]
        assert classify_pullback(prod).label is PullbackLabel.LINEAR_MODEL

    def test_block_product_join_instance(self):
        chi = join_negative()
        assert coords(chi) == [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 0, 1)]


def facet_masks_by_inversion(chi, fm):
    """The inversion oracle's coordinates as vertex masks."""
    positions = bit_positions(fm)
    return tuple(
        sum(1 << positions[r] for r in bit_positions(x))
        for x in facet_coordinates_by_inversion(chi, fm)
    )


def check_facet_coordinates(chi, rng):
    """Every facet's coordinate masks against their definition and against
    one inversion per facet, with the facets requested in declared order,
    in reverse and shuffled, so that the inverted roots and the pivot paths
    differ; and the flip supports read from them against one basis change
    per facet."""
    K, n = chi.complex, chi.n
    cols = chi.matrix.column_bits()
    shuffled = list(K.facet_masks)
    rng.shuffle(shuffled)
    for order in (K.facet_masks, K.facet_masks[::-1], shuffled):
        fresh = CharacteristicMatrix(K, chi.matrix)
        for fm in order:
            coords = fresh.facet_coordinates(fm)
            positions = bit_positions(fm)
            assert len(coords) == K.vertex_count
            # every entry lies in the facet, whose own columns read themselves
            assert all(x & ~fm == 0 for x in coords)
            assert all(coords[p] == 1 << p for p in positions)
            # XOR of Lambda's columns over each entry gives Lambda back
            for j, col in enumerate(cols):
                back = 0
                for p in bit_positions(coords[j]):
                    back ^= cols[p]
                assert back == col
            assert all(x >> n == 0 for x in facet_coordinates_by_inversion(chi, fm))
            assert coords == facet_masks_by_inversion(chi, fm)
            assert fresh.facet_coordinates(fm) is coords
    if not K.is_closed_pseudomanifold():
        return
    expected = []
    for facet, fm in zip(K.facets, K.facet_masks):
        g = find_basis_change([column_for_label(chi, v) for v in facet], n)
        positions = bit_positions(fm)
        for i in range(1, n + 1):
            s = apply(g, column_for_label(chi, ridge_flip(K, facet, i)))
            mask = sum(1 << positions[r] for r in bit_positions(s))
            expected.append((fm, 1 << positions[i - 1], mask))
    assert list(flip_supports(chi)) == expected


class TestFacetCoordinates:
    @pytest.mark.parametrize(
        "name", sorted(k for k, e in catalog().items() if e.chi is not None)
    )
    def test_catalog(self, name):
        check_facet_coordinates(catalog()[name].chi, random.Random(name))

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        st.sampled_from(["cross3", "cross4mixed", "cross5", "gon8", "rp2xrp2", "deltas0"]),
        st.integers(0, 2**32 - 1),
        st.randoms(use_true_random=False),
    )
    def test_sampled_and_relabelled(self, name, seed, rng):
        chi, _ = sample_random_instance(name, random.Random(seed))
        check_facet_coordinates(chi, rng)
        check_facet_coordinates(shuffled_labels(chi, rng), rng)
        check_facet_coordinates(scaled_relabelling(get_entry(name), rng), rng)

    def test_facet_of_the_wrong_size(self):
        # valid (independent on every edge) but with more rows than a facet
        # has vertices, so no facet gives a basis
        chi = CharacteristicMatrix(boundary_of_simplex(2), BitMatrix(3, 3, (1, 2, 4)))
        with pytest.raises(InternalConsistencyError, match="has 2 vertices, not n = 3"):
            classify_via_flips(chi)

    def test_facet_of_the_wrong_size_that_both_column_tests_pass(self):
        # columns e1, e2, e1 + e2 with n = 3: every flip's column is the
        # facet's other column or the sum of both, so no flip needs the
        # facet's coordinates, and the scan must check the size itself
        chi = CharacteristicMatrix(boundary_of_simplex(2), BitMatrix(3, 3, (5, 6, 0)))
        assert chi.matrix.column_bits() == [1, 2, 3]
        with pytest.raises(
            InternalConsistencyError, match=r"facet \(1, 2\) has 2 vertices, not n = 3"
        ):
            classify_via_flips(chi)

    def test_pivot_column_missing_the_dropped_vertex(self):
        # G = F - v + p is cached with p dropped from v's column; F can only
        # be reached from G, whose entry for v must then hold p
        chi = catalog()["cross3"].chi
        K = chi.complex
        fm = K.facet_masks[0]
        v = fm & -fm
        p = K.flip_bit(fm, v)
        g = fm ^ v | p
        good = CharacteristicMatrix(K, chi.matrix).facet_coordinates(g)
        bad = CharacteristicMatrix(K, chi.matrix)
        bad._facet_coordinates[g] = tuple(
            x & ~p if j == v.bit_length() - 1 else x for j, x in enumerate(good)
        )
        with pytest.raises(InternalConsistencyError, match="pivot column of vertex"):
            bad.facet_coordinates(fm)
        # the same cache, intact, pivots to F's true coordinates
        bad._facet_coordinates[g] = good
        assert bad.facet_coordinates(fm) == facet_masks_by_inversion(chi, fm)
