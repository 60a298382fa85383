"""Bier spheres: small hand cases, exhaustive small ground sets, flagship."""

import random
from itertools import combinations

import pytest

from oracles import (
    bier_sphere_by_definition,
    complex_euler_characteristic,
    face_set,
    ghost_labels,
)
from smallcover.bier import (
    bier_facet_count,
    bier_instance,
    bier_sphere,
    lambda_bier,
    table1_instance,
)
from smallcover.charmap import classify_pullback
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.homology import reduced_cohomology
from smallcover.shelling import find_shelling
from smallcover.simplicial import SimplicialComplex


def all_complexes_on(labels):
    """Every simplicial complex on the label set (as facet generator lists)."""
    labels = tuple(labels)
    nonempty = []
    for r in range(1, len(labels) + 1):
        nonempty.extend(combinations(labels, r))
    for mask in range(1 << len(nonempty)):
        family = {nonempty[i] for i in range(len(nonempty)) if (mask >> i) & 1}
        closed = all(
            tuple(sub) in family or len(sub) == 0
            for f in family
            for k in range(1, len(f))
            for sub in combinations(f, k)
        )
        if closed:
            yield SimplicialComplex(labels, sorted(family))


class TestSmallCases:
    def test_single_vertex_complex(self):
        K = SimplicialComplex([1, 2], [(1,)])
        sphere = bier_sphere(K)
        assert sphere.dim == 0
        # the barred copy of vertex 1 survives, not of vertex 2
        assert tuple(f for f in sphere.facets) == ((1,), (3,))

    def test_two_isolated_points(self):
        K = SimplicialComplex([1, 2], [(1,), (2,)])
        sphere = bier_sphere(K)
        assert tuple(sphere.facets) == ((1,), (2,))
        assert ghost_labels(sphere) == (3, 4)

    def test_full_simplex_rejected(self):
        K = SimplicialComplex([1, 2], [(1, 2)])
        with pytest.raises(InputError):
            bier_sphere(K)

    @pytest.mark.parametrize("facets", [[], [(1,)]])
    def test_one_label_rejected(self, facets):
        # {empty face} on one label would give the (-1)-sphere, which has no
        # characteristic matrix
        with pytest.raises(InputError, match="at least 2 labels"):
            bier_sphere(SimplicialComplex([1], facets))

    def test_ghosts_dropped_from_instance(self):
        K = SimplicialComplex([1, 2], [(1,), (2,)])
        trimmed, chi = bier_instance(K)
        assert trimmed.labels == (1, 2)
        assert chi.m == 2
        assert classify_pullback(chi).is_simplex_pullback


class TestLambdaBier:
    def test_ell_two(self):
        assert lambda_bier(2) == [1, 1, 1, 1]

    def test_ell_nine_shape(self):
        cols = lambda_bier(9)
        assert len(cols) == 18
        ones = (1 << 8) - 1
        assert cols[8] == ones
        assert cols[17] == ones
        for i in range(8):
            assert cols[i] == 1 << i
            assert cols[9 + i] == cols[i]

    def test_too_small(self):
        with pytest.raises(InternalConsistencyError):
            lambda_bier(1)


class TestExhaustiveSmall:
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_all_admissible_complexes(self, size):
        labels = tuple(range(1, size + 1))
        count = 0
        for K in all_complexes_on(labels):
            if K.mask_of(labels) in face_set(K):
                continue
            count += 1
            sphere = bier_sphere(K)
            assert sphere == bier_sphere_by_definition(K)
            assert sphere.dim == size - 2
            assert sphere.is_closed_pseudomanifold()
            assert len(sphere.facets) == bier_facet_count(K)
            assert complex_euler_characteristic(sphere) == (-1) ** (size - 2)
            trimmed, chi = bier_instance(K)
            assert classify_pullback(chi).is_simplex_pullback
            assert find_shelling(trimmed) is not None
        assert count > 1

    def test_sampled_five_and_six(self):
        rng = random.Random(60)
        for size in (5, 6):
            labels = tuple(range(1, size + 1))
            pool = [c for r in range(1, size) for c in combinations(labels, r)]
            for _ in range(6):
                gens = rng.sample(pool, rng.randrange(1, 5))
                K = SimplicialComplex(labels, gens)
                sphere = bier_sphere(K)
                assert sphere == bier_sphere_by_definition(K)
                assert sphere.dim == size - 2
                assert sphere.is_closed_pseudomanifold()
                assert len(sphere.facets) == bier_facet_count(K)
                trimmed, chi = bier_instance(K)
                assert classify_pullback(chi).is_simplex_pullback
                assert find_shelling(trimmed) is not None

    def test_sphere_cohomology_of_a_sample(self):
        K = SimplicialComplex([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)])
        sphere = bier_sphere(K)
        profile = reduced_cohomology(sphere, (1 << sphere.vertex_count) - 1)
        d = sphere.dim
        assert profile.groups == {d: profile.group(d)}
        assert profile.group(d).rank == 1
        assert profile.group(d).is_torsion_free()


class TestFlagship:
    def test_seed_complex_shape(self):
        K, sphere, chi = table1_instance()
        assert len(K.facets) == 5
        assert K.dim == 6
        assert sphere.dim == 7
        assert sphere.vertex_count == 18
        assert sphere.is_closed_pseudomanifold()
        assert chi.n == 8 and chi.m == 18
        assert len(sphere.facets) == bier_facet_count(K) == 365

    def test_flagship_is_simplex_pullback(self):
        _, _, chi = table1_instance()
        cls = classify_pullback(chi)
        assert cls.is_simplex_pullback
        assert cls.coloring[9] == cls.coloring[18] == 9
