"""Simplicial complexes: construction, vectors, subcomplexes, flips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    complex_euler_characteristic,
    face_set,
    faces_by_filter,
    faces_by_stack_walk,
    ghost_labels,
    maximal_masks_quadratic,
    random_complex,
    ridge_flip,
    union_find,
)
from smallcover.catalog import catalog
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
    polygon,
)


def octahedron():
    return cross_polytope_boundary(3)


class TestConstruction:
    def test_triangle_boundary(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        assert K.facets == ((1, 2), (1, 3), (2, 3))
        assert K.dim == 1

    def test_containment_normalization(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2, 3), (1, 2)])
        assert K.facets == ((1, 2, 3),)

    def test_empty_complex_convention(self):
        K = SimplicialComplex([1, 2], [])
        assert K.facets == ((),)
        assert K.dim == -1
        assert K.total_face_count() == 1

    def test_undeclared_label(self):
        with pytest.raises(InputError):
            SimplicialComplex([1, 2], [(1, 3)])

    def test_duplicate_vertex_in_generator(self):
        with pytest.raises(InputError):
            SimplicialComplex([1, 2], [(1, 1)])

    def test_nonpositive_label(self):
        with pytest.raises(InputError):
            SimplicialComplex([0, 1], [(1,)])


# Deterministic and bounded: the same examples on every run.
ORACLE = settings(derandomize=True, database=None, max_examples=500, deadline=None)


@st.composite
def generator_lists(draw):
    """Up to 9 distinct labels in any order and up to 14 generators over
    them, of mixed sizes, with empty generators, duplicates and labels in no
    generator."""
    labels = draw(st.lists(st.integers(1, 30), min_size=1, max_size=9, unique=True))
    gen = st.lists(st.sampled_from(labels), unique=True, max_size=len(labels))
    gens = draw(st.lists(gen, max_size=14))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=3))
    return labels, gens


def assert_faces_are_the_stack_walk(K):
    """K's face lists, face count and f-vector against the stack walk, with
    the f-vector counted both before and after the face lists are cached."""
    walk = faces_by_stack_walk(K)
    f = tuple(len(walk[d]) for d in range(-1, K.dim + 1))
    assert SimplicialComplex(K.labels, K.facets).f_vector() == f
    assert {d: K.face_masks(d) for d in range(-1, K.dim + 1)} == walk, K.facets
    assert K.face_masks(K.dim + 1) == ()
    assert K.f_vector() == f and K.total_face_count() == sum(f)


class TestFaceLoop:
    @ORACLE
    @given(generator_lists())
    def test_faces_match_the_stack_walk(self, case):
        assert_faces_are_the_stack_walk(SimplicialComplex(*case))

    @ORACLE
    @given(generator_lists(), st.data())
    def test_holders_match_a_facet_filter(self, case, data):
        K = SimplicialComplex(*case)
        everything = (1 << len(K.facet_masks)) - 1
        among = data.draw(st.just(-1) | st.integers(0, everything))
        for m in range(1 << K.vertex_count):
            held = sum(1 << j for j, fm in enumerate(K.facet_masks) if m & fm == m)
            # the empty mask is held by every facet in among
            assert K.holders(m, among) == (among if m == 0 else among & held)


class TestMaximality:
    @ORACLE
    @given(generator_lists())
    def test_matches_the_pairwise_filter(self, case):
        labels, gens = case
        K = SimplicialComplex(labels, gens)
        masks = [K.mask_of(g) for g in gens]
        assert sorted(K.facet_masks) == sorted(maximal_masks_quadratic(masks) or [0])

    def test_empty_generator(self):
        assert SimplicialComplex([1, 2], [()]).facets == ((),)
        assert SimplicialComplex([1, 2], [(), (2,), ()]).facets == ((2,),)

    def test_one_size_is_kept_whole(self):
        K = boundary_of_simplex(4)
        assert len(K.facets) == 5

    def test_large_cross_polytope(self):
        # the pairwise filter needs about 30 s here; the star masks well under 1 s
        K = cross_polytope_boundary(14)
        assert len(K.facet_masks) == len(set(K.facet_masks)) == 1 << 14
        assert all(m.bit_count() == 14 for m in K.facet_masks)


class TestVectors:
    def test_triangle_boundary_h(self):
        K = boundary_of_simplex(2)
        assert K.f_vector() == (1, 3, 3)
        assert K.h_vector() == (1, 1, 1)

    def test_octahedron_h(self):
        K = octahedron()
        assert K.f_vector() == (1, 6, 12, 8)
        assert K.h_vector() == (1, 3, 3, 1)

    def test_non_pure_rejected(self):
        K = SimplicialComplex([1, 2, 3, 4], [(1, 2, 3), (1, 4)])
        with pytest.raises(InternalConsistencyError):
            K.h_vector()

    def test_alternating_f_sum_is_reduced_euler(self):
        for K in (boundary_of_simplex(3), octahedron(), polygon(7)):
            f = K.f_vector()
            total = sum((-1 if d % 2 else 1) * f[d + 1] for d in range(-1, K.dim + 1))
            assert total == complex_euler_characteristic(K)


class TestFullSubcomplex:
    def test_edge_of_triangle(self):
        K = boundary_of_simplex(2)
        sub = K.full_subcomplex(K.mask_of({1, 2}))
        assert sub.facets == ((1, 2),)
        assert sub.labels == (1, 2)

    def test_empty_subset(self):
        sub = boundary_of_simplex(2).full_subcomplex(0)
        assert sub.facets == ((),)

    def test_antipodal_pair_is_two_points(self):
        K = octahedron()
        sub = K.full_subcomplex(K.mask_of({1, 4}))
        assert sub.facets == ((1,), (4,))

    @pytest.mark.parametrize("wm", [1 << 3, 0b1111, -1])
    def test_bits_past_the_labels(self, wm):
        with pytest.raises(InternalConsistencyError, match="past the 3 declared labels"):
            boundary_of_simplex(2).full_subcomplex(wm)

    def test_ghost_labels_are_kept(self):
        K = SimplicialComplex([4, 2, 7], [(4, 2)])  # 7 is a ghost
        sub = K.full_subcomplex(K.mask_of({4, 7}))
        assert sub.labels == (4, 7) and sub.facets == ((4,),)

    def test_all_labels_identity(self):
        K = octahedron()
        assert K.full_subcomplex((1 << K.vertex_count) - 1) == K

    def test_monotone(self):
        K = octahedron()
        small = K.full_subcomplex(K.mask_of({1, 2, 3}))
        large = K.full_subcomplex(K.mask_of({1, 2, 3, 4}))
        faces = face_set(large)
        assert face_set(small) and all(
            large.mask_of(small.labels_of(m)) in faces for m in face_set(small)
        )


def assert_spanning_forest(K, wm):
    """K.spanning_forest(wm) against union-find over the edges of K_W: its
    edges are edges of K_W, they close no cycle and join every component,
    so there are f_0 - components of them."""
    faces = faces_by_filter(K, wm)
    vertices = sum(faces.get(0, ()))
    edges = K.spanning_forest(wm)
    assert set(edges) <= set(faces.get(1, ())), (K.facets, wm)
    components, _ = union_find(vertices, faces.get(1, ()))
    assert union_find(vertices, edges) == (components, True), (K.facets, wm)
    assert len(edges) == len(faces.get(0, ())) - components, (K.facets, wm)


class TestSpanningForest:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_every_w_of_random_complexes(self, rng, pure):
        K = random_complex(rng, pure)
        for wm in range(1 << K.vertex_count):
            assert_spanning_forest(K, wm)

    def test_components_isolated_vertices_and_ghosts(self):
        # components {1, 2, 3, 4}, {5, 6} and the isolated vertex 7; 8 is a ghost
        K = SimplicialComplex(range(1, 9), [(1, 2, 3), (3, 4), (5, 6), (7,)])
        assert ghost_labels(K) == (8,)
        whole = (1 << K.vertex_count) - 1
        assert len(K.spanning_forest(whole)) == 7 - 3
        assert K.spanning_forest(K.mask_of({7, 8})) == []  # a single vertex
        assert K.spanning_forest(K.mask_of({8})) == []  # no vertex of K
        assert K.spanning_forest(0) == []
        assert K.spanning_forest(K.mask_of({1, 4, 5, 6})) == [K.mask_of({5, 6})]
        for wm in range(1 << K.vertex_count):
            assert_spanning_forest(K, wm)

    def test_catalog_complexes(self):
        for e in catalog().values():
            K = e.complex
            for wm in range(0, 1 << K.vertex_count, max(1, (1 << K.vertex_count) // 300)):
                assert_spanning_forest(K, wm)


class TestMaskBoundary:
    def test_bits_follow_declared_order(self):
        K = SimplicialComplex([6, 5, 4, 3, 2, 1], octahedron().facets)
        assert K.mask_of((6,)) == 1
        assert K.mask_of({4, 6}) == 0b101
        assert K.labels_of(0b101) == (6, 4)
        for fm, facet in zip(K.facet_masks, K.facets):
            assert K.mask_of(facet) == fm
            assert K.labels_of(fm) == facet

    def test_unknown_label(self):
        with pytest.raises(InputError, match=r"^unknown vertex label 9$"):
            boundary_of_simplex(2).mask_of({1, 9})


class TestJoin:
    def test_two_point_join_is_square(self):
        s0 = SimplicialComplex([1, 2], [(1,), (2,)])
        square = s0.join(s0)
        assert square.facets == ((1, 3), (1, 4), (2, 3), (2, 4))
        assert square.is_closed_pseudomanifold()

    def test_join_with_empty_is_identity_on_faces(self):
        K = boundary_of_simplex(2)
        empty = SimplicialComplex([9], [])
        joined = K.join(empty)
        assert [f for f in joined.facets] == list(K.facets)

    def test_suspension_of_triangle(self):
        K = boundary_of_simplex(2).join(SimplicialComplex([1, 2], [(1,), (2,)]))
        assert K.vertex_count == 5
        assert len(K.facets) == 6
        assert K.is_closed_pseudomanifold()
        assert complex_euler_characteristic(K) == 1  # a 2-sphere


class TestPseudomanifold:
    def test_sphere_boundaries(self):
        assert boundary_of_simplex(3).is_closed_pseudomanifold()
        assert octahedron().is_closed_pseudomanifold()

    def test_single_triangle_is_not(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2, 3)])
        assert not K.is_closed_pseudomanifold()

    def test_strong_connectivity(self):
        assert octahedron().is_strongly_connected()
        two = SimplicialComplex(
            range(1, 7), [(1, 2, 3), (4, 5, 6)]
        )
        assert not two.is_strongly_connected()


class TestRidgeFlip:
    def test_triangle_boundary(self):
        K = boundary_of_simplex(2)
        assert ridge_flip(K, (1, 2), 1) == 3

    def test_simplex_boundary_any_position(self):
        for n in range(2, 6):
            K = boundary_of_simplex(n)
            facet = tuple(range(1, n + 1))
            for i in range(1, n + 1):
                assert ridge_flip(K, facet, i) == n + 1

    def test_octahedron(self):
        assert ridge_flip(octahedron(), (1, 2, 3), 1) == 4

    def test_flip_is_involution(self):
        K = octahedron()
        for facet in K.facets:
            for i in range(1, 4):
                p = ridge_flip(K, facet, i)
                other = tuple(sorted(set(facet) - {sorted(facet)[i - 1]} | {p}))
                j = other.index(p) + 1
                assert ridge_flip(K, other, j) == sorted(facet)[i - 1]

    def test_open_ridge_rejected(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2, 3)])
        with pytest.raises(InternalConsistencyError):
            ridge_flip(K, (1, 2, 3), 1)

    def test_ridge_in_three_facets_rejected(self):
        K = SimplicialComplex(range(1, 6), [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        with pytest.raises(InternalConsistencyError) as err:
            ridge_flip(K, (1, 2, 3), 3)
        assert str(err.value) == "ridge (1, 2) lies in 3 facets, not 2"

    def test_non_pure_rejected(self):
        # (1, 2) lies in (1, 2, 5) and in the larger facet (1, 2, 3, 4), but
        # (1, 2, 4) is no facet: a flip needs a pure complex.
        K = SimplicialComplex(range(1, 6), [(1, 2, 3, 4), (1, 2, 5)])
        with pytest.raises(InternalConsistencyError) as err:
            ridge_flip(K, (1, 2, 5), 3)
        assert "pure" in str(err.value)

    def test_positions_follow_declared_order(self):
        K = SimplicialComplex([6, 5, 4, 3, 2, 1], octahedron().facets)
        assert (6, 5, 4) in K.facets
        assert ridge_flip(K, (4, 5, 6), 1) == 3
        assert ridge_flip(K, (4, 5, 6), 3) == 1
        for facet in K.facets:
            for i in range(1, 4):
                p = ridge_flip(K, facet, i)
                other = K.labels_of(K.mask_of(set(facet) - {facet[i - 1]} | {p}))
                assert other in K.facets
                assert ridge_flip(K, other, other.index(p) + 1) == facet[i - 1]


class TestRidgeTable:
    def test_matches_containment_on_catalog(self):
        for name, entry in catalog().items():
            if name == "bier9":
                continue
            K = entry.complex
            masks = K.facet_masks
            table = K.ridge_table()
            assert set(table) == set(K.face_masks(K.dim - 1)), name
            for ridge, holders in table.items():
                assert holders == tuple(
                    j for j, fm in enumerate(masks) if fm & ridge == ridge
                ), name

    def test_non_pure_rejected(self):
        K = SimplicialComplex(range(1, 6), [(1, 2, 3, 4), (1, 2, 5)])
        with pytest.raises(InternalConsistencyError):
            K.ridge_table()
        assert not K.is_closed_pseudomanifold()
        assert not K.is_strongly_connected()

    def test_empty_complex(self):
        K = SimplicialComplex([1, 2], [])
        assert K.ridge_table() == {}
        assert K.is_closed_pseudomanifold()
        assert K.is_strongly_connected()


class TestJoinHVector:
    def test_h_polynomial_multiplies(self):
        a = boundary_of_simplex(2)
        b = SimplicialComplex([1, 2], [(1,), (2,)])
        joined = a.join(b)
        ha, hb, hj = a.h_vector(), b.h_vector(), joined.h_vector()
        prod = [0] * (len(ha) + len(hb) - 1)
        for i, x in enumerate(ha):
            for j, y in enumerate(hb):
                prod[i + j] += x * y
        assert list(hj) == prod


class TestGhosts:
    def test_ghosts_are_reported_and_ignored(self):
        K = SimplicialComplex([1, 2, 3], [(1, 2)])
        assert ghost_labels(K) == (3,)
        assert K.vertex_mask == K.mask_of({1, 2}) == 0b011
        assert K.f_vector() == (1, 2, 1)


class TestFaceOrder:
    # Ascending labels with gaps and a ghost (12); non-ascending labels with a
    # ghost (11); the complex with no nonempty face.
    EXTRA = (
        SimplicialComplex([2, 5, 7, 8, 12], [(2, 5, 7), (5, 8), (2, 7, 8)]),
        SimplicialComplex(
            [6, 2, 9, 4, 11, 3], [(6, 2, 9), (2, 9, 4), (6, 4, 3), (2, 3), (9, 3)]
        ),
        SimplicialComplex([1, 2], [()]),
    )

    def complexes(self):
        return [e.complex for _, e in sorted(catalog().items())] + list(self.EXTRA)

    def test_faces_sorted_by_mask(self):
        for K in self.complexes():
            for d in range(-1, K.dim + 1):
                masks = K.face_masks(d)
                assert list(masks) == sorted(masks)
                assert set(masks) == {
                    m for m in face_set(K) if m.bit_count() == d + 1
                }

    def test_face_set_is_the_downward_closure(self):
        for K in self.complexes():
            closure = set()
            for fm in K.facet_masks:
                sub = fm
                while True:  # every submask of fm, down to 0
                    closure.add(sub)
                    if not sub:
                        break
                    sub = (sub - 1) & fm
            assert set().union(*map(K.face_masks, range(-1, K.dim + 1))) == closure

    def test_faces_match_the_stack_walk(self):
        for K in self.complexes() + [cross_polytope_boundary(10)]:
            assert_faces_are_the_stack_walk(K)

    def test_facets_are_stored_in_label_order(self):
        for K in self.complexes():
            assert K.facets is K.facets
            assert K.facets == tuple(K.labels_of(m) for m in K.facet_masks)
            assert list(K.facets) == sorted(K.facets)
