"""Cohomology and Smith normal form: frozen oracles and consistency laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coboundary_matrix,
    complex_euler_characteristic,
    cone_apexes,
    face_set,
    faces_by_filter,
    ghost_labels,
    mod2_reduced_cohomology,
    moved_sphere,
    profile_euler_characteristic,
    random_complex,
    smith_normal_form,
    sympy_cohomology,
    with_ghosts,
)
from smallcover.catalog import get_entry
from smallcover.charmap import omega_descriptors
from smallcover.cover import RealToricSpace
from smallcover.errors import InternalConsistencyError
from smallcover.homology import FinAbGroup, reduced_cohomology
from smallcover.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
    polygon,
)


def rp2_six():
    return SimplicialComplex(
        range(1, 7),
        [
            (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
            (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
        ],
    )


def reference_snf(matrix):
    """Brute-force Smith normal form oracle for small matrices.

    d_k = gcd of all (k+1)-minors divided by gcd of all k-minors, computed
    with exact rational-free arithmetic; independent of the production code.
    """
    from itertools import combinations
    from math import gcd

    m = len(matrix)
    n = len(matrix[0]) if m else 0

    def minor_gcd(k):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, _det([[matrix[r][c] for c in cols] for r in rows]))
        return g

    def _det(a):
        size = len(a)
        if size == 1:
            return a[0][0]
        total = 0
        for j in range(size):
            sub = [row[:j] + row[j + 1 :] for row in a[1:]]
            total += (-1) ** j * a[0][j] * _det(sub)
        return total

    out = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = minor_gcd(k)
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    out += [0] * (min(m, n) - len(out))
    return tuple(out)


class TestFinAbGroup:
    def test_primary_decomposition(self):
        g = FinAbGroup.from_orders(1, [12, 5])
        assert g.rank == 1
        assert g.torsion == (3, 4, 5)

    def test_rejects_non_prime_power(self):
        with pytest.raises(InternalConsistencyError):
            FinAbGroup(0, (6,))

    def test_mu_counts_even_orders_only(self):
        g = FinAbGroup.from_orders(0, [4, 3])
        assert g.mu() == 1

    def test_str(self):
        assert str(FinAbGroup.from_orders(2, [2, 2, 9])) == "Z^2 + Z_2^2 + Z_9"
        assert str(FinAbGroup()) == "0"


class TestCoboundary:
    def test_augmentation_column(self):
        m = coboundary_matrix(boundary_of_simplex(2), -1)
        assert m == [[1], [1], [1]]

    def test_two_points_augmentation(self):
        K = SimplicialComplex([1, 2], [(1,), (2,)])
        assert coboundary_matrix(K, -1) == [[1], [1]]

    def test_delta_squared_is_zero(self):
        for K in (boundary_of_simplex(3), cross_polytope_boundary(3), rp2_six()):
            for d in range(-1, K.dim):
                a = coboundary_matrix(K, d)
                b = coboundary_matrix(K, d + 1)
                if not a or not b:
                    continue
                for i in range(len(b)):
                    for j in range(len(a[0])):
                        total = sum(b[i][k] * a[k][j] for k in range(len(a)))
                        assert total == 0

    def test_degree_out_of_range(self):
        from smallcover.errors import InternalConsistencyError

        with pytest.raises(InternalConsistencyError):
            coboundary_matrix(boundary_of_simplex(2), 5)


class TestSmithNormalForm:
    def test_diag_normalization(self):
        assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == (0, 0)

    def test_diag_two_two(self):
        assert smith_normal_form([[2, 0], [0, 2]]) == (2, 2)

    def test_against_minor_gcd_oracle(self):
        rng = random.Random(4242)
        for _ in range(40):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
            assert smith_normal_form(a) == reference_snf(a)

    def test_divisibility_chain(self):
        rng = random.Random(77)
        for _ in range(40):
            m = rng.randrange(1, 7)
            n = rng.randrange(1, 7)
            a = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(m)]
            factors = smith_normal_form(a)
            nonzero = [f for f in factors if f]
            assert all(nonzero[i] % nonzero[i - 1] == 0 for i in range(1, len(nonzero)))
            assert all(f == 0 for f in factors[len(nonzero):])

    def test_against_sympy_on_medium_matrices(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(90125)
        for _ in range(25):
            m = rng.randrange(2, 9)
            n = rng.randrange(2, 9)
            a = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
            reference = sympy_snf(sympy.Matrix(a))
            diag = [abs(reference[i, i]) for i in range(min(m, n))]
            # normalize: nonzero factors ascending (the divisibility chain),
            # zeros at the end
            expected = tuple(sorted(d for d in diag if d)) + (0,) * diag.count(0)
            got = smith_normal_form(a)
            assert got == expected, a


class TestTriangularPass:
    """The sparse phase clears rows in order at the earlier pivot columns,
    oldest first, and defers rows without a unit entry."""

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_against_minor_gcd_oracle(self, a):
        assert smith_normal_form(a) == reference_snf(a)

    def test_deferred_row_is_cleared_by_a_later_pivot(self):
        assert smith_normal_form([[2, 2], [1, 0]]) == (1, 2)
        # left uncleared, the deferred row (2, 3) would read factor 1
        assert smith_normal_form([[2, 3], [1, 0]]) == (1, 3)

    def test_queued_pivot_column_emptied_before_it_is_popped(self):
        assert smith_normal_form([[1, 1], [0, 1], [1, 1]]) == (1, 1)


def moore_space(k):
    """A triangle boundary a0 a1 a2 with a disc c * d_0 .. d_{3k-1} glued
    along a ring that winds k times around it: reduced H^2 = Z_k."""
    a = [1, 2, 3]
    c = 4
    ring = list(range(5, 5 + 3 * k))
    tris = []
    for i, d in enumerate(ring):
        e = ring[(i + 1) % len(ring)]
        tris += [(c, d, e), (d, e, a[i % 3]), (e, a[i % 3], a[(i + 1) % 3])]
    return SimplicialComplex(range(1, 5 + 3 * k), tris)


class TestMooreSpaces:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_torsion_against_sympy(self, k):
        K = moore_space(k)
        expected = sympy_cohomology(K)
        assert expected == {2: FinAbGroup.from_orders(0, [k])}
        assert reduced_cohomology(K, (1 << K.vertex_count) - 1).groups == expected

    def test_suspension_against_sympy(self):
        K = moore_space(3).join(SimplicialComplex([1, 2], [(1,), (2,)]))
        expected = sympy_cohomology(K)
        assert expected == {3: FinAbGroup(0, (3,))}
        assert reduced_cohomology(K, (1 << K.vertex_count) - 1).groups == expected


class TestReducedCohomology:
    def test_circle(self):
        K = boundary_of_simplex(2)
        p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
        assert p.groups == {1: FinAbGroup.free(1)}

    def test_empty_complex_convention(self):
        K = SimplicialComplex([1], [])
        p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
        assert p.groups == {-1: FinAbGroup.free(1)}

    def test_projective_plane_integral(self):
        K = rp2_six()
        p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
        assert p.groups == {2: FinAbGroup(0, (2,))}

    def test_projective_plane_mod2(self):
        p = mod2_reduced_cohomology(rp2_six())
        assert p.group(1).rank == 1 and p.group(2).rank == 1 and p.group(0).rank == 0

    def test_projective_plane_rational(self):
        K = rp2_six()
        p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
        assert all(g.rank == 0 for g in p.groups.values())

    def test_spheres(self):
        for n in (1, 2, 3):
            K = boundary_of_simplex(n + 1)
            p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
            assert p.groups == {n: FinAbGroup.free(1)}

    def test_two_points(self):
        K = SimplicialComplex([1, 2], [(1,), (2,)])
        p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
        assert p.groups == {0: FinAbGroup.free(1)}


class TestConsistencyLaws:
    CATALOG = None

    def _complexes(self):
        return [
            boundary_of_simplex(2),
            boundary_of_simplex(3),
            cross_polytope_boundary(3),
            polygon(6),
            rp2_six(),
            SimplicialComplex(range(1, 7), [(1, 2, 3), (4, 5, 6)]),
        ]

    def test_universal_coefficients(self):
        for K in self._complexes():
            integral = reduced_cohomology(K, (1 << K.vertex_count) - 1)
            mod2 = mod2_reduced_cohomology(K)
            for q in range(-1, K.dim + 1):
                expected = (
                    integral.group(q).rank
                    + integral.group(q).mu()
                    + integral.group(q + 1).mu()
                )
                assert mod2.group(q).rank == expected, (K, q)

    def test_euler_characteristic_agreement(self):
        for K in self._complexes():
            p = reduced_cohomology(K, (1 << K.vertex_count) - 1)
            assert profile_euler_characteristic(p) == complex_euler_characteristic(K)


def small_catalog_complexes(max_vertices=8):
    from smallcover.catalog import catalog

    seen = {}
    for entry in catalog().values():
        K = entry.complex
        if K.vertex_count <= max_vertices:
            seen.setdefault(K, None)
    return list(seen)


def rp2_with_cone():
    """rp2_six with a cone on the triangle (1, 2, 3): torsion sits in degree
    2, below the top dimension 3."""
    K = rp2_six()
    return SimplicialComplex(range(1, 8), list(K.facets) + [(1, 2, 3, 7)])


class TestFullSubcomplexOnMasks:
    def test_matches_the_built_subcomplex(self):
        complexes = small_catalog_complexes() + [rp2_with_cone()]
        checked = 0
        for K in complexes:
            for wm in range(1 << K.vertex_count):
                sub = K.full_subcomplex(wm)
                for c in (reduced_cohomology, mod2_reduced_cohomology):
                    whole = (1 << sub.vertex_count) - 1
                    assert c(K, wm) == c(sub, whole), (K.facets, wm, c)
                    checked += 1
        assert checked > 3000

    def test_unknown_label_rejected(self):
        from smallcover.errors import InputError

        K = boundary_of_simplex(2)
        with pytest.raises(InputError):
            reduced_cohomology(K, K.mask_of({9}))

    def test_ghost_vertices_are_not_faces(self):
        K = SimplicialComplex([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)])
        assert reduced_cohomology(K, K.mask_of({4})).groups == {-1: FinAbGroup.free(1)}
        assert reduced_cohomology(K, K.mask_of({1, 2, 3, 4})).groups == {
            1: FinAbGroup.free(1)
        }

    def test_sympy_oracle_with_clearing_after_a_torsion_pivot(self):
        from smallcover.homology import _sparse_snf_factors

        K = rp2_with_cone()
        assert K.dim == 3
        expected = sympy_cohomology(K)
        assert expected == {2: FinAbGroup(0, (2,))}
        assert reduced_cohomology(K, (1 << K.vertex_count) - 1).groups == expected
        # The torsion of delta_1 forces a dense-phase pivot, so the clearing
        # of delta_2 follows a non-unit pivot.
        rows = [{j: v for j, v in enumerate(row) if v} for row in coboundary_matrix(K, 1)]
        factors, unit_rows = _sparse_snf_factors(rows, len(K.face_masks(1)))
        assert 2 in factors and len(unit_rows) < sum(1 for f in factors if f)


def no_faces(*args):
    raise AssertionError("faces enumerated for a simplex")


class TestSimplexExit:
    def test_every_subset_of_one_facet(self, monkeypatch):
        K = SimplicialComplex(range(1, 13), [tuple(range(1, 13))])
        monkeypatch.setattr(K, "face_masks", no_faces)
        monkeypatch.setattr(K, "faces_within", no_faces)
        trivial = 0
        for wm in range(1 << K.vertex_count):
            p = reduced_cohomology(K, wm)
            if wm:
                trivial += p.groups == {}
            else:
                assert p.groups == {-1: FinAbGroup.free(1)}
        assert trivial == 2 ** 12 - 1
        for c in (reduced_cohomology, mod2_reduced_cohomology):
            assert c(K, (1 << K.vertex_count) - 1).groups == {}

    def test_every_face_of_a_sphere(self, monkeypatch):
        K = boundary_of_simplex(4)
        faces = face_set(K) - {0}
        monkeypatch.setattr(K, "faces_within", no_faces)
        for fm in faces:
            assert reduced_cohomology(K, fm).groups == {}


def grown_face_mismatches(K, masks):
    """The masks W among ``masks`` where the faces of K_W grown by
    K.faces_within differ from the filtered faces of K (by degree, in
    order), or where the simplex test ``K.holders(W)`` disagrees with a
    facet that holds W."""
    return [
        wm for wm in masks
        if K.faces_within(wm) != faces_by_filter(K, wm)
        or bool(K.holders(wm)) != any(wm & f == wm for f in K.facet_masks)
    ]


class TestGrownFaces:
    def test_every_subset_of_the_small_catalog_complexes(self):
        complexes = small_catalog_complexes(max_vertices=12)
        non_simplex = 0
        for K in complexes:
            assert grown_face_mismatches(K, range(1 << K.vertex_count)) == [], K.facets
            non_simplex += (1 << K.vertex_count) - K.total_face_count()
        assert non_simplex == 12_449  # (K, W) pairs over the distinct complexes

    def test_bier9_omega_supports_on_both_sides(self):
        chi = get_entry("bier9").chi
        K = chi.complex
        supports = omega_descriptors(chi, RealToricSpace(K, chi).classification.coloring)
        used = K.vertex_mask
        assert len(supports) == 256 and K.vertex_count == 18
        assert grown_face_mismatches(K, supports) == []
        assert grown_face_mismatches(K, [used & ~wm for wm in supports]) == []

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2))
    def test_moved_spheres_with_ghost_labels(self, rng, ghosts):
        K = with_ghosts(moved_sphere(rng), ghosts, rng)
        assert len(ghost_labels(K)) == ghosts
        assert grown_face_mismatches(K, range(1 << K.vertex_count)) == []

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_random_complexes_pure_and_mixed(self, rng, pure):
        # non-pure generators, missing edges inside a vertex's neighbours
        # and ghost labels, which no common-neighbour mask holds
        K = random_complex(rng, pure)
        assert grown_face_mismatches(K, range(1 << K.vertex_count)) == [], K.facets


def forest_step_mismatches(K, masks):
    """The masks W among ``masks`` where reduced_cohomology, which reads
    degrees -1 and 0 off K.spanning_forest, differs from sympy's Smith
    normal form of every coboundary of K_W with none cleared.  Each distinct
    K_W (over compacted labels) goes to sympy once."""
    pytest.importorskip("sympy")
    expected = {}
    bad = []
    for wm in masks:
        sub = K.full_subcomplex(wm)
        key = (sub.vertex_count,
               tuple(tuple(sub.labels.index(v) for v in f) for f in sub.facets))
        if key not in expected:
            expected[key] = sympy_cohomology(sub)
        if reduced_cohomology(K, wm).groups != expected[key]:
            bad.append(wm)
    return bad


class TestForestStep:
    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False), st.booleans())
    def test_random_complexes(self, rng, pure):
        K = random_complex(rng, pure)
        masks = {(1 << K.vertex_count) - 1, K.vertex_mask, K.vertex_mask & -K.vertex_mask}
        masks.update(rng.getrandbits(K.vertex_count) for _ in range(4))
        assert forest_step_mismatches(K, sorted(masks)) == [], K.facets

    def test_components_isolated_vertices_and_ghosts(self):
        # a circle, a triangle, an edge and an isolated vertex; 9 is a ghost
        K = SimplicialComplex(
            range(1, 10), [(1, 2), (2, 3), (1, 3), (4, 5, 6), (7, 8), (8,), (2, 4)]
        )
        assert ghost_labels(K) == (9,)
        assert reduced_cohomology(K, K.vertex_mask).groups == {
            0: FinAbGroup.free(1), 1: FinAbGroup.free(1)
        }
        assert forest_step_mismatches(K, range(1 << K.vertex_count)) == []

    @pytest.mark.parametrize("name", ["rp2_with_cone", "rp2_6v", "deltas0"])
    def test_every_w_where_torsion_sits_above_the_forest_step(self, name):
        # H^2 = Z_2 of RP^2 comes from delta_1, the first Smith normal form
        # after the forest step, whose columns the forest has cleared.
        K = rp2_with_cone() if name == "rp2_with_cone" else get_entry(name).complex
        assert forest_step_mismatches(K, range(1 << K.vertex_count)) == []


class TestHonestFailure:
    def test_negative_betti_number_is_an_internal_error(self, monkeypatch):
        import smallcover.homology as homology
        from smallcover.errors import InternalConsistencyError

        monkeypatch.setattr(
            homology, "_sparse_snf_factors",
            lambda rows, ncols: ([1] * min(len(rows), ncols), []),
        )
        # The boundary of the 4-simplex has faces in degree 2 and above, so
        # the patched form is reached (a 1-dimensional K_W is answered by its
        # spanning forest alone); it gives b^2 = 10 - 5 - 6 = -1.
        with pytest.raises(InternalConsistencyError, match="degree 2"):
            K = boundary_of_simplex(4)
            reduced_cohomology(K, (1 << K.vertex_count) - 1)

    def test_cli_exit_code_three(self, monkeypatch, capsys):
        import smallcover.homology as homology
        from smallcover.cli import main

        monkeypatch.setattr(
            homology, "_sparse_snf_factors",
            lambda rows, ncols: ([1] * min(len(rows), ncols), []),
        )
        assert main(["table1"]) == 3


class TestConeExit:
    """SimplicialComplex.cone_apex against the intersection of the maximal
    faces of K_W, and reduced_cohomology's cone exit against the
    computation it skips."""

    def test_every_subset_of_the_small_catalog_complexes(self, monkeypatch):
        pytest.importorskip("sympy")
        pairs = 0
        cones = []
        for K in small_catalog_complexes(max_vertices=12):
            for wm in range(1 << K.vertex_count):
                if K.holders(wm):
                    continue
                pairs += 1
                apex, apexes = K.cone_apex(wm), cone_apexes(K, wm)
                assert bool(apex) == bool(apexes), (K.facets, wm)
                assert apex & apexes == apex and apex & (apex - 1) == 0, (K.facets, wm)
                if apex:
                    cones.append((K, wm))
        assert pairs == 12_449  # the non-simplex pairs of TestGrownFaces
        assert len(cones) == 4_336
        # Without the exit, the package's Smith normal form and sympy's (on
        # each distinct K_W once, over compacted labels) give the zero profile.
        monkeypatch.setattr(SimplicialComplex, "cone_apex", lambda K, wm: 0)
        distinct = {}
        for K, wm in cones:
            assert reduced_cohomology(K, wm).groups == {}, (K.facets, wm)
            sub = K.full_subcomplex(wm)
            key = tuple(sorted(tuple(sub.labels.index(v) for v in f) for f in sub.facets))
            distinct.setdefault(key, sub)
        assert len(distinct) == 368
        for sub in distinct.values():
            assert sympy_cohomology(sub) == {}, sub.facets

    def test_ghost_labels_alone_are_no_cone(self):
        K = SimplicialComplex(range(1, 6), polygon(3).facets)  # 4 and 5 are ghosts
        assert ghost_labels(K) == (4, 5)
        ghosts = K.mask_of({4, 5})
        assert K.cone_apex(ghosts) == cone_apexes(K, ghosts) == 0
        assert reduced_cohomology(K, ghosts).groups == {-1: FinAbGroup.free(1)}
        # beside vertices of K a ghost is ignored
        assert K.cone_apex(K.mask_of({2, 4})) == K.mask_of({2})
        assert K.cone_apex(K.mask_of({1, 2, 3, 5})) == 0
        assert reduced_cohomology(K, K.mask_of({1, 2, 3, 5})).groups == {1: FinAbGroup.free(1)}

    def test_one_vertex_and_every_face_of_a_sphere(self):
        K = boundary_of_simplex(3)
        for fm in face_set(K) - {0}:
            apex = K.cone_apex(fm)
            assert apex == fm & -fm and cone_apexes(K, fm) == fm
            assert reduced_cohomology(K, fm).groups == {}

    def test_cross_polytope_with_one_antipodal_pair_broken(self):
        K = cross_polytope_boundary(4)
        whole = K.vertex_mask
        assert K.cone_apex(whole) == cone_apexes(K, whole) == 0
        assert reduced_cohomology(K, whole).groups == {3: FinAbGroup.free(1)}
        for v in range(1, 9):
            antipode = K.mask_of({v + 4 if v <= 4 else v - 4})
            wm = whole & ~K.mask_of({v})
            assert K.cone_apex(wm) == cone_apexes(K, wm) == antipode
            assert reduced_cohomology(K, wm).groups == {}

    @pytest.mark.parametrize("m", [4, 5, 7])
    def test_three_consecutive_vertices_of_a_polygon(self, m):
        K = polygon(m)
        for i in range(1, m + 1):
            a, b, c = i, i % m + 1, (i + 1) % m + 1
            wm = K.mask_of({a, b, c})
            assert K.cone_apex(wm) == cone_apexes(K, wm) == K.mask_of({b})
            assert reduced_cohomology(K, wm).groups == {}
            # the two ends alone are two points, no cone
            assert K.cone_apex(K.mask_of({a, c})) == 0
            assert reduced_cohomology(K, K.mask_of({a, c})).groups == {0: FinAbGroup.free(1)}
