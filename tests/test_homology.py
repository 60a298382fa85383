"""Cohomology and Smith normal form: frozen oracles and consistency laws."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    coboundary_matrix,
    complex_euler_characteristic,
    mod2_reduced_cohomology,
    profile_euler_characteristic,
    smith_normal_form,
)
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


def sympy_cohomology(K):
    """Reduced integral cohomology groups of K from sympy's Smith normal
    form of every coboundary matrix, with no clearing."""
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    ranks, torsion = {}, {}
    for d in range(-1, K.dim):
        a = coboundary_matrix(K, d)
        reference = sympy_snf(sympy.Matrix(a))
        diag = [abs(int(reference[i, i])) for i in range(min(len(a), len(a[0])))]
        ranks[d] = sum(1 for f in diag if f)
        torsion[d + 1] = [f for f in diag if f > 1]
    expected = {}
    for q in range(-1, K.dim + 1):
        free = len(K.face_masks(q)) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        g = FinAbGroup.from_orders(free, torsion.get(q, []))
        if not g.is_trivial():
            expected[q] = g
    return expected


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
                sub = K.full_subcomplex(K.labels_of(wm))
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


class TestSimplexExit:
    def test_every_subset_of_one_facet(self, monkeypatch):
        K = SimplicialComplex(range(1, 13), [tuple(range(1, 13))])

        def no_faces(d):
            raise AssertionError("faces enumerated for a simplex")

        monkeypatch.setattr(K, "face_masks", no_faces)
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


class TestHonestFailure:
    def test_negative_betti_number_is_an_internal_error(self, monkeypatch):
        import smallcover.homology as homology
        from smallcover.errors import InternalConsistencyError

        monkeypatch.setattr(
            homology, "_sparse_snf_factors",
            lambda rows, ncols: ([1] * min(len(rows), ncols), []),
        )
        with pytest.raises(InternalConsistencyError):
            K = boundary_of_simplex(2)
            reduced_cohomology(K, (1 << K.vertex_count) - 1)

    def test_cli_exit_code_three(self, monkeypatch, capsys):
        import smallcover.homology as homology
        from smallcover.cli import main

        monkeypatch.setattr(
            homology, "_sparse_snf_factors",
            lambda rows, ncols: ([1] * min(len(rows), ncols), []),
        )
        assert main(["table1"]) == 3
