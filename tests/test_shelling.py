"""Shellings: verification, search, critical generators, concentration."""

import contextlib
import hashlib
import io
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smallcover.catalog import catalog
from smallcover.charmap import classify_pullback, lambda_boundary_simplex
from smallcover.cli import main
from smallcover.errors import InputError, PropertyViolation
from smallcover.homology import reduced_cohomology
from smallcover.shelling import (
    SHELLING_BUDGET,
    ShellingBudgetExceeded,
    find_shelling,
    verify_shelling,
)
from smallcover.instancefile import emit_instance
from smallcover.simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
)
from oracles import (
    circle_times_tetrahedron_boundary,
    critical_generators,
    interval_size_total,
    profile_euler_characteristic,
    shelling_search_reference,
    two_degree_concentration_check,
)


class TestVerify:
    def test_triangle_boundary_restrictions(self):
        K = boundary_of_simplex(2)
        s = verify_shelling(K, [(1, 2), (1, 3), (2, 3)])
        assert labelled(K, s)[1] == ((), (3,), (2, 3))

    def test_every_order_of_simplex_boundary_shells(self):
        for n in (2, 3):
            K = boundary_of_simplex(n)
            for order in permutations(K.facets):
                verify_shelling(K, list(order))

    def test_disjoint_start_fails_at_index_two(self):
        K = cross_polytope_boundary(3)
        order = [(1, 2, 3), (4, 5, 6)] + [
            f for f in K.facets if f not in ((1, 2, 3), (4, 5, 6))
        ]
        with pytest.raises(PropertyViolation) as err:
            verify_shelling(K, order)
        assert "index 2" in str(err.value)

    def test_non_permutation_rejected(self):
        K = boundary_of_simplex(2)
        with pytest.raises(PropertyViolation):
            verify_shelling(K, [(1, 2), (1, 3), (1, 2)])

    def test_interval_partition_count(self):
        K = cross_polytope_boundary(3)
        s = find_shelling(K)
        assert interval_size_total(s) == K.total_face_count()


class TestSearch:
    def test_simplex_boundary(self):
        assert find_shelling(boundary_of_simplex(3)) is not None

    def test_octahedron(self):
        K = cross_polytope_boundary(3)
        s = find_shelling(K)
        assert s is not None
        verify_shelling(K, labelled(K, s)[0])

    def test_disjoint_triangles_not_shellable(self):
        K = SimplicialComplex(range(1, 7), [(1, 2, 3), (4, 5, 6)])
        assert find_shelling(K) is None

    def test_round_trip(self):
        K = cross_polytope_boundary(4)
        s = find_shelling(K)
        again = verify_shelling(K, labelled(K, s)[0])
        assert again.restriction == s.restriction

    def test_budget_counts_facet_placements(self):
        # the octahedron shells with no backtracking: one placement per facet
        K = cross_polytope_boundary(3)
        assert find_shelling(K, budget=8) is not None
        with pytest.raises(ShellingBudgetExceeded, match="budget of 7 facet placements"):
            find_shelling(K, budget=7)
        with pytest.raises(ShellingBudgetExceeded):
            find_shelling(K, budget=0)

    def test_budget_exceeded_is_no_input_error(self):
        assert not issubclass(ShellingBudgetExceeded, ValueError)

    def test_projective_plane_exhausts_after_760_placements(self):
        K = catalog()["rp2_6v"].complex
        assert find_shelling(K) is None
        assert find_shelling(K, budget=760) is None
        with pytest.raises(ShellingBudgetExceeded):
            find_shelling(K, budget=759)

    @pytest.mark.parametrize(
        "name", sorted(k for k in catalog() if k != "rp2_6v")
    )
    def test_catalog_shells_without_backtracking(self, name):
        K = catalog()[name].complex
        assert len(K.facets) <= SHELLING_BUDGET
        assert find_shelling(K, budget=len(K.facets)) is not None

    def test_restriction_histogram_is_h_vector(self):
        for K in (boundary_of_simplex(4), cross_polytope_boundary(4)):
            s = find_shelling(K)
            h = K.h_vector()
            hist = [0] * len(h)
            for r in s.restriction:
                hist[r.bit_count()] += 1
            assert hist == list(h)


class TestCriticalGenerators:
    def test_triangle_boundary_full_set(self):
        # the full vertex set leaves exactly one generator, in degree 1:
        # the restriction faces are (), (3,), (2,3) and only index 3 satisfies
        # facet-intersect-W == restriction; the alternating count -1 matches
        # the reduced Euler characteristic of the circle
        K = boundary_of_simplex(2)
        s = verify_shelling(K, [(1, 2), (1, 3), (2, 3)])
        gens = critical_generators(s, K.mask_of({1, 2, 3}))
        assert gens == [(3, 1)]

    def test_empty_set(self):
        K = boundary_of_simplex(2)
        s = verify_shelling(K, [(1, 2), (1, 3), (2, 3)])
        assert critical_generators(s, K.mask_of(set())) == [(1, -1)]

    def test_alternating_count_is_reduced_euler_of_subcomplex(self):
        K = cross_polytope_boundary(3)
        s = find_shelling(K)
        for size in range(7):
            for w in combinations(K.labels, size):
                gens = critical_generators(s, K.mask_of(w))
                total = sum(-1 if d % 2 else 1 for _, d in gens)
                sub = K.full_subcomplex(w)
                assert total == profile_euler_characteristic(
                    reduced_cohomology(sub, (1 << sub.vertex_count) - 1)
                )


class TestConcentration:
    def test_rp3_small_even_set(self):
        chi = lambda_boundary_simplex(3)
        K = chi.complex
        s = find_shelling(K)
        coloring = classify_pullback(chi).coloring
        assert two_degree_concentration_check(K, s, coloring, {1, 2})

    def test_all_even_subsets_on_pullbacks(self):
        for n in (2, 3, 4):
            chi = lambda_boundary_simplex(n)
            s = find_shelling(chi.complex)
            coloring = classify_pullback(chi).coloring
            for size in range(0, n + 2, 2):
                for chi_set in combinations(range(1, n + 2), size):
                    assert two_degree_concentration_check(chi.complex, s, coloring, chi_set)

    def test_empty_chi(self):
        chi = lambda_boundary_simplex(2)
        s = find_shelling(chi.complex)
        coloring = classify_pullback(chi).coloring
        assert two_degree_concentration_check(chi.complex, s, coloring, ())

    def test_odd_chi_rejected(self):
        chi = lambda_boundary_simplex(2)
        s = find_shelling(chi.complex)
        with pytest.raises(ValueError):
            two_degree_concentration_check(
                chi.complex, s, classify_pullback(chi).coloring, {1}
            )


# sha256 of `smallcover shelling FILE` stdout for each catalog entry's emitted
# instance, recorded before the shelling search and verification moved onto
# the complex's ridge table.
SHELLING_STDOUT_PINS = {
    "bier9": "d8c484a02a9b2b1a7e861114c2651728bfd50e3e34b6efaafbca5f6beed66a0f",
    "cross2": "eb0f7ca926295fb81d3f4aace6b69456dd45ed9632fd49bb98caa13b1b4b4690",
    "cross2mixed": "eb0f7ca926295fb81d3f4aace6b69456dd45ed9632fd49bb98caa13b1b4b4690",
    "cross3": "2c9d3fc59ffe3b3334bcd3c4097e0171ff5fd62bf6d5db052ed7c92ae4653c44",
    "cross3mixed": "2c9d3fc59ffe3b3334bcd3c4097e0171ff5fd62bf6d5db052ed7c92ae4653c44",
    "cross3notsimplex": "2c9d3fc59ffe3b3334bcd3c4097e0171ff5fd62bf6d5db052ed7c92ae4653c44",
    "cross4": "6c778d16b421f9cddb8da78d9d6b4788f261e10b91eaffc6b6bef4f810cead79",
    "cross4mixed": "6c778d16b421f9cddb8da78d9d6b4788f261e10b91eaffc6b6bef4f810cead79",
    "cross5": "9dbb9138a247a11254d34ecc68235f4f963b489e8c0474b40869cab0990380bc",
    "cross5mixed": "9dbb9138a247a11254d34ecc68235f4f963b489e8c0474b40869cab0990380bc",
    "cross6": "c3edbf9ea84b7c61366cedb07939c7d2da5ecd2411ec4cb8cb7198c7e8c7ae07",
    "cross6mixed": "c3edbf9ea84b7c61366cedb07939c7d2da5ecd2411ec4cb8cb7198c7e8c7ae07",
    "deltas0": "939f8360eb5b10ada26ed1e50ffd5bcb2a0f93a4e4c49e3dd3ecec5349a15fde",
    "gon10": "2a49c36c2fb3a8909a8b13f10d3b2aedd35b6ed13d3ccf1d8991de8205119c78",
    "gon10klein": "2a49c36c2fb3a8909a8b13f10d3b2aedd35b6ed13d3ccf1d8991de8205119c78",
    "gon11": "92b59488e9c5ef5d3d03d94723d6d44d304e6038ab291d952fe7cf7e189eaa92",
    "gon12": "b320bfac79b806b0d77be6549d26e0f540547970b798fd2aaecc92469f987f92",
    "gon12klein": "b320bfac79b806b0d77be6549d26e0f540547970b798fd2aaecc92469f987f92",
    "gon4": "eb0f7ca926295fb81d3f4aace6b69456dd45ed9632fd49bb98caa13b1b4b4690",
    "gon4klein": "eb0f7ca926295fb81d3f4aace6b69456dd45ed9632fd49bb98caa13b1b4b4690",
    "gon5": "4d00ba53d4a873965585b257bc5135b7daee28877ae1ed859e4eda8b6d76cdbd",
    "gon6": "19ea3520677ef7a4e821b1feaddec1e310c51b36ee5d0f0def8d7640d78717fb",
    "gon6klein": "19ea3520677ef7a4e821b1feaddec1e310c51b36ee5d0f0def8d7640d78717fb",
    "gon7": "e053e0241510e1b9e4747d46ae0e14345b40a966ad413188ecd89cde3dfe75fe",
    "gon8": "296af591b597c818dd561ae942079efb0d44473ee20f1d2d33d65cd37278c719",
    "gon8klein": "296af591b597c818dd561ae942079efb0d44473ee20f1d2d33d65cd37278c719",
    "gon9": "e9241412df181e5705f4371318fdaf3fdc287aa23f244b44715a0b7a4bbcbc73",
    "rp1": "a357e39719861d5dfaa2743e37c79850f8fc65543009fa17a874532145290d34",
    "rp2": "3dc8868599d1b7d66ed8dff24fe7e9cc0f35faad2a837b463256c2b4a4c86de6",
    "rp2_6v": "a473231bb47f7b2ef5202851c1fe1697ded4db0e0f4e76b18a4cbda8fc11e02e",
    "rp2xrp2": "89b089823bfe760ded218ae93e59aa2b4c6566012481d2134d165b6efda3a39a",
    "rp3": "6b11f734a7583fddfe3608573af430c67340ea852417fa615ed88ade9f4405f0",
    "rp4": "3977e76a815902cb38518c6266dafb4d46ebf29539ecd204606c83a65ec6b113",
    "rp5": "1838fe65eee31e338ee8c84af96845c337bd707a4a51041d424f84cc51e1843a",
    "rp6": "6fa7003567162d0ae1771fdc55576bfd94769850b760075861d7c154edba2a50",
    "rp7": "252b7d6875f4884ea0264a55ea5df1c5d98631d91975dfa78f88e4c5107ff9ab",
    "rp8": "82081f63088c52566009f93887103e53a48c2e23938a66157d44e71921de6ab0",
}


def labelled(K, s):
    """A shelling's order and restriction faces as label tuples."""
    return tuple(map(K.labels_of, s.order)), tuple(map(K.labels_of, s.restriction))


def ridge_outcome(K):
    """(shelling search result, closed pseudomanifold, strongly connected)."""
    try:
        s = find_shelling(K)
        found = None if s is None else labelled(K, s)
    except InputError as exc:
        found = ("InputError", str(exc))
    return found, K.is_closed_pseudomanifold(), K.is_strongly_connected()


def verify_outcomes(K):
    """verify_shelling on every facet order: the restriction faces or the error."""
    out = []
    for order in permutations(K.facets):
        try:
            out.append(labelled(K, verify_shelling(K, list(order)))[1])
        except PropertyViolation as exc:
            out.append(str(exc))
    return out


def random_pure_complexes(seed, count):
    """Seeded pure complexes of dimension 1 or 2 on 5-7 vertices in a shuffled
    declared label order; most are neither pseudomanifolds nor connected."""
    rng = random.Random(seed)
    for _ in range(count):
        labels = list(range(1, rng.randint(5, 7) + 1))
        rng.shuffle(labels)
        size = rng.randint(2, 3)
        pool = list(combinations(sorted(labels), size))
        facets = rng.sample(pool, rng.randint(2, min(6, len(pool))))
        yield SimplicialComplex(labels, facets)


class TestRidgeTablePins:
    """Outputs recorded on inputs where a ridge does not lie in exactly two
    facets, where the search used to test containment in earlier facets."""

    def test_shelling_command_stdout(self, tmp_path):
        digests = {}
        for name, entry in sorted(catalog().items()):
            path = tmp_path / f"{name}.json"
            path.write_text(emit_instance(name, entry.complex, entry.chi), encoding="utf-8")
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(["shelling", str(path)]) == 0
            digests[name] = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digests == SHELLING_STDOUT_PINS

    def test_three_triangles_on_an_edge(self):
        K = SimplicialComplex(range(1, 6), [(1, 2, 3), (1, 2, 4), (1, 2, 5)])
        assert ridge_outcome(K) == (
            (((1, 2, 3), (1, 2, 4), (1, 2, 5)), ((), (4,), (5,))), False, True
        )

    def test_triangulated_disc(self):
        K = SimplicialComplex(range(1, 8), [(i, i % 6 + 1, 7) for i in range(1, 7)])
        assert ridge_outcome(K) == (
            (
                ((1, 2, 7), (1, 6, 7), (2, 3, 7), (3, 4, 7), (4, 5, 7), (5, 6, 7)),
                ((), (6,), (3,), (4,), (5,), (5, 6)),
            ),
            False,
            True,
        )

    def test_disconnected_pairs(self):
        triangles = SimplicialComplex(range(1, 7), [(1, 2, 3), (4, 5, 6)])
        assert ridge_outcome(triangles) == (None, False, False)
        circles = SimplicialComplex(
            range(1, 7), [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
        )
        assert ridge_outcome(circles) == (None, True, False)

    def test_non_pure(self):
        K = SimplicialComplex(range(1, 6), [(1, 2, 3, 4), (1, 2, 5)])
        assert ridge_outcome(K) == (
            ("InputError", "shellings are defined for pure complexes"), False, False
        )

    def test_random_pure_complexes(self):
        record = []
        for K in random_pure_complexes(2026, 40):
            record.append((K.labels, K.facets, ridge_outcome(K), verify_outcomes(K)))
        digest = hashlib.sha256(repr(record).encode()).hexdigest()
        assert digest == "bf4e2f4a72852dcc4cb9968c51cc4a89c9b527fdd636fa83a4589548541751b2"


def search_outcome(K, budget):
    """The reference search's outcome, after checking that find_shelling
    finds the same shelling (or none) with the same number of facet
    placements, or stops at the budget with the same message."""
    try:
        ref, placements = shelling_search_reference(K, budget)
    except ShellingBudgetExceeded as exc:
        with pytest.raises(ShellingBudgetExceeded) as got:
            find_shelling(K, budget)
        assert str(got.value) == str(exc)
        return "budget-exceeded"
    found = find_shelling(K, budget=placements)
    if placements:
        with pytest.raises(ShellingBudgetExceeded):
            find_shelling(K, budget=placements - 1)
    if ref is None:
        assert found is None
        return "exhausted"
    assert (found.order, found.restriction) == (ref.order, ref.restriction)
    return "shelled"


def stellar_subdivision(K, face, new):
    """Subdivide the face at a new vertex: each facet F holding the face
    becomes the facets F - v + new for v in the face."""
    face = set(face)
    facets = [f for f in K.facets if not face <= set(f)]
    for f in K.facets:
        if face <= set(f):
            facets += [tuple(sorted(set(f) - {v} | {new})) for v in face]
    return SimplicialComplex(list(K.labels) + [new], facets)


def bistellar_moves(K):
    """(sigma, tau) with 2 <= |sigma| < facet size, the link of sigma the
    boundary of tau, and tau no face: sigma * boundary(tau) may become
    boundary(sigma) * tau."""
    size = K.dim + 1
    out = []
    for k in range(2, size):
        for sigma in map(K.labels_of, K.face_masks(k - 1)):
            link = [set(f) - set(sigma) for f in K.facets if set(sigma) <= set(f)]
            tau = set().union(*link)
            if (
                len(tau) == size + 1 - k
                and len(link) == len(tau)
                and K.mask_of(tau) not in K.all_face_masks()
            ):
                out.append((sigma, tuple(sorted(tau))))
    return out


def bistellar_flip(K, sigma, tau):
    sigma = set(sigma)
    facets = [f for f in K.facets if not sigma <= set(f)]
    facets += [tuple(sorted(sigma - {v} | set(tau))) for v in sigma]
    return SimplicialComplex(K.labels, facets)


def moved_sphere(rng):
    """A simplex or cross-polytope boundary after a few stellar subdivisions
    and bistellar flips, over a shuffled declared label order."""
    K = rng.choice([
        boundary_of_simplex(2), boundary_of_simplex(3), boundary_of_simplex(4),
        cross_polytope_boundary(2), cross_polytope_boundary(3),
        cross_polytope_boundary(4),
    ])
    for _ in range(rng.randint(1, 5)):
        moves = bistellar_moves(K)
        if moves and rng.random() < 0.6:
            K = bistellar_flip(K, *rng.choice(moves))
        else:
            facet = rng.choice(K.facets)
            face = rng.sample(facet, rng.randint(2, len(facet)))
            K = stellar_subdivision(K, face, max(K.labels) + 1)
    labels = list(K.labels)
    rng.shuffle(labels)
    return SimplicialComplex(labels, K.facets)


def branching_complex(rng):
    """A random pure complex with at least one ridge in three or more
    facets."""
    size = rng.randint(2, 4)
    labels = list(range(1, rng.randint(size + 2, size + 4) + 1))
    ridge = rng.sample(labels, size - 1)
    rest = [v for v in labels if v not in ridge]
    facets = {tuple(sorted(ridge + [v])) for v in rng.sample(rest, 3)}
    pool = list(combinations(labels, size))
    facets |= set(rng.sample(pool, rng.randint(0, min(12, len(pool)))))
    rng.shuffle(labels)
    return SimplicialComplex(labels, sorted(facets))


def non_spheres():
    rp2 = catalog()["rp2_6v"].complex
    return {
        "rp2_6v": rp2,
        "rp2_6v*S0": rp2.join(boundary_of_simplex(1)),
        "S0*rp2_6v": boundary_of_simplex(1).join(rp2),
        "rp2_6v*S1": rp2.join(boundary_of_simplex(2)),
        "staircase": circle_times_tetrahedron_boundary().complex,
    }


class TestIncrementalSearchOracle:
    """find_shelling against the prefix-scan search it replaced: the same
    shelling after the same number of facet placements."""

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_moved_spheres(self, rng):
        assert search_outcome(moved_sphere(rng), 2_000) != "exhausted"

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_ridges_in_three_or_more_facets(self, rng):
        K = branching_complex(rng)
        assert not K.is_closed_pseudomanifold()
        search_outcome(K, 2_000)

    @settings(derandomize=True, database=None, max_examples=25, deadline=None)
    @given(st.sampled_from(sorted(non_spheres())), st.integers(0, 900))
    def test_non_spheres_at_any_budget(self, name, budget):
        assert search_outcome(non_spheres()[name], budget) != "shelled"

    @pytest.mark.parametrize(
        "name, budget, outcome",
        [
            ("rp2_6v", 760, "exhausted"),
            ("rp2_6v", 759, "budget-exceeded"),
            ("staircase", 300, "budget-exceeded"),
        ],
    )
    def test_non_sphere_outcomes(self, name, budget, outcome):
        assert search_outcome(non_spheres()[name], budget) == outcome

    def test_branching_complexes_reach_every_outcome(self):
        # the family shells, exhausts its tree after backtracking, and runs
        # out of budget, each with ridges in three or more facets
        rng = random.Random(7)
        outcomes = {search_outcome(branching_complex(rng), 2_000) for _ in range(40)}
        assert outcomes == {"shelled", "exhausted", "budget-exceeded"}
