"""Real toric space assembly: Betti numbers, integral cohomology, conditions,
and the full subcomplexes read off their complements by Alexander duality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    circle_times_tetrahedron_boundary,
    cone_apexes,
    ghost_labels,
    is_orientable_3d,
    moved_sphere,
    non_spheres,
    sympy_cohomology,
    with_ghosts,
)
from smallcover import cover, homology
from smallcover.bier import bier_instance, table1_seed_complex
from smallcover.catalog import catalog, get_entry
from smallcover.charmap import CharacteristicMatrix, first_dependent_facet, omega_descriptors
from smallcover.cli import main, sample_random_instance
from smallcover.cover import (
    ALL_CONDITIONS,
    BUDGET_EXCEEDED,
    RealToricSpace,
    alexander_dual,
    betti_table,
    evaluate_conditions,
    highest_ring_degree,
    integral_cohomology,
    mod2_betti,
    rational_betti,
)
from smallcover.errors import InputError, InternalConsistencyError
from smallcover.gf2 import BitMatrix
from smallcover.homology import CohomologyProfile, FinAbGroup, reduced_cohomology
from smallcover.instancefile import emit_instance, parse_instance
from smallcover.shelling import ShellingBudgetExceeded, find_shelling
from smallcover.simplicial import SimplicialComplex, boundary_of_simplex


def space(name):
    entry = get_entry(name)
    return RealToricSpace(entry.complex, entry.chi)


def emitted(tmp_path, capsys, name):
    """The path of the catalog entry's document, written under tmp_path."""
    path = tmp_path / f"{name}.json"
    assert main(["catalog", "emit", name]) == 0
    path.write_text(capsys.readouterr().out, encoding="utf-8")
    return str(path)


def classical_projective_profile(n):
    """H^*(real projective n-space; Z) from the textbook description."""
    groups = {0: FinAbGroup.free(1)}
    for q in range(2, n + 1, 2):
        if q < n or n % 2 == 0:
            groups[q] = FinAbGroup(0, (2,))
    if n % 2 == 1:
        groups[n] = FinAbGroup.free(1)
    return CohomologyProfile(groups)


class TestBettiNumbers:
    def test_rp3_mod2(self):
        assert mod2_betti(space("rp3")) == (1, 1, 1, 1)

    def test_rp3_rational(self):
        assert rational_betti(space("rp3")) == (1, 0, 0, 1)

    def test_torus_squared(self):
        M = space("gon4")
        assert rational_betti(M) == (1, 2, 1)
        assert mod2_betti(M) == (1, 2, 1)

    def test_octahedron_linear(self):
        assert mod2_betti(space("cross3")) == (1, 3, 3, 1)
        assert rational_betti(space("cross3")) == (1, 3, 3, 1)

    def test_klein_bottle(self):
        M = space("gon4klein")
        assert rational_betti(M) == (1, 1, 0)
        assert mod2_betti(M) == (1, 2, 1)


class TestIntegralCohomology:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_projective_space_regression(self, n):
        M = space(f"rp{n}")
        assert integral_cohomology(M) == classical_projective_profile(n)

    def test_join_negative_witness(self):
        profile = integral_cohomology(space("deltas0"))
        assert profile.group(3).torsion == (2,)
        assert profile.group(2).torsion == (2,)
        assert profile.group(1) == FinAbGroup.free(1)

    def test_klein_bottle_groups(self):
        profile = integral_cohomology(space("gon4klein"))
        assert profile.group(1) == FinAbGroup.free(1)
        assert profile.group(2) == FinAbGroup(0, (2,))

    def test_three_torus(self):
        profile = integral_cohomology(space("cross3"))
        assert [profile.group(q).rank for q in range(4)] == [1, 3, 3, 1]
        assert all(profile.group(q).is_torsion_free() for q in range(4))


class TestBettiTable:
    def test_internal_identity(self):
        for name in ("rp3", "rp4", "deltas0", "gon4klein", "cross3mixed"):
            table = betti_table(space(name))
            n = len(table.b) - 1
            for q in range(n + 1):
                assert table.b_mod2[q] == table.b[q] + table.mu[q] + table.mu[q + 1]

    def test_rp3_mu(self):
        assert betti_table(space("rp3")).mu == (0, 0, 1, 0, 0)


class TestConditions:
    def test_positive_instance(self):
        report = evaluate_conditions(space("rp4"))
        assert set(report.conditions.values()) == {True}
        assert report.verdict == "equivalent-true"
        assert report.sq1_witness is None

    def test_negative_instance(self):
        report = evaluate_conditions(space("deltas0"))
        assert set(report.conditions.values()) == {False}
        assert report.verdict == "equivalent-false"
        assert report.torsion_witness == {3: (2,)}
        assert report.sq1_witness is not None

    def test_orientable_3d_betti_identity(self):
        # orientable 3-dimensional instances satisfy the k = 1 difference
        # identity with both sides zero
        table = betti_table(space("rp3"))
        assert table.b[2] - table.b[1] == 0
        assert table.b_mod2[2] - table.b_mod2[1] == 0

    def test_condition_subset(self):
        report = evaluate_conditions(space("rp3"), conditions=(1, 7))
        assert set(report.conditions) == {1, 7}

    def test_unknown_condition(self):
        with pytest.raises(InternalConsistencyError):
            evaluate_conditions(space("rp3"), conditions=(8,))

    def test_all_catalog_instances_agree(self):
        from smallcover.catalog import catalog

        for name, entry in catalog().items():
            if entry.chi is None or name == "bier9":
                continue
            report = evaluate_conditions(space(name))
            assert report.hypotheses.all_hold(), name
            assert report.agree(), (name, report.conditions)


class TestRingDegreePlan:
    @pytest.mark.parametrize(
        "name", sorted(k for k, e in catalog().items() if e.chi is not None)
    )
    def test_preflight_degree_bounds_the_built_ring(self, name):
        # the size check reads this degree before any ring work, so no
        # degree above it may be built
        M = space(name)
        top = highest_ring_degree(M, ALL_CONDITIONS)
        report = evaluate_conditions(M)
        assert M.sphere_certified
        assert len(M.ring.variables) == M.chi.m - M.n
        assert max(M.ring._nf_rows) <= top <= max(3, (M.n + 1) // 2)
        if report.sq1_witness is not None:
            assert max(M.ring._nf_rows) == top

    def test_flagship_stops_at_degree_four(self):
        M = space("bier9")
        assert highest_ring_degree(M, ALL_CONDITIONS) == 4
        assert highest_ring_degree(M, (5,)) == 3
        assert highest_ring_degree(M, (1, 2, 3, 6, 7)) == 0


class TestOrientability:
    def test_projective_three_space(self):
        assert is_orientable_3d(space("rp3"))

    def test_three_torus(self):
        assert is_orientable_3d(space("cross3"))

    def test_join_is_nonorientable(self):
        assert not is_orientable_3d(space("deltas0"))

    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            is_orientable_3d(space("rp2"))

    def test_wu_side_at_degree_zero_is_orientability(self):
        # for n = 3, Sq1 on degree 2 is decided as Sq1 + w_1 = 0 on degree 0,
        # that is w_1 = 0
        for name in ("rp3", "cross3", "cross3mixed", "cross3notsimplex", "deltas0"):
            M = space(name)
            assert M.ring.wu_vanishes_on_degree(0) == is_orientable_3d(M), name

    def test_agrees_with_degree_three_torsion(self):
        for name in ("rp3", "cross3", "cross3mixed", "cross3notsimplex", "deltas0"):
            M = space(name)
            torsion_free = integral_cohomology(M).group(3).is_torsion_free()
            assert is_orientable_3d(M) == torsion_free, name


def dual_mismatches(K):
    """The masks W over K's labels, ghost labels included, whose part u in
    the used vertices V is neither empty nor V, and where alexander_dual of
    the profile of K_{V - u} differs from reduced_cohomology(K, W).  Every W
    is checked, not only those omega_profiles reads off the dual side."""
    n = K.dim + 1
    used = K.vertex_mask
    direct = {wm: reduced_cohomology(K, wm) for wm in range(1 << K.vertex_count)}
    return [
        wm for wm, profile in direct.items()
        if wm & used not in (0, used) and alexander_dual(direct[used & ~wm], n) != profile
    ]


def certified_catalog_complexes():
    """name -> complex for the distinct catalog complexes on at most 12
    labels that are closed pseudomanifolds with a shelling, and the Bier
    sphere of rp2_6v, whose full subcomplexes on the six unbarred and on the
    six barred labels carry Z_2 torsion."""
    out = {}
    for name, entry in sorted(catalog().items()):
        K = entry.complex
        if (
            K.vertex_count <= 12
            and K not in out.values()
            and K.is_closed_pseudomanifold()
            and find_shelling(K) is not None
        ):
            out[name] = K
    out["bier_rp2_6v"] = bier_instance(catalog()["rp2_6v"].complex)[0]
    return out


CERTIFIED = certified_catalog_complexes()


class TestAlexanderDuality:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_every_subset_of_a_certified_catalog_complex(self, name):
        K = CERTIFIED[name]
        assert K.is_closed_pseudomanifold() and find_shelling(K) is not None
        assert dual_mismatches(K) == []

    def test_torsion_of_the_projective_plane_in_its_bier_sphere(self):
        K = CERTIFIED["bier_rp2_6v"]
        unbarred = K.mask_of(range(1, 7))
        assert reduced_cohomology(K, unbarred).groups == {2: FinAbGroup(0, (2,))}
        complement = reduced_cohomology(K, K.vertex_mask ^ unbarred)
        assert complement.groups == {2: FinAbGroup(0, (2,))}
        assert alexander_dual(complement, K.dim + 1).groups == {2: FinAbGroup(0, (2,))}

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2))
    def test_moved_spheres_with_ghost_labels(self, rng, ghosts):
        # stellar subdivisions and bistellar flips keep a PL sphere a PL
        # sphere, so duality holds whether or not the search certifies it
        K = with_ghosts(moved_sphere(rng), ghosts, rng)
        assert len(ghost_labels(K)) == ghosts
        assert dual_mismatches(K) == []

    @pytest.mark.parametrize("name", ["rp1", "rp2", "rp3", "rp4", "gon5", "deltas0", "cross3"])
    def test_sympy_second_opinion(self, name):
        pytest.importorskip("sympy")
        K = CERTIFIED[name]
        used = K.vertex_mask
        for u in range(1, used):
            if u & used == u:
                sub = K.full_subcomplex(u)
                dual = alexander_dual(reduced_cohomology(K, used ^ u), K.dim + 1)
                assert dual.groups == sympy_cohomology(sub), (name, K.labels_of(u))


@pytest.fixture
def dual_calls(monkeypatch):
    """The dimension n of each alexander_dual call that omega_profiles makes."""
    calls = []

    def spy(profile, n):
        calls.append(n)
        return alexander_dual(profile, n)

    monkeypatch.setattr(cover, "alexander_dual", spy)
    return calls


def sampled_chi(K, seed):
    """A characteristic matrix over K with dim K + 1 rows, by rejection
    sampling of its columns."""
    rng = random.Random(seed)
    n = K.dim + 1
    while True:
        cols = [rng.getrandbits(n) for _ in range(K.vertex_count)]
        if first_dependent_facet(K, cols) is None:
            return CharacteristicMatrix(K, BitMatrix.from_column_bits(n, cols))


def outcome(M):
    """The report of M, or the class and message of the error it raises."""
    try:
        return evaluate_conditions(M)
    except (InputError, InternalConsistencyError) as exc:
        return type(exc), str(exc)


def direct_profiles(chi):
    """omega_profiles with every full subcomplex computed directly."""
    M = RealToricSpace(chi.complex, chi)
    return [
        (wm, reduced_cohomology(chi.complex, wm))
        for wm in omega_descriptors(chi, M.classification.coloring)
    ]


def direct_outcome(chi):
    """outcome with every full subcomplex computed directly."""
    M = RealToricSpace(chi.complex, chi)
    M.omega_profiles = direct_profiles(chi)
    return outcome(M)


# The staircase keeps its own matrix: random columns over it are almost
# never independent on every facet.
UNCERTIFIED = {
    name: sampled_chi(K, 17) for name, K in non_spheres().items() if name != "staircase"
}
UNCERTIFIED["staircase"] = circle_times_tetrahedron_boundary()


class TestDualSideGuard:
    @pytest.mark.parametrize("name", sorted(UNCERTIFIED))
    def test_uncertified_complexes_stay_direct(self, name, dual_calls):
        chi = UNCERTIFIED[name]
        M = RealToricSpace(chi.complex, chi)
        got = outcome(M)
        assert not M.sphere_certified
        assert dual_calls == []
        assert got == direct_outcome(chi)

    def test_search_stopped_at_its_budget_stays_direct(self, monkeypatch, dual_calls):
        def stopped(K):
            raise ShellingBudgetExceeded("stopped")

        monkeypatch.setattr(cover, "find_shelling", stopped)
        chi = get_entry("cross4").chi
        M = RealToricSpace(chi.complex, chi)
        report = evaluate_conditions(M)
        assert report.hypotheses.shelling_found == BUDGET_EXCEEDED
        assert dual_calls == []
        assert report == direct_outcome(chi)

    def test_faces_of_a_certified_sphere_stay_direct(self, dual_calls):
        # every proper vertex subset of the boundary of the 4-simplex is a
        # face, so each W is a simplex and takes the cone exit, none the
        # complement
        chi = get_entry("rp4").chi
        M = RealToricSpace(chi.complex, chi)
        report = evaluate_conditions(M)
        assert chi.complex.facets == boundary_of_simplex(4).facets
        assert M.sphere_certified
        assert dual_calls == []
        assert report == direct_outcome(chi)

    def test_cones_of_a_certified_sphere_stay_direct(self, monkeypatch, dual_calls):
        # A large u that is a cone is answered with the zero profile once its
        # apex is found, with no reduced_cohomology call and no second cone
        # test; only the others are computed on their complement.  K's face
        # lists are not read.
        chi = get_entry("cross4mixed").chi
        K = chi.complex
        M = RealToricSpace(K, chi)
        assert M.sphere_certified
        calls, tested = [], []
        cone_apex = SimplicialComplex.cone_apex

        def no_face_lists(K):
            raise AssertionError("omega_profiles read K's face lists")

        def counted(K, wm):
            calls.append(wm)
            return reduced_cohomology(K, wm)

        def spy(K, wm):
            tested.append(wm)
            return cone_apex(K, wm)

        with monkeypatch.context() as patch:
            patch.setattr(SimplicialComplex, "_faces_by_dim", no_face_lists)
            patch.setattr(SimplicialComplex, "cone_apex", spy)
            patch.setattr(cover, "reduced_cohomology", counted)
            profiles = M.omega_profiles
        supports = [wm for wm, _ in profiles]
        used = K.vertex_mask
        large = [
            wm & used for wm in supports
            if wm & used != used and 2 * (wm & used).bit_count() > used.bit_count()
        ]
        cones = [u for u in large if cone_apexes(K, u)]
        assert (len(large), len(cones)) == (5, 2)
        assert len(dual_calls) == 3
        assert len(calls) == len(supports) - len(cones)
        assert not set(cones) & set(calls) and all(tested.count(u) == 1 for u in cones)
        assert profiles == direct_profiles(chi)
        assert evaluate_conditions(M) == direct_outcome(chi)

    def test_certified_sphere_takes_the_dual_side(self, dual_calls):
        chi = get_entry("cross4").chi
        report = evaluate_conditions(RealToricSpace(chi.complex, chi))
        assert dual_calls and set(dual_calls) == {4}
        assert report == direct_outcome(chi)

    def test_analyze_takes_the_dual_side(self, tmp_path, monkeypatch, capsys, dual_calls):
        path = emitted(tmp_path, capsys, "cross4")
        assert main(["analyze", path, "--conditions", "2"]) == 0
        dual = capsys.readouterr().out
        assert dual_calls
        # the same report with the certificate hidden, so every W is direct
        dual_calls.clear()
        monkeypatch.setattr(RealToricSpace, "sphere_certified", property(lambda M: False))
        assert main(["analyze", path, "--conditions", "2"]) == 0
        assert capsys.readouterr().out == dual
        assert dual_calls == []


TABLE1_STDOUT = (
    "k            :   0   1   2   3   4   5   6   7   8\n"
    "b^k          :   1   1  31  23  43  48   7   9   0\n"
    "b^k mod 2    :   1  10  40  81 101  81  40  10   1\n"
    "PASS: both rows match the expected values exactly\n"
)


def test_table1_stays_direct(monkeypatch, capsys, dual_calls):
    # table1 never computes the hypotheses, so it holds no certificate and
    # runs no shelling search.  It stays direct on every W until ROADMAP.md
    # item 1 mends the bench's table1 segment test, which needs a table1 run
    # longer than one 0.4 s segment.
    searches = []
    monkeypatch.setattr(cover, "find_shelling", searches.append)
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == TABLE1_STDOUT
    assert searches == []
    assert dual_calls == []


def test_table1_builds_no_sphere_face_set(monkeypatch, capsys):
    # Each K_W is grown by faces_within over W, the cone exit reads
    # K.holders, and the sphere's h-vector is counted off one faces_within
    # pass that is not kept, so only the seed complex caches face lists.
    seed = table1_seed_complex()
    faces_by_dim = SimplicialComplex._faces_by_dim

    def seed_only(K):
        if K != seed:
            raise AssertionError(f"face lists cached for {K.vertex_count} vertices")
        return faces_by_dim(K)

    monkeypatch.setattr(SimplicialComplex, "_faces_by_dim", seed_only)
    assert main(["table1"]) == 0
    assert capsys.readouterr().out == TABLE1_STDOUT


@pytest.fixture
def cone_exits(monkeypatch):
    """The result of each SimplicialComplex.cone_apex call: an apex bit when
    the exit fires, 0 when not."""
    found = []
    cone_apex = SimplicialComplex.cone_apex

    def spy(K, wm):
        found.append(cone_apex(K, wm))
        return found[-1]

    monkeypatch.setattr(SimplicialComplex, "cone_apex", spy)
    return found


class TestConeExitCounts:
    """Where the cone exit fires, counted: none of the 256 W of bier9 is a
    cone, so table1 and analyze of bier9 pay only the test, while random
    matrices over the 4-cross-polytope meet cones."""

    def test_table1_takes_no_cone_exit(self, capsys, cone_exits):
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == TABLE1_STDOUT
        assert len(cone_exits) == 255 and not any(cone_exits)  # W = {} exits first

    def test_analyze_bier9_takes_no_cone_exit(self, tmp_path, capsys, cone_exits):
        assert main(["analyze", emitted(tmp_path, capsys, "bier9")]) == 0
        # 255 W past W = {}, and 93 large u tested before the dual side
        assert len(cone_exits) == 348 and not any(cone_exits)

    def test_cross4_fuzz_takes_the_cone_exit(self, capsys, cone_exits):
        assert main(["fuzz", "--complex", "cross4", "--samples", "5", "--seed", "0"]) == 0
        assert sum(map(bool, cone_exits)) > 0


class TestForestStepCounts:
    """Degrees -1 and 0 of every K_W are read off its spanning forest,
    counted with no timing: they build no coboundary row and reach no
    Smith normal form."""

    def test_gon12_runs_no_snf(self, monkeypatch, tmp_path, capsys):
        snf, calls = [], []
        sparse_snf_factors = homology._sparse_snf_factors

        def spy_snf(rows, ncols):
            snf.append(ncols)
            return sparse_snf_factors(rows, ncols)

        def spy(K, wm):
            calls.append(wm)
            return reduced_cohomology(K, wm)

        monkeypatch.setattr(homology, "_sparse_snf_factors", spy_snf)
        monkeypatch.setattr(cover, "reduced_cohomology", spy)
        assert main(["analyze", emitted(tmp_path, capsys, "gon12")]) == 0
        assert len(calls) == 4 and snf == []  # the 2^2 row-space elements
        K = get_entry("gon12").complex
        profiles = [reduced_cohomology(K, wm) for wm in range(1 << K.vertex_count)]
        assert sum(p.groups != {} for p in profiles) > 1000 and snf == []

    def test_analyze_bier9_builds_no_row_below_degree_2(
        self, monkeypatch, tmp_path, capsys
    ):
        sizes = []
        coboundary_rows = homology._coboundary_rows

        def spy(faces, cols):
            sizes.extend(f.bit_count() for f in faces)
            return coboundary_rows(faces, cols)

        monkeypatch.setattr(homology, "_coboundary_rows", spy)
        assert main(["analyze", emitted(tmp_path, capsys, "bier9")]) == 0
        assert sizes and min(sizes) == 3


@pytest.fixture
def whole_passes(monkeypatch):
    """The vertex count of K for each K.faces_within call over all of K's
    declared labels: one entry per whole-K face pass."""
    seen = []
    faces_within = SimplicialComplex.faces_within

    def spy(K, wm):
        if wm == (1 << K.vertex_count) - 1:
            seen.append(K.vertex_count)
        return faces_within(K, wm)

    monkeypatch.setattr(SimplicialComplex, "faces_within", spy)
    return seen


class TestWholeFacePasses:
    """K's faces are grown once per command: the shelling check's face
    count caches K's face lists, the ring's minimal non-faces and the Bier
    construction read them, and the f-vector is counted off them.  A sphere
    whose face lists nothing reads has its f-vector counted off a pass that
    is not kept."""

    def test_analyze_bier9(self, tmp_path, capsys, whole_passes):
        path = emitted(tmp_path, capsys, "bier9")
        assert main(["analyze", path, "--format", "json"]) == 0
        assert whole_passes == [18]

    def test_bier_of_bier9(self, tmp_path, capsys, whole_passes):
        path = emitted(tmp_path, capsys, "bier9")
        assert main(["bier", path]) == 0
        assert whole_passes == [18]

    def test_shelling_of_cross4(self, tmp_path, capsys, whole_passes):
        path = emitted(tmp_path, capsys, "cross4")
        assert main(["shelling", path]) == 0
        assert whole_passes == [8]

    def test_table1(self, capsys, whole_passes):
        # the seed complex's face lists for its Bier sphere, then the
        # sphere's f-vector for the mod-2 Betti numbers
        assert main(["table1"]) == 0
        assert capsys.readouterr().out == TABLE1_STDOUT
        assert whole_passes == [9, 18]

    def test_evaluate_conditions_on_a_cross4_fuzz_instance(self, whole_passes):
        # parsed from its document, as the fuzz corpus is, so K is new
        chi, _ = sample_random_instance("cross4", random.Random(0))
        K, chi = parse_instance(emit_instance("cross4-0", chi.complex, chi))
        whole_passes.clear()
        evaluate_conditions(RealToricSpace(K, chi))
        assert whole_passes == [8]
