"""Real toric space assembly: Betti numbers, integral cohomology, conditions."""

import pytest

from oracles import is_orientable_3d
from smallcover.catalog import catalog, get_entry
from smallcover.cover import (
    ALL_CONDITIONS,
    RealToricSpace,
    betti_table,
    evaluate_conditions,
    highest_ring_degree,
    integral_cohomology,
    mod2_betti,
    rational_betti,
)
from smallcover.errors import InternalConsistencyError
from smallcover.homology import CohomologyProfile, FinAbGroup


def space(name):
    entry = get_entry(name)
    return RealToricSpace(entry.complex, entry.chi)


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
        assert M.ring.num_vars == M.chi.m - M.n
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
