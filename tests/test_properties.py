"""Corpus-wide structural laws tying the modules together."""

import random

import oracles
import pytest

from smallcover.catalog import catalog, get_entry
from smallcover.charmap import (
    CharacteristicMatrix,
    PullbackLabel,
    classify_via_flips,
    omega_descriptors,
)
from smallcover.cover import (
    RealToricSpace,
    betti_table,
    evaluate_conditions,
    integral_cohomology,
    mod2_betti,
    rational_betti,
)
from smallcover.gf2 import BitMatrix
from smallcover.homology import reduced_cohomology
from smallcover.shelling import verify_shelling
from smallcover.simplicial import SimplicialComplex
from oracles import critical_generators


def light_instances():
    """Catalog instances small enough for exhaustive per-degree scans."""
    for name, entry in sorted(catalog().items()):
        if entry.chi is None or name == "bier9":
            continue
        yield name, entry


@pytest.fixture(scope="module")
def spaces():
    cache = {}

    def get(name):
        if name not in cache:
            entry = get_entry(name)
            cache[name] = RealToricSpace(entry.complex, entry.chi)
        return cache[name]

    return get


class TestCatalogShapes:
    def test_expected_classifications(self, spaces):
        expected = {
            "rp3": PullbackLabel.SIMPLEX_PROPER,
            "rp8": PullbackLabel.SIMPLEX_PROPER,
            "cross3": PullbackLabel.LINEAR_MODEL,
            "cross4mixed": PullbackLabel.SIMPLEX_PROPER,
            "cross3notsimplex": PullbackLabel.NOT_SIMPLEX,
            "gon6": PullbackLabel.LINEAR_MODEL,
            "gon7": PullbackLabel.SIMPLEX_PROPER,
            "gon8klein": PullbackLabel.SIMPLEX_PROPER,
            "deltas0": PullbackLabel.NOT_SIMPLEX,
            "rp2xrp2": PullbackLabel.NOT_SIMPLEX,
        }
        for name, label in expected.items():
            assert spaces(name).classification.label is label, name

    def test_every_instance_analyzes(self, spaces):
        for name, entry in light_instances():
            report = evaluate_conditions(spaces(name))
            assert report.verdict in ("equivalent-true", "equivalent-false"), name
            assert report.agree(), name


class TestSubcomplexCoefficientConsistency:
    """Per-subcomplex universal-coefficient identity against independent
    GF(2) ranks, across every row-space subcomplex of selected instances."""

    def test_universal_coefficients_on_omega_subcomplexes(self, spaces):
        for name in ("rp3", "cross3mixed", "deltas0", "gon6klein", "rp2xrp2"):
            M = spaces(name)
            for wm in omega_descriptors(M.chi):
                sub = M.complex.full_subcomplex(wm)
                integral = reduced_cohomology(sub, (1 << sub.vertex_count) - 1)
                mod2 = oracles.mod2_reduced_cohomology(sub)
                for q in range(-1, sub.dim + 1):
                    expected = (
                        integral.group(q).rank
                        + integral.group(q).mu()
                        + integral.group(q + 1).mu()
                    )
                    assert mod2.group(q).rank == expected, (name, sub.labels, q)


class TestDualityAndEuler:
    def test_mod2_poincare_palindrome(self, spaces):
        for name, entry in light_instances():
            M = spaces(name)
            if not M.hypotheses.all_hold():
                continue
            b2 = mod2_betti(M)
            assert b2 == tuple(reversed(b2)), name

    def test_euler_consistency(self, spaces):
        for name, entry in light_instances():
            M = spaces(name)
            b = rational_betti(M)
            b2 = mod2_betti(M)
            alt = sum((-1 if q % 2 else 1) * v for q, v in enumerate(b))
            alt2 = sum((-1 if q % 2 else 1) * v for q, v in enumerate(b2))
            assert alt == alt2, name


class TestMuParityLaws:
    def test_even_betti_identity_iff_odd_mu_vanishes(self, spaces):
        # the all-k Betti difference identity holds exactly when no odd
        # degree carries even-order torsion
        for name, entry in light_instances():
            M = spaces(name)
            table = betti_table(M)
            n = M.n
            identity = all(
                (table.b[2 * k] if 2 * k <= n else 0)
                - (table.b[2 * k - 1] if 2 * k - 1 <= n else 0)
                == (table.b_mod2[2 * k] if 2 * k <= n else 0)
                - (table.b_mod2[2 * k - 1] if 2 * k - 1 <= n else 0)
                for k in range(1, n // 2 + 2)
            )
            odd_mu_zero = all(table.mu[q] == 0 for q in range(1, n + 2, 2))
            assert identity == odd_mu_zero, name

    def test_degree_three_hypothesis_link(self, spaces):
        # without order-four torsion in degree 3, the k = 1 identity matches
        # the vanishing of the first square on degree 2
        for name, entry in light_instances():
            M = spaces(name)
            profile = integral_cohomology(M)
            if any(t % 4 == 0 for t in profile.group(3).torsion):
                continue
            report = evaluate_conditions(M, conditions=(5, 7))
            assert report.conditions[5] == report.conditions[7], name


class TestFlipsAgreeEverywhere:
    def test_catalog_agreement(self, spaces):
        for name, entry in light_instances():
            M = spaces(name)
            flips = classify_via_flips(M.chi)
            assert flips.label is M.classification.label, name


    @pytest.mark.parametrize("name", [name for name, _ in light_instances()])
    def test_relabelled_catalog_agreement(self, spaces, name):
        """Shuffling the declared label order, with every label keeping its
        column, changes flip positions but no classification or condition."""
        M = spaces(name)
        chi = relabelled(get_entry(name), random.Random(f"relabel-{name}"))
        R = RealToricSpace(chi.complex, chi)
        assert classify_via_flips(chi).label is R.classification.label, name
        assert R.classification.label is M.classification.label, name
        report, original = evaluate_conditions(R), evaluate_conditions(M)
        assert report.conditions == original.conditions, name
        assert report.verdict == original.verdict, name
        assert report.betti == original.betti, name
        assert (report.sq1_witness is None) == (original.sq1_witness is None), name


def relabelled(entry, rng) -> CharacteristicMatrix:
    """The entry's instance over a shuffled declared label order (never the
    original one), each label keeping its column."""
    K, chi = entry.complex, entry.chi
    labels = list(K.labels)
    while labels == list(K.labels):
        rng.shuffle(labels)
    column = dict(zip(K.labels, chi.matrix.column_bits()))
    return CharacteristicMatrix(
        SimplicialComplex(labels, K.facets),
        BitMatrix.from_column_bits(chi.n, [column[v] for v in labels]),
    )


class TestSq1WitnessUnderRelabelling:
    def test_witness_reads_from_labels_alone(self):
        """Under labels 7v + 3 in a shuffled declared order, no facet position
        is a label minus one and facets are not in ascending label order; each
        witness must still match the flip support of its facet's labels."""
        seen, unsorted = [], False
        for name, entry in light_instances():
            chi = oracles.scaled_relabelling(entry, random.Random(f"scale-{name}"))
            M = RealToricSpace(chi.complex, chi)
            w = evaluate_conditions(M).sq1_witness
            assert (w is None) == M.classification.is_simplex_pullback, name
            if w is None:
                continue
            seen.append(name)
            unsorted |= list(w.facet) != sorted(w.facet)
            assert w.facet in M.complex.facets, name
            support = oracles.ridge_flip_support(chi, w.facet, w.position)
            full = frozenset(range(1, M.n + 1))
            assert support not in (frozenset({w.position}), full), name
            assert w.s == min(support - {w.position}), name
            assert w.t == min(full - support), name
            ring = M.ring
            product = ring.multiply(
                ring.express([w.facet[w.s - 1]]), ring.express([w.facet[w.t - 1]])
            )
            assert product == w.witness, name
            assert ring.sq1(product) == w.image, name
            assert not w.image.is_zero(), name
        assert seen and unsorted, seen


class TestRingLaws:
    def test_sq1_squared_and_odd_degree_action(self, spaces):
        for name in ("rp4", "rp5", "cross3mixed", "gon7", "deltas0", "rp2xrp2"):
            M = spaces(name)
            ring = M.ring
            oracles.verify_all_dimensions(ring)
            for d in range(M.n + 1):
                for cls in ring.basis_classes(d):
                    assert ring.sq1(ring.sq1(cls)).is_zero(), (name, d)
            if M.classification.is_simplex_pullback:
                tau = oracles.tau(ring, M.classification.coloring)
                for d in range(1, M.n + 1, 2):
                    for cls in ring.basis_classes(d)[:10]:
                        assert ring.sq1(cls) == ring.multiply(tau, cls), (name, d)

    def test_color_class_sums_consistent(self, spaces):
        for name, entry in light_instances():
            M = spaces(name)
            cls = M.classification
            if not cls.is_simplex_pullback:
                continue
            oracles.tau_classes(M.ring, cls.coloring)
            assert oracles.square_identity_check(M.ring, cls.coloring), name


class TestShellingLaws:
    def test_interval_partition_and_round_trip(self, spaces):
        for name in ("rp4", "cross4", "gon8", "deltas0"):
            M = spaces(name)
            s = M.shelling
            assert s is not None
            assert oracles.interval_size_total(s) == M.complex.total_face_count()
            again = verify_shelling(M.complex, [M.complex.labels_of(m) for m in s.order])
            assert again.restriction == s.restriction

    def test_alternating_generator_count_is_subcomplex_euler(self, spaces):
        for name in ("rp3", "cross3", "cross3mixed", "deltas0", "gon6"):
            M = spaces(name)
            s = M.shelling
            for wm, profile in M.omega_profiles:
                gens = critical_generators(s, wm)
                alt = sum(-1 if d % 2 else 1 for _, d in gens)
                assert alt == oracles.profile_euler_characteristic(profile), (
                    name,
                    M.complex.labels_of(wm),
                )

    def test_generator_counts_bound_betti_numbers(self, spaces):
        for name in ("rp3", "cross3mixed"):
            M = spaces(name)
            s = M.shelling
            for wm, profile in M.omega_profiles:
                gens = critical_generators(s, wm)
                per_degree = {}
                for _, d in gens:
                    per_degree[d] = per_degree.get(d, 0) + 1
                for q, g in profile.groups.items():
                    assert g.rank <= per_degree.get(q, 0), name


class TestSecondLargeSphere:
    def test_bier_eight_end_to_end(self):
        # a second large sphere exercising the Wu side on different data
        # than the bundled flagship; frozen Betti rows from this pipeline,
        # cross-validated here by Poincare duality and the seven-way
        # agreement
        from smallcover.bier import bier_instance

        K = SimplicialComplex(
            range(1, 9), [(1, 2, 3), (2, 3, 4), (4, 5), (5, 6, 7), (1, 7, 8), (3, 8)]
        )
        sphere, chi = bier_instance(K)
        assert sphere.vertex_count == 16 and len(sphere.facets) == 116
        M = RealToricSpace(sphere, chi)
        report = evaluate_conditions(M)
        assert report.verdict == "equivalent-true"
        ring = M.ring
        # Sq1 on degrees 4 and 6 of the 7-dimensional ring is decided on
        # the Wu side, in degrees 3 and 1; nothing above degree 3 is built
        assert M.sphere_certified
        assert max(ring._nf_rows) == 3
        b = report.betti.b
        assert b == (1, 0, 13, 0, 0, 13, 0, 1)
        assert b == tuple(reversed(b))
        assert report.betti.b_mod2 == (1, 9, 22, 26, 26, 22, 9, 1)


class TestReportDeterminism:
    def test_byte_identical_reports(self, spaces):
        import json

        from smallcover.cli import _report_dict

        M = spaces("cross3mixed")
        a = json.dumps(_report_dict("x", M, evaluate_conditions(M)), indent=2)
        M2 = RealToricSpace(M.complex, M.chi)
        b = json.dumps(_report_dict("x", M2, evaluate_conditions(M2)), indent=2)
        assert a == b
