"""Acceptance criteria: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import random
import time
from itertools import combinations

import oracles
import pytest

from smallcover.catalog import TABLE1_MOD2, TABLE1_RATIONAL, catalog, get_entry
from smallcover.charmap import classify_via_flips
from smallcover.cli import sample_random_instance
from smallcover.cover import (
    RealToricSpace,
    betti_table,
    evaluate_conditions,
    integral_cohomology,
    mod2_betti,
    rational_betti,
)
from smallcover.facering import RingClass, find_sq1_witness
from smallcover.homology import FinAbGroup
from oracles import (
    critical_generators,
    interval_size_total,
    enumerate_gl,
    is_orientable_3d,
    mod2_reduced_cohomology,
    profile_euler_characteristic,
    two_degree_concentration_check,
)

FUZZ_PLAN = (
    ("cross3", 140, 101),
    ("cross4", 70, 102),
    ("gon6", 100, 103),
    ("gon9", 60, 104),
    ("rp3", 90, 105),
    ("rp4", 70, 106),
)


@pytest.fixture(scope="module")
def spaces():
    cache = {}

    def get(name):
        if name not in cache:
            entry = get_entry(name)
            cache[name] = RealToricSpace(entry.complex, entry.chi)
        return cache[name]

    return get


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Seeded random valid instances with their full condition reports."""
    corpus = []
    for name, count, seed in FUZZ_PLAN:
        rng = random.Random(seed)
        for k in range(count):
            chi, _ = sample_random_instance(name, rng)
            M = RealToricSpace(chi.complex, chi)
            corpus.append((f"{name}#{k}", M, evaluate_conditions(M)))
    return corpus


@pytest.fixture(scope="module")
def gl_tables():
    """Per-rank lookup tables: for each invertible matrix, the image of
    every vector, for the brute-force classifier oracle."""
    cache = {}

    def get(n):
        if n not in cache:
            tables = []
            for g in enumerate_gl(n):
                tables.append(tuple(oracles.apply(g, v) for v in range(1 << n)))
            cache[n] = tables
        return cache[n]

    return get


def brute_force_labels(chi, tables):
    n = chi.n
    cols = set(chi.matrix.column_bits())
    simplex_target = frozenset(1 << i for i in range(n)) | {(1 << n) - 1}
    linear_target = frozenset(1 << i for i in range(n))
    simplex = False
    linear = False
    for table in tables:
        if all(table[c] in simplex_target for c in cols):
            simplex = True
            if all(table[c] in linear_target for c in cols):
                linear = True
            if linear:
                break
    if simplex and not linear:
        # a later basis change might still realize the linear model
        linear = any(
            all(table[c] in linear_target for c in cols) for table in tables
        )
    return simplex, linear


def test_criterion_1_table1_reproduction(spaces):
    start = time.monotonic()
    M = spaces("bier9")
    assert rational_betti(M) == TABLE1_RATIONAL
    assert mod2_betti(M) == TABLE1_MOD2
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(f"\nACCEPTANCE 1: PASS - flagship Betti rows exact in {elapsed:.1f}s")


def test_criterion_2_seven_way_equivalence(spaces, fuzz_corpus):
    checked = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None:
            continue
        report = evaluate_conditions(spaces(name))
        if report.hypotheses.all_hold():
            assert report.agree(), (name, report.conditions)
            checked += 1
    for name, M, report in fuzz_corpus:
        if report.hypotheses.all_hold():
            assert report.agree(), (name, report.conditions)
            checked += 1
    assert len(fuzz_corpus) >= 500
    assert len({n.split("#")[0] for n, _, _ in fuzz_corpus}) >= 5
    print(
        f"\nACCEPTANCE 2: PASS - seven-way agreement on {checked} instances "
        f"({len(fuzz_corpus)} fuzz + catalog), zero disagreements"
    )


def test_criterion_3_classifier_cross_validation(spaces, fuzz_corpus, gl_tables):
    pairs = 0
    brute = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None:
            continue
        M = spaces(name)
        flips = classify_via_flips(M.chi)
        assert flips.label is M.classification.label, name
        pairs += 1
        if M.n <= 4:
            simplex, linear = brute_force_labels(M.chi, gl_tables(M.n))
            assert simplex == M.classification.is_simplex_pullback, name
            assert linear == (M.classification.label.value == "linear-model"), name
            brute += 1
    for name, M, _ in fuzz_corpus:
        flips = classify_via_flips(M.chi)
        assert flips.label is M.classification.label, name
        pairs += 1
        if M.n <= 4:
            simplex, linear = brute_force_labels(M.chi, gl_tables(M.n))
            assert simplex == M.classification.is_simplex_pullback, name
            assert linear == (M.classification.label.value == "linear-model"), name
            brute += 1
    assert any(len(gl_tables(n)) for n in (4,))
    assert len(gl_tables(4)) == 20160
    print(
        f"\nACCEPTANCE 3: PASS - flip classifier agrees on {pairs} instances; "
        f"{brute} verified against full GL enumeration (20160 elements at n=4)"
    )


def test_criterion_4_projective_space_regression(spaces):
    for n in range(2, 7):
        M = spaces(f"rp{n}")
        profile = integral_cohomology(M)
        expected = {0: FinAbGroup.free(1)}
        for q in range(2, n + 1, 2):
            if q < n or n % 2 == 0:
                expected[q] = FinAbGroup(0, (2,))
        if n % 2 == 1:
            expected[n] = FinAbGroup.free(1)
        assert profile.groups == expected, n
        ring = M.ring
        assert oracles.sw_pullback_check(ring, M.classification.coloring), n
    print("\nACCEPTANCE 4: PASS - projective-space cohomology and total SW class, n=2..6")


def test_criterion_5_negative_witness(spaces):
    M = spaces("deltas0")
    profile = integral_cohomology(M)
    assert profile.group(3).torsion == (2,)
    assert not M.ring.sq1_vanishes_on_degree(2)
    witness = find_sq1_witness(M.complex, M.chi, M.ring)
    assert witness is not None
    vs = M.ring.express([witness.facet[witness.s - 1]])
    vt = M.ring.express([witness.facet[witness.t - 1]])
    prod = M.ring.multiply(vs, vt)
    assert witness.witness == prod
    assert M.ring.sq1(prod) == M.ring.multiply(prod, M.ring.add(vs, vt))
    assert not M.ring.sq1(prod).is_zero()
    report = evaluate_conditions(M)
    assert set(report.conditions.values()) == {False}
    print("\nACCEPTANCE 5: PASS - join instance: degree-3 torsion, nonzero Sq1 witness, all seven false")


def test_criterion_6_ring_dimension_law(spaces):
    checked = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None:
            continue
        M = spaces(name)
        oracles.verify_all_dimensions(M.ring)
        h = M.h_vector
        for d in range(M.n + 1):
            assert M.ring.dimension(d) == h[d], (name, d)
        checked += 1
    # monomial-ideal relations visibly kill non-edge products on the flagship
    M = spaces("bier9")
    edges = {frozenset(M.complex.labels_of(m)) for m in M.complex.face_masks(1)}
    nonedges = [
        (a, b)
        for i, a in enumerate(M.complex.labels)
        for b in M.complex.labels[i + 1 :]
        if frozenset((a, b)) not in edges
    ]
    assert nonedges
    for a, b in nonedges[:10]:
        assert M.ring.multiply(M.ring.express([a]), M.ring.express([b])).is_zero()
    print(f"\nACCEPTANCE 6: PASS - graded dimensions equal the h-vector on {checked} instances")


def test_criterion_7_property_suites(spaces):
    rng = random.Random(555)
    ring_names = ("rp4", "rp6", "cross3mixed", "cross4", "gon7", "deltas0", "rp2xrp2")
    for name in ring_names:
        M = spaces(name)
        ring = M.ring
        for d in range(M.n + 1):
            for cls in ring.basis_classes(d):
                assert ring.sq1(ring.sq1(cls)).is_zero(), (name, d)
        degrees = [d for d in range(1, M.n) if ring.dimension(d)]
        for _ in range(12):
            d1, d2 = rng.choice(degrees), rng.choice(degrees)
            x = rng.choice(ring.basis_classes(d1))
            y = rng.choice(ring.basis_classes(d2))
            lhs = ring.sq1(ring.multiply(x, y))
            rhs = ring.add(
                ring.multiply(ring.sq1(x), y), ring.multiply(x, ring.sq1(y))
            )
            assert lhs == rhs, name
    table_names = [n for n, e in sorted(catalog().items()) if e.chi is not None]
    for name in table_names:
        table = betti_table(spaces(name))
        n = spaces(name).n
        for q in range(n + 1):
            assert table.b_mod2[q] == table.b[q] + table.mu[q] + table.mu[q + 1], name
    # universal coefficients on all 256 flagship subcomplexes: the exact
    # integer results must match an independent GF(2) rank computation
    M = spaces("bier9")
    for wm, integral in M.omega_profiles:
        sub = M.complex.full_subcomplex(wm)
        mod2 = mod2_reduced_cohomology(sub)
        for q in range(-1, sub.dim + 1):
            expected = (
                integral.group(q).rank
                + integral.group(q).mu()
                + integral.group(q + 1).mu()
            )
            assert mod2.group(q).rank == expected, (sub.labels, q)
    shell_names = ("rp3", "cross3", "cross4", "gon8", "deltas0", "bier9")
    for name in shell_names:
        M = spaces(name)
        s = M.shelling
        assert s is not None, name
        assert interval_size_total(s) == M.complex.total_face_count(), name
    for name in ("rp3", "cross3mixed", "deltas0", "bier9"):
        M = spaces(name)
        s = M.shelling
        for wm, profile in M.omega_profiles:
            gens = critical_generators(s, wm)
            alt = sum(-1 if d % 2 else 1 for _, d in gens)
            assert alt == profile_euler_characteristic(profile), name
    concentration_checked = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None:
            continue
        M = spaces(name)
        cls = M.classification
        if not cls.is_simplex_pullback:
            continue
        s = M.shelling
        n = M.n
        for size in range(0, n + 2, 2):
            for chi_set in combinations(range(1, n + 2), size):
                assert two_degree_concentration_check(M.complex, s, cls.coloring, chi_set), (
                    name,
                    chi_set,
                )
                concentration_checked += 1
    print(
        "\nACCEPTANCE 7: PASS - squares, Leibniz, coefficient bookkeeping, "
        f"interval partitions, generator counts, {concentration_checked} concentration checks"
    )


def test_criterion_8_pullback_ring_identities(spaces, fuzz_corpus):
    from math import comb

    checked = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None:
            continue
        M = spaces(name)
        cls = M.classification
        if not cls.is_simplex_pullback:
            continue
        ring = M.ring
        taus = oracles.tau_classes(ring, cls.coloring)
        expected_count = M.n + 1 if (M.n + 1) in set(cls.coloring.values()) else M.n
        assert len(taus) == expected_count, name
        assert oracles.square_identity_check(ring, cls.coloring), name
        tau = taus[0]
        for q in range(M.n + 1):
            for x in ring.basis_classes(q)[:10]:
                total = oracles.total_sq(ring, x)
                power = ring.one()
                for i in range(M.n - q + 1):
                    if i > 0:
                        power = ring.multiply(power, tau)
                    want = (
                        ring.multiply(power, x) if comb(q, i) % 2 else RingClass(q + i, 0)
                    )
                    assert total.get(q + i, RingClass(q + i, 0)) == want, (name, q, i)
        checked += 1
    for name, M, _ in fuzz_corpus[:60]:
        cls = M.classification
        if not cls.is_simplex_pullback:
            continue
        assert oracles.square_identity_check(M.ring, cls.coloring), name
        checked += 1
    print(f"\nACCEPTANCE 8: PASS - color-sum, squaring, and total-square identities on {checked} pullback instances")


def test_criterion_9_orientability(spaces, fuzz_corpus):
    checked = 0
    for name, entry in sorted(catalog().items()):
        if entry.chi is None or entry.n != 3:
            continue
        M = spaces(name)
        torsion_free = integral_cohomology(M).group(3).is_torsion_free()
        assert is_orientable_3d(M) == torsion_free, name
        checked += 1
    for name, M, report in fuzz_corpus:
        if M.n != 3:
            continue
        torsion_free = report.integral.group(3).is_torsion_free()
        assert is_orientable_3d(M) == torsion_free, name
        checked += 1
    assert checked >= 200
    print(f"\nACCEPTANCE 9: PASS - orientability matches degree-3 torsion-freeness on {checked} 3-dimensional instances")
