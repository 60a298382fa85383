"""Products as joins: the join K1 * K2 with the block-diagonal matrix
(charmap.block_product) is the real toric space M1 x M2, so its invariants
follow from the factors' by theory that the package does not use.

- Kunneth: H*(M1 x M2; Z) from H*(M1; Z) and H*(M2; Z), for the join and
  for a shuffled declared label order of it.
- The full subcomplex of the join on W = W1 + W2 is (K1)_W1 * (K2)_W2.  Its
  reduced cohomology is the factors' Kunneth product shifted up one degree,
  and it is a cone exactly when one factor's part is, so the cone exit is
  checked against the join, not against itself.
- The h-polynomial of a join is the product of the factors' ones.
- By the Cartan formula, Sq1 = 0 on H^2(M1 x M2; Z_2) exactly when Sq1 = 0
  on each factor's H^2, and on each factor's H^1 unless the other factor
  has H^1 = 0.
- The seven conditions agree.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cone_apexes, kunneth, shuffled_labels
from smallcover.charmap import block_product
from smallcover.cli import sample_random_instance
from smallcover.cover import RealToricSpace, evaluate_conditions
from smallcover.homology import reduced_cohomology

FACTORS = [
    "rp1", "rp2", "rp3", "gon5", "gon6klein", "cross3notsimplex",
    "cross2mixed", "gon4klein", "deltas0", "cross3mixed",
]


def factor_space(name, rng):
    """A random matrix over the catalog complex, over a shuffled label order."""
    chi = shuffled_labels(sample_random_instance(name, rng)[0], rng)
    return RealToricSpace(chi.complex, chi)


def join_mismatches(M1, M2, masks):
    """The masks W over the join's labels (K1's first, then K2's) where the
    cone exit or reduced_cohomology of the join's K_W disagrees with the
    factors' parts W1 and W2."""
    K1, K2 = M1.complex, M2.complex
    K = K1.join(K2)
    low = (1 << K1.vertex_count) - 1
    bad = []
    for wm in masks:
        w1, w2 = wm & low, wm >> K1.vertex_count
        cone = bool(K1.cone_apex(w1) or K2.cone_apex(w2))
        expected = kunneth(reduced_cohomology(K1, w1), reduced_cohomology(K2, w2), shift=1)
        if (
            bool(K.cone_apex(wm)) != cone
            or bool(cone_apexes(K, wm)) != cone
            or reduced_cohomology(K, wm) != expected
        ):
            bad.append(wm)
    return bad


def h_product(h1, h2):
    out = [0] * (len(h1) + len(h2) - 1)
    for i, a in enumerate(h1):
        for j, b in enumerate(h2):
            out[i + j] += a * b
    return tuple(out)


def sq1_zero_on_h1(M):
    ring = M.ring
    return all(ring.sq1(c).is_zero() for c in ring.basis_classes(1))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(FACTORS), st.sampled_from(FACTORS), st.integers(0, 2**32 - 1))
def test_join_is_the_product(a, b, seed):
    rng = random.Random(seed)
    M1, M2 = factor_space(a, rng), factor_space(b, rng)
    r1, r2 = evaluate_conditions(M1), evaluate_conditions(M2)
    chi = block_product(M1.chi, M2.chi)
    M = RealToricSpace(chi.complex, chi)
    report = evaluate_conditions(M)

    expected = kunneth(M1.integral_profile, M2.integral_profile)
    assert M.integral_profile == expected
    shuffled = shuffled_labels(chi, rng)
    assert RealToricSpace(shuffled.complex, shuffled).integral_profile == expected
    assert M.h_vector == h_product(M1.h_vector, M2.h_vector)
    assert join_mismatches(M1, M2, [wm for wm, _ in M.omega_profiles]) == []

    h1_1, h1_2 = M1.h_vector[1], M2.h_vector[1]
    assert report.conditions[5] == (
        r1.conditions[5]
        and r2.conditions[5]
        and (h1_2 == 0 or sq1_zero_on_h1(M1))
        and (h1_1 == 0 or sq1_zero_on_h1(M2))
    )
    assert report.hypotheses.all_hold()
    assert report.verdict in ("equivalent-true", "equivalent-false")


def test_every_subset_of_a_join():
    # a pentagon joined with the 3-cross-polytope: 2^11 W, with cones on
    # either side and on both
    rng = random.Random(5)
    M1, M2 = factor_space("gon5", rng), factor_space("cross3mixed", rng)
    K = M1.complex.join(M2.complex)
    masks = range(1 << K.vertex_count)
    assert join_mismatches(M1, M2, masks) == []
    low = (1 << M1.complex.vertex_count) - 1
    cones = [wm for wm in masks if K.cone_apex(wm)]
    assert any(M1.complex.cone_apex(wm & low) and not M2.complex.cone_apex(wm >> 5) for wm in cones)
    assert any(M2.complex.cone_apex(wm >> 5) and not M1.complex.cone_apex(wm & low) for wm in cones)
