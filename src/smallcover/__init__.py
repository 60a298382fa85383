"""Exact cohomological invariants of small covers and real toric spaces.

An instance is a pair (simplicial complex, GF(2) characteristic matrix).
The package computes its mod-2, rational, and integral cohomology exactly,
classifies the matrix against the linear and boundary-of-simplex models,
and evaluates the seven-way equivalence between the pullback property,
torsion-freeness, vanishing first Steenrod squares, and Betti-number
identities.
"""

from .bier import bier_instance, bier_sphere, lambda_bier, table1_instance
from .charmap import (
    CharacteristicMatrix,
    CharMapError,
    PullbackClass,
    PullbackLabel,
    block_product,
    classify_pullback,
    classify_via_flips,
    lambda_boundary_simplex,
    omega_descriptors,
)
from .cover import (
    BettiTable,
    ConditionReport,
    Hypotheses,
    RealToricSpace,
    betti_table,
    evaluate_conditions,
    integral_cohomology,
    mod2_betti,
    rational_betti,
)
from .errors import InputError, InternalConsistencyError, PropertyViolation
from .facering import (
    GradedRingBasis,
    RingClass,
    Sq1Witness,
    build_graded_basis,
    find_sq1_witness,
)
from .gf2 import (
    BitMatrix,
    BitVec,
    find_basis_change,
    rank,
    row_space,
)
from .homology import (
    CohomologyProfile,
    FinAbGroup,
    reduced_cohomology,
)
from .instancefile import InstanceFile, emit_instance, parse_instance
from .shelling import (
    Shelling,
    ShellingBudgetExceeded,
    find_shelling,
    verify_shelling,
)
from .simplicial import (
    SimplicialComplex,
    boundary_of_simplex,
    cross_polytope_boundary,
    polygon,
)

__version__ = "0.1.0"
