"""Exact cohomological invariants of small covers and real toric spaces.

An instance is a pair (simplicial complex, GF(2) characteristic matrix).
The package computes its mod-2, rational, and integral cohomology exactly,
classifies the matrix against the linear and boundary-of-simplex models,
and evaluates the seven-way equivalence between the pullback property,
torsion-freeness, vanishing first Steenrod squares, and Betti-number
identities.
"""

__version__ = "0.1.0"
