"""Bier sphere construction with its canonical characteristic matrix.

The sphere on a ground set of size l pairs faces with one-element non-face
extensions: each facet is sigma together with the barred complement of
sigma + {s}, where sigma is a face and sigma + {s} is not.  Original
vertices keep labels 1..l (by rank in the ground set); barred copies get
l+1..2l.  Labels that end up in no facet stay declared as ghosts.
"""

from __future__ import annotations

from .charmap import CharacteristicMatrix
from .errors import InputError, InternalConsistencyError
from .gf2 import BitMatrix, BitVec, bit_positions
from .simplicial import SimplicialComplex


def bier_sphere(K: SimplicialComplex) -> SimplicialComplex:
    """The deleted-join sphere of a proper complex on its ground set."""
    ground = tuple(sorted(K.labels))
    ell = len(ground)
    if ell < 2:
        raise InputError(f"a Bier sphere needs at least 2 labels, got {ell}")
    face_masks = K.all_face_masks()
    all_mask = (1 << K.vertex_count) - 1
    if all_mask in face_masks:
        raise InputError("the full simplex has no Bier sphere")
    rank = {v: i + 1 for i, v in enumerate(ground)}
    labels = K.labels
    gens = []
    for fm in face_masks:
        rest = all_mask & ~fm
        bits = rest
        while bits:
            low = bits & -bits
            bits ^= low
            if (fm | low) in face_masks:
                continue
            comp = rest ^ low
            facet = [rank[labels[i]] for i in bit_positions(fm)]
            facet += [ell + rank[labels[i]] for i in bit_positions(comp)]
            gens.append(tuple(sorted(facet)))
    sphere = SimplicialComplex(range(1, 2 * ell + 1), gens)
    if sphere.dim != ell - 2:
        raise InternalConsistencyError(
            f"construction produced dimension {sphere.dim}, not {ell - 2}"
        )
    if not sphere.is_closed_pseudomanifold():
        raise InternalConsistencyError("construction is not a closed pseudomanifold")
    return sphere


def lambda_bier(ell: int) -> BitMatrix:
    """Canonical columns over 2l labels: label i and l+i share e_i for
    i < l, and the two copies of label l carry the all-ones sum."""
    if ell < 2:
        raise InternalConsistencyError("need a ground set of at least 2")
    n = ell - 1
    ones = BitVec(n, (1 << n) - 1)
    half = [BitVec.unit(n, i) for i in range(n)] + [ones]
    return BitMatrix.from_columns(half + half)


def bier_instance(K: SimplicialComplex) -> tuple[SimplicialComplex, CharacteristicMatrix]:
    """Bier sphere plus its validated characteristic matrix on the used labels."""
    sphere = bier_sphere(K)
    ell = len(K.labels)
    full = lambda_bier(ell)
    ghosts = set(sphere.ghost_labels())
    used = [v for v in sphere.labels if v not in ghosts]
    trimmed = sphere.full_subcomplex(used) if ghosts else sphere
    cols = [full.column(v - 1) for v in used]
    chi = CharacteristicMatrix(trimmed, BitMatrix.from_columns(cols))
    return trimmed, chi


def table1_seed_complex() -> SimplicialComplex:
    """The bundled 9-vertex complex whose Bier sphere drives the table1 run."""
    facets = [
        (1, 3, 8),
        (1, 6, 7, 8, 9),
        (2, 4, 5, 6, 8),
        (2, 7),
        (3, 4, 5, 6, 7, 8, 9),
    ]
    return SimplicialComplex(range(1, 10), facets)


def table1_instance() -> tuple[SimplicialComplex, SimplicialComplex, CharacteristicMatrix]:
    """(seed complex, its Bier sphere, canonical characteristic matrix)."""
    K = table1_seed_complex()
    sphere, chi = bier_instance(K)
    return K, sphere, chi
