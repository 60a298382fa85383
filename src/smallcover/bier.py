"""Bier sphere construction with its canonical characteristic matrix.

The sphere on a ground set of size l pairs faces with one-element non-face
extensions: each facet is sigma together with the barred complement of
sigma + {s}, where sigma is a face and sigma + {s} is not.  Original
vertices keep labels 1..l (by rank in the ground set); barred copies get
l+1..2l.  Labels that end up in no facet stay declared as ghosts.

K's faces are read off its face lists in one pass; sigma + {s} is a face
exactly when the facets holding sigma (K.holders) meet the star of s.
"""

from __future__ import annotations

from itertools import chain

from .charmap import CharacteristicMatrix
from .errors import InputError, InternalConsistencyError
from .gf2 import BitMatrix, bit_positions
from .simplicial import SimplicialComplex


# The most facets bier_sphere builds.  On a 2-core Xeon, `bier` of the
# catalog's bier9 document (66,342 facets) took 6.4 s with a 244 MB peak and
# 11.9 MB of output; with one ghost label added (75,475 facets, the sphere
# trimmed after it is built) 9.3 s and 240 MB, and with three (93,741) 15.5 s
# and 358 MB.
BIER_FACET_LIMIT = 80_000


def bier_facet_count(K: SimplicialComplex) -> int:
    """Facets of the Bier sphere of K on l labels, without building it: the
    pairs (face sigma, vertex s) with sigma + {s} no face.  A face has
    l - |sigma| one-vertex extensions, and those that are faces pair off
    with the faces tau and a vertex of tau, so the count is the sum of
    l - 2|sigma| over the faces, read off the f-vector."""
    ell = K.vertex_count
    return sum(f * (ell - 2 * k) for k, f in enumerate(K.f_vector()))


def bier_sphere(K: SimplicialComplex) -> SimplicialComplex:
    """The deleted-join sphere of a proper complex on its ground set, built
    only when it has at most BIER_FACET_LIMIT facets."""
    ground = tuple(sorted(K.labels))
    ell = len(ground)
    if ell < 2:
        raise InputError(f"a Bier sphere needs at least 2 labels, got {ell}")
    all_mask = (1 << K.vertex_count) - 1
    if K.holders(all_mask):
        raise InputError("the full simplex has no Bier sphere")
    # K's face lists, read first so that the count's f-vector comes off them
    faces = [K.face_masks(d) for d in range(-1, K.dim + 1)]
    count = bier_facet_count(K)
    if count > BIER_FACET_LIMIT:
        raise InputError(
            f"the Bier sphere would have {count} facets, over the limit of "
            f"{BIER_FACET_LIMIT}"
        )
    rank = {v: i + 1 for i, v in enumerate(ground)}
    labels = K.labels
    star = K.star_masks()
    gens = []
    for fm in chain.from_iterable(faces):
        held = K.holders(fm)
        rest = all_mask & ~fm
        bits = rest
        while bits:
            low = bits & -bits
            bits ^= low
            if held & star[low]:
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


def lambda_bier(ell: int) -> list[int]:
    """Canonical columns over 2l labels, as ints over l - 1 rows: label i
    and l+i share e_i for i < l, and the two copies of label l carry the
    all-ones sum."""
    if ell < 2:
        raise InternalConsistencyError("need a ground set of at least 2")
    n = ell - 1
    half = [1 << i for i in range(n)] + [(1 << n) - 1]
    return half + half


def bier_instance(K: SimplicialComplex) -> tuple[SimplicialComplex, CharacteristicMatrix]:
    """Bier sphere plus its validated characteristic matrix on the used labels."""
    sphere = bier_sphere(K)
    ell = len(K.labels)
    full = lambda_bier(ell)
    used = sphere.vertex_mask
    trimmed = sphere.full_subcomplex(used) if used != (1 << 2 * ell) - 1 else sphere
    cols = [full[v - 1] for v in sphere.labels_of(used)]
    chi = CharacteristicMatrix(trimmed, BitMatrix.from_column_bits(ell - 1, cols))
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
