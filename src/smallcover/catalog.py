"""Built-in catalog of complexes and characteristic matrices.

Instances span all classification outcomes: boundary-of-simplex models
(projective spaces), cross-polytopes with linear and mixed columns (tori and
twisted products), polygon surfaces, negative join instances with torsion,
the 6-vertex projective-plane triangulation (homology oracle only, no
matrix), and the flagship Bier sphere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from . import bier
from .charmap import CharacteristicMatrix, block_product, lambda_boundary_simplex
from .errors import InputError
from .gf2 import BitMatrix
from .simplicial import SimplicialComplex, cross_polytope_boundary, polygon


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    description: str
    complex: SimplicialComplex
    chi: CharacteristicMatrix | None

    @property
    def n(self) -> int:
        return self.chi.n if self.chi else self.complex.dim + 1


def _cross_linear(n: int) -> CharacteristicMatrix:
    K = cross_polytope_boundary(n)
    cols = [1 << i for i in range(n)] * 2
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(n, cols))


def _cross_mixed(n: int) -> CharacteristicMatrix:
    K = cross_polytope_boundary(n)
    cols = [1 << i for i in range(n)]
    cols += [1 << i for i in range(n - 1)] + [(1 << n) - 1]
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(n, cols))


def _cross3_negative() -> CharacteristicMatrix:
    K = cross_polytope_boundary(3)
    e1, e2, e3 = 0b001, 0b010, 0b100
    cols = [e1, e2, e3, e1, e1 ^ e2, e1 ^ e2 ^ e3]
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(3, cols))


def _polygon_lambda(m: int, twist: bool) -> CharacteristicMatrix:
    K = polygon(m)
    e1, e2 = 0b01, 0b10
    both = e1 ^ e2
    cols = [e1 if i % 2 == 0 else e2 for i in range(m)]
    if m % 2 or twist:
        cols[-1] = both
    return CharacteristicMatrix(K, BitMatrix.from_column_bits(2, cols))


def _rp2_six_vertex() -> SimplicialComplex:
    facets = [
        (1, 2, 3), (1, 2, 4), (1, 3, 5), (1, 4, 6), (1, 5, 6),
        (2, 3, 6), (2, 4, 5), (2, 5, 6), (3, 4, 5), (3, 4, 6),
    ]
    return SimplicialComplex(range(1, 7), facets)


def _join_negative() -> CharacteristicMatrix:
    s0 = SimplicialComplex([1, 2], [(1,), (2,)])
    chi_s0 = CharacteristicMatrix(s0, BitMatrix.from_column_bits(1, [1, 1]))
    return block_product(lambda_boundary_simplex(2), chi_s0)


def _rp2_x_rp2() -> CharacteristicMatrix:
    return block_product(lambda_boundary_simplex(2), lambda_boundary_simplex(2))


@cache
def catalog() -> dict[str, CatalogEntry]:
    entries: list[CatalogEntry] = []

    for n in range(1, 9):
        chi = lambda_boundary_simplex(n)
        entries.append(
            CatalogEntry(
                f"rp{n}",
                f"boundary of the {n}-simplex with the projective-space columns",
                chi.complex,
                chi,
            )
        )
    for n in range(2, 7):
        chi = _cross_linear(n)
        entries.append(
            CatalogEntry(
                f"cross{n}",
                f"{n}-cross-polytope boundary, linear-model columns (torus)",
                chi.complex,
                chi,
            )
        )
        chi = _cross_mixed(n)
        entries.append(
            CatalogEntry(
                f"cross{n}mixed",
                f"{n}-cross-polytope boundary, one antipode carries the all-ones sum",
                chi.complex,
                chi,
            )
        )
    chi = _cross3_negative()
    entries.append(
        CatalogEntry(
            "cross3notsimplex",
            "octahedron with columns that fit no simplex model (non-orientable)",
            chi.complex,
            chi,
        )
    )
    for m in range(4, 13):
        chi = _polygon_lambda(m, twist=False)
        entries.append(
            CatalogEntry(
                f"gon{m}",
                f"{m}-gon surface with alternating columns",
                chi.complex,
                chi,
            )
        )
        if m % 2 == 0:
            chi = _polygon_lambda(m, twist=True)
            entries.append(
                CatalogEntry(
                    f"gon{m}klein",
                    f"{m}-gon with a twisted last column (Klein-bottle type)",
                    chi.complex,
                    chi,
                )
            )
    entries.append(
        CatalogEntry(
            "rp2_6v",
            "6-vertex projective plane; homology oracle only, no matrix",
            _rp2_six_vertex(),
            None,
        )
    )
    chi = _join_negative()
    entries.append(
        CatalogEntry(
            "deltas0",
            "join of a triangle boundary with two points, block columns: "
            "the canonical negative witness with degree-3 torsion",
            chi.complex,
            chi,
        )
    )
    chi = _rp2_x_rp2()
    entries.append(
        CatalogEntry(
            "rp2xrp2",
            "product of two projective-plane models (block columns, n = 4)",
            chi.complex,
            chi,
        )
    )
    _, sphere, chi9 = bier.table1_instance()
    entries.append(
        CatalogEntry(
            "bier9",
            "Bier sphere of the bundled 9-vertex complex with canonical columns; "
            "drives the table1 command",
            sphere,
            chi9,
        )
    )
    return {e.name: e for e in entries}


def get_entry(name: str) -> CatalogEntry:
    entries = catalog()
    if name not in entries:
        raise InputError(
            f"unknown catalog name {name!r}; available: {', '.join(sorted(entries))}"
        )
    return entries[name]


TABLE1_RATIONAL = (1, 1, 31, 23, 43, 48, 7, 9, 0)
TABLE1_MOD2 = (1, 10, 40, 81, 101, 81, 40, 10, 1)
