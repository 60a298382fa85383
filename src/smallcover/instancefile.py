"""The one external file format: UTF-8 JSON instance documents.

Schema: {"name": str, "n": int, "vertices": [labels], "facets": [[ints]],
"lambda": [[0/1 rows]] or null}.  Facets are sorted ascending; rows have one
entry per vertex in declared order.  Emission is canonical, so emit-parse
round-trips byte-identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .charmap import CharacteristicMatrix
from .errors import InputError
from .gf2 import BitMatrix
from .simplicial import SimplicialComplex


@dataclass(frozen=True)
class InstanceFile:
    name: str
    n: int
    vertices: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]
    lambda_rows: tuple[tuple[int, ...], ...] | None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def parse_document(text: str) -> InstanceFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise InputError(f"unreadable number: {exc}") from exc
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("name", "n", "vertices", "facets", "lambda"):
        _require(key in doc, f"missing field {key!r}")
    name = doc["name"]
    _require(isinstance(name, str), "field 'name' must be a string")
    n = doc["n"]
    _require(type(n) is int and n >= 1, "field 'n' must be a positive integer")
    vertices = doc["vertices"]
    _require(
        isinstance(vertices, list)
        and all(type(v) is int and v > 0 for v in vertices),
        "field 'vertices' must be a list of positive integers",
    )
    facets = doc["facets"]
    _require(isinstance(facets, list), "field 'facets' must be a list")
    for f in facets:
        _require(
            isinstance(f, list) and all(type(v) is int for v in f),
            f"facet {f!r} must be a list of integers",
        )
    rows = doc["lambda"]
    if rows is not None:
        _require(isinstance(rows, list) and len(rows) == n, f"'lambda' must have {n} rows")
        for i, row in enumerate(rows):
            _require(
                isinstance(row, list) and len(row) == len(vertices),
                f"lambda row {i} must have {len(vertices)} entries",
            )
            for j, v in enumerate(row):
                _require(
                    type(v) is int and v in (0, 1),
                    f"lambda entry at row {i}, column {j} is {v!r}, not 0/1",
                )
    return InstanceFile(
        name=name,
        n=n,
        vertices=tuple(vertices),
        facets=tuple(tuple(f) for f in facets),
        lambda_rows=tuple(tuple(r) for r in rows) if rows is not None else None,
    )


def parse_instance(text: str) -> tuple[SimplicialComplex, CharacteristicMatrix | None]:
    """Parse and validate a document into a complex plus optional matrix."""
    doc = parse_document(text)
    K = SimplicialComplex(doc.vertices, doc.facets)
    if doc.lambda_rows is None:
        return K, None
    return K, CharacteristicMatrix(K, BitMatrix.from_lists(doc.lambda_rows))


def emit_instance(
    name: str, K: SimplicialComplex, chi: CharacteristicMatrix | None
) -> str:
    """Canonical serialization; deterministic for a fixed instance."""
    facets = sorted(tuple(sorted(f)) for f in K.facets if f)
    doc = {
        "name": name,
        "n": chi.n if chi is not None else K.dim + 1,
        "vertices": list(K.labels),
        "facets": [list(f) for f in facets],
        "lambda": [
            [row >> j & 1 for j in range(chi.m)] for row in chi.matrix.row_bits
        ]
        if chi is not None
        else None,
    }
    return json.dumps(doc, indent=2) + "\n"
