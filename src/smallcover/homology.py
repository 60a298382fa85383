"""Reduced simplicial cohomology with integer coefficients.

The cohomology of a full subcomplex K_W is computed on K's own face masks,
with W given as a vertex mask over K's labels: the q-faces of K_W are the
q-face masks of K that lie inside W, already in ascending mask order, and
the coboundary rows are built from a W-local mask -> column map.  A
nonempty W inside one facet spans a simplex and is answered without
enumerating any face.

Everything is exact: Smith normal form runs on arbitrary-precision integers,
taking unit pivots in one triangular pass over the sparse rows and falling
back to dense minimal-absolute-value pivoting for the deferred residue,
which is where any torsion lives.  Across degrees, a (q+1)-face that was a
unit pivot row of delta_q is cleared, i.e. left out as a column of
delta_{q+1}.  This is exact over Z: only earlier pivot rows are subtracted
from a pivot row, so the original pivot rows restricted to the pivot columns
are a unit lower triangular times a unit upper triangular matrix.  The
images of the pivot columns together with the unpivoted faces are then a
Z-basis of C^{q+1}, and delta_{q+1} vanishes on the image of delta_q, so the
remaining columns span the same image lattice.  Rows pivoted in the dense
phase are never cleared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Sequence

from .errors import InternalConsistencyError
from .simplicial import SimplicialComplex


def _prime_power_parts(d: int) -> list[int]:
    """Primary decomposition of a cyclic group order d >= 2."""
    out = []
    p = 2
    while p * p <= d:
        if d % p == 0:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            out.append(q)
        p += 1
    if d > 1:
        out.append(d)
    return out


def _is_prime_power(d: int) -> bool:
    return d >= 2 and len(_prime_power_parts(d)) == 1


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group: free rank plus prime-power torsion."""

    rank: int = 0
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise InternalConsistencyError(f"negative rank {self.rank}")
        for t in self.torsion:
            if not _is_prime_power(t):
                raise InternalConsistencyError(
                    f"torsion order {t} is not a prime power >= 2"
                )
        if tuple(sorted(self.torsion)) != self.torsion:
            raise InternalConsistencyError("torsion orders must be sorted ascending")

    @classmethod
    def free(cls, rank: int) -> "FinAbGroup":
        return cls(rank=rank)

    @classmethod
    def from_orders(cls, rank: int, orders: Sequence[int]) -> "FinAbGroup":
        parts: list[int] = []
        for d in orders:
            parts.extend(_prime_power_parts(d))
        return cls(rank=rank, torsion=tuple(sorted(parts)))

    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def is_torsion_free(self) -> bool:
        return not self.torsion

    def mu(self) -> int:
        """Number of even-order cyclic summands."""
        return sum(1 for t in self.torsion if t % 2 == 0)

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        seen: dict[int, int] = {}
        for t in self.torsion:
            seen[t] = seen.get(t, 0) + 1
        for t in sorted(seen):
            parts.append(f"Z_{t}" if seen[t] == 1 else f"Z_{t}^{seen[t]}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class CohomologyProfile:
    """Map degree -> FinAbGroup; absent degrees are zero groups."""

    groups: dict[int, FinAbGroup] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "groups", {q: g for q, g in self.groups.items() if not g.is_trivial()}
        )

    def group(self, q: int) -> FinAbGroup:
        return self.groups.get(q, FinAbGroup())

    def mu(self, q: int) -> int:
        return self.group(q).mu()


def _coboundary_rows(faces: Sequence[int], cols: dict[int, int]) -> list[dict[int, int]]:
    """Sparse rows of delta for the face masks ``faces``: omitting the j-th
    lowest vertex of a row face gives (-1)^j at its column.  Faces absent
    from ``cols`` (cleared ones) are skipped."""
    rows = []
    for tau in faces:
        row = {}
        sign = 1
        bits = tau
        while bits:
            low = bits & -bits
            j = cols.get(tau ^ low)
            if j is not None:
                row[j] = sign
            sign = -sign
            bits ^= low
        rows.append(row)
    return rows


def _sparse_snf_factors(
    row_dicts: list[dict[int, int]], ncols: int
) -> tuple[list[int], list[int]]:
    """Invariant factors of a sparse integer matrix, zeros included, and the
    rows used as unit pivots in the sparse phase.  The row dicts hold no zero
    entries and are consumed.

    One pass over the rows in order clears each row at the earlier pivot
    columns, oldest pivot first, and takes its first +-1 entry as a new
    pivot; a row without one is deferred.  Each pivot is zero at the columns
    of older pivots, so the pivot block is unit upper triangular and
    contributes factors 1.  Deferred rows are cleared at every pivot column
    at the end, so the dense residue is zero there and carries the rest."""
    pivots: list[tuple[int, dict[int, int]]] = []
    age: dict[int, int] = {}

    def clear(row: dict[int, int]) -> None:
        # a pivot only adds columns of younger pivots, so ages pop in order
        queue = [age[c] for c in row if c in age]
        heapq.heapify(queue)
        while queue:
            c, prow = pivots[heapq.heappop(queue)]
            k = row.get(c)
            if k is None:
                continue
            k *= prow[c]
            for cc, v in prow.items():
                nv = row.get(cc, 0) - k * v
                if nv:
                    if cc not in row and cc in age:
                        heapq.heappush(queue, age[cc])
                    row[cc] = nv
                else:
                    del row[cc]

    unit_rows: list[int] = []
    deferred: list[dict[int, int]] = []
    for r, row in enumerate(row_dicts):
        clear(row)
        for c, v in row.items():
            if v == 1 or v == -1:
                age[c] = len(pivots)
                pivots.append((c, row))
                unit_rows.append(r)
                break
        else:
            if row:
                deferred.append(row)
    for row in deferred:
        clear(row)
    deferred = [row for row in deferred if row]

    dense_factors: list[int] = []
    if deferred:
        live_cols = sorted({c for row in deferred for c in row})
        cidx = {c: j for j, c in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in deferred]
        for drow, row in zip(dense, deferred):
            for c, v in row.items():
                drow[cidx[c]] = v
        dense_factors = _dense_snf(dense)

    factors = [1] * len(unit_rows) + dense_factors
    factors += [0] * (min(len(row_dicts), ncols) - len(factors))
    return factors, unit_rows


def _dense_snf(a: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of a small dense integer matrix."""
    m = len(a)
    n = len(a[0]) if m else 0
    out: list[int] = []
    t = 0
    while t < m and t < n:
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            swapped = False
            p = a[t][t]
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // p
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        swapped = True
                        break
            if swapped:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // p
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        swapped = True
                        break
            if not swapped:
                break
        p = a[t][t]
        bad = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        out.append(abs(p))
        t += 1
    return out


def reduced_cohomology(K: SimplicialComplex, wm: int) -> CohomologyProfile:
    """Reduced integral cohomology of the full subcomplex K_W on the vertex
    mask ``wm`` over K's labels; for K_W = {empty face} only H^{-1}
    survives."""
    if not wm:
        return CohomologyProfile({-1: FinAbGroup.free(1)})
    if any(wm & f == wm for f in K.facet_masks):
        return CohomologyProfile()
    faces: dict[int, list[int]] = {}
    for q in range(-1, min(K.dim, wm.bit_count() - 1) + 1):
        fq = [m for m in K.face_masks(q) if m & wm == m]
        if not fq:
            break
        faces[q] = fq
    ranks: dict[int, int] = {}
    torsion_at: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for q in range(-1, max(faces)):
        cols = {m: j for j, m in enumerate(m for m in faces[q] if m not in cleared)}
        rows = _coboundary_rows(faces[q + 1], cols)
        factors, unit_rows = _sparse_snf_factors(rows, len(cols))
        ranks[q] = sum(1 for f in factors if f)
        torsion_at[q + 1] = [f for f in factors if f > 1]
        # Unit pivot rows of delta_q are left out as columns of delta_{q+1}.
        cleared = {faces[q + 1][r] for r in unit_rows}
    groups = {}
    for q, fq in faces.items():
        free = len(fq) - ranks.get(q, 0) - ranks.get(q - 1, 0)
        if free < 0:
            raise InternalConsistencyError(
                f"rank bookkeeping gives a negative Betti number in degree {q}"
            )
        g = FinAbGroup.from_orders(free, torsion_at.get(q, []))
        if not g.is_trivial():
            groups[q] = g
    return CohomologyProfile(groups)
