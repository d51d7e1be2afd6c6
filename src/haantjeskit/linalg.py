"""Exact linear algebra over the rationals (and small determinants over
arbitrary commutative rings).

Matrices are plain lists of lists of Fraction.  `rref` is one
incremental sparse elimination: each row, held as a {column: Fraction}
map, is reduced against the pivot rows found so far and dropped when it
reduces to zero; a new pivot (its smallest remaining column) is cleared
from the earlier pivot rows.  Reduced echelon form is unique, so this
gives the same matrix as dense Gauss-Jordan elimination, while the many
redundant rows of the Killing-tensor conditions cost one reduction each.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column list).

    Entries may be int or Fraction; the result is Fraction, exact either
    way, with the zero rows last, so it has the input's shape."""
    if not rows:
        return [], []
    nrows, ncols = len(rows), len(rows[0])
    # pivot column -> the other nonzero entries of its row (the pivot is 1)
    reduced: Dict[int, Dict[int, Fraction]] = {}
    for row in rows:
        r = {c: q for c, q in enumerate(row) if q}
        for c in [c for c in r if c in reduced]:
            f = r.pop(c)
            _axpy(r, -f, reduced[c])
        if not r:
            continue
        p = min(r)
        inv = 1 / Fraction(r.pop(p))
        new = {c: q * inv for c, q in r.items()}
        for prow in reduced.values():
            f = prow.pop(p, None)
            if f is not None:
                _axpy(prow, -f, new)
        reduced[p] = new
        if len(reduced) == ncols:
            break
    pivots = sorted(reduced)
    zero, one = Fraction(0), Fraction(1)
    m: Matrix = []
    for p in pivots:
        dense = [zero] * ncols
        dense[p] = one
        for c, q in reduced[p].items():
            dense[c] = q
        m.append(dense)
    m += [[zero] * ncols for _ in range(nrows - len(pivots))]
    return m, pivots


def _axpy(row: Dict[int, Fraction], f: Fraction, other: Mapping[int, Fraction]) -> None:
    """row += f * other on sparse rows, dropping entries that cancel."""
    for c, q in other.items():
        v = row.get(c, 0) + f * q
        if v:
            row[c] = v
        else:
            del row[c]


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence], ncols: Optional[int] = None) -> List[Vector]:
    """Basis of the right nullspace, one vector per free column.

    The basis is in the standard RREF parametrization (free variable set
    to 1, others to 0), which makes the output deterministic.
    """
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty matrix")
        return [[Fraction(i == j) for i in range(ncols)] for j in range(ncols)]
    ncols = len(rows[0])
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def row_space_equal(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """Whether two row sets span the same subspace."""
    ra, pa = rref(a)
    rb, pb = rref(b)
    ra = [row for row in ra if any(row)]
    rb = [row for row in rb if any(row)]
    return pa == pb and ra == rb


# ---- ring-generic determinants ----------------------------------------


def ring_det(m, zero, one):
    """Determinant by cofactor expansion, skipping the entries equal to
    `zero`; entries need +, -, * and ==.  For small or sparse symbolic
    matrices."""
    n = len(m)
    if n == 0:
        return one
    if n == 1:
        return m[0][0]
    total = zero
    for j in range(n):
        if m[0][j] != zero:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            term = m[0][j] * ring_det(minor, zero, one)
            total = total + term if j % 2 == 0 else total - term
    return total


def ring_adjugate(m, zero, one):
    """Adjugate matrix (transpose of cofactors) over a commutative ring."""
    n = len(m)
    adj = [[zero for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[m[r][c] for c in range(n) if c != j]
                     for r in range(n) if r != i]
            cof = ring_det(minor, zero, one)
            adj[j][i] = cof if (i + j) % 2 == 0 else zero - cof
    return adj
