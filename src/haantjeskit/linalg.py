"""Exact linear algebra over the rationals (and small determinants over
arbitrary commutative rings).

Matrices are plain lists of lists of Fraction.  Everything here is a
deterministic, single-threaded Gaussian elimination; the sizes involved
are tiny (at most a few hundred rows), so no pivot heuristics are
needed beyond "first nonzero entry".
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]
Vector = List[Fraction]


def rref(rows: Sequence[Sequence]) -> Tuple[Matrix, List[int]]:
    """Reduced row-echelon form; returns (matrix, pivot column list).

    Entries may be int or Fraction; every row a pivot touches becomes
    Fraction, so the result is exact either way."""
    m = [list(row) for row in rows]
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / Fraction(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


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


def solve(rows: Sequence[Sequence], rhs: Sequence) -> Optional[Vector]:
    """One solution of A x = b, or None if inconsistent.

    Free variables are set to zero.  Use `rank` to decide uniqueness.
    """
    aug = [list(row) + [r] for row, r in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0]) if rows else 0
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return x


def row_space_equal(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """Whether two row sets span the same subspace."""
    ra, pa = rref(a)
    rb, pb = rref(b)
    ra = [row for row in ra if any(row)]
    rb = [row for row in rb if any(row)]
    return pa == pb and ra == rb


# ---- ring-generic determinants ----------------------------------------


def ring_det(m, zero, one):
    """Determinant by cofactor expansion; entries need +, -, *.

    Suitable for small symbolic matrices (n <= 4).
    """
    n = len(m)
    if n == 0:
        return one
    if n == 1:
        return m[0][0]
    total = zero
    for j in range(n):
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
