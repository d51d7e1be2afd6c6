"""Inputs and an independent reference for the ``hessian-sweep`` workload.

Nothing here imports ``haantjeskit``: polynomials are kept as maps from
exponent tuples to ``Fraction`` and only written out as text for the
program under test.  The reference takes A = Hess f and dA at one
rational point, builds the Nijenhuis torsion from its Lie-bracket form
with coordinate fields X = d_j, Y = d_k ([X, Y] = 0),

    N(X, Y) = [AX, AY] - A[AX, Y] - A[X, AY],

and the Haantjes torsion

    H(X, Y) = A^2 N(X, Y) + N(AX, AY) - A N(AX, Y) - A N(X, AY).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Exps = Tuple[int, ...]
PolyMap = Dict[Exps, Fraction]


def hessian_size(f: PolyMap, n: int) -> int:
    """Number of terms of Hess f, summed over its n*n entries."""
    return sum(1 for e in f for i in range(n) for j in range(n)
               if e[i] >= 1 and e[j] - (i == j) >= 1)


def random_hessian_input(rng: random.Random, n: int, size: int) -> PolyMap:
    """A polynomial in n variables with 4 distinct terms of degree 2 or 3
    and small rational coefficients, drawn until its Hessian has ``size``
    terms."""
    while True:
        terms: PolyMap = {}
        while len(terms) < 4:
            exps = [0] * n
            for _ in range(rng.randint(2, 3)):
                exps[rng.randrange(n)] += 1
            terms[tuple(exps)] = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                                          rng.randint(1, 3))
        if hessian_size(terms, n) == size:
            return terms


def poly_text(f: PolyMap) -> str:
    """Interchange text of a polynomial map, e.g. ``-3/2*x1^2*x3 + x2^3``."""
    out = []
    for exps, q in sorted(f.items(), reverse=True):
        mono = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exps) if e)
        sign = "-" if q < 0 else "+"
        body = mono if abs(q) == 1 else f"{abs(q)}*{mono}"
        out.append(f"{sign} {body}" if out else ("-" if q < 0 else "") + body)
    return " ".join(out)


def random_point(rng: random.Random, n: int) -> List[Fraction]:
    return [Fraction(rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]), rng.randint(1, 4))
            for _ in range(n)]


def derivative_at(f: PolyMap, orders: Sequence[int], x: Sequence[Fraction]) -> Fraction:
    """Value at x of the partial derivative of f taken once along each
    axis listed in ``orders``."""
    total = Fraction(0)
    for exps, q in f.items():
        e = list(exps)
        for axis in orders:
            q *= e[axis]
            e[axis] -= 1
        if q:
            for xi, ei in zip(x, e):
                q *= xi ** ei
            total += q
    return total


def hessian_torsions_at(f: PolyMap, n: int, x: Sequence[Fraction]):
    """(A, N, H) at x, with A[i][j] = A^i_j, N[i][j][k] = N^i_jk and
    H[i][j][k] = H^i_jk."""
    r = range(n)
    a = [[derivative_at(f, (i, j), x) for j in r] for i in r]
    zero = [[Fraction(0)] * n for _ in r]
    # a vector field near x: (value v^i, first derivatives dv^i/dx_t)
    coord = [([Fraction(int(i == j)) for i in r], zero) for j in r]
    a_coord = [([a[i][j] for i in r],
                [[derivative_at(f, (i, j, t), x) for t in r] for i in r]) for j in r]

    def apply(m, v):
        return [sum(m[i][s] * v[s] for s in r) for i in r]

    def bracket(v, w):
        (v0, dv), (w0, dw) = v, w
        return [sum(v0[t] * dw[i][t] - w0[t] * dv[i][t] for t in r) for i in r]

    def nij_pair(j, k):
        terms = (bracket(a_coord[j], a_coord[k]),
                 apply(a, bracket(a_coord[j], coord[k])),
                 apply(a, bracket(coord[j], a_coord[k])),
                 apply(a, apply(a, bracket(coord[j], coord[k]))))
        return [p - q - s + t for p, q, s, t in zip(*terms)]

    pairs = {(j, k): nij_pair(j, k) for j in r for k in r}
    n_t = [[[pairs[(j, k)][i] for k in r] for j in r] for i in r]

    def n_of(u, v):
        return [sum(n_t[i][j][k] * u[j] * v[k] for j in r for k in r) for i in r]

    h_t = [[[Fraction(0)] * n for _ in r] for _ in r]
    for j in r:
        for k in r:
            ej, ek = coord[j][0], coord[k][0]
            aj, ak = apply(a, ej), apply(a, ek)
            hv = [p + q - s - t for p, q, s, t in zip(
                apply(a, apply(a, n_of(ej, ek))), n_of(aj, ak),
                apply(a, n_of(aj, ek)), apply(a, n_of(ej, ak)))]
            for i in r:
                h_t[i][j][k] = hv[i]
    return a, n_t, h_t


def evaluate_text(text: str, x: Sequence[Fraction]) -> Fraction:
    """Value at x of polynomial text in the program's output syntax
    (``2*x1^3 - 3/2*x1*x2^-1 + 5``)."""
    total = Fraction(0)
    for term in text.replace(" - ", " + -").split(" + "):
        value = Fraction(-1) if term.startswith("-") else Fraction(1)
        for factor in term.lstrip("-").split("*"):
            if factor.startswith("x"):
                name, _, e = factor.partition("^")
                value *= x[int(name[1:]) - 1] ** int(e or 1)
            else:
                value *= Fraction(factor)
        total += value
    return total
