"""Nijenhuis and Haantjes torsions of operator fields, and the
conservation-law test d(A* du) = 0.

An operator field is a (1,1) TensorField; each entry point raises
TensorError for any other valence.  All computations are on flat R^n
in Cartesian coordinates, so the covariant derivative is the
component-wise partial derivative.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, Optional, Tuple

from .symalg import Monomial, Poly, VarId, _var_key
from .tensor import TensorField, TensorError, exterior_derivative, partial_derivative


def as_operator(k: TensorField) -> TensorField:
    """The (1,1) operator field of a (0,2) tensor: on Euclidean R^n
    raising an index leaves the components unchanged."""
    if k.valence != (0, 2):
        raise TensorError(f"expected a (0,2) tensor, got valence {k.valence}")
    return TensorField(k.n, (1, 1), k.components)


def _require_operator(a: TensorField) -> None:
    if a.valence != (1, 1):
        raise TensorError(f"operator field must have valence (1,1), got {a.valence}")


# Inside the torsion kernels a monomial is one int, sum_v e_v * 2^(w*pos_v)
# over the operator's variables in canonical order, with balanced w-bit
# digits so that Laurent exponents need no offset, and a coefficient q is
# the int q*D over the operator's common denominator D.  A monomial
# product is then one int addition and a coefficient product one int
# product.  Every kernel monomial is a product of at most four factors
# from A and dA, so w is chosen with 2^(w-1) > 4*E for the largest
# |exponent| E in A and dA, and no digit ever overflows.
IntTerms = Dict[int, int]


def _sum_products(products: Iterable[Tuple[int, IntTerms, IntTerms]]) -> IntTerms:
    """The sum of sign * p * q over (sign, p, q), with p and q int term
    maps, accumulated in one coefficient map.  A product with a factor
    that has no terms is skipped: operator fields such as Hessians are
    sparse, and most products in the torsion sums have one.  A term
    that cancels stays as a zero until the one filter at the end."""
    acc: IntTerms = {}
    get = acc.get
    for sign, p, q in products:
        if not (p and q):
            continue
        for m1, c1 in p.items():
            if sign < 0:
                c1 = -c1
            for m2, c2 in q.items():
                m = m1 + m2
                acc[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in acc.items() if c}


def _difference(p: IntTerms, q: IntTerms) -> IntTerms:
    """p - q; a term that cancels is removed where it cancels."""
    acc = dict(p)
    for m, c in q.items():
        d = acc.get(m, 0) - c
        if d:
            acc[m] = d
        else:
            del acc[m]
    return acc


def _encode(a: TensorField):
    """A and dA as int term maps, at[i][j] for A^i_j and grad[i][j][k]
    for dA^i_j/dx_k, both scaled by D, and `decode(terms, p)`, the Poly
    of an int term map scaled by D^p.  Each distinct key is decoded
    once per call."""
    _require_operator(a)
    n = a.n
    r = range(n)
    da = partial_derivative(a)  # da[(i, j, k)] = d A^i_j / dx_k
    polys = a.components + da.components
    keys = [m for p in polys for m in p.terms]
    variables = sorted({v for m in keys for v, _ in m}, key=_var_key)
    top = max((abs(e) for m in keys for _, e in m), default=0)
    width = (4 * top).bit_length() + 1
    shift = {v: width * pos for pos, v in enumerate(variables)}
    den = math.lcm(*(q.denominator for p in polys for q in p.terms.values()))

    def encode(p: Poly) -> IntTerms:
        return {sum(e << shift[v] for v, e in m): q.numerator * (den // q.denominator)
                for m, q in p.terms.items()}

    at = [[encode(a[(i, j)]) for j in r] for i in r]
    grad = [[[encode(da[(i, j, k)]) for k in r] for j in r] for i in r]

    mask = (1 << width) - 1
    half = 1 << (width - 1)
    monomials: Dict[int, Monomial] = {}

    def monomial(key: int) -> Monomial:
        m = monomials.get(key)
        if m is None:
            out = []
            rest = key
            for v in variables:
                if not rest:
                    break
                e = rest & mask
                if e >= half:
                    e -= mask + 1
                if e:
                    out.append((v, e))
                rest = (rest - e) >> width
            m = monomials[key] = tuple(out)
        return m

    def decode(terms: IntTerms, p: int) -> Poly:
        scale = den ** p
        return Poly._raw({monomial(m): Fraction(c, scale) for m, c in terms.items()})

    return at, grad, decode


def _nijenhuis(n: int, at, grad):
    """N^i_jk scaled by D^2 as int term maps, nt[i][j][k] for every
    (j, k): computed for j < k, -N^i_jk at (i, k, j), empty on the
    diagonal."""
    r = range(n)
    curl = {(s, j, k): _difference(grad[s][j][k], grad[s][k][j])
            for s in r for j in r for k in range(j + 1, n)}
    nt = [[[{} for _ in r] for _ in r] for _ in r]
    for i in r:
        for j in r:
            for k in range(j + 1, n):
                value = _sum_products(t for s in r for t in (
                    (1, grad[i][k][s], at[s][j]),
                    (-1, grad[i][j][s], at[s][k]),
                    (1, curl[(s, j, k)], at[i][s])))
                nt[i][j][k] = value
                nt[i][k][j] = {m: -c for m, c in value.items()}
    return nt


def _skew_tensor(n: int, comp: Callable[[int, int, int], Poly]) -> TensorField:
    """The (1,2) tensor with components comp(i, j, k) for j < k, their
    negatives at (i, k, j) and zero on the diagonal j == k."""
    comps = [Poly.zero()] * n ** 3
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                value = comp(i, j, k)
                comps[(i * n + j) * n + k] = value
                comps[(i * n + k) * n + j] = -value
    return TensorField(n, (1, 2), comps)


def nijenhuis(a: TensorField) -> TensorField:
    """Nijenhuis torsion N^i_jk, antisymmetric in (j, k).

    N^i_jk = dA^i_k/dx_a A^a_j - dA^i_j/dx_a A^a_k
             + (dA^a_j/dx_k - dA^a_k/dx_j) A^i_a,  summed over a.

    The curl C^a_jk = dA^a_j/dx_k - dA^a_k/dx_j is computed once per
    (a, j < k).  The sum is computed for j < k only, into one
    coefficient map per component; N^i_kj is filled in as -N^i_jk and
    the diagonal N^i_jj is zero.
    """
    at, grad, decode = _encode(a)
    nt = _nijenhuis(a.n, at, grad)
    return _skew_tensor(a.n, lambda i, j, k: decode(nt[i][j][k], 2))


def haantjes(a: TensorField) -> TensorField:
    """Haantjes torsion H^i_jk, antisymmetric in (j, k).

    H^i_jk = N^b_jk A^i_a A^a_b + N^i_ab A^a_j A^b_k
             - A^i_a (N^a_bk A^b_j + N^a_jb A^b_k),  summed over a, b.

    Contracted form: with (A^2)^i_b = A^i_a A^a_b and
    Q^i_jb = N^i_ab A^a_j, and since N^a_jb A^b_k = -Q^a_kj,

    H^i_jk = N^b_jk (A^2)^i_b + Q^i_jb A^b_k - A^i_b (Q^b_jk - Q^b_kj),

    summed over b.  A^2 (n^3 products), Q (n^4 products) and the
    differences Q^b_jk - Q^b_kj are computed once per call, so the
    torsion costs O(n^4) products.  The sum is computed for j < k only,
    into one coefficient map per component; H^i_kj is filled in as
    -H^i_jk and the diagonal H^i_jj is zero.  Over the common
    denominator D, N is scaled by D^2, A^2 by D^2, Q by D^3 and H by D^4.
    """
    n = a.n
    r = range(n)
    at, grad, decode = _encode(a)
    nt = _nijenhuis(n, at, grad)
    a2 = [[_sum_products((1, at[i][s], at[s][b]) for s in r) for b in r] for i in r]
    q = [[[_sum_products((1, nt[i][s][b], at[s][j]) for s in r) for b in r]
          for j in r] for i in r]
    dq = {(b, j, k): _difference(q[b][j][k], q[b][k][j])
          for b in r for j in r for k in range(j + 1, n)}

    def comp(i, j, k):
        return decode(_sum_products(t for b in r for t in (
            (1, nt[b][j][k], a2[i][b]),
            (1, q[i][j][b], at[b][k]),
            (-1, at[i][b], dq[(b, j, k)]))), 4)

    return _skew_tensor(n, comp)


def pullback_differential(a: TensorField, u: Poly) -> TensorField:
    """The 1-form A* du, components (A* du)_k = A^a_k du/dx_a."""
    _require_operator(a)
    n = a.n
    grads = [u.diff(VarId("x", s + 1)) for s in range(n)]

    def comp(idx):
        (k,) = idx
        total = Poly.zero()
        for s in range(n):
            total = total + a[(s, k)] * grads[s]
        return total

    return TensorField.from_function(n, (0, 1), comp)


def conservation_check(a: TensorField, u: Poly) -> TensorField:
    """Residual d(A* du), an antisymmetric (0,2) tensor; zero exactly
    when u generates a conservation law."""
    return exterior_derivative(pullback_differential(a, u))


def is_haantjes_zero(a: TensorField) -> Tuple[bool, Optional[Tuple[int, int, int, Poly]]]:
    """Whether the Haantjes torsion vanishes identically.

    On failure, returns (False, (i, j, k, component)) with 1-based
    indices of the first nonzero component in index order as a
    witness.  H^i_kj = -H^i_jk, so that component has j < k and only
    those are scanned.
    """
    h = haantjes(a)
    for (i, j, k) in h.indices():
        if j < k and not h[(i, j, k)].is_zero():
            return False, (i + 1, j + 1, k + 1, h[(i, j, k)])
    return True, None
