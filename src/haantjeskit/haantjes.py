"""Nijenhuis and Haantjes torsions of operator fields, and the
conservation-law test d(A* du) = 0.

All computations are on flat R^n in Cartesian coordinates, so the
covariant derivative is the component-wise partial derivative.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from .symalg import Poly, VarId
from .tensor import TensorField, TensorError, partial_derivative


class OperatorField:
    """A (1,1)-tensor field, the object whose torsions we compute."""

    __slots__ = ("tensor",)

    def __init__(self, tensor: TensorField):
        if tensor.valence != (1, 1):
            raise TensorError(f"operator field must have valence (1,1), got {tensor.valence}")
        self.tensor = tensor

    @property
    def n(self) -> int:
        return self.tensor.n

    def __getitem__(self, ij) -> Poly:
        return self.tensor[ij]


def as_operator(k: TensorField) -> OperatorField:
    """Operator field of a (0,2) tensor: on Euclidean R^n raising an
    index leaves the components unchanged."""
    if k.valence != (0, 2):
        raise TensorError(f"expected a (0,2) tensor, got valence {k.valence}")
    return OperatorField(TensorField(k.n, (1, 1), list(k.components)))


def _add_product(total: Poly, sign: int, *factors: Poly) -> Poly:
    """total + sign * (factors multiplied left to right).  A factor
    with no terms skips the product: operator fields such as Hessians
    are sparse, and most products in the torsion sums have one."""
    for f in factors:
        if not f.terms:
            return total
    p = factors[0]
    for f in factors[1:]:
        p = p * f
    return total + p if sign > 0 else total - p


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


def nijenhuis(a: OperatorField) -> TensorField:
    """Nijenhuis torsion N^i_jk, antisymmetric in (j, k).

    N^i_jk = dA^i_k/dx_a A^a_j - dA^i_j/dx_a A^a_k
             + (dA^a_j/dx_k - dA^a_k/dx_j) A^i_a,  summed over a.

    The sum is computed for j < k only; N^i_kj is filled in as -N^i_jk
    and the diagonal N^i_jj is zero.  Products with a zero factor are
    skipped.
    """
    n = a.n
    da = partial_derivative(a.tensor)  # da[(i, j, k)] = d A^i_j / dx_k

    def comp(i, j, k):
        total = Poly.zero()
        for s in range(n):
            total = _add_product(total, 1, da[(i, k, s)], a[(s, j)])
            total = _add_product(total, -1, da[(i, j, s)], a[(s, k)])
            total = _add_product(total, 1, da[(s, j, k)] - da[(s, k, j)], a[(i, s)])
        return total

    return _skew_tensor(n, comp)


def haantjes(a: OperatorField) -> TensorField:
    """Haantjes torsion H^i_jk, antisymmetric in (j, k).

    H^i_jk = N^b_jk A^i_a A^a_b + N^i_ab A^a_j A^b_k
             - A^i_a (N^a_bk A^b_j + N^a_jb A^b_k),  summed over a, b.

    The sum is computed for j < k only; H^i_kj is filled in as -H^i_jk
    and the diagonal H^i_jj is zero.  Products with a zero factor are
    skipped.
    """
    n = a.n
    nij = nijenhuis(a)

    def comp(i, j, k):
        total = Poly.zero()
        for s in range(n):
            for b in range(n):
                total = _add_product(total, 1, nij[(b, j, k)], a[(i, s)], a[(s, b)])
                total = _add_product(total, 1, nij[(i, s, b)], a[(s, j)], a[(b, k)])
                inner = _add_product(Poly.zero(), 1, nij[(s, b, k)], a[(b, j)])
                inner = _add_product(inner, 1, nij[(s, j, b)], a[(b, k)])
                total = _add_product(total, -1, a[(i, s)], inner)
        return total

    return _skew_tensor(n, comp)


def pullback_differential(a: OperatorField, u: Poly) -> TensorField:
    """The 1-form A* du, components (A* du)_k = A^a_k du/dx_a."""
    n = a.n
    grads = [u.diff(VarId("x", s + 1)) for s in range(n)]

    def comp(idx):
        (k,) = idx
        total = Poly.zero()
        for s in range(n):
            total = total + a[(s, k)] * grads[s]
        return total

    return TensorField.from_function(n, (0, 1), comp)


def conservation_check(a: OperatorField, u: Poly) -> TensorField:
    """Residual d(A* du), an antisymmetric (0,2) tensor; zero exactly
    when u generates a conservation law."""
    omega = pullback_differential(a, u)
    n = a.n

    def comp(idx):
        j, k = idx
        return omega[(k,)].diff(VarId("x", j + 1)) - omega[(j,)].diff(VarId("x", k + 1))

    return TensorField.from_function(n, (0, 2), comp)


def is_haantjes_zero(a: OperatorField) -> Tuple[bool, Optional[Tuple[int, int, int, Poly]]]:
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
