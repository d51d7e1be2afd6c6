"""Nijenhuis and Haantjes torsions of operator fields, and the
conservation-law test d(A* du) = 0.

All computations are on flat R^n in Cartesian coordinates, so the
covariant derivative is the component-wise partial derivative.
"""

from __future__ import annotations

from typing import Optional, Tuple

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


def nijenhuis(a: OperatorField) -> TensorField:
    """Nijenhuis torsion N^i_jk, antisymmetric in (j, k).

    N^i_jk = dA^i_k/dx_a A^a_j - dA^i_j/dx_a A^a_k
             + (dA^a_j/dx_k - dA^a_k/dx_j) A^i_a,  summed over a.

    The diagonal N^i_jj vanishes by antisymmetry and is not summed.
    """
    n = a.n
    da = partial_derivative(a.tensor)  # da[(i, j, k)] = d A^i_j / dx_k

    def comp(idx):
        i, j, k = idx
        if j == k:
            return Poly.zero()
        total = Poly.zero()
        for s in range(n):
            total = total + da[(i, k, s)] * a[(s, j)]
            total = total - da[(i, j, s)] * a[(s, k)]
            total = total + (da[(s, j, k)] - da[(s, k, j)]) * a[(i, s)]
        return total

    return TensorField.from_function(n, (1, 2), comp)


def haantjes(a: OperatorField) -> TensorField:
    """Haantjes torsion H^i_jk, antisymmetric in (j, k).

    H^i_jk = N^b_jk A^i_a A^a_b + N^i_ab A^a_j A^b_k
             - A^i_a (N^a_bk A^b_j + N^a_jb A^b_k),  summed over a, b.

    The diagonal H^i_jj vanishes by antisymmetry and is not summed.
    """
    n = a.n
    nij = nijenhuis(a)

    def comp(idx):
        i, j, k = idx
        if j == k:
            return Poly.zero()
        total = Poly.zero()
        for s in range(n):
            for b in range(n):
                total = total + nij[(b, j, k)] * a[(i, s)] * a[(s, b)]
                total = total + nij[(i, s, b)] * a[(s, j)] * a[(b, k)]
                total = total - a[(i, s)] * (nij[(s, b, k)] * a[(b, j)]
                                             + nij[(s, j, b)] * a[(b, k)])
        return total

    return TensorField.from_function(n, (1, 2), comp)


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
    indices of one nonzero component as a witness.
    """
    h = haantjes(a)
    for idx in h.indices():
        c = h[idx]
        if not c.is_zero():
            i, j, k = idx
            return False, (i + 1, j + 1, k + 1, c)
    return True, None
