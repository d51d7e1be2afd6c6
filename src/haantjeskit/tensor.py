"""Dense symbolic tensor fields on flat R^n.

Components are Poly values stored in a flat row-major list; a tensor of
valence (r, s) on dimension n has n**(r+s) entries, contravariant slots
first.  The ambient space is Euclidean, so covariant differentiation is
the plain partial derivative.
"""

from __future__ import annotations

import itertools
from typing import Callable, List, Sequence, Tuple

from .symalg import Poly, VarId


class TensorError(Exception):
    pass


class TensorField:
    """Dense tensor field with Poly components.

    Index tuples are 0-based; slot k of an index tuple addresses the
    k-th contravariant slot for k < r and covariant slot k - r after.
    """

    __slots__ = ("n", "r", "s", "components")

    def __init__(self, n: int, valence: Tuple[int, int], components: Sequence[Poly]):
        r, s = valence
        if len(components) != n ** (r + s):
            raise TensorError(f"expected {n ** (r + s)} components, got {len(components)}")
        self.n = n
        self.r = r
        self.s = s
        self.components = list(components)

    # ---- construction --------------------------------------------------

    @classmethod
    def zero(cls, n: int, valence: Tuple[int, int]) -> "TensorField":
        r, s = valence
        return cls(n, valence, [Poly.zero()] * n ** (r + s))

    @classmethod
    def from_function(cls, n: int, valence: Tuple[int, int],
                      f: Callable[[Tuple[int, ...]], Poly]) -> "TensorField":
        r, s = valence
        return cls(n, valence, [f(idx) for idx in itertools.product(range(n), repeat=r + s)])

    @classmethod
    def from_matrix(cls, rows: Sequence[Sequence[Poly]]) -> "TensorField":
        """The (0,2) tensor with the given component rows."""
        flat = [Poly._coerce(x) for row in rows for x in row]
        return cls(len(rows), (0, 2), flat)

    # ---- indexing ------------------------------------------------------

    @property
    def valence(self) -> Tuple[int, int]:
        return (self.r, self.s)

    def __getitem__(self, idx) -> Poly:
        """The component at idx; IndexError unless idx has r + s
        entries, each in range(n)."""
        if isinstance(idx, int):
            idx = (idx,)
        if len(idx) != self.r + self.s:
            raise IndexError(f"expected {self.r + self.s} indices, got {idx}")
        n = self.n
        off = 0
        for i in idx:
            if not 0 <= i < n:
                raise IndexError(f"index {idx} out of range for dimension {n}")
            off = off * n + i
        return self.components[off]

    def indices(self):
        return itertools.product(range(self.n), repeat=self.r + self.s)

    def __eq__(self, other):
        return (isinstance(other, TensorField) and self.n == other.n
                and self.valence == other.valence and self.components == other.components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def map(self, f: Callable[[Poly], Poly]) -> "TensorField":
        return TensorField(self.n, self.valence, [f(c) for c in self.components])

    def __add__(self, other: "TensorField") -> "TensorField":
        if self.valence != other.valence or self.n != other.n:
            raise TensorError("tensor shape mismatch in addition")
        return TensorField(self.n, self.valence,
                           [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + other.map(lambda c: -c)

    def scale(self, q) -> "TensorField":
        return self.map(lambda c: c * q)

    def matrix(self) -> List[List[Poly]]:
        """Components of a 2-index tensor as nested lists."""
        if self.r + self.s != 2:
            raise TensorError("matrix() requires a 2-index tensor")
        return [[self[(i, j)] for j in range(self.n)] for i in range(self.n)]


# ---- operations --------------------------------------------------------


def partial_derivative(t: TensorField) -> TensorField:
    """Flat covariant derivative; appends one covariant slot (last)."""
    xs = [VarId("x", k + 1) for k in range(t.n)]
    # row-major, so the appended slot varies fastest
    return TensorField(t.n, (t.r, t.s + 1), [c.diff(x) for c in t.components for x in xs])


def exterior_derivative(w: TensorField) -> TensorField:
    """d of a 1-form: the antisymmetric (0,2) tensor with components
    (dw)_jk = dw_k/dx_j - dw_j/dx_k."""
    if w.valence != (0, 1):
        raise TensorError(f"expected a 1-form, got valence {w.valence}")
    n = w.n
    dw = partial_derivative(w).components  # dw[k * n + j] = d w_k / dx_j
    return TensorField(n, (0, 2), [dw[k * n + j] - dw[j * n + k]
                                   for j in range(n) for k in range(n)])


def hessian_operator(f: Poly, n: int) -> TensorField:
    """(1,1)-operator field with components d2 f / dx_i dx_j of a
    polynomial f in the coordinates x1..xn of R^n, n >= 2."""
    if n < 2:
        raise TensorError(f"hessian operator requires dimension >= 2, got {n}")
    if f.has_negative_exponents():
        raise TensorError("hessian operator requires a polynomial generator")
    coordinates = {VarId("x", i + 1) for i in range(n)}
    stray = [str(v) for v in f.variables() if v not in coordinates]
    if stray:
        raise TensorError(f"generator uses {', '.join(stray)}, not among "
                          f"the coordinates x1..x{n}")
    grads = [f.diff(VarId("x", i + 1)) for i in range(n)]
    return TensorField.from_function(
        n, (1, 1), lambda ij: grads[ij[0]].diff(VarId("x", ij[1] + 1)))

