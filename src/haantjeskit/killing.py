"""Killing tensors on flat space and the family of them compatible
with a potential.

Both the full valence-2 Killing space and a potential's compatible
family are exact linear solves of one kind: the x-coefficients of the
residual of a generic combination of candidate tensors (the degree-<=2
component ansatz, or the Killing basis) are linear conditions on the
combination's coefficients.  The tests hold the Killing space against
the classical construction from symmetric products of Killing vectors.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from . import linalg
from .symalg import Monomial, Poly, VarId, mono_mul, mono_sort_key
from .tensor import TensorField, TensorError
from .haantjes import as_operator, conservation_check


class KillingError(Exception):
    pass


class KillingFamily:
    """Linear family of Killing tensors, components linear in the
    b-parameters and polynomial in x.  The basis is computed once, on
    first use, or handed over: do not modify the tensor."""

    def __init__(self, params: Tuple[VarId, ...], tensor: TensorField):
        self.params = params
        self.tensor = tensor
        self._basis: Optional[Tuple[TensorField, ...]] = None

    def basis(self) -> List[TensorField]:
        """Coefficient tensor of each parameter (the family must be
        homogeneous-linear in its parameters)."""
        if self._basis is None:
            out = []
            residual = self.tensor
            for p in self.params:
                coeff = self.tensor.map(lambda c, p=p: c.diff(p))
                for comp in coeff.components:
                    if any(v.ns == "b" for v in comp.variables()):
                        raise KillingError("family is not linear in its parameters")
                out.append(coeff)
                residual = residual - coeff.map(lambda c, p=p: c * Poly.variable(p))
            if not residual.is_zero():
                raise KillingError("family has a parameter-free part")
            self._basis = tuple(out)
        return list(self._basis)

    def specialize(self, b: Mapping[VarId, object]) -> TensorField:
        """Substitute exactly the parameters; result is a single Killing tensor."""
        unbound = [str(p) for p in self.params if p not in b]
        stray = [str(v) for v in b if v not in self.params]
        if unbound or stray:
            raise KillingError(f"unbound parameters {unbound}, non-parameters {stray}")
        binds = {p: Poly._coerce(v) for p, v in b.items()}
        return self.tensor.map(lambda c: c.substitute(binds))


class PotentialSpec:
    """The conservation-law generators (potential terms) of a potential
    on R^n, n = dimension."""

    def __init__(self, dimension: int, generators: List[Poly]):
        self.dimension = dimension
        self.generators = generators


# ---- linear conditions on a generic combination ----------------------


def _solve(n: int, candidates: Sequence[TensorField],
           residuals: Callable[[TensorField], List[Poly]]) -> List[TensorField]:
    """Reduced echelon basis of the combinations sum_u c_u T_u of the
    candidate (0,2) tensors on R^n whose residual components all vanish
    in x.

    `residuals` maps the generic combination, whose components are
    linear in fresh c-variables, to the components that must vanish;
    each x-coefficient of each is one linear row in the c_u.  The echelon
    form is taken over the candidates' order, so the result is unique.
    """
    cs = [((VarId("c", u), 1),) for u in range(len(candidates))]
    col = {c: u for u, c in enumerate(cs)}
    generic = _combination(n, candidates, cs)
    rows: List[List[Fraction]] = []
    for comp in residuals(generic):
        for coeff in comp.collect(("x",)).values():
            row = [Fraction(0)] * len(cs)
            for c, q in coeff.terms.items():
                row[col[c]] = q
            rows.append(row)
    echelon, _ = linalg.rref(linalg.nullspace(rows, ncols=len(cs)))

    return [sum((cand.scale(q) for cand, q in zip(candidates, vec) if q),
                TensorField.zero(n, (0, 2))) for vec in echelon]


def _combination(n: int, tensors: Sequence[TensorField],
                 symbols: Sequence[Monomial]) -> TensorField:
    """sum_u s_u T_u for (0,2) tensors T_u in x on R^n and distinct
    monomials s_u off x, so no two terms share a monomial."""
    return TensorField.from_function(n, (0, 2), lambda idx: Poly._raw(
        {mono_mul(m, s): q for t, s in zip(tensors, symbols) for m, q in t[idx].terms.items()}))


def span_equal(a: Sequence[TensorField], b: Sequence[TensorField]) -> bool:
    """Whether two lists of tensors of one shape span the same space."""
    keys: Dict[Tuple[int, Monomial], int] = {}
    for t in (*a, *b):
        for c, comp in enumerate(t.components):
            for m in comp.terms:
                keys.setdefault((c, m), len(keys))

    def row(t: TensorField) -> List[Fraction]:
        r = [Fraction(0)] * len(keys)
        for c, comp in enumerate(t.components):
            for m, q in comp.terms.items():
                r[keys[(c, m)]] = q
        return r

    return linalg.row_space_equal([row(t) for t in a], [row(t) for t in b])


# ---- the full Killing space -------------------------------------------


def _x(i: int) -> VarId:
    return VarId("x", i)


def killing_residual(k: TensorField) -> TensorField:
    """Symmetrized derivative K_(ij,k); identically zero for Killing tensors."""
    if k.valence != (0, 2):
        raise TensorError("Killing residual needs a (0,2) tensor")
    n = k.n

    def comp(idx):
        i, j, m = idx
        return (k[(i, j)].diff(_x(m + 1))
                + k[(j, m)].diff(_x(i + 1))
                + k[(m, i)].diff(_x(j + 1)))

    return TensorField.from_function(n, (0, 3), comp)


@functools.cache
def killing_space(n: int) -> Tuple[TensorField, ...]:
    """Exact basis of all valence-2 Killing tensors on flat R^n, for
    any n >= 1: n(n+1)^2(n+2)/12 elements.

    Solves the Killing equation on the degree-<=2 component ansatz; the
    basis is returned in reduced echelon form over the documented
    unknown ordering (component pairs (i<=j) lexicographic, monomials
    by graded order), so the output is deterministic.  It is computed
    once per n and process and shared: the basis is a tuple, but the
    tensors in it are not frozen, so do not modify them.
    """
    if n < 1:
        raise KillingError(f"killing_space needs n >= 1, got {n}")
    xs = [((_x(i + 1), 1),) for i in range(n)]
    monos = [()] + xs + [mono_mul(a, b) for a, b in
                         itertools.combinations_with_replacement(xs, 2)]
    monos.sort(key=mono_sort_key)
    candidates = [
        TensorField.from_function(n, (0, 2), lambda idx, pq=pq, m=m: (
            Poly.term(m, 1) if tuple(sorted(idx)) == pq else Poly.zero()))
        for pq in itertools.combinations_with_replacement(range(n), 2)
        for m in monos]

    def residuals(k: TensorField) -> List[Poly]:
        # K_(ij,m) is symmetric, so i <= j <= m are its independent rows
        r = killing_residual(k)
        return [r[idx] for idx in itertools.combinations_with_replacement(range(n), 3)]

    return tuple(_solve(n, candidates, residuals))


# ---- compatible families ----------------------------------------------


def compatible_family(pot: PotentialSpec) -> KillingFamily:
    """Maximal family of Killing tensors on R^n, n the potential's
    dimension, compatible with every generator of the potential (all
    conservation residuals vanish identically).  It always contains the
    metric, so it is never empty.

    The family is new on every call: its parameters b1..bm label the
    reduced echelon basis of the solution, in order, and that basis is
    handed to it, so basis() derives nothing.
    """
    n = pot.dimension

    def residuals(k: TensorField) -> List[Poly]:
        # d(K* du) is antisymmetric, so j < k are its independent rows
        op = as_operator(k)
        out = []
        for u in pot.generators:
            r = conservation_check(op, u)
            out += [r[jk] for jk in itertools.combinations(range(n), 2)]
        return out

    elements = _solve(n, killing_space(n), residuals)
    params = tuple(VarId("b", i + 1) for i in range(len(elements)))
    family = KillingFamily(params, _combination(n, elements, [((p, 1),) for p in params]))
    family._basis = tuple(elements)
    return family
