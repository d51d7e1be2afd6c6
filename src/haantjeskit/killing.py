"""Killing tensors on flat space and the compatible families of the
second-order superintegrable systems this package reproduces.

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
from .symalg import Monomial, Poly, VarId, parse_poly
from .tensor import TensorField, TensorError
from .haantjes import as_operator, conservation_check


class KillingError(Exception):
    pass


class KillingFamily:
    """Linear family of Killing tensors, components linear in the
    b-parameters and polynomial in x.  The basis is computed once, on
    first use, so do not modify the tensor after that."""

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
        """Substitute all parameters; result is a single Killing tensor."""
        missing = [p for p in self.params if p not in b]
        if missing:
            raise KillingError(f"unbound parameters: {missing}")
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
    cs = [Monomial.of(VarId("c", u)) for u in range(len(candidates))]
    col = {c: u for u, c in enumerate(cs)}
    # distinct (candidate, x-monomial) pairs give distinct monomials
    generic = TensorField.from_function(n, (0, 2), lambda idx: Poly._raw(
        {m * c: q for t, c in zip(candidates, cs) for m, q in t[idx].terms.items()}))
    rows: List[List[Fraction]] = []
    for comp in residuals(generic):
        for coeff in comp.collect(("x",)).values():
            row = [Fraction(0)] * len(cs)
            for c, q in coeff.terms.items():
                row[col[c]] = q
            rows.append(row)
    echelon, _ = linalg.rref(linalg.nullspace(rows, ncols=len(cs)))

    elements = []
    for vec in echelon:
        t = TensorField.zero(n, (0, 2))
        for cand, q in zip(candidates, vec):
            if q:
                t = t + cand.scale(q)
        elements.append(t)
    return elements


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
    xs = [Monomial.of(_x(i + 1)) for i in range(n)]
    monos = [Monomial.one()] + xs + [a * b for a, b in
                                     itertools.combinations_with_replacement(xs, 2)]
    monos.sort(key=lambda m: m.sort_key())
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

    When the resulting span coincides with the parametrized family of a
    catalog system, that parametrization (the conventional b-labels) is
    returned instead of the raw echelon basis.
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
    for _, fam in catalog().values():
        if (fam.tensor.n == n and len(fam.params) == len(elements)
                and span_equal(fam.basis(), elements)):
            return fam

    params = tuple(VarId("b", i + 1) for i in range(len(elements)))
    total = TensorField.zero(n, (0, 2))
    for p, t in zip(params, elements):
        total = total + t.map(lambda c, p=p: c * Poly.variable(p))
    return KillingFamily(params=params, tensor=total)


# ---- potential catalog ------------------------------------------------

# name -> (potential generator texts, parameter indices, family matrix)
_CATALOG_TABLE = {
    "sw1": (["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"], (1, 2, 3, 4, 5, 6), [
        ["b4*x2^2 + b5*x3^2 + b1", "-b4*x1*x2", "-b5*x1*x3"],
        ["-b4*x1*x2", "b4*x1^2 + b6*x3^2 + b2", "-b6*x2*x3"],
        ["-b5*x1*x3", "-b6*x2*x3", "b5*x1^2 + b6*x2^2 + b3"],
    ]),
    "oscillator": (["x1^2 + x2^2 + x3^2", "x1", "x2", "x3"], (1, 2, 3, 4, 5, 6), [
        ["b1", "b4", "b5"],
        ["b4", "b2", "b6"],
        ["b5", "b6", "b3"],
    ]),
    "oo": (["4*x1^2 + 4*x2^2 + x3^2", "x1", "x2", "x3^-2"], (1, 2, 3, 4, 5, 6), [
        ["b1", "b5", "-b4*x3"],
        ["b5", "b2", "-b6*x3"],
        ["-b4*x3", "-b6*x3", "2*b4*x1 + 2*b6*x2 + b3"],
    ]),
    "iv": (["4*x1^2 + x2^2 + x3^2", "x1", "x2^-2", "x3^-2"], (1, 2, 3, 4, 5, 6), [
        ["b1", "-b6*x2", "-b4*x3"],
        ["-b6*x2", "b5*x3^2 + 2*b6*x1 + b2", "-b5*x2*x3"],
        ["-b4*x3", "-b5*x2*x3", "b5*x2^2 + 2*b4*x1 + b3"],
    ]),
    "nonmaximal-3d": (["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"], (1, 2, 3, 5), [
        ["b5*x3^2 + b1", "0", "-b5*x1*x3"],
        ["0", "b2", "0"],
        ["-b5*x1*x3", "0", "b5*x1^2 + b3"],
    ]),
}


@functools.cache
def catalog() -> Dict[str, Tuple[PotentialSpec, KillingFamily]]:
    """Potential catalog: name -> (potential, conventional family)."""
    return {
        name: (PotentialSpec(dimension=3, generators=[parse_poly(g) for g in gens]),
               KillingFamily(params=tuple(VarId("b", i) for i in params),
                             tensor=TensorField.from_matrix(
                                 [[parse_poly(e) for e in row] for row in rows])))
        for name, (gens, params, rows) in _CATALOG_TABLE.items()}
