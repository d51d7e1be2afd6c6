"""Killing tensors on flat space and the compatible families of the
second-order superintegrable systems this package reproduces.

The full valence-2 Killing space is obtained by an exact linear solve
on the degree-<=2 polynomial ansatz; the classical construction via
symmetric products of Killing vector fields is kept alongside as an
independent cross-check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from . import linalg
from .symalg import Monomial, Poly, VarId, parse_poly
from .tensor import TensorField, TensorError
from .haantjes import OperatorField, as_operator, conservation_check


class KillingError(Exception):
    pass


class UnsupportedDimension(KillingError):
    pass


class EmptyFamily(KillingError):
    """Only the zero tensor is compatible with the potential."""


@dataclass(frozen=True)
class KillingBasis:
    """Basis of the space of valence-2 Killing tensors on flat R^n."""

    dimension: int
    elements: Tuple[TensorField, ...]

    def __len__(self):
        return len(self.elements)


@dataclass
class KillingFamily:
    """Linear family of Killing tensors, components linear in the
    b-parameters and polynomial in x."""

    dimension: int
    params: Tuple[VarId, ...]
    tensor: TensorField

    def basis(self) -> List[TensorField]:
        """Coefficient tensor of each parameter (the family must be
        homogeneous-linear in its parameters)."""
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
        return out

    def specialize(self, b: Mapping[VarId, object]) -> TensorField:
        """Substitute all parameters; result is a single Killing tensor."""
        missing = [p for p in self.params if p not in b]
        if missing:
            raise KillingError(f"unbound parameters: {missing}")
        binds = {p: Poly._coerce(v) for p, v in b.items()}
        return self.tensor.map(lambda c: c.substitute(binds))


@dataclass
class PotentialSpec:
    """Named list of conservation-law generators (potential terms)."""

    name: str
    dimension: int
    generators: List[Poly]


# ---- the full Killing space -------------------------------------------


def _x(i: int) -> VarId:
    return VarId("x", i)


def _degree2_monomials(n: int) -> List[Monomial]:
    monos = [Monomial.one()]
    monos += [Monomial.of(_x(i + 1)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            monos.append(Monomial.of(_x(i + 1)) * Monomial.of(_x(j + 1)))
    return monos


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
def killing_space(n: int) -> KillingBasis:
    """Exact basis of all valence-2 Killing tensors on flat R^n.

    Solves the Killing equation on the degree-<=2 component ansatz; the
    basis is returned in reduced echelon form over the documented
    unknown ordering (component pairs (i<=j) lexicographic, monomials
    by graded order), so the output is deterministic.  It is computed
    once per n and process and shared: the basis is frozen and its
    elements are a tuple, but the tensors themselves are not, so do not
    modify them.
    """
    if n not in (2, 3, 4):
        raise UnsupportedDimension(f"killing_space supports n in 2..4, got {n}")
    monos = sorted(_degree2_monomials(n), key=lambda m: m.sort_key())
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    unknowns = [(pq, m) for pq in pairs for m in monos]
    col = {u: c for c, u in enumerate(unknowns)}

    rows: List[List[Fraction]] = []
    for i, j, m in itertools.combinations_with_replacement(range(n), 3):
        # coefficient rows of K_ij,m + K_jm,i + K_mi,j per x-monomial
        acc: Dict[Monomial, Dict[int, Fraction]] = {}
        for (a, b), mono in unknowns:
            contribs = []
            if (a, b) == tuple(sorted((i, j))):
                contribs.append(_x(m + 1))
            if (a, b) == tuple(sorted((j, m))):
                contribs.append(_x(i + 1))
            if (a, b) == tuple(sorted((m, i))):
                contribs.append(_x(j + 1))
            if not contribs:
                continue
            total = Poly.zero()
            base = Poly.term(mono, 1)
            for v in contribs:
                total = total + base.diff(v)
            for mm, q in total.terms.items():
                acc.setdefault(mm, {})[col[((a, b), mono)]] = \
                    acc.get(mm, {}).get(col[((a, b), mono)], Fraction(0)) + q
        for mm in sorted(acc, key=lambda m_: m_.sort_key()):
            row = [Fraction(0)] * len(unknowns)
            for c, q in acc[mm].items():
                row[c] = q
            rows.append(row)

    basis_vectors = linalg.nullspace(rows, ncols=len(unknowns))
    echelon, _ = linalg.rref(basis_vectors)
    echelon = [v for v in echelon if any(v)]

    elements = []
    for vec in echelon:
        comps = {}
        for (pq, m), c in col.items():
            if vec[c]:
                comps.setdefault(pq, Poly.zero())
                comps[pq] = comps[pq] + Poly.term(m, vec[c])
        mat = [[comps.get(tuple(sorted((i, j))), Poly.zero()) for j in range(n)]
               for i in range(n)]
        elements.append(TensorField.from_matrix(mat))
    return KillingBasis(dimension=n, elements=tuple(elements))


# ---- vectorization helpers --------------------------------------------


def _family_keys(tensors: Sequence[TensorField]):
    n = tensors[0].n
    keys = set()
    for t in tensors:
        for i in range(n):
            for j in range(i, n):
                keys.update(t[(i, j)].terms)
    return sorted(keys, key=lambda m: m.sort_key())


def tensors_to_rows(tensors: Sequence[TensorField]):
    """Coefficient-vector rows for symmetric (0,2) tensors over a shared
    (component, monomial) key set."""
    n = tensors[0].n
    keys = _family_keys(tensors)
    keypos = {(i, j, m): c for c, (i, j, m) in enumerate(
        ((i, j, m) for i in range(n) for j in range(i, n) for m in keys))}
    rows = []
    for t in tensors:
        row = [Fraction(0)] * len(keypos)
        for i in range(n):
            for j in range(i, n):
                for m, q in t[(i, j)].terms.items():
                    row[keypos[(i, j, m)]] = q
        rows.append(row)
    return rows


def span_equal(a: Sequence[TensorField], b: Sequence[TensorField]) -> bool:
    """Whether two lists of symmetric (0,2) tensors span the same space."""
    merged = list(a) + list(b)
    keys = tensors_to_rows(merged)
    return linalg.row_space_equal(keys[:len(a)], keys[len(a):])


# ---- compatible families ----------------------------------------------


def compatible_family(basis: KillingBasis, pot: PotentialSpec) -> KillingFamily:
    """Maximal subfamily of `basis` compatible with every generator of
    the potential (all conservation residuals vanish identically).

    When the resulting span coincides with the parametrized family of a
    catalog system, that parametrization (the conventional b-labels) is
    returned instead of the raw echelon basis.
    """
    if pot.dimension != basis.dimension:
        raise KillingError("potential and basis dimensions differ")
    n = basis.dimension
    m = len(basis.elements)

    rows: List[List[Fraction]] = []
    for u in pot.generators:
        residuals = [conservation_check(as_operator(k), u).residual
                     for k in basis.elements]
        for j in range(n):
            for k in range(j + 1, n):
                acc: Dict[Monomial, List[Fraction]] = {}
                for r, res in enumerate(residuals):
                    for mono, q in res[(j, k)].terms.items():
                        acc.setdefault(mono, [Fraction(0)] * m)[r] = q
                for mono in sorted(acc, key=lambda mm: mm.sort_key()):
                    rows.append(acc[mono])

    vectors = linalg.nullspace(rows, ncols=m)
    if not vectors:
        raise EmptyFamily(f"no nonzero Killing tensor is compatible with {pot.name}")
    echelon, _ = linalg.rref(vectors)
    echelon = [v for v in echelon if any(v)]

    elements = []
    for vec in echelon:
        t = TensorField.zero(n, (0, 2))
        for r, q in enumerate(vec):
            if q:
                t = t + basis.elements[r].scale(q)
        elements.append(t)

    for fam in _catalog_families(n):
        if len(fam.params) == len(elements) and span_equal(fam.basis(), elements):
            return fam

    params = tuple(VarId("b", i + 1) for i in range(len(elements)))
    total = TensorField.zero(n, (0, 2))
    for p, t in zip(params, elements):
        total = total + t.map(lambda c, p=p: c * Poly.variable(p))
    return KillingFamily(dimension=n, params=params, tensor=total)


def family_operator(family: KillingFamily, b: Mapping[VarId, object] = None) -> OperatorField:
    """Operator field of a family member (Euclidean index raising)."""
    t = family.tensor if b is None else family.specialize(b)
    return as_operator(t)


# ---- potential catalog ------------------------------------------------


def _mat(rows: Sequence[Sequence[str]]) -> TensorField:
    return TensorField.from_matrix([[parse_poly(e) for e in row] for row in rows])


def _b(*indices: int) -> Tuple[VarId, ...]:
    return tuple(VarId("b", i) for i in indices)


def _build_catalog() -> Dict[str, Tuple[PotentialSpec, KillingFamily]]:
    g = {
        "sw1": ["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"],
        "oscillator": ["x1^2 + x2^2 + x3^2", "x1", "x2", "x3"],
        "oo": ["4*x1^2 + 4*x2^2 + x3^2", "x1", "x2", "x3^-2"],
        "iv": ["4*x1^2 + x2^2 + x3^2", "x1", "x2^-2", "x3^-2"],
        "nonmaximal-3d": ["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"],
    }
    fams = {
        "sw1": (_b(1, 2, 3, 4, 5, 6), _mat([
            ["b4*x2^2 + b5*x3^2 + b1", "-b4*x1*x2", "-b5*x1*x3"],
            ["-b4*x1*x2", "b4*x1^2 + b6*x3^2 + b2", "-b6*x2*x3"],
            ["-b5*x1*x3", "-b6*x2*x3", "b5*x1^2 + b6*x2^2 + b3"],
        ])),
        "oscillator": (_b(1, 2, 3, 4, 5, 6), _mat([
            ["b1", "b4", "b5"],
            ["b4", "b2", "b6"],
            ["b5", "b6", "b3"],
        ])),
        "oo": (_b(1, 2, 3, 4, 5, 6), _mat([
            ["b1", "b5", "-b4*x3"],
            ["b5", "b2", "-b6*x3"],
            ["-b4*x3", "-b6*x3", "2*b4*x1 + 2*b6*x2 + b3"],
        ])),
        "iv": (_b(1, 2, 3, 4, 5, 6), _mat([
            ["b1", "-b6*x2", "-b4*x3"],
            ["-b6*x2", "b5*x3^2 + 2*b6*x1 + b2", "-b5*x2*x3"],
            ["-b4*x3", "-b5*x2*x3", "b5*x2^2 + 2*b4*x1 + b3"],
        ])),
        "nonmaximal-3d": (_b(1, 2, 3, 5), _mat([
            ["b5*x3^2 + b1", "0", "-b5*x1*x3"],
            ["0", "b2", "0"],
            ["-b5*x1*x3", "0", "b5*x1^2 + b3"],
        ])),
    }
    out = {}
    for name, gens in g.items():
        pot = PotentialSpec(name=name, dimension=3,
                            generators=[parse_poly(s) for s in gens])
        params, mat = fams[name]
        out[name] = (pot, KillingFamily(dimension=3, params=params, tensor=mat))
    return out


_CATALOG = None


def catalog() -> Dict[str, Tuple[PotentialSpec, KillingFamily]]:
    """Potential catalog: name -> (potential, conventional family)."""
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build_catalog()
    return _CATALOG


def _catalog_families(n: int) -> List[KillingFamily]:
    return [fam for _, fam in catalog().values() if fam.dimension == n]

