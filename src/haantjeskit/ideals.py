"""Groebner bases over the parameter subring Q[b1..bm] and the ideal
queries built on them: membership, radical membership via the extended
ring with an auxiliary variable, Hilbert dimension from leading
monomials, and linear-factor detection.

The engine is a plain Buchberger loop with the coprimality criterion
and normal (smallest-lcm-first) pair selection; the scale of every
ideal in this package (degree <= 4 generators in at most 7 variables)
keeps this comfortably fast with exact coefficients.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .symalg import Monomial, Poly, VarId
from .haantjes import haantjes
from .killing import KillingFamily, family_operator


class IdealsError(Exception):
    pass


class ZeroIdeal(IdealsError):
    """The ideal has no nonzero generator."""


class UnitIdeal(IdealsError):
    """The ideal is the whole ring."""


class NotZeroDimensional(IdealsError):
    """A solver step expected finitely many solutions."""


@dataclass(frozen=True)
class MonomialOrder:
    """Monomial order on a fixed variable sequence.

    grevlex: graded, ties broken by the smallest exponent in the last
    differing variable; lex: the first variable is most significant.
    """

    kind: str
    variables: Tuple[VarId, ...]

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise IdealsError(f"unknown order kind {self.kind!r}")

    def exp_vector(self, m: Monomial) -> Tuple[int, ...]:
        pos = {v: i for i, v in enumerate(self.variables)}
        vec = [0] * len(self.variables)
        for v, e in m.exps:
            if v not in pos:
                raise IdealsError(f"variable {v} not in the order's ring")
            if e < 0:
                raise IdealsError("Laurent exponents are not allowed in ideals")
            vec[pos[v]] = e
        return tuple(vec)

    def key(self, m: Monomial):
        vec = self.exp_vector(m)
        if self.kind == "lex":
            return vec
        return (sum(vec), tuple(-e for e in reversed(vec)))

    def extend(self, v: VarId) -> "MonomialOrder":
        return MonomialOrder(self.kind, self.variables + (v,))


def default_order(variables: Sequence[VarId]) -> MonomialOrder:
    return MonomialOrder("grevlex", tuple(variables))


# ---- polynomial helpers relative to an order ---------------------------


def leading_term(f: Poly, order: MonomialOrder) -> Tuple[Monomial, Fraction]:
    if f.is_zero():
        raise IdealsError("zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(b.exponent(v) >= e for v, e in a.exps)


def _quotient(b: Monomial, a: Monomial) -> Monomial:
    acc = dict(b.exps)
    for v, e in a.exps:
        acc[v] = acc.get(v, 0) - e
    return Monomial(acc)


def _lcm_mono(a: Monomial, b: Monomial) -> Monomial:
    acc = dict(a.exps)
    for v, e in b.exps:
        acc[v] = max(acc.get(v, 0), e)
    return Monomial(acc)


def normal_form(f: Poly, basis: Sequence[Poly], order: MonomialOrder) -> Poly:
    """Remainder of full multivariate division of f by the basis."""
    lead = [leading_term(g, order) for g in basis]
    remainder = Poly.zero()
    work = f
    while not work.is_zero():
        lm, lc = leading_term(work, order)
        for g, (glm, glc) in zip(basis, lead):
            if _divides(glm, lm):
                work = work - g * Poly.term(_quotient(lm, glm), lc / glc)
                break
        else:
            t = Poly.term(lm, lc)
            remainder = remainder + t
            work = work - t
    return remainder


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    l = _lcm_mono(fm, gm)
    return (f * Poly.term(_quotient(l, fm), 1 / fc)
            - g * Poly.term(_quotient(l, gm), 1 / gc))


def monic(f: Poly, order: MonomialOrder) -> Poly:
    _, lc = leading_term(f, order)
    return f * (1 / lc)


def primitive_normalized(f: Poly, order: MonomialOrder) -> Poly:
    """Integer-primitive scalar multiple with positive leading coefficient."""
    den = reduce(lcm, (q.denominator for q in f.terms.values()), 1)
    num = reduce(gcd, (abs(q.numerator) for q in f.terms.values()), 0)
    g = f * Fraction(den, num)
    if leading_term(g, order)[1] < 0:
        g = -g
    return g


def buchberger(generators: Sequence[Poly], order: MonomialOrder) -> List[Poly]:
    """Unique reduced Groebner basis of the generators."""
    basis = [g for g in generators if not g.is_zero()]
    if not basis:
        return []
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]

    def pair_key(p):
        i, j = p
        l = _lcm_mono(leading_term(basis[i], order)[0],
                      leading_term(basis[j], order)[0])
        return order.key(l)

    while pairs:
        pairs.sort(key=pair_key)
        i, j = pairs.pop(0)
        fi, fj = basis[i], basis[j]
        mi = leading_term(fi, order)[0]
        mj = leading_term(fj, order)[0]
        if _lcm_mono(mi, mj) == mi * mj:
            continue  # coprime leading monomials reduce to zero
        rem = normal_form(s_polynomial(fi, fj, order), basis, order)
        if not rem.is_zero():
            basis.append(rem)
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _reduce_basis(basis, order)


def _reduce_basis(basis: List[Poly], order: MonomialOrder) -> List[Poly]:
    # minimal basis: drop elements whose leading monomial another divides
    lms = [leading_term(g, order)[0] for g in basis]
    keep: List[int] = []
    for i, lm in enumerate(lms):
        dominated = any(
            j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i)
            for j in range(len(basis)))
        if not dominated:
            keep.append(i)
    minimal = [monic(basis[i], order) for i in keep]
    # tail-reduce each element modulo the others (leading monomials of a
    # minimal basis are stable under this, so one pass suffices)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order) if others else g
        if not r.is_zero():
            reduced.append(monic(r, order))
    reduced.sort(key=lambda p: order.key(leading_term(p, order)[0]), reverse=True)
    return reduced


@dataclass
class Ideal:
    """Finitely generated ideal in the polynomial ring of its order."""

    generators: List[Poly]
    order: MonomialOrder
    _basis: Optional[List[Poly]] = field(default=None, repr=False)

    def groebner(self) -> List[Poly]:
        """Reduced Groebner basis (cached; write-once)."""
        if self._basis is None:
            self._basis = buchberger(self.generators, self.order)
        return self._basis

    def is_zero(self) -> bool:
        return not self.groebner()

    def contains_one(self) -> bool:
        g = self.groebner()
        return len(g) == 1 and g[0].is_constant()


def member(f: Poly, ideal: Ideal) -> bool:
    """Exact ideal membership by zero normal form."""
    basis = ideal.groebner()
    if not basis:
        return f.is_zero()
    return normal_form(f, basis, ideal.order).is_zero()


_T = VarId("t", 1)


def radical_member(f: Poly, ideal: Ideal) -> bool:
    """Radical membership: 1 in I + <1 - t f> in the extended ring."""
    if f.is_zero():
        return True
    ext_order = ideal.order.extend(_T)
    gens = list(ideal.generators) + [Poly.const(1) - Poly.variable(_T) * f]
    return Ideal(gens, ext_order).contains_one()


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality by mutual generator membership."""
    return (all(member(g, b) for g in a.generators)
            and all(member(g, a) for g in b.generators))


def hilbert_dimension(ideal: Ideal) -> int:
    """Krull dimension of the quotient ring, from leading monomials.

    The dimension is the largest size of a variable subset S such that
    no leading monomial of the reduced basis is supported inside S.
    """
    basis = ideal.groebner()
    if not basis:
        raise ZeroIdeal("zero ideal: dimension equals the variable count")
    if ideal.contains_one():
        raise UnitIdeal("unit ideal: the quotient ring is trivial")
    supports = [frozenset(leading_term(g, ideal.order)[0].variables()) for g in basis]
    variables = ideal.order.variables
    best = 0
    for size in range(len(variables), -1, -1):
        for subset in itertools.combinations(variables, size):
            s = frozenset(subset)
            if not any(sup <= s for sup in supports):
                return size
    return best


# ---- linear factors ----------------------------------------------------


def _divisors(n: int) -> List[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _rational_roots(f: Poly, v: VarId) -> List[Fraction]:
    """All rational roots of a univariate polynomial in v."""
    coeffs: Dict[int, Fraction] = {}
    for m, q in f.terms.items():
        e = m.exponent(v)
        if Monomial({v: e}) != m:
            raise IdealsError(f"{f} is not univariate in {v}")
        coeffs[e] = q
    if not coeffs:
        raise IdealsError("cannot enumerate roots of the zero polynomial")
    roots = []
    low = min(coeffs)
    if low > 0:
        roots.append(Fraction(0))
        coeffs = {e - low: q for e, q in coeffs.items()}
    if max(coeffs) == 0:
        return roots
    den = reduce(lcm, (q.denominator for q in coeffs.values()), 1)
    ints = {e: int(q * den) for e, q in coeffs.items()}
    a0 = ints[min(ints)]
    ad = ints[max(ints)]
    seen = set(roots)
    for p in _divisors(a0):
        for q in _divisors(ad):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in seen:
                    continue
                if sum(c * cand ** e for e, c in ints.items()) == 0:
                    seen.add(cand)
                    roots.append(cand)
    return roots


def _solve_zero_dimensional(polys: List[Poly], variables: List[VarId]) -> List[Dict[VarId, Fraction]]:
    """All rational solutions of a polynomial system expected to have
    finitely many solutions; recursive elimination on a lex basis."""
    polys = [p for p in polys if not p.is_zero()]
    if not variables:
        return [] if polys else [{}]
    if not polys:
        raise NotZeroDimensional("system has free variables")
    order = MonomialOrder("lex", tuple(variables))
    basis = buchberger(polys, order)
    if len(basis) == 1 and basis[0].is_constant():
        return []
    last = variables[-1]
    uni = [g for g in basis if all(v == last for v in g.variables())]
    if not uni:
        raise NotZeroDimensional(f"no univariate eliminant in {last}")
    roots = set(_rational_roots(uni[0], last))
    for g in uni[1:]:
        roots &= set(_rational_roots(g, last))
    solutions = []
    for r in sorted(roots):
        sub = [g.substitute({last: Poly.const(r)}) for g in basis]
        for partial in _solve_zero_dimensional(sub, variables[:-1]):
            partial = dict(partial)
            partial[last] = r
            solutions.append(partial)
    return solutions


def linear_factor(f: Poly) -> List[Poly]:
    """All linear polynomials dividing f, up to scale (possibly empty).

    Found by the substitution ansatz: a factor monic in a pivot
    variable v has the form v - h with h affine in the remaining
    variables, and divides f exactly when f becomes identically zero
    under v -> h; the resulting coefficient system in the unknown
    coefficients of h is solved exactly.
    """
    if f.is_zero():
        return []
    if f.has_negative_exponents():
        raise IdealsError("linear_factor expects a polynomial")

    factors: List[Poly] = []

    # monomial content contributes one linear factor per variable
    support = f.variables()
    content = {v: min(m.exponent(v) for m in f.terms) for v in support if
               min(m.exponent(v) for m in f.terms) >= 1}
    for v in content:
        factors.append(Poly.variable(v))
    content_mono = Monomial(content)
    f0 = Poly({_quotient(m, content_mono): q for m, q in f.terms.items()})

    degrees = {m.degree for m in f0.terms}
    homogeneous = len(degrees) == 1

    seen = {str(p) for p in factors}
    for v in f0.variables():
        rest = [w for w in f0.variables() if w != v]
        # one unknown per remaining variable, plus a constant term for
        # inhomogeneous inputs (factors of homogeneous f are homogeneous)
        unknowns = [VarId("t", i + 1) for i in range(len(rest) + (0 if homogeneous else 1))]
        h = Poly.zero()
        for u, w in zip(unknowns, rest):
            h = h + Poly.variable(u) * Poly.variable(w)
        if not homogeneous:
            h = h + Poly.variable(unknowns[-1])  # constant coefficient
        if not unknowns:
            # univariate homogeneous primitive part: c * v^d, content removed
            continue
        g = f0.substitute({v: h})
        system = list(g.collect(frozenset(ns for ns in ("b", "a", "c", "x", "p"))).values())
        for sol in _solve_zero_dimensional(system, unknowns):
            ell = Poly.variable(v)
            for u, w in zip(unknowns, rest):
                ell = ell - Poly.const(sol[u]) * Poly.variable(w)
            if not homogeneous:
                ell = ell - Poly.const(sol[unknowns[-1]])
            order = default_order(sorted(set(f.variables()) | set(ell.variables())))
            ell = primitive_normalized(ell, order)
            if str(ell) in seen:
                continue
            if normal_form(f, [ell], order).is_zero():
                seen.add(str(ell))
                factors.append(ell)
    factors.sort(key=str)
    return factors


# ---- Haantjes-zero ideal of a family ----------------------------------


def haantjes_zero_ideal(family: KillingFamily) -> Ideal:
    """Ideal of parameter conditions under which the family's Haantjes
    torsion vanishes identically in x."""
    h = haantjes(family_operator(family))
    order = default_order(sorted(family.params))
    gens: List[Poly] = []
    seen = set()
    for comp in h.components:
        for coeff in comp.collect(frozenset(("x",))).values():
            if coeff.is_zero():
                continue
            g = primitive_normalized(coeff, order)
            key = str(g)
            if key not in seen:
                seen.add(key)
                gens.append(g)
    # drop generators already implied by the others
    pruned: List[Poly] = []
    for g in sorted(gens, key=lambda p: (max(m.degree for m in p.terms), str(p))):
        if pruned and normal_form(g, pruned, order).is_zero():
            continue
        pruned.append(g)
    return Ideal(pruned, order)
