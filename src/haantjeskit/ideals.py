"""Groebner bases over the parameter subring Q[b1..bm] and the ideal
queries built on them: membership, radical membership (the square
first, then the extended ring with an auxiliary variable), Hilbert
dimension from leading monomials, and linear factors from rational
roots on lines.

Inside this module a monomial is its grevlex key over the order's
variables, (total degree, -e_n, ..., -e_1), and a polynomial is a
{key: int} map, primitive over Z (its coefficients have gcd 1) with a
positive leading coefficient: a rational multiple of the polynomial it
stands for, which generates the same ideal.  `Poly` and `Fraction` are
built only at the public boundary.  Keys sort in the order itself, a
product is componentwise addition, divisibility a componentwise
comparison and an lcm a componentwise minimum of the negated exponents.
Division is fraction-free: what is left is scaled by an integer before
each step instead of dividing by a leading coefficient, and the scale
is tracked, so the exact remainder over Q stays recoverable.  The
engine is a plain Buchberger loop with the coprimality criterion and
normal (smallest-lcm-first) pair selection; the scale of every ideal in
this package (degree <= 4 generators in at most 7 variables) keeps this
comfortably fast with exact coefficients.
"""

from __future__ import annotations

import bisect
import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, ge, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .symalg import Monomial, Poly, VarId, _var_key, exponent, mono_mul, monomial
from .haantjes import as_operator, haantjes
from .killing import KillingFamily


class IdealsError(Exception):
    pass


class ZeroIdeal(IdealsError):
    """The ideal has no nonzero generator."""


class UnitIdeal(IdealsError):
    """The ideal is the whole ring."""


Key = Tuple[int, ...]
Terms = Dict[Key, int]


class MonomialOrder:
    """Graded reverse lexicographic order on a fixed variable sequence:
    graded, ties broken by the smallest exponent in the last differing
    variable."""

    def __init__(self, variables: Sequence[VarId]):
        variables = self.variables = tuple(variables)
        n = len(variables)
        self._pos = {v: i for i, v in enumerate(variables)}
        # (key index, variable) in the canonical variable order of a monomial
        self._canon = tuple(sorted(((n - i, v) for i, v in enumerate(variables)),
                                   key=lambda iv: _var_key(iv[1])))

    def exp_vector(self, m: Monomial) -> Tuple[int, ...]:
        vec = [0] * len(self.variables)
        for v, e in m:
            i = self._pos.get(v)
            if i is None:
                raise IdealsError(f"variable {v} not in the order's ring")
            if e < 0:
                raise IdealsError("Laurent exponents are not allowed in ideals")
            vec[i] = e
        return tuple(vec)

    def key(self, m: Monomial) -> Key:
        """Grevlex key (total degree, -e_n, ..., -e_1); a larger key is
        a larger monomial."""
        vec = self.exp_vector(m)
        return (sum(vec), *(-e for e in reversed(vec)))

    def monomial(self, k: Key) -> Monomial:
        """The monomial with the given key."""
        return tuple((v, -k[i]) for i, v in self._canon if k[i])

    def extend(self, v: VarId) -> "MonomialOrder":
        return MonomialOrder(self.variables + (v,))


# ---- polynomial helpers relative to an order ---------------------------


def leading_term(f: Poly, order: MonomialOrder) -> Tuple[Monomial, Fraction]:
    if f.is_zero():
        raise IdealsError("zero polynomial has no leading term")
    m = max(f.terms, key=order.key)
    return m, f.terms[m]


def _quotient(b: Monomial, a: Monomial) -> Monomial:
    """b / a, for a monomial a that divides b."""
    return mono_mul(b, tuple((v, -e) for v, e in a))


def _lcm_mono(a: Monomial, b: Monomial) -> Monomial:
    return mono_mul(a, tuple(it for it in _quotient(b, a) if it[1] > 0))


# ---- keyed polynomials --------------------------------------------------


def _primitive(terms: Terms) -> Tuple[Terms, int]:
    """The nonzero int terms divided by their content c, signed so the
    leading coefficient is positive, and c (1 for no terms)."""
    if not terms:
        return terms, 1
    c = gcd(*terms.values())
    if terms[max(terms)] < 0:
        c = -c
    if c == 1:
        return terms, 1
    return {k: q // c for k, q in terms.items()}, c


def _keyed(f: Poly, order: MonomialOrder) -> Terms:
    """The keyed polynomial of f: denominators cleared, content divided
    out, leading coefficient positive."""
    den = reduce(lcm, (q.denominator for q in f.terms.values()), 1)
    return _primitive({order.key(m): q.numerator * (den // q.denominator)
                       for m, q in f.terms.items()})[0]


def _poly(terms: Terms, order: MonomialOrder, scale: Fraction) -> Poly:
    """The Poly scale * terms, for nonzero int coefficients and a nonzero
    scale."""
    return Poly._raw({order.monomial(k): scale * q for k, q in terms.items()})


def _divides(a: Key, b: Key) -> bool:
    return all(map(ge, a[1:], b[1:]))


def _lcm(a: Key, b: Key) -> Key:
    neg = tuple(map(min, a[1:], b[1:]))
    return (-sum(neg), *neg)


def normal_form(f: Poly, basis: Sequence[Poly], order: MonomialOrder) -> Poly:
    """Remainder of full multivariate division of f by the basis: each
    step divides the leading term of what is left by the first basis
    element, in list order, whose leading monomial divides it."""
    keyed = [_keyed(g, order) for g in basis]
    if not all(keyed):
        raise IdealsError("zero polynomial has no leading term")
    if f.is_zero():
        return f
    fk = _keyed(f, order)
    r, scale, content = _remainder(fk, keyed, [max(g) for g in keyed])
    # fk = s * f with s = fk[lm] / lc, and content * r = scale * s * (f's remainder)
    lm, lc = leading_term(f, order)
    return _poly(r, order, Fraction(content) * lc / (scale * fk[order.key(lm)]))


def _remainder(terms: Terms, basis: Sequence[Terms],
               lms: Sequence[Key]) -> Tuple[Terms, int, int]:
    """Fraction-free keyed normal form of the polynomial with the given
    int terms (zero coefficients allowed), given the leading key of each
    basis element: (r, scale, content), where r is primitive with a
    positive leading coefficient and content * r = scale * the exact
    remainder over Q; r is empty when that remainder is zero.

    To cancel a term q*k with a divisor of leading coefficient a, what
    is left and the remainder so far are scaled by a / gcd(a, q), and
    q / gcd(a, q) times the shifted divisor is subtracted.  The pending
    keys stay sorted; every term a division step brings in is smaller
    than the term it removes, so each key is taken at most once."""
    coeffs = dict(terms)
    pending = sorted(coeffs)
    tails = [lm[1:] for lm in lms]
    remainder: Terms = {}
    scale = 1
    while pending:
        k = pending.pop()
        q = coeffs.pop(k)
        if not q:
            continue
        kt = k[1:]
        for g, glm, gt in zip(basis, lms, tails):
            if all(map(ge, gt, kt)):  # glm divides k
                a = g[glm]
                d = gcd(a, q)
                if d != a:
                    m = a // d
                    scale *= m
                    for ck in coeffs:
                        coeffs[ck] *= m
                    for rk in remainder:
                        remainder[rk] *= m
                c = q // d
                t = tuple(map(sub, k, glm))
                for gk, gq in g.items():
                    if gk == glm:
                        continue  # cancels the leading term exactly
                    mk = tuple(map(add, gk, t))
                    if mk in coeffs:
                        coeffs[mk] -= c * gq
                    else:
                        coeffs[mk] = -c * gq
                        bisect.insort(pending, mk)
                break
        else:
            remainder[k] = q
    r, content = _primitive(remainder)
    return r, scale, content


def s_polynomial(f: Poly, g: Poly, order: MonomialOrder) -> Poly:
    """S-polynomial by plain Poly arithmetic: the reference that checks
    and tests hold buchberger's own _s_terms against."""
    fm, fc = leading_term(f, order)
    gm, gc = leading_term(g, order)
    l = _lcm_mono(fm, gm)
    return (f * Poly.term(_quotient(l, fm), 1 / fc)
            - g * Poly.term(_quotient(l, gm), 1 / gc))


def _s_terms(f: Terms, fm: Key, g: Terms, gm: Key) -> Terms:
    """Terms of (b/d) t_f f - (a/d) t_g g for the keyed f and g with
    leading keys fm and gm, leading coefficients a and b, d = gcd(a, b)
    and t_f, t_g the cofactors of the lcm of the leading monomials:
    lcm(a, b) times their S-polynomial.  The leading terms, which cancel
    exactly, are left out; other coefficients may cancel to zero and
    are kept."""
    l = _lcm(fm, gm)
    a, b = f[fm], g[gm]
    d = gcd(a, b)
    out: Terms = {}
    for h, hm, c in ((f, fm, b // d), (g, gm, -(a // d))):
        t = tuple(map(sub, l, hm))
        for k, q in h.items():
            if k != hm:
                k = tuple(map(add, k, t))
                out[k] = out.get(k, 0) + c * q
    return out


def primitive_normalized(f: Poly, order: MonomialOrder) -> Poly:
    """Integer-primitive scalar multiple with positive leading coefficient."""
    return _poly(_keyed(f, order), order, Fraction(1))


def buchberger(generators: Sequence[Poly], order: MonomialOrder) -> List[Poly]:
    """Unique reduced Groebner basis of the generators."""
    basis = [_keyed(g, order) for g in generators if not g.is_zero()]
    return [_poly(g, order, Fraction(1, g[max(g)])) for g in _groebner(basis)]


def _groebner(basis: List[Terms]) -> List[Terms]:
    """Reduced Groebner basis of nonzero keyed polynomials, keyed and
    sorted by leading key, largest first; extends `basis` in place."""
    if not basis:
        return []
    lms = [max(g) for g in basis]
    pairs: List[tuple] = []  # (lcm key, i, j), sorted

    def add_pairs(j):
        for i in range(j):
            l = _lcm(lms[i], lms[j])
            if l[0] != lms[i][0] + lms[j][0]:  # coprime leading monomials reduce to zero
                bisect.insort(pairs, (l, i, j))

    for j in range(1, len(basis)):
        add_pairs(j)
    while pairs:
        _, i, j = pairs.pop(0)
        rem = _remainder(_s_terms(basis[i], lms[i], basis[j], lms[j]), basis, lms)[0]
        if rem:
            basis.append(rem)
            lms.append(max(rem))
            add_pairs(len(basis) - 1)
    return _reduce_basis(basis, lms)


def _reduce_basis(basis: List[Terms], lms: List[Key]) -> List[Terms]:
    # minimal basis: drop elements whose leading monomial another divides
    keep = [i for i, lm in enumerate(lms)
            if not any(j != i and _divides(lms[j], lm) and (lms[j] != lm or j < i)
                       for j in range(len(basis)))]
    minimal = [basis[i] for i in keep]
    mlms = [lms[i] for i in keep]
    # tail-reduce each element modulo the others (leading monomials of a
    # minimal basis are stable under this, so one pass suffices)
    reduced = []
    for i, g in enumerate(minimal):
        r = _remainder(g, minimal[:i] + minimal[i + 1:], mlms[:i] + mlms[i + 1:])[0]
        if r:
            reduced.append(r)
    reduced.sort(key=max, reverse=True)
    return reduced


class Ideal:
    """Finitely generated ideal in the polynomial ring of its order."""

    def __init__(self, generators: List[Poly], order: MonomialOrder):
        self.generators = generators
        self.order = order
        self._basis: Optional[List[Poly]] = None
        # the same basis keyed, with its leading keys
        self._keyed: Optional[Tuple[List[Terms], List[Key]]] = None

    def groebner(self) -> List[Poly]:
        """Reduced Groebner basis (cached; write-once)."""
        if self._basis is None:
            self._basis = buchberger(self.generators, self.order)
        return self._basis

    def _keyed_basis(self) -> Tuple[List[Terms], List[Key]]:
        """The reduced Groebner basis keyed (primitive over Z, like every
        keyed polynomial), with its leading keys (cached; write-once),
        for the queries of this module."""
        if self._keyed is None:
            basis = [_keyed(g, self.order) for g in self.groebner()]
            self._keyed = basis, [max(g) for g in basis]
        return self._keyed

    def contains_one(self) -> bool:
        g = self.groebner()
        return len(g) == 1 and g[0].is_constant()


def member(f: Poly, ideal: Ideal) -> bool:
    """Exact ideal membership by zero normal form."""
    basis, lms = ideal._keyed_basis()
    if not basis:
        return f.is_zero()
    return not _remainder(_keyed(f, ideal.order), basis, lms)[0]


_T = VarId("t", 1)


def radical_member(f: Poly, ideal: Ideal) -> bool:
    """Radical membership: f^2 in I (against I's own Groebner basis),
    or else 1 in I + <1 - t f> in the extended ring."""
    if f.is_zero() or member(f * f, ideal):
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
    supports = [frozenset(v for v, _ in leading_term(g, ideal.order)[0]) for g in basis]
    variables = ideal.order.variables
    # the empty subset always qualifies: no leading monomial is constant
    for size in range(len(variables), -1, -1):
        for subset in itertools.combinations(variables, size):
            s = frozenset(subset)
            if not any(sup <= s for sup in supports):
                return size


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


def _rational_roots(coeffs: Dict[int, Fraction]) -> List[Fraction]:
    """All rational roots of the nonzero univariate polynomial with the
    given coefficient for each power, by the rational root theorem."""
    low = min(coeffs)
    roots = [Fraction(0)] if low > 0 else []
    den = reduce(lcm, (q.denominator for q in coeffs.values()), 1)
    num = reduce(gcd, (q.numerator for q in coeffs.values()), 0)
    ints = {e - low: int(q * den / num) for e, q in coeffs.items()}
    d = max(ints)
    if d == 0:
        return roots
    for p in _divisors(ints[0]):
        for q in _divisors(ints[d]):
            if gcd(p, q) != 1:
                continue
            for s in (p, -p):
                if sum(c * s ** e * q ** (d - e) for e, c in ints.items()) == 0:
                    roots.append(Fraction(s, q))
    return roots


def _restriction(f: Poly, v: VarId, point: Dict[VarId, int]) -> Dict[int, Fraction]:
    """Nonzero coefficients, by power of v, of f with every other
    variable fixed at the point."""
    coeffs: Dict[int, Fraction] = {}
    for m, q in f.terms.items():
        for w, e in m:
            if w != v:
                q *= point[w] ** e
        k = exponent(m, v)
        coeffs[k] = coeffs.get(k, 0) + q
    return {e: q for e, q in coeffs.items() if q}


def linear_factor(f: Poly) -> List[Poly]:
    """All linear polynomials dividing f, up to scale (possibly empty).

    Found from rational roots on lines.  Each variable dividing every
    term is a factor; every other factor divides the content-free part
    f0.  For a pivot variable v and the remaining variables w, a factor
    v - h with h affine in w makes h(p) a rational root of the
    univariate restriction f0(v, p) wherever that restriction is not
    identically zero.  The roots r0 at a base point p0 and r_w at
    p0 + e_w for each w give one candidate per combination, with slope
    r_w - r0 in w.  A candidate is kept when h(q) is also a root at one
    more, widely drawn point q (a cheap screen) and it divides f
    exactly.  Points come from a fixed-seed generator whose range
    widens after every base point with an identically zero restriction,
    so the search ends for every nonzero f and the result never
    depends on the points drawn.
    """
    if f.is_zero():
        return []
    if f.has_negative_exponents():
        raise IdealsError("linear_factor expects a polynomial")

    # monomial content contributes one linear factor per variable
    content = monomial({v: min(exponent(m, v) for m in f.terms)
                        for v in f.variables()})
    factors = [Poly.variable(v) for v, _ in content]
    f0 = Poly._raw({_quotient(m, content): q for m, q in f.terms.items()})

    order = MonomialOrder(sorted(f.variables()))
    seen = {str(p) for p in factors}
    rng = random.Random(0)
    for v in f0.variables():
        rest = [w for w in f0.variables() if w != v]
        bound = 2
        while True:
            p0 = {w: rng.randint(-bound, bound) for w in rest}
            points = [p0] + [{**p0, w: p0[w] + 1} for w in rest]
            restrictions = [_restriction(f0, v, p) for p in points]
            if all(restrictions):
                break
            bound *= 2
        r0s, *line_roots = [_rational_roots(r) for r in restrictions]
        q = {w: rng.randint(-999, 999) for w in rest}
        at_q = _restriction(f0, v, q)
        for r0 in r0s:
            for rs in itertools.product(*line_roots):
                h_q = r0 + sum((r - r0) * (q[w] - p0[w]) for w, r in zip(rest, rs))
                if sum(c * h_q ** e for e, c in at_q.items()) != 0:
                    continue
                ell = Poly.variable(v) - r0
                for w, r in zip(rest, rs):
                    ell = ell - (r - r0) * (Poly.variable(w) - p0[w])
                ell = primitive_normalized(ell, order)
                if str(ell) not in seen and normal_form(f, [ell], order).is_zero():
                    seen.add(str(ell))
                    factors.append(ell)
    factors.sort(key=str)
    return factors


# ---- Haantjes-zero ideal of a family ----------------------------------


def haantjes_zero_ideal(family: KillingFamily) -> Ideal:
    """Ideal of parameter conditions under which the family's Haantjes
    torsion vanishes identically in x."""
    h = haantjes(as_operator(family.tensor))
    order = MonomialOrder(sorted(family.params))
    # each primitive generator and its keyed form, by printed form,
    # which is canonical
    gens: Dict[str, Tuple[Poly, Terms]] = {}
    # H^i_kj = -H^i_jk normalizes to the same generator and H^i_jj = 0,
    # so the components with j < k give every generator
    for (i, j, k) in h.indices():
        if j >= k:
            continue
        for coeff in h[(i, j, k)].collect(frozenset(("x",))).values():
            if not coeff.is_zero():
                keyed = _keyed(coeff, order)
                g = _poly(keyed, order, Fraction(1))
                gens.setdefault(str(g), (g, keyed))
    # drop generators already implied by the others, lowest degree first
    pruned: List[Poly] = []
    basis: List[Terms] = []
    lms: List[Key] = []
    for text in sorted(gens, key=lambda t: (max(gens[t][1])[0], t)):
        g, k = gens[text]
        if basis and not _remainder(k, basis, lms)[0]:
            continue
        pruned.append(g)
        basis.append(k)
        lms.append(max(k))
    return Ideal(pruned, order)
