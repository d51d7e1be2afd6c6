"""Exact multivariate Laurent-polynomial arithmetic over the rationals.

A polynomial is a dictionary mapping monomials to nonzero Fraction
coefficients; the zero polynomial has an empty term map, so equality of
term maps is equality of polynomials (canonical form).

Variables are namespaced:

  x  positions          (Laurent: negative exponents allowed)
  p  momenta
  b  family parameters
  a  potential parameters
  c  integral coefficients
  t  auxiliary variables (radical membership)

Only x-variables may carry negative exponents; every denominator that
occurs in the computations this package targets is a monomial in the
positions, so a full fraction field is never needed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, Mapping, NamedTuple, Tuple, Union

NAMESPACES = ("x", "p", "b", "a", "c", "t")
_NS_RANK = {ns: i for i, ns in enumerate(NAMESPACES)}

# Namespaces whose indices may start at 0 (potential parameters are
# conventionally numbered a0, a1, ...).
_ZERO_INDEXED = ("a", "c")


class SymalgError(Exception):
    """Base class for errors raised by the algebra layer."""


class ParseError(SymalgError):
    """Raised when polynomial text does not conform to the grammar."""


class PrintError(SymalgError):
    """Raised when a number has more digits than Python prints."""


class NonInvertibleSubstitution(SymalgError):
    """Raised when a variable with a negative exponent is bound to a
    replacement that is not an invertible (single-term) monomial."""


class LogarithmicTerm(SymalgError):
    """Raised when integration would produce a logarithm (exponent -1)."""


class VarId(NamedTuple):
    ns: str
    index: int

    def __str__(self) -> str:
        return f"{self.ns}{self.index}"


def var(name: str) -> VarId:
    """Build a VarId from text like ``x1`` or ``b4``."""
    m = re.fullmatch(r"([a-z])(\d+)", name)
    if not m:
        raise ParseError(f"malformed variable name {name!r}")
    v = VarId(m.group(1), _digits(m.group(2)))
    _check_var(v)
    return v


def _digits(numeral: str) -> int:
    """The int of a decimal numeral; one longer than Python converts
    (sys.get_int_max_str_digits()) is a ParseError."""
    try:
        return int(numeral)
    except ValueError:
        raise ParseError(f"numeral of {len(numeral)} digits is too long") from None


def _check_var(v: VarId) -> None:
    if v.ns not in _NS_RANK:
        raise ParseError(f"unknown namespace {v.ns!r}")
    lo = 0 if v.ns in _ZERO_INDEXED else 1
    if v.index < lo:
        raise ParseError(f"index of {v.ns}-variable must be >= {lo}")


def _var_key(v: VarId) -> Tuple[int, int]:
    return (_NS_RANK[v.ns], v.index)


def _item_key(item: Tuple[VarId, int]) -> Tuple[int, int]:
    return _var_key(item[0])


# A monomial is a product of variable powers: the tuple of its
# (VarId, exponent) pairs, sorted by _var_key, with no zero exponent and
# negative exponents only on x-variables.  It hashes and compares as
# the tuple it is.
Monomial = Tuple[Tuple[VarId, int], ...]


def monomial(exps: Union[Mapping[VarId, int], Iterable[Tuple[VarId, int]]]) -> Monomial:
    """The monomial of an exponent map or of (variable, exponent) pairs,
    in which the exponents of a repeated variable add up; a negative
    exponent off the x-variables raises ValueError."""
    items = exps.items() if isinstance(exps, Mapping) else exps
    acc: Dict[VarId, int] = {}
    for v, e in items:
        if e < 0 and v.ns != "x":
            raise ValueError(f"negative exponent on {v} (only x-variables are Laurent)")
        acc[v] = acc.get(v, 0) + int(e)
    return tuple(sorted([it for it in acc.items() if it[1]], key=_item_key))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials.  Only x-exponents can be negative
    in either factor, so the product is valid and needs no
    re-validation.  Both are sorted, so the product is their linear
    merge, dropping the exponents that cancel."""
    if not b:
        return a
    if not a:
        return b
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    ka, kb = _item_key(a[0]), _item_key(b[0])
    while True:
        if ka < kb:
            out.append(a[i])
            i += 1
            if i == la:
                break
            ka = _item_key(a[i])
        elif kb < ka:
            out.append(b[j])
            j += 1
            if j == lb:
                break
            kb = _item_key(b[j])
        else:
            e = a[i][1] + b[j][1]
            if e:
                out.append((a[i][0], e))
            i += 1
            j += 1
            if i == la or j == lb:
                break
            ka, kb = _item_key(a[i]), _item_key(b[j])
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def exponent(m: Monomial, v: VarId) -> int:
    for w, e in m:
        if w == v:
            return e
    return 0


def mono_sort_key(m: Monomial):
    # Graded ordering on the canonical variable sequence; used only for
    # deterministic printing.
    return (-sum(e for _, e in m), tuple((_NS_RANK[ns], i, -e) for (ns, i), e in m))


def mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(f"{ns}{i}" if e == 1 else f"{ns}{i}^{e}" for (ns, i), e in m)


Scalar = Union[int, Fraction]
PolyLike = Union["Poly", int, Fraction]


class Poly:
    """Sparse Laurent polynomial with exact rational coefficients.

    Instances are treated as immutable values; all operations return new
    polynomials in canonical form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] = ()):
        # Each key passes through monomial(), so keys that name one
        # monomial in two ways add up.
        acc: Dict[Monomial, Fraction] = {}
        items = terms.items() if isinstance(terms, Mapping) else terms
        for m, q in items:
            m = monomial(m)
            acc[m] = acc.get(m, 0) + Fraction(q)
        self.terms = {m: q for m, q in acc.items() if q}

    # ---- constructors -------------------------------------------------

    @classmethod
    def _raw(cls, terms: Dict[Monomial, Fraction]) -> "Poly":
        """Trusted constructor: wraps, without copying, a dict that
        already holds only nonzero Fraction coefficients."""
        p = object.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def zero(cls) -> "Poly":
        return cls._raw({})

    @classmethod
    def const(cls, q: Scalar) -> "Poly":
        return cls.term((), q)

    @classmethod
    def variable(cls, v: VarId, e: int = 1) -> "Poly":
        return cls._raw({monomial(((v, e),)): Fraction(1)})

    @classmethod
    def term(cls, m: Union[Mapping[VarId, int], Iterable[Tuple[VarId, int]]],
             q: Scalar) -> "Poly":
        """q times the monomial of m, which passes through `monomial`."""
        if type(q) is not Fraction:
            q = Fraction(q)
        return cls._raw({monomial(m): q} if q else {})

    # ---- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def variables(self) -> Tuple[VarId, ...]:
        seen = set()
        for m in self.terms:
            seen.update(v for v, _ in m)
        return tuple(sorted(seen, key=_var_key))

    def has_negative_exponents(self) -> bool:
        return any(e < 0 for m in self.terms for _, e in m)

    # ---- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other: PolyLike) -> "Poly":
        if isinstance(other, Poly):
            return other
        return Poly.const(other)

    def __add__(self, other: PolyLike) -> "Poly":
        return Poly._raw(_add_terms(self.terms, self._coerce(other).terms, 1))

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -q for m, q in self.terms.items()})

    def __sub__(self, other: PolyLike) -> "Poly":
        return Poly._raw(_add_terms(self.terms, self._coerce(other).terms, -1))

    def __rsub__(self, other: PolyLike) -> "Poly":
        return Poly._raw(_add_terms(self._coerce(other).terms, self.terms, -1))

    def __mul__(self, other: PolyLike) -> "Poly":
        other = self._coerce(other)
        acc: Dict[Monomial, Fraction] = {}
        get = acc.get
        mul = mono_mul
        for m1, q1 in self.terms.items():
            for m2, q2 in other.terms.items():
                m = mul(m1, m2)
                q = get(m)
                acc[m] = q1 * q2 if q is None else q + q1 * q2
        # A cancelled term keeps its place until the end, so a later
        # product landing on the same monomial does not reorder terms.
        return Poly._raw({m: q for m, q in acc.items() if q})

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        # square only while higher bits remain, and start from the
        # first factor rather than from the constant 1
        out = None
        base = self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return Poly.const(1) if out is None else out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.terms == other.terms

    # ---- calculus ------------------------------------------------------

    def diff(self, v: VarId) -> "Poly":
        """Term-wise power-rule derivative with respect to v."""
        # Distinct terms have distinct derivatives, so nothing collects.
        acc: Dict[Monomial, Fraction] = {}
        for m, q in self.terms.items():
            for pos, (w, e) in enumerate(m):
                if w == v:
                    lowered = ((v, e - 1),) if e != 1 else ()
                    acc[m[:pos] + lowered + m[pos + 1:]] = q * e
                    break
        return Poly._raw(acc)

    def integrate(self, v: VarId) -> "Poly":
        """Antiderivative in v with zero integration constant.

        Raises LogarithmicTerm if any term has exponent -1 in v.
        """
        # Distinct terms have distinct antiderivatives, so nothing collects.
        step = ((v, 1),)
        acc: Dict[Monomial, Fraction] = {}
        for m, q in self.terms.items():
            e = exponent(m, v)
            if e == -1:
                raise LogarithmicTerm(f"term {mono_str(m)} integrates to a logarithm in {v}")
            acc[mono_mul(m, step)] = q / (e + 1)
        return Poly._raw(acc)

    # ---- substitution and collection ----------------------------------

    def substitute(self, bindings: Mapping[VarId, PolyLike]) -> "Poly":
        """Simultaneous substitution of variables by polynomials.

        A variable occurring with a negative exponent may only be bound
        to a single-term monomial whose inverse is again a valid
        monomial; otherwise NonInvertibleSubstitution is raised.
        """
        binds = {v: self._coerce(p) for v, p in bindings.items()}
        out = Poly.zero()
        for m, q in self.terms.items():
            factor = Poly.const(q)
            untouched = {}
            for v, e in m:
                repl = binds.get(v)
                if repl is None:
                    untouched[v] = e
                elif e >= 0:
                    factor = factor * repl ** e
                else:
                    factor = factor * _invert_power(v, repl, e)
            out = out + factor * Poly.term(untouched, 1)
        return out

    def collect(self, namespaces) -> Dict[Monomial, "Poly"]:
        """Group terms by their monomial part in the given namespaces.

        Returns a map whose keys contain only variables from
        `namespaces` and whose values contain none of them; the sum of
        key * value over the map reproduces the polynomial.
        """
        # A monomial is the product of its two parts in exactly one way,
        # so no coefficient collects or cancels.
        namespaces = frozenset(namespaces)
        groups: Dict[Monomial, Dict[Monomial, Fraction]] = {}
        for m, q in self.terms.items():
            inside = tuple(it for it in m if it[0].ns in namespaces)
            outside = tuple(it for it in m if it[0].ns not in namespaces)
            groups.setdefault(inside, {})[outside] = q
        return {m: Poly._raw(terms) for m, terms in groups.items()}

    def evaluate(self, point: Mapping[VarId, Scalar]) -> Fraction:
        """Evaluate at a rational point that binds every variable
        occurring in the polynomial.

        Raises NonInvertibleSubstitution for a negative power of a
        variable bound to 0, and ValueError for an occurring variable
        the point leaves unbound, even where its terms would cancel.
        """
        total = Fraction(0)
        for m, q in self.terms.items():
            for v, e in m:
                if v not in point:
                    raise ValueError(f"{v} occurs but is not bound by the point")
                if e > 0:
                    q *= point[v] ** e
                elif point[v]:
                    q *= Fraction(point[v]) ** e
                else:
                    raise NonInvertibleSubstitution(
                        f"{v} occurs with exponent {e} but is bound to the non-monomial 0")
            total += q
        return total

    # ---- printing ------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]))
        chunks = []
        try:
            for i, (m, q) in enumerate(items):
                num, den = q.numerator, q.denominator
                sign = "-" if num < 0 else "+"
                mag = f"{abs(num)}/{den}" if den != 1 else str(abs(num))
                if not m:
                    body = mag
                elif mag == "1":
                    body = mono_str(m)
                else:
                    body = f"{mag}*{mono_str(m)}"
                if i == 0:
                    chunks.append(body if sign == "+" else f"-{body}")
                else:
                    chunks.append(f" {sign} {body}")
        except ValueError:  # beyond sys.get_int_max_str_digits()
            raise PrintError("a number has too many digits to print") from None
        return "".join(chunks)

    def __repr__(self):
        return f"Poly({str(self)})"


def _add_terms(a: Dict[Monomial, Fraction], b: Dict[Monomial, Fraction],
               sign: int) -> Dict[Monomial, Fraction]:
    """Term map of a + sign*b (sign is 1 or -1); a term that cancels is
    removed where it cancels."""
    acc = dict(a)
    for m, q in b.items():
        r = acc.get(m)
        if r is None:
            acc[m] = q if sign > 0 else -q
        else:
            r = r + q if sign > 0 else r - q
            if r:
                acc[m] = r
            else:
                del acc[m]
    return acc


def _invert_power(v: VarId, repl: Poly, e: int) -> Poly:
    """repl**e for negative e; repl must be a unit monomial."""
    if len(repl.terms) != 1:
        raise NonInvertibleSubstitution(
            f"{v} occurs with exponent {e} but is bound to the non-monomial {repl}")
    (m, q), = repl.terms.items()
    try:
        return Poly.term({w: k * e for w, k in m}, q ** e)
    except ValueError as exc:
        raise NonInvertibleSubstitution(
            f"{v} occurs with exponent {e}; inverse of {repl} is not a valid monomial") from exc


# ---- text grammar -----------------------------------------------------
#
# poly   := term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := rational | variable ['^' exponent]
# rational := ['-'] digits ['/' digits]
# exponent := ['-'] digits        (the token '-0' is rejected)

_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<var>[a-z]\d+)|(?P<op>[-+*^]))")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"unexpected input at {text[pos:pos + 10]!r}")
        pos = m.end()
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("var"):
            out.append(("var", m.group("var")))
        else:
            out.append(("op", m.group("op")))
    return out


def parse_poly(text: str) -> Poly:
    """Parse the interchange text syntax into a Poly."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty polynomial text")
    result = Poly.zero()
    i = 0
    n = len(toks)
    while i < n:
        sign = 1
        while i < n and toks[i] == ("op", "+") or i < n and toks[i] == ("op", "-"):
            if toks[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ParseError("dangling sign at end of input")
        coeff = Fraction(sign)
        mono: Dict[VarId, int] = {}
        expect_factor = True
        while i < n:
            kind, val = toks[i]
            if kind == "op" and val in "+-" and not expect_factor:
                break
            if kind == "num":
                num, _, den = val.partition("/")
                try:
                    coeff *= Fraction(_digits(num), _digits(den or "1"))
                except ZeroDivisionError:
                    raise ParseError(f"zero denominator in {val}") from None
                i += 1
            elif kind == "var":
                v = var(val)
                e = 1
                i += 1
                if i < n and toks[i] == ("op", "^"):
                    i += 1
                    neg = False
                    if i < n and toks[i] == ("op", "-"):
                        neg = True
                        i += 1
                    if i >= n or toks[i][0] != "num" or "/" in toks[i][1]:
                        raise ParseError(f"malformed exponent after {val}")
                    e = _digits(toks[i][1])
                    if neg and e == 0:
                        raise ParseError("exponent -0 is not allowed")
                    if neg:
                        e = -e
                    i += 1
                if e < 0 and v.ns != "x":
                    raise ParseError(f"negative exponent on {v} (only x-variables are Laurent)")
                mono[v] = mono.get(v, 0) + e
            else:
                raise ParseError(f"unexpected token {val!r}")
            expect_factor = False
            if i < n and toks[i] == ("op", "*"):
                i += 1
                expect_factor = True
                continue
            if i < n and toks[i][0] == "op" and toks[i][1] in "+-":
                break
            if i < n and toks[i][0] != "op":
                raise ParseError("missing operator between factors")
        if expect_factor:
            raise ParseError("dangling '*' in term")
        result = result + Poly.term(mono, coeff)
    return result
