"""Laurent-polynomial arithmetic, parsing and calculus."""

import random
import sys
from fractions import Fraction

import pytest

from haantjeskit.symalg import (LogarithmicTerm, NonInvertibleSubstitution,
                                ParseError, Poly, PrintError, exponent,
                                mono_mul, monomial, parse_poly, var)


def random_poly(rng, variables, max_terms=4, max_degree=4):
    total = Poly.zero()
    for _ in range(rng.randint(1, max_terms)):
        term = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_degree)):
            term = term * Poly.variable(rng.choice(variables))
        total = total + term
    return total


VARS = [var(s) for s in ("x1", "x2", "x3", "b1", "b2", "p1")]
LAURENT_VARS = [var(s) for s in ("x1", "x2", "p1", "p2", "b1", "b2", "a0", "a1")]
LAURENT_XB = [var(s) for s in ("x1", "x2", "x3", "b1", "b2")]
# Python's limit on the digits of an int-string conversion (0: none).
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def random_laurent(rng, max_terms=5):
    """Poly built only by the validating public constructors: exponents
    in -2..3 on x-variables and 0..3 on b-variables."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(-2 if v.ns == "x" else 0, 3)
                for v in rng.sample(LAURENT_XB, rng.randint(0, 3))}
        terms[monomial(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(terms)


def public(pairs):
    """Poly of (exponent map, coefficient) pairs, each monomial and the
    sum built by the validating public constructors."""
    acc = {}
    for exps, q in pairs:
        m = monomial(exps)
        acc[m] = acc.get(m, 0) + q
    return Poly(acc)


def shifted(m, v, de):
    exps = dict(m)
    exps[v] = exps.get(v, 0) + de
    return exps


def products(f, g):
    """(exponent map, coefficient) of every term pair of f and g."""
    return [({w: exponent(m1, w) + exponent(m2, w) for w in LAURENT_XB}, q1 * q2)
            for m1, q1 in f.terms.items() for m2, q2 in g.terms.items()]


def assert_canonical(p):
    """Only nonzero Fraction coefficients, on monomials that the
    validating constructor rebuilds unchanged."""
    for m, q in p.terms.items():
        assert type(q) is Fraction and q != 0
        assert monomial(dict(m)) == m


class TestRingAxioms:
    def test_random_triples(self):
        rng = random.Random(0)
        for _ in range(100):
            f, g, h = (random_poly(rng, VARS) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * g == g * f
            assert f * (g + h) == f * g + f * h

    def test_cancellation_is_canonical(self):
        rng = random.Random(1)
        for _ in range(20):
            for f in (random_poly(rng, VARS), random_laurent(rng)):
                assert (f - f).terms == {}
                assert (f - f).is_zero()
                assert (f + (-f)).terms == {} and (f * 0).terms == {}

    def test_power(self, monkeypatch):
        f = parse_poly("x1 + 2*b1 - x2^-1")
        product = Poly.const(1)
        powers = []
        for _ in range(6):
            powers.append(product)
            product = product * f
        calls = []
        mul = Poly.__mul__

        def counted(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(Poly, "__mul__", counted)
        counts = []
        for e, want in enumerate(powers):
            calls.clear()
            assert f ** e == want
            counts.append(len(calls))
        # binary powering: no squaring past the last bit, no product with 1
        assert counts == [0, 0, 1, 2, 2, 3]


class TestParsing:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_poly(rng, VARS)
            assert parse_poly(str(f)) == f

    def test_rational_coefficients(self):
        f = parse_poly("3/4*x1^2 - 1/2*x2")
        assert f.terms[monomial({var("x1"): 2})] == Fraction(3, 4)
        assert f.terms[monomial({var("x2"): 1})] == Fraction(-1, 2)

    def test_negative_exponent_on_x(self):
        f = parse_poly("x1^-2")
        assert f.terms[monomial({var("x1"): -2})] == 1

    def test_negative_exponent_rejected_off_x(self):
        with pytest.raises(ParseError):
            parse_poly("b4^-1")

    def test_minus_zero_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("b4^-0")

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("1/0*x1")

    def test_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("x1 $ x2")

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int-string digit limit")
    @pytest.mark.parametrize("template", ["{}*x1^3", "x1^{}", "x{}", "1/{}"])
    def test_overlong_numeral_rejected(self, template):
        with pytest.raises(ParseError):
            parse_poly(template.format("1" * (INT_DIGIT_LIMIT + 1)))

    def test_whitespace_ignored(self):
        assert parse_poly(" x1 + 2 * x2 ") == parse_poly("x1+2*x2")


class TestCalculus:
    def test_differentiate(self):
        assert parse_poly("x1^2").diff(var("x1")) == parse_poly("2*x1")
        assert parse_poly("x1^-2").diff(var("x1")) == parse_poly("-2*x1^-3")

    def test_leibniz(self):
        rng = random.Random(3)
        v = var("x1")
        for _ in range(30):
            f, g = random_poly(rng, VARS), random_poly(rng, VARS)
            assert (f * g).diff(v) == f.diff(v) * g + g.diff(v) * f

    def test_integrate_inverts_differentiate(self):
        rng = random.Random(4)
        v = var("x1")
        for _ in range(30):
            f = random_poly(rng, VARS)
            assert f.integrate(v).diff(v) == f

    def test_integrate_monomials(self):
        assert parse_poly("2*x1").integrate(var("x1")) == parse_poly("x1^2")
        assert parse_poly("-2*x1^-3").integrate(var("x1")) == parse_poly("x1^-2")

    def test_logarithmic_term(self):
        with pytest.raises(LogarithmicTerm):
            parse_poly("x1^-1").integrate(var("x1"))


class TestSubstitution:
    def test_simultaneous(self):
        f = parse_poly("x1*x2")
        out = f.substitute({var("x1"): parse_poly("x2"),
                            var("x2"): parse_poly("x1")})
        assert out == f

    def test_negative_power_of_monomial(self):
        f = parse_poly("x1^-2")
        out = f.substitute({var("x1"): parse_poly("2*x2")})
        assert out == parse_poly("1/4*x2^-2")

    def test_non_invertible(self):
        with pytest.raises(NonInvertibleSubstitution):
            parse_poly("x1^-1").substitute({var("x1"): parse_poly("x1 + 1")})

    def test_evaluate(self):
        f = parse_poly("x1^2 + x2^-1")
        val = f.evaluate({var("x1"): Fraction(3), var("x2"): Fraction(1, 2)})
        assert val == Fraction(11)

    @staticmethod
    def substituted_value(f, point):
        """Reference value: substitute constants, then read the constant."""
        try:
            out = f.substitute({v: Poly.const(q) for v, q in point.items()})
        except NonInvertibleSubstitution as exc:
            return type(exc)
        assert out.is_constant()
        return out.terms.get((), Fraction(0))

    def test_evaluate_matches_substitution(self):
        rng = random.Random(2)
        for _ in range(200):
            inverse = Poly.variable(rng.choice(LAURENT_VARS[:2]), -rng.randint(1, 2))
            f = random_poly(rng, LAURENT_VARS) + random_poly(rng, LAURENT_VARS) * inverse
            point = {v: rng.choice([Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                    rng.randint(-3, 3)])
                     for v in LAURENT_VARS}
            try:
                got = f.evaluate(point)
            except NonInvertibleSubstitution as exc:
                got = type(exc)
            assert got == self.substituted_value(f, point)
            if not isinstance(got, type):
                assert type(got) is Fraction
            # leave one occurring variable unbound, the others nonzero
            occurring = f.variables()
            if occurring:
                unbound = rng.choice(occurring)
                with pytest.raises(ValueError):
                    f.evaluate({v: q or 1 for v, q in point.items() if v != unbound})

    def test_evaluate_errors(self):
        with pytest.raises(ValueError):
            parse_poly("x1 + b1").evaluate({var("x1"): 2})
        with pytest.raises(NonInvertibleSubstitution):
            parse_poly("x1^-1").evaluate({var("x1"): 0})
        # an unbound variable raises even where its terms vanish
        with pytest.raises(ValueError):
            parse_poly("b1*x2 + 3").evaluate({var("b1"): 0})


class TestCollect:
    def test_collect_by_namespace(self):
        f = parse_poly("b1*x1^2 + b2*x1^2 + b1*x2")
        grouped = f.collect(("x",))
        assert len(grouped) == 2
        assert grouped[monomial({var("x1"): 2})] == parse_poly("b1 + b2")
        assert grouped[monomial({var("x2"): 1})] == parse_poly("b1")


class TestStr:
    def test_deterministic(self):
        f = parse_poly("x2 + x1 + b1")
        assert str(f) == str(parse_poly(str(f)))

    def test_zero(self):
        assert str(Poly.zero()) == "0"

    @pytest.mark.skipif(not INT_DIGIT_LIMIT, reason="no int-string digit limit")
    @pytest.mark.parametrize("monomial", [monomial({}), monomial({var("x1"): 1})])
    def test_overlong_coefficient_rejected(self, monomial):
        q = Fraction(10 ** INT_DIGIT_LIMIT, 3)
        with pytest.raises(PrintError):
            str(Poly.term(monomial, q))


class TestCanonicalResults:
    """Ring operations build their results without re-validation; each
    result must still be canonical and equal its rebuild through the
    validating public constructors."""

    def test_ring_operations_match_public_rebuild(self):
        rng = random.Random(11)
        for _ in range(250):
            f, g = random_laurent(rng), random_laurent(rng)
            draw = rng.random()
            if draw < 0.3:
                g = g - f  # many coefficients of f + g cancel
            elif draw < 0.6:
                # f = u + w and g = u - w: the cross terms of f * g cancel
                half = list(f.terms.items())[::2]
                g = f - Poly(dict(half)) * 2
            fg = [(dict(m), q) for m, q in f.terms.items()]
            gg = [(dict(m), q) for m, q in g.terms.items()]
            v = rng.choice(LAURENT_XB)
            expected = {
                "add": (f + g, public(fg + gg)),
                "sub": (f - g, public(fg + [(e, -q) for e, q in gg])),
                "neg": (-f, public([(e, -q) for e, q in fg])),
                "mul": (f * g, public(products(f, g))),
                "pow": (f ** 2, public(products(f, f))),
                "diff": (f.diff(v), public([(shifted(m, v, -1), q * exponent(m, v))
                                            for m, q in f.terms.items()
                                            if exponent(m, v)])),
                "rsub": (3 - f, public([({}, 3)] + [(e, -q) for e, q in fg])),
            }
            if all(exponent(m, v) != -1 for m in f.terms):
                expected["integrate"] = (
                    f.integrate(v),
                    public([(shifted(m, v, 1), q / (exponent(m, v) + 1))
                            for m, q in f.terms.items()]))
            w = rng.choice(LAURENT_XB[:3])
            expected["substitute"] = (
                f.substitute({w: Poly.term(monomial({w: 1}), 2)}),
                public([(e, q * Fraction(2) ** e.get(w, 0)) for e, q in fg]))
            for name, (got, want) in expected.items():
                assert_canonical(got)
                assert got.terms == want.terms, name
            grouped = f.collect(("x",))
            for key, part in grouped.items():
                assert_canonical(part)
                assert part.terms and all(v.ns == "x" for v, _ in key)
            assert public([(dict(mono_mul(key, m)), q) for key, part in grouped.items()
                           for m, q in part.terms.items()]).terms == f.terms

    def test_laurent_cancellation(self):
        x1 = var("x1")
        assert mono_mul(monomial({x1: 1}), monomial({x1: -1})) == monomial({})
        assert mono_mul(monomial({x1: 1}), monomial({x1: -1})) == ()
        p = Poly.variable(x1) * Poly.variable(x1, -1)
        assert p == Poly.const(1)
        assert list(p.terms) == [()]
        assert parse_poly("x1^-1*b1").diff(x1).terms == parse_poly("-1*x1^-2*b1").terms
        assert parse_poly("x1^-2").integrate(x1) == parse_poly("-1*x1^-1")

    def test_monomial_product_is_the_dict_and_sort_product(self):
        # The product merges the two sorted exponent tuples; the
        # reference adds exponents in a map and sorts the nonzero ones.
        every_ns = [var(s) for s in ("x1", "x2", "x3", "p1", "p2", "b1",
                                     "b3", "a0", "a2", "c0", "c1", "t1")]

        def reference(m1, m2):
            acc = dict(m1)
            for v, e in m2:
                acc[v] = acc.get(v, 0) + e
            return monomial(acc)

        def draw(rng):
            return monomial({v: rng.randint(-3 if v.ns == "x" else 0, 3)
                             for v in rng.sample(every_ns, rng.randint(0, 6))})

        rng = random.Random(19)
        for _ in range(500):
            m1, m2 = draw(rng), draw(rng)
            assert mono_mul(m1, m2) == reference(m1, m2)
            # x-exponents cancel where the factor is an x-part inverse
            inverse = monomial({v: -e for v, e in m1 if v.ns == "x"})
            assert mono_mul(m1, inverse) == reference(m1, inverse)
            assert mono_mul(inverse, m1) == reference(m1, inverse)
        x_only = monomial({var("x1"): -2, var("x2"): 3, var("x3"): 1})
        inverse = monomial({v: -e for v, e in x_only})
        assert mono_mul(x_only, inverse) == () and mono_mul(x_only, inverse) == monomial({})
        assert mono_mul(inverse, x_only) == ()

    def test_public_constructor_errors_unchanged(self):
        b1 = var("b1")
        with pytest.raises(ValueError):
            monomial({b1: -1})
        with pytest.raises(ValueError):
            monomial({var("p1"): -1})
        m = monomial({b1: 1})
        assert Poly({m: 0}).terms == {}
        stored = Poly({m: 1}).terms[m]
        assert stored == 1 and type(stored) is Fraction
        assert Poly([(m, Fraction(1, 2))]).terms == {m: Fraction(1, 2)}
        assert Poly.term(m, 0).terms == {}
        assert Poly.const(0).is_zero()

    def test_public_constructor_validates_keys(self):
        x1, x2, b1 = var("x1"), var("x2"), var("b1")
        # unsorted pairs and zero exponents are rebuilt canonically, and
        # two keys that name one monomial add up
        f = Poly({((x2, 1), (x1, 1)): 1, ((x1, 1), (b1, 0), (x2, 1)): 2})
        assert f.terms == {monomial({x1: 1, x2: 1}): 3}
        assert Poly({((x1, 1),): 1, ((x1, 1), (x2, 0)): -1}).terms == {}
        # a repeated variable is one factor
        assert monomial([(x1, 1), (x2, 1), (x1, 1)]) == monomial({x1: 2, x2: 1})
        assert monomial([(x1, 1), (x1, -1)]) == ()
        assert Poly({((x1, 1), (x1, 1)): 1}) == parse_poly("x1^2")
        with pytest.raises(ValueError):
            Poly({((b1, -1),): 1})
        with pytest.raises(ValueError):
            Poly.variable(b1, -1)

    def test_term_validates_its_key(self):
        x1, x2, b1 = var("x1"), var("x2"), var("b1")
        assert Poly.term(((x2, 1), (x1, 1)), 1) == parse_poly("x1*x2")
        assert Poly.term({x1: 2, x2: 0}, Fraction(1, 2)) == parse_poly("1/2*x1^2")
        with pytest.raises(ValueError):
            Poly.term(((b1, -1),), 1)


class TestEquality:
    def test_poly_is_unhashable(self):
        # A Poly equals the scalar of a constant, so its hash would have
        # to be the scalar's; it has none, like TensorField.
        assert Poly.const(3) == 3
        with pytest.raises(TypeError):
            hash(Poly.const(3))


class TestSympyOracle:
    """+, -, * and diff against sympy.expand on seeded Laurent polynomials."""

    def test_ring_operations(self):
        sympy = pytest.importorskip("sympy")

        def expr(p):
            return sympy.sympify(str(p).replace("^", "**"))

        rng = random.Random(13)
        for _ in range(60):
            f, g = random_laurent(rng), random_laurent(rng)
            ef, eg = expr(f), expr(g)
            assert sympy.expand(expr(f * g) - ef * eg) == 0
            assert sympy.expand(expr(f + g) - (ef + eg)) == 0
            assert sympy.expand(expr(f - g) - (ef - eg)) == 0
            v = rng.choice(LAURENT_XB)
            assert sympy.expand(expr(f.diff(v)) - sympy.diff(ef, sympy.Symbol(str(v)))) == 0
