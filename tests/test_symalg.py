"""Laurent-polynomial arithmetic, parsing and calculus."""

import random
from fractions import Fraction

import pytest

from haantjeskit.symalg import (LogarithmicTerm, Monomial,
                                NonInvertibleSubstitution, ParseError, Poly,
                                parse_poly, var)


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
            f = random_poly(rng, VARS)
            assert (f - f).terms == {}
            assert (f - f).is_zero()

    def test_power(self):
        f = parse_poly("x1 + 1")
        assert f ** 3 == f * f * f
        assert f ** 0 == Poly.const(1)


class TestParsing:
    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(50):
            f = random_poly(rng, VARS)
            assert parse_poly(str(f)) == f

    def test_rational_coefficients(self):
        f = parse_poly("3/4*x1^2 - 1/2*x2")
        assert f.terms[Monomial.of(var("x1"), 2)] == Fraction(3, 4)
        assert f.terms[Monomial.of(var("x2"), 1)] == Fraction(-1, 2)

    def test_negative_exponent_on_x(self):
        f = parse_poly("x1^-2")
        assert f.terms[Monomial.of(var("x1"), -2)] == 1

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
            return f.substitute({v: Poly.const(q) for v, q in point.items()}).as_fraction()
        except (ValueError, NonInvertibleSubstitution) as exc:
            return type(exc)

    def test_evaluate_matches_substitution(self):
        rng = random.Random(2)
        for _ in range(200):
            inverse = Poly.variable(rng.choice(LAURENT_VARS[:2]), -rng.randint(1, 2))
            f = random_poly(rng, LAURENT_VARS) + random_poly(rng, LAURENT_VARS) * inverse
            point = {v: rng.choice([Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                                    rng.randint(-3, 3)])
                     for v in LAURENT_VARS if rng.random() < 0.9}
            try:
                got = f.evaluate(point)
            except (ValueError, NonInvertibleSubstitution) as exc:
                got = type(exc)
            assert got == self.substituted_value(f, point)
            if not isinstance(got, type):
                assert type(got) is Fraction

    def test_evaluate_errors(self):
        with pytest.raises(ValueError):
            parse_poly("x1 + b1").evaluate({var("x1"): 2})
        with pytest.raises(NonInvertibleSubstitution):
            parse_poly("x1^-1").evaluate({var("x1"): 0})
        # an unbound variable whose terms vanish leaves a constant
        f = parse_poly("b1*x2 + 3")
        assert f.evaluate({var("b1"): 0}) == Fraction(3) == \
            self.substituted_value(f, {var("b1"): 0})


class TestCollect:
    def test_collect_by_namespace(self):
        f = parse_poly("b1*x1^2 + b2*x1^2 + b1*x2")
        grouped = f.collect(("x",))
        assert len(grouped) == 2
        assert grouped[Monomial.of(var("x1"), 2)] == parse_poly("b1 + b2")
        assert grouped[Monomial.of(var("x2"), 1)] == parse_poly("b1")


class TestStr:
    def test_deterministic(self):
        f = parse_poly("x2 + x1 + b1")
        assert str(f) == str(parse_poly(str(f)))

    def test_zero(self):
        assert str(Poly.zero()) == "0"
