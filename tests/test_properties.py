"""Property tests (skipped without hypothesis): ring axioms on small
random Laurent polynomials, the str -> parse_poly round trip, and the
torsion kernels against the full defining sums."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from haantjeskit.haantjes import haantjes, nijenhuis  # noqa: E402
from haantjeskit.symalg import Poly, monomial, parse_poly, var  # noqa: E402
from haantjeskit.tensor import TensorField  # noqa: E402

from .test_haantjes import reference_haantjes, reference_nijenhuis  # noqa: E402

VARS = [var(s) for s in ("x1", "x2", "p1", "b1", "a0")]

# only x-variables may carry negative exponents
monomials = st.fixed_dictionaries(
    {}, optional={v: st.integers(-2 if v.ns == "x" else 0, 3) for v in VARS}
).map(monomial)
coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=6)
polys = st.dictionaries(monomials, coefficients, max_size=4).map(Poly)

SETTINGS = settings(max_examples=50, deadline=None)


@SETTINGS
@given(polys, polys, polys)
def test_associativity(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)


@SETTINGS
@given(polys, polys, polys)
def test_distributivity(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f + g) * h == f * h + g * h


@SETTINGS
@given(polys)
def test_additive_inverse(f):
    assert (f + (-f)).is_zero()
    assert f - f == Poly.zero()


@SETTINGS
@given(polys)
def test_str_parse_round_trip(f):
    assert parse_poly(str(f)) == f


def test_round_trip_of_a_fractional_laurent_poly():
    f = Poly({monomial({VARS[0]: -2, VARS[2]: 1}): Fraction(-3, 2),
              monomial({}): Fraction(1, 3)})
    assert parse_poly(str(f)) == f


def operators(n):
    """Operators on R^n with at most two terms per entry, x-exponents
    -3..3, b-exponents 0..2 and denominators up to 6."""
    variables = [var(f"x{s + 1}") for s in range(n)] + [var("b1"), var("b2")]
    entry_monomials = st.fixed_dictionaries(
        {}, optional={v: st.integers(-3, 3) if v.ns == "x" else st.integers(0, 2)
                      for v in variables}).map(monomial)
    entries = st.dictionaries(entry_monomials, coefficients, max_size=2).map(Poly)
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda cs: TensorField(n, (1, 1), cs))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([2, 3]).flatmap(operators))
def test_torsions_match_the_defining_sums(a):
    n, h = nijenhuis(a), haantjes(a)
    assert n == reference_nijenhuis(a)
    assert h == reference_haantjes(a)
    # No type enforces the monomial format, so every key the kernels
    # decode must be one that the validating builder returns unchanged.
    assert all(monomial(m) == m for t in (n, h) for c in t.components for m in c.terms)
