"""Dense tensor fields: construction, derivatives, Hessian operators."""

import random

import pytest

from haantjeskit.symalg import Poly, parse_poly, var
from haantjeskit.tensor import (TensorError, TensorField, exterior_derivative,
                                hessian_operator, partial_derivative)
from .test_symalg import random_poly

XS = [var(s) for s in ("x1", "x2", "x3")]


def identity_operator(n):
    """The identity operator field on R^n."""
    return TensorField.from_function(
        n, (1, 1), lambda ij: Poly.const(1 if ij[0] == ij[1] else 0))


def random_tensor(rng, n, valence):
    return TensorField.from_function(
        n, valence, lambda idx: random_poly(rng, XS[:n], max_terms=2,
                                            max_degree=2))


class TestBasics:
    def test_identity(self):
        a = identity_operator(3)
        assert a[(0, 0)] == Poly.const(1)
        assert a[(0, 1)].is_zero()

    def test_from_matrix_round_trip(self):
        rows = [[parse_poly("x1"), parse_poly("x2")],
                [parse_poly("0"), parse_poly("1")]]
        t = TensorField.from_matrix(rows)
        assert t.matrix() == rows

    @pytest.mark.parametrize("idx", [(0, 3), (0,), (0, 0, 1), (-1, 0), 0])
    def test_index_checked(self, idx):
        # without the check each would fold into a valid offset
        t = TensorField.from_function(3, (0, 2), lambda ij: Poly.const(3 * ij[0] + ij[1]))
        assert t[(2, 1)] == Poly.const(7)
        with pytest.raises(IndexError):
            t[idx]

    def test_algebra(self):
        rng = random.Random(0)
        a = random_tensor(rng, 2, (0, 2))
        b = random_tensor(rng, 2, (0, 2))
        assert (a + b) - b == a


class TestDerivative:
    def test_appends_covariant_slot(self):
        t = TensorField.from_matrix([[parse_poly("x1^2"), parse_poly("0")],
                                     [parse_poly("0"), parse_poly("x2")]])
        d = partial_derivative(t)
        assert d.valence == (0, 3)
        assert d[(0, 0, 0)] == parse_poly("2*x1")
        assert d[(1, 1, 1)] == parse_poly("1")

    def test_mixed_partials_commute(self):
        rng = random.Random(1)
        t = random_tensor(rng, 3, (1, 1))
        dd = partial_derivative(partial_derivative(t))
        for i in range(3):
            for j in range(3):
                assert dd[(0, 0, i, j)] == dd[(0, 0, j, i)]

    def test_exterior_derivative(self):
        # d(x2 dx1) = -dx1^dx2, and d(du) = 0 for a random u
        w = TensorField(2, (0, 1), [parse_poly("x2"), parse_poly("0")])
        assert exterior_derivative(w).matrix() == [[Poly.zero(), Poly.const(-1)],
                                                   [Poly.const(1), Poly.zero()]]
        u = random_poly(random.Random(2), XS, max_terms=3, max_degree=3)
        du = TensorField.from_function(3, (0, 1), lambda k: u.diff(XS[k[0]]))
        assert exterior_derivative(du).is_zero()
        with pytest.raises(TensorError):
            exterior_derivative(TensorField.zero(3, (1, 1)))


class TestHessian:
    def test_symmetric(self):
        h = hessian_operator(parse_poly("x1^3 + x1*x2*x3"), 3)
        assert h.valence == (1, 1)
        for i in range(3):
            for j in range(3):
                assert h[(i, j)] == h[(j, i)]

    def test_values(self):
        h = hessian_operator(parse_poly("x1^3"), 3)
        assert h[(0, 0)] == parse_poly("6*x1")
        assert h[(1, 2)].is_zero()

    def test_rejects_laurent(self):
        with pytest.raises(TensorError):
            hessian_operator(parse_poly("x1^-2"), 3)

    @pytest.mark.parametrize("text, n", [("x1^3", 1), ("x1^3", 0),
                                         ("x3^3", 2), ("b1*x1^2", 3)])
    def test_rejects_low_dimension_and_stray_variables(self, text, n):
        with pytest.raises(TensorError):
            hessian_operator(parse_poly(text), n)

