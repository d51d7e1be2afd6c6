"""Nijenhuis/Haantjes torsions and conservation-law checks."""

import random
from fractions import Fraction

import pytest

from haantjeskit.haantjes import (as_operator, conservation_check, haantjes,
                                  is_haantjes_zero, nijenhuis,
                                  pullback_differential)
from haantjeskit.killing import catalog
from haantjeskit import symalg
from haantjeskit.symalg import Poly, exponent, monomial, parse_poly, var
from haantjeskit.tensor import (TensorError, TensorField, hessian_operator,
                                partial_derivative)
from .test_symalg import random_poly
from .test_tensor import identity_operator

XS = [var(s) for s in ("x1", "x2", "x3")]


def random_operator(rng, n):
    return TensorField.from_function(
        n, (1, 1), lambda idx: random_poly(rng, XS[:n], max_terms=2, max_degree=2))


def seeded_operator(seed, n, kind):
    """Operator on R^n with at most two terms per entry: polynomial in x,
    Laurent in x (exponents down to -1), parametric (polynomial in x
    and linear in b1, b2), or both ("parametric-laurent")."""
    rng = random.Random(seed)
    xs = [var(f"x{s + 1}") for s in range(n)]
    bs = [var("b1"), var("b2")]

    def entry(_):
        terms = {}
        for _ in range(rng.randint(1, 2)):
            exps = {v: rng.randint(-1 if "laurent" in kind else 0, 2)
                    for v in rng.sample(xs, rng.randint(0, 2))}
            if "parametric" in kind:
                exps.update({b: 1 for b in rng.sample(bs, rng.randint(0, 1))})
            terms[monomial(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        return Poly(terms)

    return TensorField.from_function(n, (1, 1), entry)


def seeded_hessian(seed, n):
    """Hessian operator of a seeded polynomial in x1..xn with four terms
    of degree 2 to 4: some entries are zero, and so are many products
    in the torsion sums."""
    rng = random.Random(seed)
    xs = [var(f"x{s + 1}") for s in range(n)]
    f = Poly.zero()
    for _ in range(4):
        term = Poly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                   rng.randint(1, 4)))
        for v in rng.choices(xs, k=rng.randint(2, 4)):
            term = term * Poly.variable(v)
        f = f + term
    return hessian_operator(f, n)


def matrix_operator(rows):
    return as_operator(TensorField.from_matrix(
        [[parse_poly(c) for c in row] for row in rows]))


def reference_nijenhuis(a):
    """The defining sum of N^i_jk for every component, diagonal included."""
    n = a.n
    da = partial_derivative(a)  # da[(i, j, k)] = d A^i_j / dx_k

    def comp(idx):
        i, j, k = idx
        total = Poly.zero()
        for s in range(n):
            total = total + da[(i, k, s)] * a[(s, j)]
            total = total - da[(i, j, s)] * a[(s, k)]
            total = total + (da[(s, j, k)] - da[(s, k, j)]) * a[(i, s)]
        return total

    return TensorField.from_function(n, (1, 2), comp)


def reference_haantjes(a):
    """The defining sum of H^i_jk for every component, diagonal included."""
    n = a.n
    nij = reference_nijenhuis(a)

    def comp(idx):
        i, j, k = idx
        total = Poly.zero()
        for s in range(n):
            for b in range(n):
                total = total + nij[(b, j, k)] * a[(i, s)] * a[(s, b)]
                total = total + nij[(i, s, b)] * a[(s, j)] * a[(b, k)]
                total = total - a[(i, s)] * (nij[(s, b, k)] * a[(b, j)]
                                             + nij[(s, j, b)] * a[(b, k)])
        return total

    return TensorField.from_function(n, (1, 2), comp)


SEEDED = [(seed, n, kind) for n in (2, 3, 4)
          for kind in ("polynomial", "laurent", "parametric")
          for seed in range(2)]
HESSIANS = [(seed, n) for n in (3, 4) for seed in range(3)]


class TestValence:
    def test_rejects_non_operator(self):
        # a Killing tensor before as_operator, and a torsion
        u = parse_poly("x1*x2")
        entry_points = [nijenhuis, haantjes, is_haantjes_zero,
                        lambda a: pullback_differential(a, u),
                        lambda a: conservation_check(a, u)]
        for valence in ((0, 2), (1, 2)):
            t = TensorField.from_function(3, valence, lambda idx: parse_poly("x1"))
            for entry_point in entry_points:
                with pytest.raises(TensorError, match=r"valence \(1,1\)"):
                    entry_point(t)

    def test_as_operator_keeps_components(self):
        k = TensorField.from_matrix([[parse_poly("x1"), parse_poly("2")],
                                     [parse_poly("2"), parse_poly("x2^2")]])
        a = as_operator(k)
        assert a.valence == (1, 1)
        assert a.components == k.components
        with pytest.raises(TensorError):
            as_operator(a)


class TestReferenceSums:
    """nijenhuis/haantjes sum only j < k, fill in j > k by antisymmetry
    and skip products with a zero factor; every component, diagonal and
    j > k included, must still equal the full defining sum."""

    @staticmethod
    def assert_matches(a):
        for computed, reference in ((nijenhuis(a), reference_nijenhuis(a)),
                                    (haantjes(a), reference_haantjes(a))):
            for idx in reference.indices():
                assert computed[idx] == reference[idx], idx

    @pytest.mark.parametrize("seed,n,kind", SEEDED)
    def test_seeded_operators(self, seed, n, kind):
        self.assert_matches(seeded_operator(seed, n, kind))

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog_families(self, name):
        self.assert_matches(as_operator(catalog()[name][1].tensor))

    # Sparse operators: most products in the sums have a zero factor
    # and are skipped.
    @pytest.mark.parametrize("seed,n", HESSIANS)
    def test_seeded_hessians(self, seed, n):
        self.assert_matches(seeded_hessian(seed, n))

    def test_diagonal_operator(self):
        self.assert_matches(matrix_operator([["x2^2", "0", "0"],
                                             ["0", "x1*x3", "0"],
                                             ["0", "0", "x1 + x2"]]))

    def test_zero_row_and_column(self):
        # Row 2 and column 3 are zero.
        self.assert_matches(matrix_operator([["x2*x3", "x1", "0"],
                                             ["0", "0", "0"],
                                             ["x1^2 - x3", "2*x2", "0"]]))


class TestCanonicalOutput:
    """The torsions build their components from raw coefficient maps,
    so each must already be canonical: only nonzero Fraction
    coefficients, and no terms at all where everything cancels.  `==`
    on term maps cannot see an int coefficient or a kept zero."""

    @staticmethod
    def assert_canonical(a):
        for t in (nijenhuis(a), haantjes(a)):
            for idx in t.indices():
                c = t[idx]
                assert all(type(q) is Fraction and q for q in c.terms.values()), idx
                assert c == Poly(dict(c.terms)), idx

    @pytest.mark.parametrize("seed,n,kind", SEEDED)
    def test_seeded_operators(self, seed, n, kind):
        self.assert_canonical(seeded_operator(seed, n, kind))

    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog_families(self, name):
        self.assert_canonical(as_operator(catalog()[name][1].tensor))

    @pytest.mark.parametrize("seed,n", HESSIANS)
    def test_seeded_hessians(self, seed, n):
        self.assert_canonical(seeded_hessian(seed, n))

    def test_cancelled_components_have_no_terms(self):
        # On R^2 the Haantjes torsion vanishes although N does not: its
        # sums cancel completely.
        a = seeded_operator(0, 2, "polynomial")
        assert sum(bool(c.terms) for c in nijenhuis(a).components) == 4
        assert all(c.terms == {} for c in haantjes(a).components)

    def test_no_intermediate_poly_products(self, monkeypatch):
        # The torsions multiply term maps directly; a Poly product in
        # their sums would build and canonicalize an intermediate Poly.
        a = seeded_operator(0, 3, "parametric")
        expected = (nijenhuis(a), haantjes(a))

        def refuse(self, other):
            raise AssertionError("Poly.__mul__ called")

        monkeypatch.setattr(Poly, "__mul__", refuse)
        assert (nijenhuis(a), haantjes(a)) == expected

    def test_no_monomial_products(self, monkeypatch):
        # The kernels multiply monomials as packed int keys; a call of
        # the monomial merge in their sums would mean they went back to
        # exponent-tuple keys.
        a = seeded_operator(1, 3, "parametric-laurent")
        expected = (nijenhuis(a), haantjes(a))
        assert any(exponent(m, v) < 0 for c in a.components
                   for m in c.terms for v, _ in m)
        assert not expected[1].is_zero()

        def refuse(a, b):
            raise AssertionError("mono_mul called")

        monkeypatch.setattr(symalg, "mono_mul", refuse)
        assert (nijenhuis(a), haantjes(a)) == expected


class TestIntegerKernels:
    """The kernels run on packed int monomial keys, with digits of a
    width fixed by the largest |exponent| E in A and dA, and on int
    coefficients over the operator's common denominator D.  Each case
    is compared with the full defining sums."""

    @staticmethod
    def assert_matches(a):
        TestReferenceSums.assert_matches(a)
        TestCanonicalOutput.assert_canonical(a)

    def test_high_laurent_exponents(self):
        # E = 7 (x2^7 in A, x1^-7 in dA), so a digit holds -32..31.  H
        # has x2^28, a four-fold product at 4E, and x1^-24.
        a = matrix_operator([
            ["x2", "x1^-6*x2^7", "x3"],
            ["x1^-6*x3", "x1", "x1^-6*x2^7"],
            ["x1^-6*x2^7", "x2^7", "x3^2"]])
        self.assert_matches(a)
        h = haantjes(a)
        assert max(exponent(m, var("x2")) for c in h.components for m in c.terms) == 28
        assert min(exponent(m, var("x1")) for c in h.components for m in c.terms) == -24

    def test_exponents_beyond_a_narrower_width(self):
        # E = 9, so a digit holds -64..63.  H has x1^36, a four-fold
        # product that a width taken from 3E (-32..31) would overflow.
        a = matrix_operator([
            ["2*x2^-8", "3*x2 + 2*x2^-8*x3^-1", "2*x1^-8*x2^2"],
            ["3*x1^9", "x1^9*x3", "3*x1^-1"],
            ["3*x1^2*x2", "2*x3^9", "x2^9*x3^2"]])
        self.assert_matches(a)
        assert max(exponent(m, var("x1")) for c in haantjes(a).components
                   for m in c.terms) == 36

    def test_coprime_denominators(self):
        # D = 7 * 9 * 11 = 693, so every coefficient of H is an int over
        # 693^4 that must reduce.
        self.assert_matches(matrix_operator([
            ["1/7*x1*x2", "2/9*x3", "5/11*x1^2"],
            ["2/9*x2^2", "5/11*x1*x3", "1/7"],
            ["5/11*x2", "1/7*x3^2 + 2/9*x1", "2/9*x1*x2"]]))

    def test_mixed_namespaces(self):
        self.assert_matches(matrix_operator([
            ["b1*x1 + p1", "b2*x2^2", "p2*x3"],
            ["x1^-1*b1^2", "p1*b1*x3", "x2"],
            ["b2*p2", "x1*x2*b1", "x3^-2*p1 + b2"]]))

    @pytest.mark.parametrize("rows", [
        [["0", "0"], ["0", "0"]],
        [["1", "2/3", "0"], ["5", "7", "-1/2"], ["0", "3", "1"]]])
    def test_no_variables(self, rows):
        # E = 0 and no variable to encode: both torsions are zero.
        a = matrix_operator(rows)
        self.assert_matches(a)
        assert nijenhuis(a).is_zero() and haantjes(a).is_zero()


class TestAlgebraicProperties:
    def test_antisymmetry(self):
        # Components with j > k are filled in from the j < k ones, so
        # each is compared with the full defining sum at (i, k, j).
        rng = random.Random(0)
        for _ in range(10):
            a = random_operator(rng, 3)
            for t, reference in ((nijenhuis(a), reference_nijenhuis(a)),
                                 (haantjes(a), reference_haantjes(a))):
                for (i, j, k) in t.indices():
                    if j > k:
                        assert t[(i, j, k)] == -reference[(i, k, j)]

    def test_scaling(self):
        rng = random.Random(1)
        for _ in range(5):
            a = random_operator(rng, 3)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            scaled = a.map(lambda p: p * Poly.const(c))
            assert nijenhuis(scaled) == nijenhuis(a).map(
                lambda p: p * Poly.const(c ** 2))
            assert haantjes(scaled) == haantjes(a).map(
                lambda p: p * Poly.const(c ** 4))

    def test_identity_operator_torsion_free(self):
        a = identity_operator(3)
        assert nijenhuis(a).is_zero()
        assert haantjes(a).is_zero()

    def test_two_dimensional_haantjes_vanishes(self):
        rng = random.Random(2)
        for _ in range(50):
            assert haantjes(random_operator(rng, 2)).is_zero()


class TestHessianExamples:
    def test_cubic_is_haantjes_zero(self):
        op = hessian_operator(parse_poly("x1^3"), 3)
        zero, witness = is_haantjes_zero(op)
        assert zero and witness is None

    def test_planar_square_is_haantjes_zero(self):
        op = hessian_operator(parse_poly("x1^2"), 2)
        assert is_haantjes_zero(op)[0]

    def test_mixed_cubic_components(self):
        # Hessian of x1^3 + x1*x2*x3: the nonzero Haantjes components
        # sit exactly on the all-distinct index triples, with value
        # +-12*x1*(x2^2 - x3^2) by permutation parity.
        op = hessian_operator(parse_poly("x1^3 + x1*x2*x3"), 3)
        h = haantjes(op)
        base = parse_poly("12*x1*x2^2 - 12*x1*x3^2")
        even = {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
        odd = {(0, 2, 1), (2, 1, 0), (1, 0, 2)}
        for idx in h.indices():
            if idx in even:
                assert h[idx] == base
            elif idx in odd:
                assert h[idx] == -base
            else:
                assert h[idx].is_zero()
        zero, witness = is_haantjes_zero(op)
        assert not zero and witness is not None

    @pytest.mark.parametrize("seed,n", [(seed, n) for n in (3, 4)
                                        for seed in range(4)])
    def test_witness_is_first_nonzero_component(self, seed, n):
        op = seeded_hessian(seed, n)
        h = haantjes(op)
        first = next(((i + 1, j + 1, k + 1, h[(i, j, k)])
                      for (i, j, k) in h.indices() if not h[(i, j, k)].is_zero()),
                     None)
        assert is_haantjes_zero(op) == (first is None, first)

    def test_witness_indices_are_one_based(self):
        op = hessian_operator(parse_poly("x1^3 + x1*x2*x3"), 3)
        _, (i, j, k, component) = is_haantjes_zero(op)
        assert min(i, j, k) >= 1 and max(i, j, k) <= 3
        assert not component.is_zero()


class TestSympyOracle:
    """N and H from their definitions on vector fields, with Lie
    brackets computed by sympy, against every component of the
    component-formula torsions:

        N(X,Y) = [AX,AY] - A[AX,Y] - A[X,AY] + A^2[X,Y]
        H(X,Y) = A^2 N(X,Y) + N(AX,AY) - A(N(AX,Y) + N(X,AY))

    with N^i_jk = N(e_j, e_k)^i and H^i_jk = H(e_j, e_k)^i for the
    coordinate fields e_j."""

    @staticmethod
    def assert_matches(a):
        sympy = pytest.importorskip("sympy")
        n = a.n
        names = sorted({str(v) for c in a.components for v in c.variables()}
                       | {f"x{s + 1}" for s in range(n)})
        R, *gens = sympy.ring(names, sympy.QQ)
        xs = [gens[names.index(f"x{s + 1}")] for s in range(n)]

        def elem(p):
            return R(sympy.sympify(str(p).replace("^", "**")))

        A = [[elem(a[(i, j)]) for j in range(n)] for i in range(n)]

        def add(*vectors):
            return [sum(cs, R.zero) for cs in zip(*vectors)]

        def neg(v):
            return [-c for c in v]

        def apply(x):
            return add(*([A[i][j] * x[j] for i in range(n)] for j in range(n)))

        def bracket(x, y):
            return add(*([x[j] * y[i].diff(xs[j]) - y[j] * x[i].diff(xs[j])
                          for i in range(n)] for j in range(n)))

        def nij(x, y):
            ax, ay = apply(x), apply(y)
            return add(bracket(ax, ay), neg(apply(bracket(ax, y))),
                       neg(apply(bracket(x, ay))), apply(apply(bracket(x, y))))

        def haa(x, y):
            ax, ay = apply(x), apply(y)
            return add(apply(apply(nij(x, y))), nij(ax, ay),
                       neg(apply(add(nij(ax, y), nij(x, ay)))))

        e = [[R(int(i == j)) for i in range(n)] for j in range(n)]
        for oracle, computed in ((nij, nijenhuis(a)), (haa, haantjes(a))):
            for j in range(n):
                for k in range(n):
                    v = oracle(e[j], e[k])
                    for i in range(n):
                        assert v[i] == elem(computed[(i, j, k)]), (i, j, k)

    def test_mixed_cubic(self):
        op = hessian_operator(parse_poly("x1^3 + x1*x2*x3"), 3)
        assert haantjes(op)[(1, 2, 0)] == parse_poly("12*x1*x2^2 - 12*x1*x3^2")
        self.assert_matches(op)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_four_variable_hessians(self, seed):
        self.assert_matches(seeded_hessian(seed, 4))

    def test_oo_family(self):
        self.assert_matches(as_operator(catalog()["oo"][1].tensor))


class TestConservation:
    def test_hessian_conservation_laws(self):
        f = parse_poly("x1^3 + x1*x2*x3")
        op = hessian_operator(f, 3)
        for u in [parse_poly("x1"), parse_poly("x2"), parse_poly("x3"), f]:
            assert conservation_check(op, u).is_zero()

    def test_residual_antisymmetric(self):
        rng = random.Random(3)
        a = random_operator(rng, 3)
        res = conservation_check(a, random_poly(rng, XS))
        for i in range(3):
            for j in range(3):
                assert res[(i, j)] == -res[(j, i)]

    def test_generic_operator_not_conserved(self):
        a = as_operator(TensorField.from_matrix(
            [[parse_poly("x2"), parse_poly("0")],
             [parse_poly("0"), parse_poly("0")]]))
        assert not conservation_check(a, parse_poly("x1")).is_zero()
