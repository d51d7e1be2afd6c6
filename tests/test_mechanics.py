"""Phase-space mechanics: brackets, integrals of motion, structural
tensors and the quadratic-bracket compatibility condition."""

import itertools
import random
from fractions import Fraction

import pytest

from haantjeskit import checks, linalg
from haantjeskit.checks import catalog
from haantjeskit.haantjes import as_operator, haantjes
from haantjeskit.killing import killing_residual
from haantjeskit.mechanics import (DegenerateK, MechanicsError, NonUniqueSolution,
                                   NotCompatible, abundant_haantjes, build_integral,
                                   condition_6b, functional_independence,
                                   haantjes_at, haantjes_kernel, hamiltonian,
                                   poisson, random_rational, structural_tensor_at)
from haantjeskit.symalg import Poly, monomial, parse_poly, var
from haantjeskit.tensor import TensorError, TensorField
from .test_haantjes import lie_bracket_torsions
from .test_killing import random_symmetric_laurent
from .test_tensor import identity_operator


def catalog_integrals(name):
    """{H} and the integral of every basis tensor of the catalog family,
    as the `mechanics` action and check build them."""
    h, integrals = checks.system_integrals(name)
    return [h] + list(integrals.values())


def to_sympy(f):
    sympy = pytest.importorskip("sympy")
    return sympy.sympify(str(f).replace("^", "**"))


def sympy_jacobian_rank(fs):
    """Exact rank of the symbolic Jacobian over Q(x, p, a), one column
    per x or p variable occurring in fs (the others give zero columns)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    exprs = [to_sympy(f) for f in fs]
    symbols = sorted(set().union(*(e.free_symbols for e in exprs)), key=str)
    phase_vars = [s for s in symbols if s.name[0] in "xp"]
    jac = sympy.Matrix([[sympy.diff(e, v) for v in phase_vars] for e in exprs])
    field = sympy.QQ.frac_field(*symbols)
    return DomainMatrix.from_Matrix(jac).convert_to(field).rank()


def random_laurent(rng):
    """Up to 4 terms in x1..x3 (exponents -2..2), p1..p3 (0..2) and
    a0..a3 (0..1) with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = {var(f"x{i}"): rng.randint(-2, 2) for i in range(1, 4)}
        exps.update({var(f"p{i}"): rng.randint(0, 2) for i in range(1, 4)})
        exps.update({var(f"a{i}"): rng.randint(0, 1) for i in range(4)})
        terms[monomial(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return Poly(terms)


@pytest.fixture
def rank_calls(monkeypatch):
    """The Jacobian ranks that functional_independence computes."""
    calls = []
    real = linalg.rank

    def spy(rows):
        calls.append(real(rows))
        return calls[-1]

    monkeypatch.setattr(linalg, "rank", spy)
    return calls


class TestPoisson:
    def test_canonical_pairs(self):
        x1, p1, p2 = (parse_poly(t) for t in ("x1", "p1", "p2"))
        assert poisson(x1, p1) == Poly.const(-1)
        assert poisson(p1, x1) == Poly.const(1)
        assert poisson(x1, p2).is_zero()

    def test_only_occurring_indices_count(self):
        # index 3 occurs in both arguments, index 1 only in the first
        assert poisson(parse_poly("x3*p1"), parse_poly("p3")) == parse_poly("-p1")

    def test_antisymmetry_and_leibniz(self):
        f, g, h = (parse_poly(t) for t in ("x1^2*p2", "p1*p2 + x2", "x1*x2*p1"))
        assert (poisson(f, g) + poisson(g, f)).is_zero()
        assert poisson(f, g * h) == g * poisson(f, h) + h * poisson(f, g)

    def test_jacobi(self):
        f, g, h = (parse_poly(t) for t in ("x1*p1", "x2^2", "p1*p2"))
        total = poisson(f, poisson(g, h)) + poisson(g, poisson(h, f)) + poisson(h, poisson(f, g))
        assert total.is_zero()

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_sympy(self, seed):
        """sum_k (df/dp_k dg/dx_k - df/dx_k dg/dp_k) over k = 1..3, by sympy."""
        sympy = pytest.importorskip("sympy")
        rng = random.Random(seed)
        f, g = random_laurent(rng), random_laurent(rng)
        sf, sg = to_sympy(f), to_sympy(g)
        expected = 0
        for k in range(1, 4):
            x, p = sympy.Symbol(f"x{k}"), sympy.Symbol(f"p{k}")
            expected += (sympy.diff(sf, p) * sympy.diff(sg, x)
                         - sympy.diff(sf, x) * sympy.diff(sg, p))
        assert sympy.expand(to_sympy(poisson(f, g)) - expected) == 0


class TestBuildIntegral:
    def setup_method(self):
        self.pot, self.fam = catalog()["nonmaximal-3d"]

    def test_first_coordinate_integral(self):
        k = TensorField.from_matrix(
            [[parse_poly(v) for v in row]
             for row in (["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"])])
        f = build_integral(k, self.pot)
        assert f == parse_poly("p1^2 + a1*x1^-2 + a0*x1^2")

    def test_rotational_integral(self):
        k = TensorField.from_matrix(
            [[parse_poly(v) for v in row]
             for row in (["x3^2", "0", "-x1*x3"], ["0", "0", "0"],
                         ["-x1*x3", "0", "x1^2"])])
        f = build_integral(k, self.pot)
        expected = parse_poly("x3^2*p1^2 - 2*x1*x3*p1*p3 + x1^2*p3^2"
                              " + a1*x3^2*x1^-2 + a3*x1^2*x3^-2")
        assert f == expected

    def test_commutes_with_hamiltonian(self):
        h = hamiltonian(self.pot)
        for k in self.fam.basis():
            f = build_integral(k, self.pot)
            assert poisson(h, f).is_zero()

    def test_incompatible_tensor_rejected(self):
        k = TensorField.from_matrix(
            [[parse_poly(v) for v in row]
             for row in (["x2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"])])
        with pytest.raises(NotCompatible):
            build_integral(k, self.pot)


class TestCatalogMechanicsOracle:
    """H and the family integrals of every catalog system, as
    `checks.system_integrals` builds them for the `mechanics` action and
    check, against sympy: H = sum p_k^2 + sum_r a_r g_r, each integral
    minus K^{ij} p_i p_j is a momentum-free W with
    dW/dx_i = sum_a K_ai dV/dx_a, and {H, F} = 0."""

    @pytest.mark.parametrize("name", list(catalog()))
    def test_hamiltonian_and_integrals(self, name):
        sympy = pytest.importorskip("sympy")
        xs, ps = sympy.symbols("x1:4"), sympy.symbols("p1:4")
        pot, fam = catalog()[name]
        h, integrals = checks.system_integrals(name)
        assert list(integrals) == [f"F{p.index}" for p in fam.params]
        v = sum(sympy.Symbol(f"a{r}") * to_sympy(g) for r, g in enumerate(pot.generators))
        sh = to_sympy(h)
        assert sympy.expand(sh - sum(p ** 2 for p in ps) - v) == 0
        for k, f in zip(fam.basis(), integrals.values()):
            km = [[to_sympy(k[(i, j)]) for j in range(3)] for i in range(3)]
            sf = to_sympy(f)
            w = sympy.expand(sf - sum(km[i][j] * ps[i] * ps[j]
                                      for i in range(3) for j in range(3)))
            assert not w.free_symbols & set(ps)
            for i in range(3):
                dv = sum(km[a][i] * sympy.diff(v, xs[a]) for a in range(3))
                assert sympy.expand(sympy.diff(w, xs[i]) - dv) == 0
            bracket = sum(sympy.diff(sh, ps[i]) * sympy.diff(sf, xs[i])
                          - sympy.diff(sh, xs[i]) * sympy.diff(sf, ps[i])
                          for i in range(3))
            assert sympy.expand(bracket) == 0


class TestFunctionalIndependence:
    def test_duplicates_collapse(self):
        f = parse_poly("p1^2 + x1^2")
        assert functional_independence([f, f], seed=0) == 1

    def test_canonical_coordinates(self):
        fs = [parse_poly(t) for t in ("x1", "x2", "p1", "p2")]
        assert functional_independence(fs, seed=0) == 4

    def test_dimension_is_the_largest_phase_index(self, rank_calls):
        # n = 1: x1 and p1 reach the plain bound 2n = 2 at the first point
        assert functional_independence([parse_poly("x1"), parse_poly("p1")]) == 2
        assert rank_calls == [2]

    def test_no_phase_variable_has_rank_zero(self):
        assert functional_independence([]) == 0
        assert functional_independence([parse_poly("a1 + 2")]) == 0

    def test_radial_system_rank(self):
        pot, _ = catalog()["nonmaximal-3d"]
        h = hamiltonian(pot)
        ks = []
        for diag in (("1", "0", "0"), ("0", "1", "0"), ("0", "0", "1")):
            rows = [[parse_poly(diag[i]) if i == j else Poly.zero()
                     for j in range(3)] for i in range(3)]
            ks.append(TensorField.from_matrix(rows))
        fs = [build_integral(k, pot) for k in ks]
        # H = F1 + F2 + F3, so adding H does not raise the rank.
        assert functional_independence(fs, seed=0) == 3
        assert functional_independence([h] + fs, seed=0) == 3

    def test_radial_rank_matches_sympy_jacobian(self):
        """{H, F1, F2, F3, F5}: the exact rank of the symbolic Jacobian
        over Q(x, p, a), by sympy, equals the sampled in-repo rank."""
        fs = catalog_integrals("nonmaximal-3d")
        rank = sympy_jacobian_rank(fs)
        assert rank == 4
        assert functional_independence(fs, seed=0) == rank

    @pytest.mark.parametrize("name", ["sw1", "oscillator", "oo", "iv"])
    def test_catalog_rank_matches_sympy_jacobian(self, name):
        """{H} and the six family integrals: exact rank 2n - 1 = 5."""
        fs = catalog_integrals(name)
        assert sympy_jacobian_rank(fs) == 5
        assert functional_independence(fs, seed=0) == 5

    def test_commuting_first_function_bounds_the_rank(self, rank_calls):
        # H commutes with the six sw1 integrals, so rank 2n - 1 = 5 at
        # the first point ends the sampling
        assert functional_independence(catalog_integrals("sw1"), seed=0) == 5
        assert rank_calls == [5]

    def test_other_inputs_keep_the_plain_bound(self, rank_calls):
        # x1 does not commute with p1: no bound below 2n = 4
        fs = [parse_poly(t) for t in ("x1", "x2", "p1", "p2", "x1*p2")]
        assert functional_independence(fs, seed=0) == 4
        assert rank_calls == [4]

    def test_constant_first_function_gets_no_bound(self, monkeypatch):
        # a constant commutes with everything but has no Hamiltonian
        # field, so a first sample of rank 2n - 1 must not end the search
        fs = [parse_poly(t) for t in ("1", "x1", "x2", "p1", "p2")]
        assert functional_independence(fs, seed=0) == 4
        ranks = iter([3, 4])
        monkeypatch.setattr(linalg, "rank", lambda rows: next(ranks))
        assert functional_independence(fs, seed=0) == 4

    def test_samples_at_most_ten_points(self, monkeypatch):
        calls = []
        monkeypatch.setattr(linalg, "rank", lambda rows: calls.append(rows) or 0)
        assert functional_independence([parse_poly("x1*p1")], seed=0) == 0
        assert len(calls) == 10


# the catalog families whose basis evaluation matrix is invertible at
# generic points, so that structural_tensor_at applies
ABUNDANT = ["sw1", "oo", "iv"]


class TestStructuralTensor:
    def test_oscillator_vanishes(self):
        _, fam = catalog()["oscillator"]
        rng = random.Random(0)
        for _ in range(5):
            x0 = [random_rational(rng) for _ in range(3)]
            assert structural_tensor_at(fam, x0).is_zero()

    def test_singular_or_nonsquare_system_rejected(self):
        # det M = 8 x1^2 x2^2 x3^2 for sw1 vanishes at x1 = 0, and the
        # nonmaximal family has 4 parameters for 6 component pairs
        with pytest.raises(NonUniqueSolution):
            structural_tensor_at(catalog()["sw1"][1], [Fraction(0), Fraction(1), Fraction(2)])
        with pytest.raises(NonUniqueSolution):
            structural_tensor_at(catalog()["nonmaximal-3d"][1], [Fraction(1)] * 3)

    def test_reproduces_derivatives(self):
        from haantjeskit.tensor import partial_derivative
        _, fam = catalog()["sw1"]
        rng = random.Random(1)
        x0 = [random_rational(rng) for _ in range(3)]
        p = structural_tensor_at(fam, x0)
        binding = {var(f"x{i + 1}"): q for i, q in enumerate(x0)}
        pairs = [(a, b) for a in range(3) for b in range(a, 3)]
        for elem in fam.basis():
            grads = partial_derivative(elem)
            components = {var(f"c{u}"): elem[pair].evaluate(binding)
                          for u, pair in enumerate(pairs)}
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        direct = grads[(i, j, k)].evaluate(binding)
                        via_p = p[(i, j, k)].evaluate(components)
                        assert direct == via_p

    def test_abundant_formula_matches_direct(self):
        _, fam = catalog()["sw1"]
        rng = random.Random(2)
        binding = {var(f"b{i}"): random_rational(rng) for i in range(1, 7)}
        k = fam.specialize(binding)
        for _ in range(3):
            x0 = [random_rational(rng) for _ in range(3)]
            p = structural_tensor_at(fam, x0)
            assert abundant_haantjes(p, k, x0) == haantjes_at(k, x0)

    @pytest.mark.parametrize("length", [2, 4])
    def test_point_of_the_wrong_length_rejected(self, length):
        _, fam = catalog()["sw1"]
        k = fam.specialize({var(f"b{i}"): Fraction(i) for i in range(1, 7)})
        p = structural_tensor_at(fam, [Fraction(1), Fraction(2), Fraction(3)])
        x0 = [Fraction(s + 1) for s in range(length)]
        with pytest.raises(MechanicsError):
            structural_tensor_at(fam, x0)
        with pytest.raises(MechanicsError):
            haantjes_at(k, x0)
        with pytest.raises(MechanicsError):
            abundant_haantjes(p, k, x0)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_abundant_formula_matches_lie_bracket_oracle(self, seed):
        # haantjes_at and the kernel both run haantjes.haantjes, so the
        # abundant side is also held against the vector-field definition
        sympy = pytest.importorskip("sympy")
        _, fam = catalog()["sw1"]
        rng = random.Random(seed)
        k = fam.specialize({var(f"b{i}"): random_rational(rng) for i in range(1, 7)})
        elem, _, haa = lie_bracket_torsions(as_operator(k))
        for _ in range(2):
            x0 = [random_rational(rng) for _ in range(3)]
            h = abundant_haantjes(structural_tensor_at(fam, x0), k, x0)
            point = [(elem(Poly.variable(var(f"x{s + 1}"))),
                      sympy.QQ(q.numerator, q.denominator)) for s, q in enumerate(x0)]
            for (i, j, kk), v in haa.items():
                value = v.evaluate(point)
                assert h[(i * 3 + j) * 3 + kk] == Fraction(int(value.numerator), int(value.denominator))

    @pytest.mark.parametrize("name", ABUNDANT)
    def test_kernel_depends_only_on_p(self, name):
        # every form is free of x and a quartic form in the components
        _, fam = catalog()[name]
        rng = random.Random(5)
        x0 = [random_rational(rng) for _ in range(3)]
        forms = haantjes_kernel(structural_tensor_at(fam, x0))
        assert len(forms) == 27 and any(not f.is_zero() for f in forms)
        cs = {var(f"c{u}") for u in range(6)}
        for f in forms:
            for m in f.terms:
                assert {v for v, _ in m} <= cs and sum(e for _, e in m) == 4

    @pytest.mark.parametrize("name", ABUNDANT)
    def test_kernel_matches_the_x_free_torsion_of_the_first_order_operator(self, name):
        # The torsion at a point reads only the operator and its first
        # derivatives there, so the kernel is also the x-free part of the
        # torsion of the field K + sum_m x_m P_m, K_ab = c_u.
        _, fam = catalog()[name]
        symbol = {pair: Poly.variable(var(f"c{u}"))
                  for u, pair in enumerate((a, b) for a in range(3) for b in range(a, 3))}
        rng = random.Random(6)
        for _ in range(2):
            p = structural_tensor_at(fam, [random_rational(rng) for _ in range(3)])
            field = TensorField.from_function(3, (0, 2), lambda idx: sum(
                (Poly.variable(var(f"x{m + 1}")) * p[idx + (m,)] for m in range(3)),
                symbol[tuple(sorted(idx))]))
            h = haantjes(as_operator(field))
            x_free = [Poly({m: q for m, q in c.terms.items() if all(v.ns != "x" for v, _ in m)})
                      for c in h.components]
            assert haantjes_kernel(p) == x_free


class TestCondition6b:
    def test_constant_diagonal_tensor_satisfies(self):
        k = TensorField.from_matrix(
            [[parse_poly(v) for v in row]
             for row in (["3", "0", "0"], ["0", "5", "0"], ["0", "0", "7"])])
        for norm in ("half", "raw"):
            assert condition_6b(k, normalization=norm).is_zero()

    def test_specialized_family_member_fails(self):
        _, fam = catalog()["sw1"]
        k = fam.specialize({var(f"b{i + 1}"): Fraction(v)
                            for i, v in enumerate((0, 0, 1, 2, 2, 4))})
        for norm in ("half", "raw"):
            assert not condition_6b(k, normalization=norm).is_zero()

    @pytest.mark.parametrize("kind", ["sw1-member", "laurent"])
    def test_matches_sympy_transcription(self, kind):
        # det K * K_{m[k,n]l} + 1/3 Adj^{pq} K_{p[l,m]} K_{q[k,n]} for all
        # 81 components, with sympy's det, adjugate and diff over Q(x)
        sympy = pytest.importorskip("sympy")
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(8)
        if kind == "sw1-member":
            k = catalog()["sw1"][1].specialize(
                {var(f"b{i}"): random_rational(rng) for i in range(1, 7)})
        else:
            k = random_symmetric_laurent(rng, 3)
            assert not killing_residual(k).is_zero()
        field = sympy.QQ.frac_field(*sympy.symbols("x1:4"))
        xs, ring = field.gens, field.field.ring

        def elem(f):  # a polynomial over one monomial, divided once
            exps = {m: [dict(m).get(var(f"x{i}"), 0) for i in (1, 2, 3)] for m in f.terms}
            low = [min([0] + [e[i] for e in exps.values()]) for i in range(3)]
            numer = ring.from_dict({tuple(a - b for a, b in zip(exps[m], low)):
                                    sympy.QQ(q.numerator, q.denominator)
                                    for m, q in f.terms.items()})
            return field.field(numer) / field.field(ring.from_dict({tuple(-b for b in low): 1}))

        mat = DomainMatrix([[elem(k[(i, j)]) for j in range(3)] for i in range(3)],
                           (3, 3), field)
        det, adj = mat.det(), mat.adjugate()
        for norm, s in (("half", field.convert(sympy.Rational(1, 2))), ("raw", field.one)):
            got = condition_6b(k, normalization=norm)
            first = {(p, l, m): s * (mat[p, l].element.diff(xs[m])  # K_{p[l,m]}
                                     - mat[p, m].element.diff(xs[l]))
                     for p, l, m in itertools.product(range(3), repeat=3)}
            for m, kk, nn, l in itertools.product(range(3), repeat=4):
                lhs = s * (mat[m, kk].element.diff(xs[nn]).diff(xs[l])
                           - mat[m, nn].element.diff(xs[kk]).diff(xs[l]))
                expected = det * lhs + sum(
                    (adj[p, q].element * first[(p, l, m)] * first[(q, kk, nn)]
                     for p in range(3) for q in range(3)), field.zero) / 3
                assert elem(got[(m, kk, nn, l)]) == expected

    def test_degenerate_tensor_rejected(self):
        k = TensorField.zero(3, (0, 2))
        with pytest.raises(DegenerateK):
            condition_6b(k)

    def test_operator_rejected(self):
        with pytest.raises(TensorError):
            condition_6b(identity_operator(3))
