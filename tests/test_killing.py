"""Killing-tensor spaces, compatible families and the system catalog."""

import itertools
import random
from fractions import Fraction

import pytest

from haantjeskit.haantjes import (as_operator, conservation_check,
                                  is_haantjes_zero)
from haantjeskit import checks
from haantjeskit.checks import catalog
from haantjeskit.killing import (KillingError, KillingFamily, compatible_family,
                                 killing_residual, killing_space, span_equal,
                                 PotentialSpec)
from haantjeskit.symalg import Poly, monomial, parse_poly, var
from haantjeskit.tensor import TensorField


# Killing tensors of flat space as symmetric products of Killing vectors:
# an independent construction to hold killing_space against.

def symmetric_product(v, w):
    """Symmetric product of two 1-forms: (v w)_ij = (v_i w_j + v_j w_i)/2."""
    def comp(idx):
        i, j = idx
        return (v[(i,)] * w[(j,)] + v[(j,)] * w[(i,)]) * Fraction(1, 2)

    return TensorField.from_function(v.n, (0, 2), comp)


def flat_killing_one_forms(n):
    """The n translations dx_i followed by the n(n-1)/2 rotations
    x_i dx_j - x_j dx_i, as 1-forms."""
    forms = [TensorField.from_function(
        n, (0, 1), lambda idx, i=i: Poly.const(1 if idx[0] == i else 0))
        for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            def comp(idx, i=i, j=j):
                if idx[0] == j:
                    return Poly.variable(var(f"x{i + 1}"))
                if idx[0] == i:
                    return -Poly.variable(var(f"x{j + 1}"))
                return Poly.zero()
            forms.append(TensorField.from_function(n, (0, 1), comp))
    return forms


def random_symmetric_laurent(rng, n):
    """A symmetric (0,2) tensor on R^n whose entries have 1 to 3 terms
    in x1..xn, with exponents -2..2 and small rational coefficients."""
    entries = {}
    for i in range(n):
        for j in range(i, n):
            entries[(i, j)] = Poly(
                (monomial({var(f"x{s + 1}"): rng.randint(-2, 2) for s in range(n)}),
                 Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3)))
    return TensorField.from_function(n, (0, 2), lambda idx: entries[tuple(sorted(idx))])


class TestKillingResidual:
    @pytest.mark.parametrize("seed, n", [(0, 2), (1, 3), (2, 4)])
    def test_non_killing_tensor_matches_sympy(self, seed, n):
        # K_(ij,m) = d_m K_ij + d_i K_jm + d_j K_mi, component by component
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(f"x1:{n + 1}")
        k = random_symmetric_laurent(random.Random(seed), n)
        mat = [[sympy.sympify(str(k[(i, j)]).replace("^", "**")) for j in range(n)]
               for i in range(n)]
        r = killing_residual(k)
        assert not r.is_zero()
        for i, j, m in itertools.product(range(n), repeat=3):
            expected = (sympy.diff(mat[i][j], xs[m]) + sympy.diff(mat[j][m], xs[i])
                        + sympy.diff(mat[m][i], xs[j]))
            got = sympy.sympify(str(r[(i, j, m)]).replace("^", "**"))
            assert sympy.expand(got - expected) == 0


class TestKillingSpace:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_dimension_formula(self, n):
        # n(n+1)^2(n+2)/12 valence-2 Killing tensors on flat R^n:
        # 1, 6, 20, 50, 105, 196
        assert len(killing_space(n)) == n * (n + 1) ** 2 * (n + 2) // 12

    def test_unsupported_dimension(self):
        for n in (0, -1):
            with pytest.raises(KillingError):
                killing_space(n)

    def test_all_elements_satisfy_killing_equation(self):
        for n in range(1, 7):
            for k in killing_space(n):
                assert killing_residual(k).is_zero()

    def test_deterministic(self):
        # the cached basis against a fresh, uncached computation
        assert killing_space(3) == killing_space.__wrapped__(3)

    def test_shared_basis_is_read_only(self):
        with pytest.raises(TypeError):
            killing_space(3)[0] = killing_space(3)[1]


class TestOneForms:
    def test_symmetric_products_are_killing(self):
        forms = flat_killing_one_forms(3)
        assert len(forms) == 6
        for v in forms:
            for w in forms:
                assert killing_residual(symmetric_product(v, w)).is_zero()

    def test_products_span_whole_space(self):
        for n in (3, 4, 5, 6):
            forms = flat_killing_one_forms(n)
            products = [symmetric_product(v, w)
                        for i, v in enumerate(forms) for w in forms[i:]]
            assert span_equal(products, killing_space(n))


class TestCompatibleFamilies:
    @pytest.mark.parametrize("name", ["sw1", "oscillator", "oo", "iv"])
    def test_catalog_families_recovered(self, name):
        pot, reference = catalog()[name]
        fam = compatible_family(pot)
        assert len(fam.params) == 6
        assert span_equal(fam.basis(), reference.basis())
        # the catalog family whose labels a family report prints
        assert checks._conventional(fam) is reference

    def test_new_family_on_the_solved_basis(self):
        pot, reference = catalog()["sw1"]
        fam = compatible_family(pot)
        assert fam is not reference and fam is not compatible_family(pot)
        assert fam.params == tuple(var(f"b{i}") for i in range(1, 7))
        # handed over by the solve (TestSympyOracle holds it against the
        # reduced echelon basis), and what the tensor's b-coefficients are
        assert fam._basis is not None
        assert fam.basis() == KillingFamily(fam.params, fam.tensor).basis()

    def test_nonmaximal_family_is_subfamily(self):
        _, sw1 = catalog()["sw1"]
        _, sub = catalog()["nonmaximal-3d"]
        assert len(sub.params) == 4
        merged = sub.basis() + sw1.basis()
        assert span_equal(merged, sw1.basis())

    def test_basis_is_computed_once_and_returned_as_a_copy(self):
        _, sw1 = catalog()["sw1"]
        first = sw1.basis()
        cached = sw1._basis
        first.clear()
        assert sw1.basis() == list(cached) and len(cached) == 6
        assert sw1._basis is cached

    def test_family_members_are_killing(self):
        for name in ("sw1", "oo", "iv", "nonmaximal-3d"):
            _, fam = catalog()[name]
            assert killing_residual(fam.tensor).is_zero()

    def test_generic_potential_keeps_rotation_free_family(self):
        # The metric and the coordinate squares survive for a generic
        # potential; a full Killing basis always admits at least the
        # metric itself, so the family is never empty here.
        pot = PotentialSpec(dimension=3, generators=[parse_poly("x1^3 + x2")])
        fam = compatible_family(pot)
        assert len(fam.params) == 5

    @pytest.mark.parametrize("n", [2, 3, 4, 5],
                             ids=["sw-R2", "sw-R3", "sw4-R4", "sw-R5"])
    def test_family_on_the_potentials_dimension(self, n):
        # the Smorodinsky-Winternitz potential sum x_i^2 + sum a_i/x_i^2
        # on R^n: n(n+1)/2 parameters
        xs = range(1, n + 1)
        generators = [" + ".join(f"x{i}^2" for i in xs)] + [f"x{i}^-2" for i in xs]
        pot = PotentialSpec(dimension=n, generators=[parse_poly(g) for g in generators])
        fam = compatible_family(pot)
        assert fam.tensor.n == n and len(fam.params) == n * (n + 1) // 2
        for k in fam.basis():
            assert killing_residual(k).is_zero()
            for u in pot.generators:
                assert conservation_check(as_operator(k), u).is_zero()


def seeded_potential(seed):
    """A potential off the catalog: a random diagonal quadratic form and
    two random coordinate powers."""
    rng = random.Random(seed)
    gens = [" + ".join(f"{rng.randint(1, 4)}*x{i}^2" for i in (1, 2, 3))]
    gens += [f"x{rng.randint(1, 3)}^{rng.choice([-2, 1])}" for _ in range(2)]
    return PotentialSpec(dimension=3, generators=[parse_poly(g) for g in gens])


class TestSympyOracle:
    """compatible_family against sympy's nullspace of the conservation
    conditions d(K dU) = 0 on a generic combination of killing_space(3)."""

    @pytest.mark.parametrize("pot", [pytest.param(pot, id=name)
                                     for name, (pot, _) in catalog().items()]
                             + [pytest.param(seeded_potential(seed), id=f"seeded-{seed}")
                                for seed in range(3)])
    def test_nullspace_matches_family(self, pot):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x1:4")
        basis = killing_space(3)
        cs = sympy.symbols(f"c0:{len(basis)}")

        def to_matrix(t):
            return sympy.Matrix(3, 3, lambda i, j: sympy.sympify(
                str(t[(i, j)]).replace("^", "**")))

        generic = sum((c * to_matrix(t) for c, t in zip(cs, basis)),
                      sympy.zeros(3, 3))
        conditions = []
        for g in pot.generators:
            u = sympy.sympify(str(g).replace("^", "**"))
            omega = [sum(generic[a, k] * sympy.diff(u, xs[a]) for a in range(3))
                     for k in range(3)]
            for j, k in itertools.combinations(range(3), 2):
                residual = sympy.diff(omega[k], xs[j]) - sympy.diff(omega[j], xs[k])
                numerator = sympy.numer(sympy.together(sympy.expand(residual)))
                if numerator != 0:
                    conditions += sympy.Poly(numerator, *xs).coeffs()
        matrix, _ = sympy.linear_eq_to_matrix(conditions, cs)
        null = matrix.nullspace()
        fam = compatible_family(pot)
        assert len(null) == len(fam.params)

        # the family's basis is the reduced echelon basis of the
        # nullspace, element by element
        echelon = sympy.Matrix.hstack(*null).T.rref()[0]
        oracle = [sum((echelon[r, u] * to_matrix(t) for u, t in enumerate(basis)),
                      sympy.zeros(3, 3)) for r in range(len(null))]
        for t, expected in zip(fam.basis(), oracle):
            assert (to_matrix(t) - expected).expand() == sympy.zeros(3, 3)


class TestFamilyOperations:
    def test_specialize(self):
        _, fam = catalog()["sw1"]
        binding = {var(f"b{i}"): Fraction(i) for i in range(1, 7)}
        k = fam.specialize(binding)
        assert k[(0, 0)] == parse_poly("4*x2^2 + 5*x3^2 + 1")

    def test_specialize_missing_parameter(self):
        _, fam = catalog()["sw1"]
        with pytest.raises(KillingError):
            fam.specialize({var("b1"): 1})

    @pytest.mark.parametrize("name, stray", [("sw1", "x1"), ("nonmaximal-3d", "b4")])
    def test_specialize_binds_only_parameters(self, name, stray):
        # substituting x1 as well would return a tensor that is not Killing
        _, fam = catalog()[name]
        binding = {p: Fraction(1) for p in fam.params}
        with pytest.raises(KillingError):
            fam.specialize({**binding, var(stray): Fraction(2)})

    def test_basis_linearity(self):
        _, fam = catalog()["iv"]
        basis = fam.basis()
        assert len(basis) == 6
        rebuilt = basis[0].map(lambda c: c * Poly.variable(var("b1")))
        for i in range(1, 6):
            rebuilt = rebuilt + basis[i].map(
                lambda c, i=i: c * Poly.variable(var(f"b{i + 1}")))
        assert rebuilt == fam.tensor

    def test_nonmaximal_family_operator_haantjes_zero(self):
        _, fam = catalog()["nonmaximal-3d"]
        zero, _ = is_haantjes_zero(as_operator(fam.tensor))
        assert zero

    def test_diagonal_specialization_haantjes_zero(self):
        _, fam = catalog()["sw1"]
        op = as_operator(fam.specialize({var(f"b{i}"): Fraction(v) for i, v in
                                         zip(range(1, 7), (3, 1, 4, 0, 0, 0))}))
        assert is_haantjes_zero(op)[0]
