"""Groebner bases, ideal membership, dimension, linear factors."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from haantjeskit import checks, ideals
from haantjeskit.haantjes import as_operator, haantjes
from haantjeskit.ideals import (Ideal, IdealsError, MonomialOrder,
                                UnitIdeal, ZeroIdeal, buchberger,
                                haantjes_zero_ideal,
                                hilbert_dimension, ideal_equal, leading_term,
                                linear_factor, member, normal_form,
                                primitive_normalized, radical_member,
                                s_polynomial)
from haantjeskit.killing import KillingFamily, catalog, killing_space
from haantjeskit.symalg import Poly, exponent, monomial, parse_poly, var
from haantjeskit.tensor import TensorField

B = [var(f"b{i}") for i in range(1, 7)]


def keyed_poly(terms, order):
    """The Poly of a keyed polynomial, coefficient for coefficient."""
    return Poly({order.monomial(k): q for k, q in terms.items()})


def monic(f, order):
    """f scaled to leading coefficient 1."""
    _, lc = leading_term(f, order)
    return f * (1 / lc)


def assert_primitive(terms):
    """Nonzero int coefficients with gcd 1 and a positive leading one."""
    assert terms and all(type(q) is int and q for q in terms.values())
    assert gcd(*terms.values()) == 1 and terms[max(terms)] > 0


def border(k=6):
    return MonomialOrder(B[:k])


class TestMonomialOrder:
    def test_grevlex_degree_first(self):
        order = border(3)
        lo = monomial({var("b1"): 1})
        hi = monomial({var("b3"): 2})
        assert order.key(hi) > order.key(lo)

    def test_grevlex_tie_break(self):
        # Among degree-2 monomials: b1^2 > b1*b2 > b2^2 > b1*b3.
        order = border(3)
        m = [parse_poly(s) for s in ("b1^2", "b1*b2", "b2^2", "b1*b3")]
        keys = [order.key(next(iter(p.terms))) for p in m]
        assert keys == sorted(keys, reverse=True)

    def test_leading_term(self):
        order = border(3)
        mono, coeff = leading_term(parse_poly("2*b1*b2 - 7*b3^3"), order)
        assert coeff == Fraction(-7)
        assert mono == monomial({var("b3"): 3})

    def test_extend_appends_a_variable(self):
        a = border(2)
        ext = a.extend(var("t1"))
        assert ext.variables == (B[0], B[1], var("t1")) and a.variables == (B[0], B[1])
        assert ext.exp_vector(next(iter(parse_poly("b2*t1^3").terms))) == (0, 1, 3)

    def test_key_round_trip(self):
        # variables out of the canonical order, and one with exponent 0
        order = MonomialOrder((B[2], var("t1"), B[0], B[1]))
        for text in ("b1^2*b3*t1^3", "b2", "1", "b3^4*b1"):
            m = next(iter(parse_poly(text).terms))
            assert order.monomial(order.key(m)) == m
            assert order.key(m)[0] == sum(e for _, e in m)

    def test_foreign_and_laurent_monomials_rejected(self):
        with pytest.raises(IdealsError):
            border(2).key(monomial({var("b3"): 1}))
        with pytest.raises(IdealsError):
            MonomialOrder([var("x1")]).key(monomial({var("x1"): -1}))


class TestBuchberger:
    def test_textbook_example(self):
        # <x^2 - y, x^3 - z> in grevlex(x > y > z) written over b-vars.
        order = border(3)
        gens = [parse_poly("b1^2 - b2"), parse_poly("b1^3 - b3")]
        basis = buchberger(gens, order)
        # The reduced basis is a Groebner basis containing the inputs'
        # consequences; y^3 - z^2 = (x^3)^2-relation must reduce to 0.
        assert normal_form(parse_poly("b2^3 - b3^2"), basis, order).is_zero()

    def test_s_pairs_reduce_to_zero(self):
        order = border()
        gens = [parse_poly("b1*b2 - b3"), parse_poly("b2^2 - b4"),
                parse_poly("b1^2 - b5")]
        basis = buchberger(gens, order)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], order)
                assert normal_form(s, basis, order).is_zero()

    def test_internal_s_terms_match_the_reference(self):
        # buchberger's own S-polynomials are lcm(a, b) times the plain
        # Poly reference, for the leading coefficients a and b of the
        # primitive keyed inputs
        rng = random.Random(5)
        order = border(3)
        for _ in range(60):
            f, g = (_random_small(rng, B[:3], False) * _random_linear(rng, B[:3], False)
                    for _ in range(2))
            if f.is_zero() or g.is_zero():
                continue
            fk, gk = ideals._keyed(f, order), ideals._keyed(g, order)
            a, b = fk[max(fk)], gk[max(gk)]
            terms = ideals._s_terms(fk, max(fk), gk, max(gk))
            assert Poly({order.monomial(k): q for k, q in terms.items()}) \
                == lcm(a, b) * s_polynomial(keyed_poly(fk, order), keyed_poly(gk, order), order)

    def test_normal_form_is_linear(self):
        order = border(3)
        basis = buchberger([parse_poly("b1^2 - b2")], order)
        f = parse_poly("b1^2 + b1")
        g = parse_poly("b1^2 - 1")
        assert normal_form(f + g, basis, order) == \
            normal_form(f, basis, order) + normal_form(g, basis, order)


@pytest.fixture(scope="module")
def catalog_ideals():
    ideals = {name: haantjes_zero_ideal(catalog()[name][1])
              for name in ("sw1", "oo", "iv")}
    ideals["reference"] = checks.sw1_reference_ideal()
    return ideals


class TestGroebnerOracle:
    """Reduced bases against sympy.groebner in the same grevlex order."""

    @staticmethod
    def sympy_reduced_basis(ideal):
        sympy = pytest.importorskip("sympy")
        variables = ideal.order.variables
        gens = sympy.symbols([str(v) for v in variables])
        exprs = [sympy.sympify(str(g).replace("^", "**")) for g in ideal.generators]
        basis = []
        for g in sympy.groebner(exprs, *gens, order="grevlex").polys:
            f = Poly({monomial(zip(variables, exps)): Fraction(int(c.p), int(c.q))
                      for exps, c in g.terms()})
            basis.append(monic(f, ideal.order))
        return sorted(basis, key=str)

    @pytest.mark.parametrize("name", ["sw1", "oo", "iv", "reference"])
    def test_reduced_basis_matches_sympy(self, catalog_ideals, name):
        ideal = catalog_ideals[name]
        assert sorted(ideal.groebner(), key=str) == self.sympy_reduced_basis(ideal)

    @pytest.mark.parametrize("name", ["sw1", "oo", "iv", "reference"])
    def test_keyed_basis_is_primitive(self, catalog_ideals, name):
        ideal = catalog_ideals[name]
        basis, lms = ideal._keyed_basis()
        assert lms == [max(g) for g in basis]
        for g, monic_g in zip(basis, ideal.groebner()):
            assert_primitive(g)
            assert monic(keyed_poly(g, ideal.order), ideal.order) == monic_g
            # no type enforces the monomial format of the keys that
            # buchberger decodes from grevlex keys
            assert all(monomial(m) == m for m in monic_g.terms)

    @pytest.mark.parametrize("seed", range(3))
    def test_generator_order_does_not_matter(self, catalog_ideals, seed):
        ideal = catalog_ideals["sw1"]
        gens = list(ideal.generators)
        random.Random(seed).shuffle(gens)
        assert buchberger(gens, ideal.order) == ideal.groebner()


def _division_remainder(f, basis, order):
    """Reference division: the leading term of what is left goes to the
    first basis element, in list order, whose leading monomial divides
    it, or else to the remainder."""
    remainder, work = Poly.zero(), f
    while not work.is_zero():
        lm, lc = leading_term(work, order)
        for g in basis:
            glm, glc = leading_term(g, order)
            if all(exponent(lm, v) >= e for v, e in glm):
                quotient = monomial({v: e - exponent(glm, v) for v, e in lm})
                work = work - g * Poly.term(quotient, lc / glc)
                break
        else:
            remainder = remainder + Poly.term(lm, lc)
            work = work - Poly.term(lm, lc)
    return remainder


class TestNormalForm:
    def test_matches_reference_division_on_arbitrary_lists(self):
        # The lists are not Groebner bases, so the remainder depends on
        # which divisor each step picks.
        rng = random.Random(3)
        order = border(3)
        for _ in range(60):
            f = _random_small(rng, B[:3], False) * _random_linear(rng, B[:3], False)
            basis = [_random_linear(rng, B[:3], rng.random() < 0.5)
                     * _random_small(rng, B[:3], False)
                     for _ in range(rng.randint(1, 3))]
            assert normal_form(f, basis, order) == _division_remainder(f, basis, order)

    def test_rational_coefficients_keep_the_exact_remainder(self):
        # f and the divisors have non-integer coefficients and leading
        # coefficients other than 1, so the fraction-free division scales
        # what is left; normal_form must divide that factor back out
        rng = random.Random(11)
        order = border(3)
        rational = 0
        for _ in range(40):
            f = (Fraction(rng.choice((-5, -3, 3, 7)), rng.choice((2, 4, 9)))
                 * _random_small(rng, B[:3], False) * _random_linear(rng, B[:3], False))
            basis = [Fraction(rng.choice((-7, -2, 5)), rng.choice((3, 6)))
                     * _random_linear(rng, B[:3], rng.random() < 0.5)
                     * _random_small(rng, B[:3], False)
                     for _ in range(rng.randint(1, 3))]
            rational += any(c.denominator != 1 for c in f.terms.values())
            r = normal_form(f, basis, order)
            assert r == _division_remainder(f, basis, order)
            assert normal_form(Fraction(-2, 3) * f, basis, order) == Fraction(-2, 3) * r
        assert rational >= 30

    def test_remainder_factor(self):
        # 2*b1 + 1 by 3*b1 + 2: scaled by 3, 3*(2*b1 + 1) - 2*(3*b1 + 2)
        # = -1 = content * r, and the exact remainder is -1/3
        order = border(1)
        f, g = (ideals._keyed(parse_poly(t), order) for t in ("2*b1 + 1", "3*b1 + 2"))
        assert ideals._remainder(f, [g], [max(g)]) == ({(0, 0): 1}, 3, -1)
        assert normal_form(parse_poly("2*b1 + 1"), [parse_poly("3*b1 + 2")], order) \
            == Poly.const(Fraction(-1, 3))


class TestMembership:
    def test_member(self):
        order = border(3)
        ideal = Ideal([parse_poly("b1^2"), parse_poly("b2")], order)
        assert member(parse_poly("b1^3 + b1*b2"), ideal)
        assert not member(parse_poly("b1"), ideal)
        assert member(Poly.zero(), ideal)

    def test_radical_member(self):
        order = border(3)
        ideal = Ideal([parse_poly("b1^2")], order)
        assert radical_member(parse_poly("b1"), ideal)
        assert not member(parse_poly("b1"), ideal)
        assert not radical_member(parse_poly("b2"), ideal)

    def test_ideal_equal(self):
        order = border(3)
        a = Ideal([parse_poly("b1 + b2"), parse_poly("b1 - b2")], order)
        b = Ideal([parse_poly("b1"), parse_poly("b2")], order)
        assert ideal_equal(a, b)
        assert not ideal_equal(a, Ideal([parse_poly("b1")], order))


_T = var("t1")


def _rabinowitsch(f, ideal):
    """Reference radical membership: 1 in I + <1 - t*f>."""
    t = Poly.variable(_T)
    return Ideal(list(ideal.generators) + [1 - t * f],
                 ideal.order.extend(_T)).contains_one()


def _radical_case(seed):
    """A seeded f and an ideal holding f^k times a constant or a small
    polynomial, and sometimes one more small generator."""
    rng = random.Random(seed)
    variables = B[:3]
    f = _random_linear(rng, variables, rng.random() < 0.5)
    if rng.random() < 0.5:
        f = f * _random_linear(rng, variables, False)
    h = (Poly.const(rng.randint(1, 5)) if rng.random() < 0.5
         else _random_small(rng, variables, False))
    gens = [f ** rng.randint(1, 3) * h]
    gens += [_random_small(rng, variables, False) for _ in range(rng.randint(0, 1))]
    return f, Ideal(gens, border(3))


@pytest.fixture
def fallbacks(monkeypatch):
    """The auxiliary-variable ideals that radical_member builds."""
    built = []

    def spy(*args):
        built.append(args)
        return Ideal(*args)

    monkeypatch.setattr(ideals, "Ideal", spy)
    return built


class TestRadicalSquare:
    """radical_member tries f^2 against I's own basis before the
    auxiliary-variable ideal."""

    def test_square_decides(self, fallbacks):
        ideal = Ideal([parse_poly("b1^2*b2^2"), parse_poly("b3^3 + b1")], border(3))
        f = parse_poly("b1*b2")
        assert not member(f, ideal)
        assert radical_member(f, ideal)
        assert fallbacks == []

    def test_higher_power_needs_the_fallback(self, fallbacks):
        ideal = Ideal([parse_poly("b1^3")], border(3))
        assert not member(parse_poly("b1^2"), ideal)
        assert radical_member(parse_poly("b1"), ideal)
        assert len(fallbacks) == 1

    def test_non_member_needs_the_fallback(self, fallbacks):
        assert not radical_member(parse_poly("b1"), Ideal([parse_poly("b2")], border(3)))
        assert len(fallbacks) == 1

    def test_matches_the_rabinowitsch_reference(self):
        outcomes = set()
        for seed in range(40):
            f, ideal = _radical_case(seed)
            expected = _rabinowitsch(f, ideal)
            assert radical_member(f, ideal) == expected, seed
            outcomes.add((member(f * f, ideal), expected))
        # the square decides some cases; the fallback says yes and no
        assert outcomes == {(True, True), (False, True), (False, False)}


class TestRadicalOracle:
    """For the radical generator J of each catalog ideal I, by sympy:
    J divides every generator of I, J^2 is in I and J is not; the
    record of checks.system_radical agrees."""

    @staticmethod
    def _sympy(name):
        sympy = pytest.importorskip("sympy")
        ideal = checks.system_ideal(name)
        gens = sympy.symbols([str(v) for v in ideal.order.variables])
        fs = [sympy.sympify(str(g).replace("^", "**")) for g in ideal.generators]
        j = sympy.sympify(checks.SYSTEMS[name][0].replace("^", "**"))
        return sympy, gens, fs, j

    @pytest.mark.parametrize("name", ["sw1", "oo", "iv"])
    def test_square_in_ideal_but_not_generator(self, name):
        sympy, gens, fs, j = self._sympy(name)
        basis = sympy.groebner(fs, *gens, order="grevlex")
        assert basis.contains(j ** 2)
        assert not basis.contains(j)
        record = checks.system_radical(name)
        assert record.generator_in_radical and not record.generator_in_ideal

    @pytest.mark.parametrize("name", ["sw1", "oo", "iv"])
    def test_generator_divides_every_generator(self, name):
        sympy, gens, fs, j = self._sympy(name)
        assert fs and all(sympy.div(f, j, *gens)[1] == 0 for f in fs)
        assert checks.system_radical(name).generators_divisible


class TestHilbertDimension:
    def test_principal(self):
        order = border(3)
        assert hilbert_dimension(Ideal([parse_poly("b1*b2")], order)) == 2

    def test_point(self):
        order = border(3)
        ideal = Ideal([parse_poly("b1"), parse_poly("b2"),
                       parse_poly("b3")], order)
        assert hilbert_dimension(ideal) == 0

    def test_zero_ideal_raises(self):
        with pytest.raises(ZeroIdeal):
            hilbert_dimension(Ideal([], border(3)))

    def test_unit_ideal_raises(self):
        with pytest.raises(UnitIdeal):
            hilbert_dimension(Ideal([parse_poly("2")], border(3)))


class TestLinearFactor:
    def test_difference_of_squares(self):
        factors = {str(f) for f in linear_factor(parse_poly("b1^2 - b2^2"))}
        assert factors == {"b1 + b2", "b1 - b2"}

    def test_monomial_content(self):
        factors = {str(f) for f in
                   linear_factor(parse_poly("b1^2*b2 - b1*b2^2"))}
        assert factors == {"b1", "b2", "b1 - b2"}

    def test_inhomogeneous(self):
        factors = {str(f) for f in linear_factor(parse_poly("b1^2 - 1"))}
        assert factors == {"b1 + 1", "b1 - 1"}

    def test_irreducible_quadric(self):
        assert linear_factor(parse_poly("b1^2 + b2^2 + 1")) == []

    def test_verification_by_division(self):
        f = parse_poly("b1^3 + 3*b1^2 + 3*b1 + 1")
        assert {str(g) for g in linear_factor(f)} == {"b1 + 1"}

    def test_zero_and_laurent_inputs(self):
        assert linear_factor(Poly.zero()) == []
        with pytest.raises(IdealsError):
            linear_factor(parse_poly("x1^-1 + 1"))

    def test_base_point_search_ends(self):
        # Every point with b2 in 1..9 restricts the b1 and b3 pivots to
        # the zero polynomial, so the base point must leave that range.
        f = parse_poly("b1 + b3")
        for i in range(1, 10):
            f = f * parse_poly(f"b2 - {i}")
        assert [str(g) for g in linear_factor(f)] == \
            ["b1 + b3"] + [f"b2 - {i}" for i in range(1, 10)]


def _random_linear(rng, variables, homogeneous):
    while True:
        ell = Poly.zero()
        for v in variables:
            ell = ell + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * Poly.variable(v)
        if not homogeneous:
            ell = ell + rng.randint(-3, 3)
        if not ell.is_constant():
            return ell


def _random_small(rng, variables, homogeneous):
    f = Poly.zero()
    for _ in range(3):
        term = Poly.const(rng.randint(-4, 4))
        for _ in range(2 if homogeneous else rng.randint(0, 2)):
            term = term * Poly.variable(rng.choice(variables))
        f = f + term
    return f if not f.is_zero() else Poly.const(1)


def _oracle_input(seed):
    """A seeded product of linear forms and, mostly, a small polynomial;
    homogeneous for even seeds."""
    rng = random.Random(seed)
    variables = B[:rng.randint(1, 4)]
    homogeneous = seed % 2 == 0
    f = Poly.const(1)
    for _ in range(rng.randint(1, 3)):
        f = f * _random_linear(rng, variables, homogeneous)
    if rng.random() < 0.7:
        f = f * _random_small(rng, variables, homogeneous)
    return f


class TestLinearFactorOracle:
    """linear_factor against the degree-1 factors of sympy.factor_list."""

    @staticmethod
    def sympy_linear_factors(f):
        sympy = pytest.importorskip("sympy")
        _, factors = sympy.factor_list(sympy.sympify(str(f).replace("^", "**")))
        order = MonomialOrder(sorted(f.variables()))
        return sorted(
            str(primitive_normalized(parse_poly(str(g).replace("**", "^")), order))
            for g, _ in factors if sympy.Poly(g).total_degree() == 1)

    @pytest.mark.parametrize("seed", range(24))
    def test_random_products(self, seed):
        f = _oracle_input(seed)
        assert [str(g) for g in linear_factor(f)] == self.sympy_linear_factors(f)

    @pytest.mark.parametrize("system", ["sw1", "oo", "iv"])
    def test_radical_generators_have_no_linear_factor(self, system):
        f = parse_poly(checks.SYSTEMS[system][0])
        assert linear_factor(f) == [] == self.sympy_linear_factors(f)


def seeded_family(seed):
    """3D family c1 b1 K1 + ... + cm bm Km: distinct killing_space(3)
    elements K_p, small nonzero integers c_p."""
    rng = random.Random(seed)
    params = tuple(B[:rng.randint(2, 3)])
    tensor = TensorField.zero(3, (0, 2))
    for b, k in zip(params, rng.sample(killing_space(3), len(params))):
        c = Poly.variable(b) * rng.choice((-2, -1, 1, 2))
        tensor = tensor + k.map(lambda e: e * c)
    return KillingFamily(params=params, tensor=tensor)


def all_components_generators(family):
    """haantjes_zero_ideal's generators, read from all n^3 components of
    the torsion."""
    h = haantjes(as_operator(family.tensor))
    order = MonomialOrder(sorted(family.params))
    gens = {}
    for comp in h.components:
        for coeff in comp.collect(frozenset(("x",))).values():
            if not coeff.is_zero():
                g = primitive_normalized(coeff, order)
                gens.setdefault(str(g), g)
    pruned = []
    for text in sorted(gens, key=lambda t: (max(sum(e for _, e in m) for m in gens[t].terms), t)):
        if not (pruned and normal_form(gens[text], pruned, order).is_zero()):
            pruned.append(gens[text])
    return pruned


class TestHaantjesZeroIdeal:
    @pytest.mark.parametrize("name", sorted(catalog()))
    def test_catalog_generators_from_all_components(self, name):
        fam = catalog()[name][1]
        assert haantjes_zero_ideal(fam).generators == all_components_generators(fam)

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_generators_from_all_components(self, seed):
        fam = seeded_family(seed)
        assert haantjes_zero_ideal(fam).generators == all_components_generators(fam)

    def test_oscillator_ideal_is_zero(self):
        _, fam = catalog()["oscillator"]
        ideal = haantjes_zero_ideal(fam)
        assert ideal.generators == []
        assert ideal.groebner() == []

    def test_generators_primitive_normalized(self):
        _, fam = catalog()["oo"]
        ideal = haantjes_zero_ideal(fam)
        for g in ideal.generators:
            coeffs = list(g.terms.values())
            assert all(c.denominator == 1 for c in coeffs)
