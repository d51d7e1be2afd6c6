"""Named verification checks replaying the toolkit's reference
computations: the Hessian torsion examples, Killing-space dimensions,
the Smorodinski-Winternitz I analysis, the harmonic-oscillator and
OO/IV classifications, the non-maximal radial system, the
abundant-system Haantjes formula, and randomized algebraic property
suites.

Every check returns a CheckResult with verdict "pass", "fail" or
"evidence-only".  The suite (run_all), the per-system pipelines
(run_system) and the Hessian report all call checks through run_check,
which records each check's wall time; the command-line front end only
aggregates the results into a report, and the acceptance tests assert
on them individually.
"""

from __future__ import annotations

import functools
import random
import time
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .haantjes import (as_operator, conservation_check, haantjes,
                       is_haantjes_zero, nijenhuis)
from .ideals import (Ideal, haantjes_zero_ideal, hilbert_dimension,
                     ideal_equal, linear_factor, member, normal_form,
                     radical_member, s_polynomial)
from .killing import (KillingFamily, PotentialSpec, compatible_family,
                      killing_residual, killing_space, span_equal)
from .mechanics import (_point_binding, abundant_haantjes, build_integral,
                        condition_6b, functional_independence, hamiltonian,
                        poisson, random_rational, structural_tensor_at)
from .symalg import Poly, VarId, parse_poly, var
from .tensor import TensorField, hessian_operator


# ---- reference data ---------------------------------------------------

# The cubic polynomial whose non-vanishing Haantjes components the
# quadric-membrane discriminant of the radial Killing family reduces to.
J_TEXT = "b2*b4*b5 - b3*b4*b5 - b1*b4*b6 + b3*b4*b6 + b1*b5*b6 - b2*b5*b6"

# The five cofactors g such that <g*J> generates the Haantjes-zero
# ideal of the six-parameter radial family.
SW1_IDEAL_COFACTORS = ["b4", "b5 + b6", "b3 - b2", "b1 - b2", "b6"]


class System(NamedTuple):
    """The reference data of one catalog system on R^3: the one table
    row a check or action reads for it."""
    potential: List[str]  # the texts of its potential's generators
    family: List[List[str]]  # the matrix of its conventional family
    radical: Optional[str]  # radical generator; None for a zero ideal
    overrides: Dict[str, str]  # action -> the named check that replaces it


SYSTEMS: Dict[str, System] = {
    "sw1": System(
        ["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"],
        [["b4*x2^2 + b5*x3^2 + b1", "-b4*x1*x2", "-b5*x1*x3"],
         ["-b4*x1*x2", "b4*x1^2 + b6*x3^2 + b2", "-b6*x2*x3"],
         ["-b5*x1*x3", "-b6*x2*x3", "b5*x1^2 + b6*x2^2 + b3"]],
        J_TEXT, {"family": "sw1-compatible-family", "ideal": "sw1-haantjes-zero-ideal",
                 "radical-check": "sw1-radical-generator",
                 "linear-subspace": "sw1-no-linear-subspace",
                 "branches": "sw1-branch-substitutions"}),
    "oscillator": System(
        ["x1^2 + x2^2 + x3^2", "x1", "x2", "x3"],
        [["b1", "b4", "b5"], ["b4", "b2", "b6"], ["b5", "b6", "b3"]],
        None, {"family": "oscillator-all-haantjes-zero",
               "ideal": "oscillator-haantjes-zero-ideal"}),
    "oo": System(
        ["4*x1^2 + 4*x2^2 + x3^2", "x1", "x2", "x3^-2"],
        [["b1", "b5", "-b4*x3"],
         ["b5", "b2", "-b6*x3"],
         ["-b4*x3", "-b6*x3", "2*b4*x1 + 2*b6*x2 + b3"]],
        "b1*b4*b6 - b2*b4*b6 - b4^2*b5 + b5*b6^2", {}),
    "iv": System(
        ["4*x1^2 + x2^2 + x3^2", "x1", "x2^-2", "x3^-2"],
        [["b1", "-b6*x2", "-b4*x3"],
         ["-b6*x2", "b5*x3^2 + 2*b6*x1 + b2", "-b5*x2*x3"],
         ["-b4*x3", "-b5*x2*x3", "b5*x2^2 + 2*b4*x1 + b3"]],
        "b1*b4*b5 - b2*b4*b5 + b4^2*b6 - b1*b5*b6 + b3*b5*b6 - b4*b6^2", {}),
    "nonmaximal-3d": System(
        ["x1^2 + x2^2 + x3^2", "x1^-2", "x2^-2", "x3^-2"],
        [["b5*x3^2 + b1", "0", "-b5*x1*x3"],
         ["0", "b2", "0"],
         ["-b5*x1*x3", "0", "b5*x1^2 + b3"]],
        None, {"mechanics": "nonmaximal-radial-mechanics"}),
}


@functools.cache
def catalog() -> Dict[str, Tuple[PotentialSpec, KillingFamily]]:
    """name -> (potential, conventional family), built from SYSTEMS once
    per process; a family's parameters are the b's of its matrix, by
    index.  Every caller shares the objects: do not modify them."""
    out = {}
    for name, row in SYSTEMS.items():
        tensor = TensorField.from_matrix([[parse_poly(e) for e in r] for r in row.family])
        params = sorted({v for c in tensor.components for v in c.variables() if v.ns == "b"})
        out[name] = (PotentialSpec(3, [parse_poly(g) for g in row.potential]),
                     KillingFamily(tuple(params), tensor))
    return out


def _conventional(fam: KillingFamily) -> KillingFamily:
    """The first catalog family with fam's dimension, parameter count
    and span, whose b-labels a family report prints."""
    basis = fam.basis()
    return next(ref for _, ref in catalog().values()
                if ref.tensor.n == fam.tensor.n and len(ref.params) == len(basis)
                and span_equal(ref.basis(), basis))


@functools.cache
def system_ideal(name: str) -> Ideal:
    """The Haantjes-zero ideal of a catalog system's family, computed
    once per process, so its Groebner basis (cached on the ideal) is
    computed once too.  Every check shares the object: do not modify
    it."""
    return haantjes_zero_ideal(catalog()[name][1])


class Radical(NamedTuple):
    """What is certified about the radical generator g of a catalog
    system's Haantjes-zero ideal I, named as in the radical-check payload."""
    generators_divisible: bool  # g divides every generator of I
    generator_in_ideal: bool
    generator_in_radical: bool
    hilbert_dimension: int  # of <g>
    linear_factors: Tuple[str, ...]  # of g, printed


@functools.cache
def system_radical(name: str) -> Radical:
    """The Radical record of a catalog system with a nonzero ideal,
    computed once per process.  Every check shares the record: do not
    modify it."""
    ideal = system_ideal(name)
    g = parse_poly(SYSTEMS[name].radical)
    principal = Ideal([g], ideal.order)
    return Radical(all(member(f, principal) for f in ideal.generators),
                   member(g, ideal), radical_member(g, ideal),
                   hilbert_dimension(principal),
                   tuple(str(f) for f in linear_factor(g)))


def system_integrals(name: str) -> Tuple[Poly, Dict[str, Poly]]:
    """H and the integral of each coefficient tensor of a catalog
    system's family, labelled F<index> after its parameter, in order."""
    pot, fam = catalog()[name]
    return hamiltonian(pot), {f"F{p.index}": build_integral(k, pot)
                              for p, k in zip(fam.params, fam.basis())}


# Solution branches of {J = 0}: each entry substitutes parameters and
# must annihilate J identically.  The generic branch solves J for b1
# with denominator (b4 - b5)*b6 and is verified as a cleared identity.
BRANCH_SUBSTITUTIONS: List[Tuple[str, Dict[str, str]]] = [
    ("b6 = 0, b3 = b2", {"b6": "0", "b3": "b2"}),
    ("b6 = b4 = 0", {"b6": "0", "b4": "0"}),
    ("b6 = b5 = 0", {"b6": "0", "b5": "0"}),
    ("b4 = b5 = b6 = 0", {"b4": "0", "b5": "0", "b6": "0"}),
    ("b3 = b2, b6 = 0, b4 = b5", {"b3": "b2", "b6": "0", "b5": "b4"}),
    ("b4 = b5 = b6", {"b5": "b4", "b6": "b4"}),
    ("b3 = b2, b4 = b5", {"b3": "b2", "b5": "b4"}),
    ("b4 = b5 = 0", {"b4": "0", "b5": "0"}),
]
BRANCH_GENERIC_NUMERATOR = "b2*b4*b5 - b3*b4*b5 + b3*b4*b6 - b2*b5*b6"
BRANCH_GENERIC_DENOMINATOR = "b4*b6 - b5*b6"

# Published specialization of the radial family: the stated parameter
# values and the matrix displayed for them disagree in the source; the
# displayed matrix is the member at DISPLAY_B.  Both members are
# checked behaviorally (nonzero torsion, failed quadratic-bracket
# condition, nonzero discriminant).
STATED_B = (0, 0, 1, 2, 2, 4)
DISPLAY_B = (0, 0, 1, 1, 1, 2)
DISPLAY_MATRIX = [
    ["x2^2 + x3^2", "-x1*x2", "-x1*x3"],
    ["-x1*x2", "x1^2 + 2*x3^2", "-2*x2*x3"],
    ["-x1*x3", "-2*x2*x3", "x1^2 + 2*x2^2 + 1"],
]

# Reference second-order constants of motion of the radial system with
# inverse-square wall terms (labels follow the coefficient tensors of
# b1, b2, b3 and b5 in the radial Killing family).
F_GOLDENS = {
    "F1": "p1^2 + a1*x1^-2 + a0*x1^2",
    "F2": "p2^2 + a2*x2^-2 + a0*x2^2",
    "F3": "p3^2 + a3*x3^-2 + a0*x3^2",
    "F5": ("x3^2*p1^2 - 2*x1*x3*p1*p3 + x1^2*p3^2"
           " + a1*x3^2*x1^-2 + a3*x1^2*x3^-2"),
}

# Claimed non-vanishing Haantjes components of the Hessian operator of
# x1^3 + x1*x2*x3, as published: H^b_32 = -H^b_23 = 2*x1*(x1^2 - x2^2)
# for every upper index b, all other components zero.
HESSIAN_MIXED_CLAIM = "2*x1^3 - 2*x1*x2^2"


class CheckResult:
    """Outcome of one named check."""

    def __init__(self, name: str, verdict: str, detail: str,
                 payload: Optional[Dict[str, object]] = None):
        self.name = name
        self.verdict = verdict  # "pass" | "fail" | "evidence-only"
        self.detail = detail
        self.payload = {} if payload is None else payload
        self.seconds = 0.0  # set by run_check

    def to_json_obj(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "detail": self.detail,
            "payload": self.payload,
            "seconds": self.seconds,
        }


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


def run_check(fn: Callable[..., CheckResult], *args, **kwargs) -> CheckResult:
    """Call a check and set its `seconds` to the wall time the call
    took.  This is the one place where checks are timed: a check called
    directly reports 0.0."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    result.seconds = time.perf_counter() - t0
    return result


def _b_binding(values) -> Dict[VarId, Fraction]:
    return {var(f"b{i + 1}"): Fraction(v) for i, v in enumerate(values)}


def sw1_reference_ideal() -> Ideal:
    j = parse_poly(J_TEXT)
    return Ideal([parse_poly(s) * j for s in SW1_IDEAL_COFACTORS],
                 system_ideal("sw1").order)


# ---- Hessian operator fields ------------------------------------------


def _component_label(tag: str, n: int, i: int, j: int, k: int) -> str:
    """The label tag^i_jk of a (1,2) component on R^n, 1-based; for n >= 10
    with a comma, tag^i_j,k, since jk is ambiguous with two digits."""
    return f"{tag}^{i}_{j}{',' if n >= 10 else ''}{k}"


def _nonzero_components(tag: str, t: TensorField) -> Dict[str, str]:
    """The nonzero components of a (1,2) tensor, printed, by label."""
    return {_component_label(tag, t.n, i + 1, j + 1, k + 1): str(c)
            for (i, j, k), c in zip(t.indices(), t.components) if not c.is_zero()}


def check_hessian_cubic() -> CheckResult:
    """haantjes(hessian(x1^3)) = 0 and the four coordinate/generator
    conservation laws hold."""
    f = parse_poly("x1^3")
    op = hessian_operator(f, 3)
    zero, witness = is_haantjes_zero(op)
    generators = [Poly.variable(var(f"x{k}")) for k in (1, 2, 3)] + [f]
    conserved = [conservation_check(op, u).is_zero() for u in generators]
    ok = zero and all(conserved)
    return CheckResult(
        name="hessian-cubic-torsion-free",
        verdict=_verdict(ok),
        detail="Hessian of x1^3 is Haantjes-zero with 4 conservation laws",
        payload={"haantjes_zero": zero, "conserved": conserved},
    )


def check_hessian_mixed() -> CheckResult:
    """The Hessian of x1^3 + x1*x2*x3 must reproduce the published
    component table: H^b_32 = -H^b_23 = 2*x1*(x1^2 - x2^2), all other
    components zero."""
    f = parse_poly("x1^3 + x1*x2*x3")
    h = haantjes(hessian_operator(f, 3))
    claim = parse_poly(HESSIAN_MIXED_CLAIM)
    expected = TensorField.from_function(
        3, (1, 2),
        lambda idx: claim if (idx[1], idx[2]) == (2, 1)
        else -claim if (idx[1], idx[2]) == (1, 2) else Poly.zero())
    nonzero = _nonzero_components("H", h)
    ok = h == expected
    return CheckResult(
        name="hessian-mixed-component-table",
        verdict=_verdict(ok),
        detail="published component table for the Hessian of x1^3 + x1*x2*x3",
        payload={"expected_nonzero": HESSIAN_MIXED_CLAIM,
                 "computed_nonzero": nonzero},
    )


def check_hessian_torsion(poly_text: str, n: int) -> CheckResult:
    """The Hessian operator of a polynomial on R^n: conservation
    residuals for the coordinates and the generator itself, both
    torsions, and the Haantjes zero/nonzero verdict with witness."""
    f = parse_poly(poly_text)
    op = hessian_operator(f, n)
    payload: Dict[str, object] = {
        "operator": [str(c) for c in op.components],
    }
    generators = [Poly.variable(var(f"x{k + 1}")) for k in range(n)] + [f]
    payload["conservation_generators"] = [str(u) for u in generators]
    payload["conserved"] = [conservation_check(op, u).is_zero()
                            for u in generators]
    n_t = nijenhuis(op)
    h_t = haantjes(op)
    payload["nijenhuis_nonzero"] = _nonzero_components("N", n_t)
    payload["haantjes_nonzero"] = _nonzero_components("H", h_t)
    zero, witness = is_haantjes_zero(op)
    payload["haantjes_zero"] = zero
    if witness is not None:
        i, j, k, component = witness
        payload["witness"] = f"{_component_label('H', n, i, j, k)} = {component}"
    return CheckResult(name="hessian-torsion", verdict="evidence-only",
                       detail=("Haantjes torsion vanishes" if zero else
                               "Haantjes torsion is nonzero"),
                       payload=payload)


# ---- Killing spaces and compatible families ---------------------------


def check_killing_dimensions() -> CheckResult:
    dims = {n: len(killing_space(n)) for n in (2, 3)}
    residuals_zero = all(
        all(killing_residual(k).is_zero() for k in killing_space(n))
        for n in (2, 3))
    ok = dims == {2: 6, 3: 20} and residuals_zero
    return CheckResult(
        name="killing-space-dimensions",
        verdict=_verdict(ok),
        detail="valence-2 Killing spaces: dim 6 (n=2), dim 20 (n=3)",
        payload={"dimensions": {str(k): v for k, v in dims.items()},
                 "all_killing": residuals_zero},
    )


def check_sw1_family() -> CheckResult:
    """The maximal Killing family compatible with the radial potential
    generators is 6-dimensional and spans the documented parametrized
    matrix."""
    pot, reference = catalog()["sw1"]
    fam = compatible_family(pot)
    ok = len(fam.params) == 6 and span_equal(fam.basis(), reference.basis())
    return CheckResult(
        name="sw1-compatible-family",
        verdict=_verdict(ok),
        detail="radial system: 6-parameter compatible Killing family",
        payload={"parameters": len(fam.params)},
    )


# ---- the SW I ideal ---------------------------------------------------


def check_sw1_ideal() -> CheckResult:
    equal = ideal_equal(system_ideal("sw1"), sw1_reference_ideal())
    r = system_radical("sw1")
    ok = (equal and r.generators_divisible and not r.generator_in_ideal
          and r.generator_in_radical and r.hilbert_dimension == 5)
    return CheckResult(
        name="sw1-haantjes-zero-ideal",
        verdict=_verdict(ok),
        detail="ideal matches the five-generator reference; radical <J>, dim 5",
        payload={"ideal_equal": equal,
                 "generators_divisible_by_J": r.generators_divisible,
                 "J_in_ideal": r.generator_in_ideal,
                 "J_in_radical": r.generator_in_radical,
                 "hilbert_dimension": r.hilbert_dimension},
    )


def check_sw1_radical_generator() -> CheckResult:
    """J lies in the radical of the Haantjes-zero ideal but not in the
    ideal itself."""
    r = system_radical("sw1")
    return CheckResult(
        name="sw1-radical-generator",
        verdict=_verdict(r.generator_in_radical and not r.generator_in_ideal),
        detail="radical of the Haantjes-zero ideal is principal, <J>",
        payload={"radical_generator": J_TEXT, "J_in_ideal": r.generator_in_ideal,
                 "J_in_radical": r.generator_in_radical})


def check_sw1_radical_primality() -> CheckResult:
    """Primality of <J> is reported as supporting evidence only: the
    toolkit certifies the dimension and the absence of linear factors
    but implements no primality test."""
    r = system_radical("sw1")
    return CheckResult(
        name="sw1-radical-primality",
        verdict="evidence-only",
        detail="dim 5 and no linear factor support (but do not certify) primality of <J>",
        payload={"hilbert_dimension": r.hilbert_dimension,
                 "linear_factors": list(r.linear_factors)},
    )


def check_sw1_specialization() -> CheckResult:
    """Published specialization of the radial family.

    The source states one parameter vector but displays the matrix of
    another; both members are verified to be non-degenerate with
    nonzero Haantjes components for every j != k, to violate the
    quadratic-bracket compatibility condition under both
    normalizations, and to have J != 0.  The displayed matrix is
    reproduced exactly at the parameter vector that generates it.
    """
    _, fam = catalog()["sw1"]
    j = parse_poly(J_TEXT)
    display = TensorField.from_matrix(
        [[parse_poly(s) for s in row] for row in DISPLAY_MATRIX])
    results: Dict[str, object] = {}
    ok = fam.specialize(_b_binding(DISPLAY_B)) == display
    results["display_matrix_at_display_b"] = ok
    for label, values in (("stated", STATED_B), ("display", DISPLAY_B)):
        binding = _b_binding(values)
        k = fam.specialize(binding)
        h = haantjes(as_operator(k))
        nonzero_all = all(
            any(not h[(i, jj, kk)].is_zero() for i in range(3))
            for jj in range(3) for kk in range(3) if jj != kk)
        jval = j.evaluate(binding)
        nondeg = not linalg.ring_det(k.matrix(), Poly.zero(), Poly.const(1)).is_zero()
        c6b = {norm: condition_6b(k, normalization=norm).is_zero()
               for norm in ("half", "raw")}
        results[label] = {"J": str(jval), "haantjes_nonzero_all_jk": nonzero_all,
                          "condition_6b": c6b, "nondegenerate": nondeg}
        ok = ok and nonzero_all and jval != 0 and nondeg and not any(c6b.values())
    return CheckResult(
        name="sw1-specialization-example",
        verdict=_verdict(ok),
        detail="specialized member: H nonzero for all j != k, 6b fails, J != 0",
        payload=results,
    )


def check_sw1_branches() -> CheckResult:
    """Every listed solution branch annihilates J; the generic branch
    is verified as a denominator-cleared polynomial identity."""
    j = parse_poly(J_TEXT)
    outcomes: Dict[str, bool] = {}
    for label, sub in BRANCH_SUBSTITUTIONS:
        binding = {var(k): parse_poly(v) for k, v in sub.items()}
        outcomes[label] = j.substitute(binding).is_zero()
    num = parse_poly(BRANCH_GENERIC_NUMERATOR)
    den = parse_poly(BRANCH_GENERIC_DENOMINATOR)
    b1 = Poly.variable(var("b1"))
    # J is linear in b1; b1 = num/den solves J = 0, so den*J must equal
    # -(b1*den - num)*den once the denominator is cleared.
    cleared = (j * den + (b1 * den - num) * den).is_zero()
    outcomes["generic: b1 = num/den (cleared)"] = cleared
    ok = all(outcomes.values())
    return CheckResult(
        name="sw1-branch-substitutions",
        verdict=_verdict(ok),
        detail="all solution branches annihilate J exactly",
        payload={"branches": outcomes},
    )


def check_sw1_linear_subspace() -> CheckResult:
    factors = list(system_radical("sw1").linear_factors)
    return CheckResult(
        name="sw1-no-linear-subspace",
        verdict=_verdict(factors == []),
        detail="J has no linear factor: no 5-dim linear subspace inside {J = 0}",
        payload={"linear_factors": factors},
    )


# ---- oscillator, OO and IV systems ------------------------------------


def check_oscillator(seed: int = 0) -> CheckResult:
    """Oscillator: every compatible Killing tensor is a constant
    symmetric matrix, the Haantjes-zero ideal is zero, and the
    structural tensor vanishes at 5 random points."""
    points = 5
    pot, reference = catalog()["oscillator"]
    fam = compatible_family(pot)
    six_constant = (len(fam.params) == 6
                    and span_equal(fam.basis(), reference.basis()))
    ideal_zero = system_ideal("oscillator").generators == []
    rng = random.Random(seed)
    p_zero = all(
        structural_tensor_at(fam, [random_rational(rng) for _ in range(3)]).is_zero()
        for _ in range(points))
    ok = six_constant and ideal_zero and p_zero
    return CheckResult(
        name="oscillator-all-haantjes-zero",
        verdict=_verdict(ok),
        detail="constant compatible family, zero ideal, zero structural tensor",
        payload={"constant_family": six_constant, "ideal_zero": ideal_zero,
                 "structural_tensor_zero": p_zero, "points": points},
    )


def check_oscillator_ideal() -> CheckResult:
    ideal = system_ideal("oscillator")
    ok = ideal.generators == []
    return CheckResult(
        name="oscillator-haantjes-zero-ideal", verdict=_verdict(ok),
        detail="zero ideal: all compatible Killing tensors Haantjes-zero",
        payload={"generators": [str(g) for g in ideal.generators]})


def _radical_protocol(name: str) -> Tuple[bool, Dict[str, object]]:
    r = system_radical(name)
    ok = (r.generators_divisible and r.generator_in_radical
          and r.hilbert_dimension == 5 and not r.linear_factors)
    # a fresh payload; factors as a list, as the text report prints them
    return ok, dict(r._asdict(), linear_factors=list(r.linear_factors))


def check_oo_iv_radicals() -> CheckResult:
    (ok_oo, oo), (ok_iv, iv) = _radical_protocol("oo"), _radical_protocol("iv")
    return CheckResult(
        name="oo-iv-radical-generators", verdict=_verdict(ok_oo and ok_iv),
        detail="OO/IV ideals have the documented principal radicals, dim 5",
        payload={"oo": oo, "iv": iv})


# ---- the non-maximal radial system ------------------------------------


def check_nonmaximal_mechanics(seed: int = 0) -> CheckResult:
    """The radial system with inverse-square wall terms: the four
    reference integrals are reproduced exactly, Poisson-commute with
    the Hamiltonian, the joint rank of {H, F1, F2, F3, F5} is 5, and
    the four-parameter Killing family is identically Haantjes-zero."""
    h, integrals = system_integrals("nonmaximal-3d")
    goldens = {label: integrals[label] == parse_poly(text)
               for label, text in F_GOLDENS.items()}
    commute = {label: poisson(h, f).is_zero()
               for label, f in integrals.items()}
    rank = functional_independence([h, *integrals.values()], seed=seed)
    # the family's torsion vanishes exactly when its ideal has no generator
    family_zero = not system_ideal("nonmaximal-3d").generators
    ok = (all(goldens.values()) and all(commute.values())
          and rank == 5 and family_zero)
    return CheckResult(
        name="nonmaximal-radial-mechanics",
        verdict=_verdict(ok),
        detail="reference integrals, commutation, rank 5, Haantjes-zero family",
        payload={"integrals_match": goldens, "poisson_commute": commute,
                 "rank_H_F1_F2_F3_F5": rank, "expected_rank": 5,
                 "family_haantjes_zero": family_zero},
    )


# ---- abundant-system formula ------------------------------------------


def check_abundant_formula(seed: int = 0) -> CheckResult:
    """The structural-tensor expression for the Haantjes torsion agrees
    with the direct computation on 3 random members of the radial
    family, each at 5 random rational points."""
    assignments, points = 3, 5
    _, fam = catalog()["sw1"]
    rng = random.Random(seed)
    checked = 0
    ok = True
    for _ in range(assignments):
        binding = {var(f"b{i}"): random_rational(rng) for i in range(1, 7)}
        k = fam.specialize(binding)
        torsion = haantjes(as_operator(k)).components  # once per member
        for _ in range(points):
            x0 = [random_rational(rng) for _ in range(3)]
            p = structural_tensor_at(fam, x0)
            at_x0 = _point_binding(x0, 3)
            if abundant_haantjes(p, k, x0) != [c.evaluate(at_x0) for c in torsion]:
                ok = False
            checked += 1
    return CheckResult(
        name="abundant-haantjes-formula",
        verdict=_verdict(ok),
        detail="structural-tensor Haantjes formula matches the direct torsion",
        payload={"assignments": assignments, "points": points,
                 "comparisons": checked},
    )


# ---- randomized property suites ---------------------------------------


def _random_poly(rng: random.Random, variables: Sequence[VarId]) -> Poly:
    """At most 3 terms, each of degree at most 2."""
    total = Poly.zero()
    for _ in range(rng.randint(1, 3)):
        term = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            term = term * Poly.variable(rng.choice(list(variables)))
        total = total + term
    return total


def _random_operator(rng: random.Random, n: int) -> TensorField:
    xs = [var(f"x{i + 1}") for i in range(n)]
    return TensorField.from_function(n, (1, 1), lambda idx: _random_poly(rng, xs))


def _swap_coordinates(t: TensorField, p: int, q: int) -> TensorField:
    """t in the coordinates with x_p and x_q exchanged (0-based p, q):
    the two variables are swapped in every component and the indices p
    and q in every slot."""
    xp, xq = VarId("x", p + 1), VarId("x", q + 1)
    swap = {xp: Poly.variable(xq), xq: Poly.variable(xp)}
    perm = list(range(t.n))
    perm[p], perm[q] = q, p
    return TensorField.from_function(
        t.n, t.valence, lambda idx: t[tuple(perm[i] for i in idx)].substitute(swap))


def check_torsion_properties(seed: int = 0) -> CheckResult:
    """Invariance under exchanging two coordinates, quadratic/quartic
    scaling under A -> c*A, and the universal two-dimensional vanishing
    of the Haantjes torsion.

    Both torsions are tensors, so the torsion of the operator with x_p
    and x_q exchanged is the torsion with x_p and x_q exchanged.  An
    exchange maps some pairs j < k to pairs k > j, so this fails when
    the components filled in from antisymmetry are wrong.  The payload
    reports it as "antisymmetry".  Exchange and scaling run on 5 random
    3D operators, planar vanishing on 50 random 2D ones."""
    samples, planar_samples = 5, 50
    rng = random.Random(seed)
    swapped = scaling = True
    for sample in range(samples):
        a = _random_operator(rng, 3)
        n_t, h_t = nijenhuis(a), haantjes(a)
        pair = ((0, 1), (0, 2), (1, 2))[sample % 3]
        b = _swap_coordinates(a, *pair)
        if (nijenhuis(b) != _swap_coordinates(n_t, *pair)
                or haantjes(b) != _swap_coordinates(h_t, *pair)):
            swapped = False
        c = Fraction(rng.randint(1, 7), rng.randint(1, 5))
        scaled = a.map(lambda p: p * Poly.const(c))
        if (nijenhuis(scaled) != n_t.map(lambda p: p * Poly.const(c ** 2))
                or haantjes(scaled) != h_t.map(lambda p: p * Poly.const(c ** 4))):
            scaling = False
    planar = all(haantjes(_random_operator(rng, 2)).is_zero()
                 for _ in range(planar_samples))
    ok = swapped and scaling and planar
    return CheckResult(
        name="torsion-property-suite",
        verdict=_verdict(ok),
        detail="antisymmetry, c^2/c^4 scaling, 2D Haantjes vanishing",
        payload={"antisymmetry": swapped, "scaling": scaling,
                 "planar_vanishing": planar, "planar_samples": planar_samples},
    )


def check_poisson_jacobi(seed: int = 0) -> CheckResult:
    """Jacobi identity for the canonical Poisson bracket on 50 random
    polynomial triples."""
    triples = 50
    rng = random.Random(seed)
    names = [var(f"x{i}") for i in (1, 2)] + [var(f"p{i}") for i in (1, 2)]
    ok = True
    for _ in range(triples):
        f, g, h = (_random_poly(rng, names) for _ in range(3))
        cyclic = (poisson(f, poisson(g, h)) + poisson(g, poisson(h, f))
                  + poisson(h, poisson(f, g)))
        if not cyclic.is_zero():
            ok = False
    return CheckResult(
        name="poisson-jacobi-identity",
        verdict=_verdict(ok),
        detail="Jacobi identity on random polynomial triples",
        payload={"triples": triples},
    )


def check_groebner_confluence() -> CheckResult:
    """Every computed Groebner basis reduces all of its S-polynomials
    to zero (Buchberger's criterion)."""
    ideals = {name: system_ideal(name) for name in ("sw1", "oo", "iv")}
    ideals["reference"] = sw1_reference_ideal()
    ok = True
    for ideal in ideals.values():
        basis, order = ideal.groebner(), ideal.order
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                if not normal_form(s_polynomial(basis[i], basis[j], order),
                                   basis, order).is_zero():
                    ok = False
    return CheckResult(
        name="groebner-s-pair-confluence",
        verdict=_verdict(ok),
        detail="all S-polynomials of every computed basis reduce to zero",
        payload={"bases": {k: len(v.groebner()) for k, v in ideals.items()}},
    )


# ---- system pipelines -------------------------------------------------
#
# A system action runs the named check that SYSTEMS lists for it, or
# else the generic action below, called with the system's name and
# radical generator.


class UnknownSystem(Exception):
    """Requested system, or action of a system, is not in the catalog."""


SYSTEM_ACTIONS = ("family", "ideal", "radical-check", "dimension",
                  "linear-subspace", "branches", "mechanics")


def _action_family(name: str, radical: Optional[str], seed: int) -> CheckResult:
    fam = _conventional(compatible_family(catalog()[name][0]))
    return CheckResult(
        name=f"{name}-compatible-family", verdict="evidence-only",
        detail=f"maximal compatible Killing family of the {name} system",
        payload={"parameters": len(fam.params),
                 "matrix": [[str(c) for c in row] for row in fam.tensor.matrix()]})


def _action_ideal(name: str, radical: Optional[str], seed: int) -> CheckResult:
    ideal = system_ideal(name)
    return CheckResult(
        name=f"{name}-haantjes-zero-ideal", verdict="evidence-only",
        detail=f"Haantjes-zero ideal of the {name} family",
        payload={"generators": [str(g) for g in ideal.generators]})


def _action_radical(name: str, radical: Optional[str], seed: int) -> CheckResult:
    if radical is None:
        return CheckResult(
            name=f"{name}-radical-generator", verdict="evidence-only",
            detail="zero ideal: radical is trivially zero", payload={})
    ok, payload = _radical_protocol(name)
    payload["radical_generator"] = radical
    return CheckResult(
        name=f"{name}-radical-generator", verdict=_verdict(ok),
        detail=f"principal radical of the {name} Haantjes-zero ideal",
        payload=payload)


def _action_dimension(name: str, radical: Optional[str], seed: int) -> CheckResult:
    if radical is None:
        return CheckResult(
            name=f"{name}-hilbert-dimension", verdict="evidence-only",
            detail="zero ideal: the full parameter space (dimension 6)",
            payload={"dimension": 6})
    dim = system_radical(name).hilbert_dimension
    return CheckResult(
        name=f"{name}-hilbert-dimension", verdict=_verdict(dim == 5),
        detail="Hilbert dimension of the radical Haantjes-zero ideal",
        payload={"dimension": dim})


def _action_linear(name: str, radical: Optional[str], seed: int) -> CheckResult:
    if radical is None:
        return CheckResult(
            name=f"{name}-no-linear-subspace", verdict="evidence-only",
            detail="zero ideal: every linear subspace is Haantjes-zero",
            payload={})
    factors = list(system_radical(name).linear_factors)
    return CheckResult(
        name=f"{name}-no-linear-subspace", verdict=_verdict(factors == []),
        detail="radical generator has no linear factor",
        payload={"linear_factors": factors})


def _action_mechanics(name: str, radical: Optional[str], seed: int) -> CheckResult:
    h, integrals = system_integrals(name)
    commute = [poisson(h, f).is_zero() for f in integrals.values()]
    rank = functional_independence([h, *integrals.values()], seed=seed)
    return CheckResult(
        name=f"{name}-mechanics", verdict=_verdict(all(commute)),
        detail="all family integrals Poisson-commute with the Hamiltonian",
        payload={"integrals": [str(f) for f in integrals.values()],
                 "poisson_commute": commute,
                 "functional_rank": rank})


_GENERIC_ACTIONS = {
    "family": _action_family,
    "ideal": _action_ideal,
    "radical-check": _action_radical,
    "dimension": _action_dimension,
    "linear-subspace": _action_linear,
    "mechanics": _action_mechanics,
}


def system_actions(name: str, actions: Sequence[str]) -> List[str]:
    """The actions to run for a catalog system: `actions`, or every
    action the system offers when it is empty.  Raises UnknownSystem,
    before anything runs, for an unknown system or action."""
    if name not in SYSTEMS:
        raise UnknownSystem(
            f"unknown system {name!r}; available: {sorted(SYSTEMS)}")
    overrides = SYSTEMS[name].overrides
    offered = [a for a in SYSTEM_ACTIONS
               if a in _GENERIC_ACTIONS or a in overrides]
    for action in actions:
        if action not in offered:
            raise UnknownSystem(f"unknown action {action!r} for {name}; "
                                f"available: {offered}")
    return list(actions) or offered


def run_system(name: str, actions: Sequence[str],
               seed: int = 0) -> List[CheckResult]:
    """Run actions of a catalog system, as returned by system_actions,
    in the given order."""
    row = SYSTEMS[name]
    return [run_named(row.overrides[action], seed) if action in row.overrides
            else run_check(_GENERIC_ACTIONS[action], name, row.radical, seed)
            for action in actions]


# ---- aggregation ------------------------------------------------------

ALL_CHECKS: List[Tuple[str, Callable[..., CheckResult]]] = [
    ("hessian-cubic-torsion-free", check_hessian_cubic),
    ("hessian-mixed-component-table", check_hessian_mixed),
    ("killing-space-dimensions", check_killing_dimensions),
    ("sw1-compatible-family", check_sw1_family),
    ("sw1-haantjes-zero-ideal", check_sw1_ideal),
    ("sw1-radical-primality", check_sw1_radical_primality),
    ("sw1-specialization-example", check_sw1_specialization),
    ("sw1-branch-substitutions", check_sw1_branches),
    ("sw1-no-linear-subspace", check_sw1_linear_subspace),
    ("oscillator-all-haantjes-zero", check_oscillator),
    ("oo-iv-radical-generators", check_oo_iv_radicals),
    ("nonmaximal-radial-mechanics", check_nonmaximal_mechanics),
    ("abundant-haantjes-formula", check_abundant_formula),
    ("torsion-property-suite", check_torsion_properties),
    ("poisson-jacobi-identity", check_poisson_jacobi),
    ("groebner-s-pair-confluence", check_groebner_confluence),
]

# Checks that only a system pipeline runs.
SYSTEM_CHECKS: List[Tuple[str, Callable[..., CheckResult]]] = [
    ("sw1-radical-generator", check_sw1_radical_generator),
    ("oscillator-haantjes-zero-ideal", check_oscillator_ideal),
]

_SEEDED = {"oscillator-all-haantjes-zero", "nonmaximal-radial-mechanics",
           "abundant-haantjes-formula", "torsion-property-suite",
           "poisson-jacobi-identity"}


def run_named(name: str, seed: int = 0) -> CheckResult:
    """Run the check registered under `name`, with `seed` if it draws
    random cases."""
    kwargs = {"seed": seed} if name in _SEEDED else {}
    return run_check(dict(ALL_CHECKS + SYSTEM_CHECKS)[name], **kwargs)


def run_all(seed: int = 0) -> List[CheckResult]:
    """Run every check of ALL_CHECKS in fixed order."""
    return [run_named(name, seed) for name, _ in ALL_CHECKS]
