"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line before asserting.  Two criteria assert reference values
that the computations contradict; those tests fail honestly, with the
computed values attached to the assertion message.
"""

from haantjeskit import checks


def verdict_line(number, description, ok):
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    return ok


def test_criterion_01_hessian_examples():
    cubic = checks.check_hessian_cubic()
    mixed = checks.check_hessian_mixed()
    ok = cubic.verdict == "pass" and mixed.verdict == "pass"
    verdict_line(1, "Hessian operator examples reproduce published torsions", ok)
    assert ok, {"cubic": cubic.payload, "mixed": mixed.payload}


def test_criterion_02_killing_space_dimensions():
    r = checks.check_killing_dimensions()
    ok = r.verdict == "pass"
    verdict_line(2, "Killing space dimensions: 20 (n=3), 6 (n=2)", ok)
    assert ok, r.payload


def test_criterion_03_sw1_compatible_family():
    r = checks.check_sw1_family()
    ok = r.verdict == "pass"
    verdict_line(3, "SW I compatible family: dimension 6, documented span", ok)
    assert ok, r.payload


def test_criterion_04_sw1_ideal():
    r = checks.check_sw1_ideal()
    ok = r.verdict == "pass"
    verdict_line(4, "SW I Haantjes-zero ideal and its radical <J>, dim 5", ok)
    assert ok, r.payload


def test_criterion_05_specialization_example():
    r = checks.check_sw1_specialization()
    ok = r.verdict == "pass"
    verdict_line(5, "specialized member: matrix, nonzero torsion, 6b, J != 0", ok)
    assert ok, r.payload


def test_criterion_06_branch_substitutions():
    r = checks.check_sw1_branches()
    ok = r.verdict == "pass"
    verdict_line(6, "all solution branches annihilate J exactly", ok)
    assert ok, r.payload


def test_criterion_07_no_linear_subspace():
    r = checks.check_sw1_linear_subspace()
    ok = r.verdict == "pass"
    verdict_line(7, "J has no linear factor (no 5-dim linear subspace)", ok)
    assert ok, r.payload


def test_criterion_08_oscillator():
    r = checks.check_oscillator(seed=0)
    ok = r.verdict == "pass"
    verdict_line(8, "oscillator: constant family, zero ideal, zero P", ok)
    assert ok, r.payload


def test_criterion_09_oo_iv_radicals():
    r = checks.check_oo_iv_radicals()
    ok = r.verdict == "pass"
    verdict_line(9, "OO/IV radical generators, dim 5, no linear factor", ok)
    assert ok, r.payload


def test_criterion_10_radial_system_mechanics():
    r = checks.check_nonmaximal_mechanics(seed=0)
    ok = r.verdict == "pass"
    verdict_line(10, "radial system: integrals, commutation, rank 5", ok)
    assert ok, r.payload


def test_criterion_11_abundant_formula():
    r = checks.check_abundant_formula(seed=0)
    ok = r.verdict == "pass"
    verdict_line(11, "structural-tensor Haantjes formula matches direct", ok)
    assert ok, r.payload


def test_criterion_12_property_suites():
    torsion = checks.check_torsion_properties(seed=0)
    jacobi = checks.check_poisson_jacobi(seed=0)
    groebner = checks.check_groebner_confluence()
    ok = all(r.verdict == "pass" for r in (torsion, jacobi, groebner))
    verdict_line(12, "randomized torsion/Poisson/Groebner property suites", ok)
    assert ok, {"torsion": torsion.payload, "jacobi": jacobi.payload,
                "groebner": groebner.payload}
