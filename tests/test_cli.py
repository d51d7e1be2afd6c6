"""Command-line front end: reports, exit codes, JSON stability."""

import hashlib
import itertools
import json
import random
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest

import haantjeskit
from haantjeskit import checks
from haantjeskit.checks import CheckResult
from haantjeskit.cli import UnknownSystem, cmd_hessian, cmd_system, main
from haantjeskit.haantjes import haantjes, nijenhuis
from haantjeskit.killing import catalog
from haantjeskit.symalg import Poly, parse_poly, var
from haantjeskit.tensor import hessian_operator

from .test_symalg import INT_DIGIT_LIMIT


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestHessianCommand:
    def test_zero_verdict(self, capsys):
        code, out = run(["hessian", "--poly", "x1^3", "--dim", "3"], capsys)
        assert code == 0
        assert "vanishes" in out
        assert "haantjes_zero = True" in out

    def test_nonzero_verdict_with_witness(self, capsys):
        code, out = run(["hessian", "--poly", "x1^3 + x1*x2*x3"], capsys)
        assert code == 0  # informational: nonzero torsion is not a failure
        assert "nonzero" in out
        assert "witness" in out

    def test_parse_error_exits_2(self, capsys):
        assert main(["hessian", "--poly", "x1 $"]) == 2

    @pytest.mark.parametrize("args", [
        ["--poly", "x1^3", "--dim", "0"],
        ["--poly", "x1^3", "--dim", "1"],
        ["--poly", "x1^3", "--dim", "-1"],
        ["--poly", "x1^-2"],
        ["--poly", "1/0"],
        ["--poly", "x5^3", "--dim", "2"],
        # a numeral longer than Python converts to an int
        *(pytest.param(["--poly", template.format("1" * (INT_DIGIT_LIMIT + 1))],
                       marks=pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                                reason="no int-string digit limit"))
          for template in ("{}*x1^3", "x1^{}", "x{}")),
        # an exponent Python converts whose Hessian coefficient e*(e-1)
        # has more digits than it prints
        pytest.param(["--poly", "x1^" + "1" * (INT_DIGIT_LIMIT // 2 + 350)],
                     marks=pytest.mark.skipif(not INT_DIGIT_LIMIT,
                                              reason="no int-string digit limit")),
    ])
    def test_malformed_input_exits_2(self, args, capsys):
        assert main(["hessian"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_negative_exponent_report(self):
        report = cmd_hessian("x1^2 + x2^2", 2)
        assert report.checks[0].payload["haantjes_zero"] is True

    def test_two_digit_indices_keep_every_component(self):
        # without a separator H^1_(1,11) and H^1_(11,1) would both be
        # labelled H^1_111; from n = 10 on the lower indices take a comma
        f = parse_poly("x1*x11^2 + x11*x1^2 + x2*x11*x1")
        payload = checks.check_hessian_torsion(str(f), 11).payload
        op = hessian_operator(f, 11)
        for tag, table, tensor, count in (("N", "nijenhuis_nonzero", nijenhuis(op), 18),
                                          ("H", "haantjes_nonzero", haantjes(op), 6)):
            expected = {f"{tag}^{i + 1}_{j + 1},{k + 1}": str(tensor[(i, j, k)])
                        for (i, j, k) in tensor.indices()
                        if not tensor[(i, j, k)].is_zero()}
            assert len(expected) == count
            assert payload[table] == expected
        assert payload["witness"].startswith("H^1_2,11 = ")


@pytest.mark.parametrize("argv", [
    ["hessian", "--poly", "x1", "--dim", "abc"],
    ["hessian", "--dim", "3"],
    ["bogus"],
    ["system", "--system", "sw1", "--seed", "x"],
])
def test_argument_error_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def seeded_hessian_inputs():
    """32 (polynomial text, n) pairs: four seeded terms of degree 2 to 4
    in x1..xn, alternating n = 3 and n = 4."""
    rng = random.Random(18)
    inputs = []
    for k in range(32):
        n = 3 + k % 2
        xs = [var(f"x{s + 1}") for s in range(n)]
        f = Poly.zero()
        for _ in range(4):
            term = Poly.const(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                       rng.randint(1, 4)))
            for v in rng.choices(xs, k=rng.randint(2, 4)):
                term = term * Poly.variable(v)
            f = f + term
        inputs.append((str(f), n))
    return inputs


class TestHessianPayloadPin:
    # SHA-256 of the JSON of every hessian-torsion result below, without
    # its timing: operators, conservation verdicts, every nonzero N and
    # H component and the witness must stay byte-identical.
    PAYLOAD_SHA256 = "ebbb71d79f4ce889f48e11f2d58f0dd61658310fc6313189c5aca3ae515655df"

    def test_payloads_are_byte_identical(self):
        objs = []
        for text, n in seeded_hessian_inputs():
            obj = checks.check_hessian_torsion(text, n).to_json_obj()
            del obj["seconds"]
            objs.append(obj)
        # 31 of the 32 have a nonzero Haantjes torsion
        assert sum(o["payload"]["haantjes_zero"] for o in objs) == 1
        blob = json.dumps(objs, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PAYLOAD_SHA256


class TestSystemCommand:
    def test_unknown_system_exits_2(self, capsys):
        assert main(["system", "--system", "nope"]) == 2

    def test_unknown_action_exits_2(self, capsys):
        assert main(["system", "--system", "sw1", "levitate"]) == 2

    def test_branches_only_for_sw1(self):
        with pytest.raises(UnknownSystem):
            cmd_system("oo", ["branches"])

    @pytest.mark.parametrize("name, actions", [
        ("sw1", ["ideal", "levitate"]),
        ("oo", ["family", "branches"]),
    ])
    def test_actions_validated_before_any_runs(self, name, actions,
                                               monkeypatch, capsys):
        def refuse(*args, **kwargs):
            pytest.fail("a check ran before the actions were validated")
        monkeypatch.setattr(checks, "run_check", refuse)
        assert main(["system", "--system", name] + actions) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_oscillator_ideal(self, capsys):
        code, out = run(["system", "--system", "oscillator", "ideal"], capsys)
        assert code == 0
        assert "zero ideal" in out

    def test_deterministic_given_seed(self):
        def snapshot():
            report = cmd_system("sw1", ["branches", "dimension"], seed=5)
            obj = json.loads(report.to_json())
            obj.pop("seconds")
            for c in obj["checks"]:
                c.pop("seconds")
            return obj
        assert snapshot() == snapshot()

    def test_json_round_trip_is_byte_identical(self):
        report = cmd_system("sw1", ["dimension"])
        s = report.to_json()
        assert json.dumps(json.loads(s), sort_keys=True, indent=2) + "\n" == s


class TestSystemTable:
    def test_one_entry_per_catalog_system(self):
        assert set(checks.SYSTEMS) == set(catalog())

    def test_radical_generators_are_cubics_in_b(self):
        params = {var(f"b{i}") for i in range(1, 7)}
        for radical, _ in checks.SYSTEMS.values():
            if radical is not None:
                g = parse_poly(radical)
                assert set(g.variables()) <= params
                assert {sum(e for _, e in m) for m in g.terms} == {3}

    def test_overrides_name_registered_checks(self):
        registered = dict(checks.ALL_CHECKS + checks.SYSTEM_CHECKS)
        for _, overrides in checks.SYSTEMS.values():
            assert set(overrides) <= set(checks.SYSTEM_ACTIONS)
            assert set(overrides.values()) <= set(registered)

    def test_seeded_checks_are_those_taking_a_seed(self):
        # run_named passes the seed only to _SEEDED, so a randomized
        # check missing from it would silently ignore reproduce --seed
        def takes_seed(fn):
            code = fn.__code__
            return "seed" in code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]

        registered = checks.ALL_CHECKS + checks.SYSTEM_CHECKS
        assert checks._SEEDED == {name for name, fn in registered if takes_seed(fn)}


class TestReproduce:
    def test_full_suite(self, capsys):
        code, out = run(["reproduce", "--json"], capsys)
        obj = json.loads(out)
        # Byte-stable JSON.
        assert json.dumps(obj, sort_keys=True, indent=2) + "\n" == out
        # The randomized suites run their default number of cases.
        by_name = {c["name"]: c for c in obj["checks"]}
        assert by_name["torsion-property-suite"]["payload"]["planar_samples"] == 50
        assert by_name["poisson-jacobi-identity"]["payload"]["triples"] == 50
        # Two reference claims from the source are not reproducible and
        # are reported as honest failures; everything else passes.
        fails = sorted(n for n, c in by_name.items() if c["verdict"] == "fail")
        assert fails == ["hessian-mixed-component-table",
                         "nonmaximal-radial-mechanics"]
        assert code == 1


# Runs in a fresh isolated interpreter (python -I ignores PYTHONPATH and
# the user site); argv[1] is the directory holding the package.  Modules
# that site loads at start-up (certifi, on some installs) are in `before`.
STDLIB_PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
from haantjeskit import cli
from haantjeskit.killing import catalog
catalog()
cli.cmd_system("sw1", [])
cli.cmd_hessian("x1^3 + x1*x2*x3", 3)
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.fixture(scope="module")
def probe_loaded():
    """The modules that STDLIB_PROBE's pipelines load."""
    src = Path(haantjeskit.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-I", "-c", STDLIB_PROBE, str(src)],
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()[-1].split()


class TestStdlibOnly:
    def test_pipelines_load_only_the_standard_library(self, probe_loaded):
        assert "haantjeskit.ideals" in probe_loaded
        foreign = [m for m in probe_loaded if m.partition(".")[0] != "haantjeskit"
                   and m.partition(".")[0] not in sys.stdlib_module_names]
        assert foreign == []

    def test_no_dataclasses_or_inspect(self, probe_loaded):
        # `dataclasses` pulls in inspect, ast, dis and tokenize, close to
        # a fifth of every command's start-up
        assert {"dataclasses", "inspect"}.isdisjoint(probe_loaded)


class TestOneClock:
    """checks.run_check is the one place where timing is recorded."""

    def test_direct_call_reports_zero(self):
        assert checks.check_sw1_branches().seconds == 0.0
        assert checks.check_hessian_torsion("x1^3", 3).seconds == 0.0

    def test_run_check_records_the_wall_time(self):
        def slow():
            time.sleep(0.02)
            return CheckResult("slow", "pass", "")
        t0 = time.perf_counter()
        result = checks.run_check(slow)
        assert 0.02 <= result.seconds <= time.perf_counter() - t0

    @pytest.mark.parametrize("make, count", [
        (lambda: cmd_hessian("x1^3", 3), 1),
        (lambda: cmd_system("sw1", ["branches", "dimension"]), 2),
    ], ids=["hessian", "system"])
    def test_every_check_of_a_report_is_timed_by_run_check(self, make, count,
                                                           monkeypatch):
        ticks = itertools.count(step=0.25)
        monkeypatch.setattr(checks, "time",
                            types.SimpleNamespace(perf_counter=lambda: next(ticks)))
        report = make()
        assert [c.seconds for c in report.checks] == [0.25] * count
        assert report.seconds == 0.25 * count

    def test_report_seconds_and_version(self):
        report = cmd_system("sw1", ["branches", "dimension"])
        assert all(c.seconds > 0 for c in report.checks)
        assert report.seconds == round(sum(c.seconds for c in report.checks), 3)
        assert report.version == haantjeskit.__version__
        obj = json.loads(report.to_json())
        assert (obj["seconds"], obj["version"]) == (report.seconds, haantjeskit.__version__)


class TestCheckResult:
    def test_default_payloads_are_separate(self):
        a, b = CheckResult("a", "pass", ""), CheckResult("b", "pass", "")
        a.payload["k"] = 1
        assert b.payload == {}
