"""Self-tests of the benchmark: the independent Hessian reference, the
tracer's invariants and the agreement of BENCHMARK.json with run.py.

    python3 -m pytest -q perfbench
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

MIXED_CUBIC = {(3, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)}  # x1^3 + x1*x2*x3


def test_reference_reproduces_the_computed_table_of_the_mixed_cubic():
    from haantjeskit import cli
    assert reference.poly_text(MIXED_CUBIC) == "x1^3 + x1*x2*x3"
    item = cli.cmd_hessian("x1^3 + x1*x2*x3", 3).checks[0].to_json_obj()
    rng = random.Random(0)
    for _ in range(3):
        x = reference.random_point(rng, 3)
        _, _, h = reference.hessian_torsions_at(MIXED_CUBIC, 3, x)
        assert sum(1 for plane in h for row in plane for v in row if v) > 0
        assert run.HessianSweep.item_ok(3, MIXED_CUBIC, x, item)
    # a wrong table is caught
    item["payload"]["haantjes_nonzero"]["H^1_23"] = "x1"
    assert not run.HessianSweep.item_ok(3, MIXED_CUBIC, x, item)


def _pair(workload, job):
    """(untraced reply, traced reply, failures of each) for one job."""
    runner = run.Runner()
    job = dict(job, workload=workload)
    plain = runner.invoke(job)
    (BENCH / "out").mkdir(exist_ok=True)
    traced = runner.invoke(dict(job, trace=True,
                                spans_path=str(BENCH / "out" / f"spans-test-{workload}.json")))
    wl = run.WORKLOADS[workload]()
    return plain, traced, wl.check(job, plain["items"]), wl.check(job, traced["items"])


@pytest.fixture(scope="module")
def hessian_pair():
    job = run.HessianSweep().make_job(random.Random(3))
    job["polys"], job["_refs"] = job["polys"][:3], job["_refs"][:3]
    return _pair("hessian-sweep", job)


@pytest.fixture(scope="module")
def system_pair():
    return _pair("system-pipelines", {"seed": 11, "systems": ["oscillator", "oo"]})


@pytest.mark.parametrize("pair", ["hessian_pair", "system_pair"])
def test_tracing_changes_no_output(pair, request):
    plain, traced, plain_check, traced_check = request.getfixturevalue(pair)
    assert plain_check[1] == 0 and traced_check == plain_check
    assert traced["items"] == plain["items"]


@pytest.mark.parametrize("pair", ["hessian_pair", "system_pair"])
def test_layer_self_times_and_unattributed_sum_to_traced_wall(pair, request):
    summary = request.getfixturevalue(pair)[1]["trace"]
    layers = [summary[f"{m}.self_s"] for m in tracer.MODULES]
    assert min(layers) >= 0 and summary["unattributed_s"] >= 0
    assert sum(layers) + summary["unattributed_s"] == pytest.approx(summary["traced_run_s"])
    assert summary["cli.self_s"] > 0


def test_hessian_sweep_makes_no_ideal_killing_or_mechanics_call(hessian_pair):
    metrics = tracer.layer_metrics([hessian_pair[1]["trace"]], 0.0)
    calls = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    assert calls["symalg.Poly.mul.calls"] > 0 and calls["haantjes.haantjes.calls"] == 6
    for name, value in calls.items():
        if name.split(".")[0] in ("ideals", "killing", "mechanics"):
            assert value == 0, name


def test_system_pipelines_trace_sees_repeated_arguments(system_pair):
    metrics = tracer.layer_metrics([system_pair[1]["trace"]], 0.0)
    assert metrics["killing.killing_space.calls"] >= 2
    assert metrics["killing.killing_space.repeat_ratio"] > 0
    assert metrics["ideals.buchberger.calls"] > 0


def test_benchmark_json_matches_the_harness():
    from haantjeskit import checks
    assert tracer.CHECK_NAMES == tuple(name for name, _ in checks.ALL_CHECKS)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.per_layer_metrics()
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "run_s", "peak_rss_mb"}
