"""Benchmark of haantjeskit: end-to-end metrics per workload, or
per-layer metrics from a traced run.

    python3 perfbench/run.py --workload hessian-sweep --seed 0 --seconds 60 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

  system-pipelines  ``cli.cmd_system(name, [])`` for the five catalog
                    systems per invocation; an item is one action,
                    compared with golden/system_pipelines.json.
  hessian-sweep     ``cli.cmd_hessian(text, n)`` on seeded random
                    polynomials, HESSIAN_BATCH per invocation; an item is
                    one polynomial, checked against reference.py.
  reproduce         one ``checks.run_all(seed)`` per invocation; an item
                    is one check, compared with golden/reproduce.json.
                    Not in BENCHMARK.json: its work varies with the seed
                    and an invocation takes 10-19 s on a shared 2-vCPU
                    2.1 GHz VM, so the three that fit in a 40 s run spread
                    0.27 (IQR/median over ten seeds), more than any bound
                    allows.  Compare commits on it by hand, same seeds.

Load is a closed loop of one client: invocations run one after another,
each in a fresh interpreter (child.py), because a command-line user pays
every in-process cache again on each call.  A new invocation starts
while the time spent plus half the mean invocation time is within
``--seconds``, so a run ends within half an invocation of it; at least
one always runs.  Each invocation draws its inputs from a generator
seeded with ``--seed``.

With ``--trace 0`` the run reports set-up time (median over SETUP_PROBES
import-only interpreters at the start, one more after each invocation,
and every invocation), the mean wall time of an invocation's work and
the median peak RSS.  With ``--trace 1`` every invocation runs twice on
the same inputs, untraced and then traced, and the run reports the
per-layer metrics of tracer.py, averaged over the traced invocations;
the difference of the two wall times is the tracing overhead.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from itertools import zip_longest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracer  # noqa: E402

SYSTEMS = ("sw1", "oscillator", "oo", "iv", "nonmaximal-3d")
# Torsion work is heavy-tailed and follows the number of terms of the
# Hessian (its cube correlates 0.97 with Poly.mul term pairs over 240
# draws), so each batch of 16 polynomials holds two per (variables,
# Hessian size) pair, the sizes being the 1st, 3rd, 5th and 7th octiles
# of the unconstrained draw.  Without this, work per item varied by 13%
# (IQR/median) between seeds.
HESSIAN_SIZES = {3: (7, 9, 11, 13), 4: (8, 10, 12, 15)}
HESSIAN_BATCH = 16
SETUP_PROBES = 4
DEADLINE_S = 170  # a run must end within 180 s


def _job_seed(rng: random.Random) -> int:
    return rng.randrange(2 ** 31)


class Reproduce:
    def __init__(self):
        self.golden = json.loads((BENCH / "golden" / "reproduce.json").read_text())["checks"]

    def make_job(self, rng):
        return {"seed": _job_seed(rng)}

    def check(self, job, items):
        """(attempted, failed), comparing each check with its golden entry."""
        if isinstance(items, dict):  # run_all raised: no check passed
            items = []
        pairs = list(zip_longest(items, self.golden))
        return len(pairs), sum(got != want for got, want in pairs)


class SystemPipelines:
    def __init__(self):
        self.golden = json.loads((BENCH / "golden" / "system_pipelines.json").read_text())

    def make_job(self, rng):
        return {"seed": _job_seed(rng), "systems": list(SYSTEMS)}

    def check(self, job, items):
        attempted = failed = 0
        for name, got in zip(job["systems"], items):
            if isinstance(got, dict):  # cmd_system raised: no action passed
                got = []
            pairs = list(zip_longest([[c["name"], c["verdict"], c["payload"]] for c in got],
                                     self.golden[name]))
            attempted += len(pairs)
            failed += sum(g != w for g, w in pairs)
        return attempted, failed


class HessianSweep:
    def make_job(self, rng):
        polys, refs = [], []
        for k in range(HESSIAN_BATCH):
            n = 3 + k % 2
            sizes = HESSIAN_SIZES[n]
            f = reference.random_hessian_input(rng, n, sizes[k // 2 % len(sizes)])
            polys.append([reference.poly_text(f), n])
            refs.append((n, f, reference.random_point(rng, n)))
        # the program receives only "polys"; "_refs" stays in this process
        return {"polys": polys, "_refs": refs}

    @staticmethod
    def item_ok(n, f, x, payload) -> bool:
        if isinstance(payload, dict) and "error" in payload:
            return False
        p = payload["payload"]
        a, n_t, h_t = reference.hessian_torsions_at(f, n, x)
        r = range(n)
        ok = (len(p["conserved"]) == n + 1 and all(p["conserved"])
              and p["haantjes_zero"] == (not p["haantjes_nonzero"])
              and [reference.evaluate_text(t, x) for t in p["operator"]]
              == [a[i][j] for i in r for j in r])
        for tag, table, want in (("N", p["nijenhuis_nonzero"], n_t),
                                 ("H", p["haantjes_nonzero"], h_t)):
            for i in r:
                for j in r:
                    for k in r:
                        text = table.get(f"{tag}^{i + 1}_{j + 1}{k + 1}")
                        got = reference.evaluate_text(text, x) if text else 0
                        ok = ok and got == want[i][j][k]
        return ok

    def check(self, job, items):
        failed = sum(not self.item_ok(n, f, x, item)
                     for (n, f, x), item in zip(job["_refs"], items))
        return len(job["_refs"]), failed + len(job["_refs"]) - len(items)


WORKLOADS = {"reproduce": Reproduce, "system-pipelines": SystemPipelines,
             "hessian-sweep": HessianSweep}


class Runner:
    """Starts child interpreters one at a time, within the run deadline."""

    def __init__(self):
        self.t_start = time.perf_counter()

    def invoke(self, job: dict) -> dict:
        payload = json.dumps({k: v for k, v in job.items() if not k.startswith("_")})
        timeout = DEADLINE_S - (time.perf_counter() - self.t_start)
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, "-I", str(BENCH / "child.py")],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            out, err = proc.communicate(payload, timeout=max(timeout, 1))
        finally:
            if proc.returncode is None:  # past the run deadline, or interrupted
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"invocation exited with {proc.returncode}:\n{err}")
        reply = json.loads(out)
        reply["setup_s"] = reply["ready"] - spawned
        return reply


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]()
    runner = Runner()
    rng = random.Random(seed)
    runner.invoke({"workload": "setup"})  # warm-up: bytecode cache
    setups = [runner.invoke({"workload": "setup"})["setup_s"]
              for _ in range(SETUP_PROBES)]
    plain, traced, spent = [], [], []
    attempted = failed = 0
    t0 = time.perf_counter()
    while not spent or time.perf_counter() - t0 + statistics.mean(spent) / 2 <= seconds:
        t_inv = time.perf_counter()
        job = dict(wl.make_job(rng), workload=workload)
        replies = [runner.invoke(job)]
        plain.append(replies[0])
        if trace:
            (BENCH / "out").mkdir(exist_ok=True)
            spans = BENCH / "out" / f"spans-{workload}-{seed}-{len(traced)}.json"
            replies.append(runner.invoke(dict(job, trace=True, spans_path=str(spans))))
            traced.append(replies[-1])
        # one set-up probe per invocation, so set-up is sampled across the run
        replies.append(runner.invoke({"workload": "setup"}))
        for reply in replies:
            setups.append(reply["setup_s"])
            if "items" in reply:
                a, f = wl.check(job, reply["items"])
                attempted += a
                failed += f
        spent.append(time.perf_counter() - t_inv)

    if trace:
        overhead = (statistics.mean(r["run_s"] for r in traced)
                    - statistics.mean(r["run_s"] for r in plain))
        values = tracer.layer_metrics([r["trace"] for r in traced], overhead)
        units = dict(tracer.per_layer_metrics())
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.mean(r["run_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in plain) / 1024}
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
    return {"run_s": [r["run_s"] for r in plain], "setups": len(setups),
            "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "haantjeskit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no haantjeskit sources under {ROOT / 'src'}")

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(res['run_s'])} invocations, {res['setups']} set-ups")
    print("  invocation run_s: " + " ".join(f"{t:.3f}" for t in res["run_s"]))
    for name, m in res["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    ratio = res["failed"] / res["attempted"]
    print(f"  {'failed_ratio':<48} {ratio:.6g} ({res['failed']}/{res['attempted']} items)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": res["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
