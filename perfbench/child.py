"""One invocation of a workload in a fresh interpreter.

Started by ``run.py`` as ``python -I child.py``, with a JSON job on
standard input.  It imports ``haantjeskit`` from the checkout's ``src``
and builds the catalog (the set-up being timed), then, unless the job
is a set-up probe, runs the workload's work through public entry points
only, optionally under the tracer, and writes one JSON object to
standard output: the set-up stamp, the work's wall time, the process's
peak RSS and one output per item.  Outputs are checked by ``run.py``.
"""

import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import haantjeskit.cli  # noqa: E402  (imports the package and its checks)

haantjeskit.catalog()
READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def work_reproduce(job):
    try:
        return haantjeskit.checks.run_all(seed=job["seed"])
    except Exception as exc:  # every check of the suite counts as failed
        return {"error": repr(exc)}


def work_system(job):
    out = []
    for name in job["systems"]:
        try:
            out.append(haantjeskit.cli.cmd_system(name, [], seed=job["seed"]).checks)
        except Exception as exc:
            out.append({"error": repr(exc)})
    return out


def work_hessian(job):
    out = []
    for text, n in job["polys"]:
        try:
            out.append(haantjeskit.cli.cmd_hessian(text, n).checks[0])
        except Exception as exc:
            out.append({"error": repr(exc)})
    return out


WORK = {"reproduce": work_reproduce, "system-pipelines": work_system,
        "hessian-sweep": work_hessian}


def jsonable(raw):
    """Outputs as JSON values; a check becomes its report entry without
    its timing."""
    if isinstance(raw, list):
        return [jsonable(r) for r in raw]
    if hasattr(raw, "to_json_obj"):
        return {k: v for k, v in raw.to_json_obj().items() if k != "seconds"}
    return raw


def main():
    job = json.loads(sys.stdin.read())
    reply = {"ready": READY}
    if job["workload"] != "setup":
        tracer = None
        if job.get("trace"):
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        raw = WORK[job["workload"]](job)
        run_s = time.perf_counter() - t0
        reply["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        reply["run_s"] = run_s
        reply["items"] = jsonable(raw)
        if tracer is not None:
            reply["trace"] = tracer.summary(run_s)
            tracer.write_spans(job["spans_path"])
    sys.stdout.write(json.dumps(reply))


if __name__ == "__main__":
    main()
