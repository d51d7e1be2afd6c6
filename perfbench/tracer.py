"""Outside-in tracer: wraps public functions of ``haantjeskit`` from the
benchmark's side, without editing the package.

Each wrapped function is rebound in *every* ``haantjeskit.*`` namespace
that holds it (``checks``, ``cli``, ``ideals`` and ``mechanics`` import
by name, and calls inside a module resolve through its globals), and in
``checks.ALL_CHECKS``, through which ``run_all`` calls the checks.
``Poly.__mul__``, ``__add__`` and ``__sub__`` are wrapped on the class.

A call opens a frame on a stack; when it returns, its duration is added
to its caller's child time, so self time is inclusive time minus the
time covered by child spans.  Inclusive time counts only the outermost
active call of a name, so recursion is not counted twice.  Spans (id,
name, start, end, parent id) are kept in memory and written out when
the run ends; the ~10^5 Poly operations per run are aggregated into
per-name totals instead of being stored one by one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List

MODULES = ("symalg", "tensor", "haantjes", "killing", "ideals", "mechanics",
           "linalg", "checks", "cli")

FUNCTIONS = {
    "tensor": ("partial_derivative", "hessian_operator"),
    "haantjes": ("nijenhuis", "haantjes", "conservation_check"),
    "killing": ("killing_space", "compatible_family"),
    "ideals": ("buchberger", "normal_form", "linear_factor", "radical_member",
               "member", "hilbert_dimension", "haantjes_zero_ideal"),
    "mechanics": ("structural_tensor_at", "haantjes_kernel", "abundant_haantjes",
                  "haantjes_at", "functional_independence", "condition_6b"),
    "linalg": ("rref",),
    "cli": ("cmd_system", "cmd_hessian"),
}
POLY_OPS = {"mul": "__mul__", "add": "__add__", "sub": "__sub__"}

CHECK_NAMES = (
    "hessian-cubic-torsion-free", "hessian-mixed-component-table",
    "killing-space-dimensions", "sw1-compatible-family",
    "sw1-haantjes-zero-ideal", "sw1-radical-primality",
    "sw1-specialization-example", "sw1-branch-substitutions",
    "sw1-no-linear-subspace", "oscillator-all-haantjes-zero",
    "oo-iv-radical-generators", "nonmaximal-radial-mechanics",
    "abundant-haantjes-formula", "torsion-property-suite",
    "poisson-jacobi-identity", "groebner-s-pair-confluence",
)


def _family_key(family) -> str:
    return f"{family.params}|{[str(c) for c in family.tensor.components]}"


# Deterministic work counts taken at a layer boundary: name -> (counter,
# function of (args, result) giving the amount to add).
HOOKS: Dict[str, tuple] = {
    "haantjes.haantjes": ("terms_out", lambda args, r: sum(len(c.terms) for c in r.components)),
    "ideals.buchberger": ("basis_out", lambda args, r: len(r)),
    "ideals.normal_form": ("zeros", lambda args, r: int(r.is_zero())),
    "mechanics.haantjes_kernel": ("entries_out", lambda args, r: len(r)),
    "linalg.rref": ("cells_in", lambda args, r: len(args[0]) * len(args[0][0]) if args[0] else 0),
}
# Functions whose repeated arguments are counted: name -> argument key.
REPEAT_KEYS: Dict[str, Callable] = {
    "ideals.haantjes_zero_ideal": lambda args: _family_key(args[0]),
    "killing.killing_space": lambda args: args[0],
}


def per_layer_metrics() -> List[tuple]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []

    def add(prefix, stats):
        for stat in stats:
            out.append((f"{prefix}.{stat}", "s" if stat.endswith("_s") else
                        "ratio" if stat.endswith("_ratio") else "count"))

    for op in POLY_OPS:
        add(f"symalg.Poly.{op}", ("calls", "self_s"))
    add("symalg.Poly.mul", ("term_pairs",))
    for fn in ("haantjes", "nijenhuis"):
        add(f"haantjes.{fn}", ("calls", "incl_s", "self_s"))
    add("haantjes.haantjes", ("terms_out",))
    add("haantjes.conservation_check", ("calls",))
    for fn in FUNCTIONS["tensor"]:
        add(f"tensor.{fn}", ("calls", "self_s"))
    add("ideals.buchberger", ("calls", "incl_s", "self_s", "basis_out"))
    add("ideals.normal_form", ("calls", "self_s", "zero_ratio"))
    for fn in ("linear_factor", "radical_member", "member", "hilbert_dimension"):
        add(f"ideals.{fn}", ("incl_s",))
    add("ideals.haantjes_zero_ideal", ("calls", "incl_s", "repeat_ratio"))
    for fn in FUNCTIONS["killing"]:
        add(f"killing.{fn}", ("calls", "incl_s"))
    add("killing.killing_space", ("repeat_ratio",))
    for fn in FUNCTIONS["mechanics"]:
        add(f"mechanics.{fn}", ("calls", "incl_s", "self_s"))
    add("mechanics.haantjes_kernel", ("entries_out",))
    add("linalg.rref", ("calls", "self_s", "cells_in"))
    for check in CHECK_NAMES:
        add(f"checks.{check}", ("incl_s",))
    for fn in FUNCTIONS["cli"]:
        add(f"cli.{fn}", ("incl_s",))
    for module in MODULES:
        add(module, ("self_s",))
    out += [("unattributed_s", "s"), ("traced_run_s", "s"), ("trace_overhead_s", "s")]
    return out


class Tracer:
    """Span stack, per-name totals and stored spans for one traced run."""

    def __init__(self):
        self.stack: List[list] = []  # frames: [child seconds, start, span id]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl_s, self_s
        self.counters: Counter = Counter()
        self.spans: List[tuple] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Wrapper of a layer function: records a span per call."""
        stack, entry, counters, spans = self.stack, self.totals[name], self.counters, self.spans
        clock = time.perf_counter
        hook = HOOKS.get(name)
        hook_key = hook and f"{name}.{hook[0]}"
        repeat_key = REPEAT_KEYS.get(name)
        seen: set = set()
        depth = [0]

        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            frame = [0.0, clock(), len(spans)]
            spans.append(None)  # reserve the id; filled in on return
            stack.append(frame)
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    counters[hook_key] += hook[1](args, result)
                if repeat_key is not None:
                    key = repeat_key(args)
                    counters[f"{name}.repeats"] += key in seen
                    seen.add(key)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[0] -= 1
                duration = end - frame[1]
                entry[0] += 1
                entry[2] += duration - frame[0]
                if not depth[0]:
                    entry[1] += duration
                if stack:
                    stack[-1][0] += duration
                spans[frame[2]] = (frame[2], name, frame[1], end, parent)

        return functools.update_wrapper(traced, fn)

    def wrap_poly_op(self, name: str, fn: Callable) -> Callable:
        """Lean wrapper of a binary Poly operation: totals only, no span."""
        stack, entry, counters = self.stack, self.totals[name], self.counters
        clock = time.perf_counter
        pairs_key = f"{name}.term_pairs" if name == "symalg.Poly.mul" else None

        def traced(a, b):
            if pairs_key:
                counters[pairs_key] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
            frame = [0.0, clock(), None]
            stack.append(frame)
            try:
                return fn(a, b)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every traced function of the imported package."""
        from haantjeskit import checks, symalg
        modules = [m for key, m in list(sys.modules.items())
                   if key == "haantjeskit" or key.startswith("haantjeskit.")]
        targets = [(f"{module}.{fn}", getattr(sys.modules[f"haantjeskit.{module}"], fn))
                   for module, names in FUNCTIONS.items() for fn in names]
        targets += [(f"checks.{name}", fn) for name, fn in checks.ALL_CHECKS]
        for name, original in targets:
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is original]:
                    setattr(module, attr, wrapper)
            checks.ALL_CHECKS[:] = [(n, wrapper if f is original else f)
                                    for n, f in checks.ALL_CHECKS]
        for op, dunder in POLY_OPS.items():
            setattr(symalg.Poly, dunder,
                    self.wrap_poly_op(f"symalg.Poly.{op}", getattr(symalg.Poly, dunder)))

    def summary(self, wall_s: float) -> Dict[str, float]:
        """Raw totals of one traced run: per-name calls/incl_s/self_s,
        work counters, per-module self time and unattributed time."""
        out: Dict[str, float] = dict(self.counters)
        modules = dict.fromkeys(MODULES, 0.0)
        for name, (calls, incl, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.incl_s"] = incl
            out[f"{name}.self_s"] = self_s
            modules[name.split(".", 1)[0]] += self_s
        for module, self_s in modules.items():
            out[f"{module}.self_s"] = self_s
        out["traced_run_s"] = wall_s
        out["unattributed_s"] = wall_s - sum(modules.values())
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def layer_metrics(summaries: List[Dict[str, float]], overhead_s: float) -> Dict[str, float]:
    """Per-layer metrics of a run: the mean over its traced invocations
    of every count and time, and ratios over the summed counts."""
    total: Counter = Counter()
    for s in summaries:
        total.update(s)
    k = len(summaries)
    out = {}
    for name, _ in per_layer_metrics():
        if name == "trace_overhead_s":
            out[name] = overhead_s
        elif name.endswith(".zero_ratio"):
            base = name[:-len(".zero_ratio")]
            out[name] = total[f"{base}.zeros"] / max(total[f"{base}.calls"], 1)
        elif name.endswith(".repeat_ratio"):
            base = name[:-len(".repeat_ratio")]
            out[name] = total[f"{base}.repeats"] / max(total[f"{base}.calls"], 1)
        else:
            out[name] = total[name] / k
    return out
