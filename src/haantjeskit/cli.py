"""Command-line front end: a thin view over `checks`.

Subcommands expose each pipeline and replay the toolkit's reference
computations (the README lists the catalog systems and their actions):

  haantjeskit hessian --poly "x1^3 + x1*x2*x3" --dim 3
  haantjeskit system --system NAME ideal dimension
  haantjeskit reproduce --seed 7 --json

Exit status is 0 exactly when no check in the report fails
("evidence-only" verdicts do not fail the run), 1 when one fails, and
2 for a malformed command line, reported as one "error:" line on
standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from . import __version__, checks
from .checks import CheckResult, UnknownSystem
from .symalg import ParseError, PrintError
from .tensor import TensorError


class Report:
    """Aggregated outcome of one command invocation."""

    def __init__(self, command: str, checks: List[CheckResult]):
        self.version = __version__
        self.command = command
        self.checks = checks
        self.seconds = round(sum(c.seconds for c in checks), 3)

    def ok(self) -> bool:
        return all(c.verdict != "fail" for c in self.checks)

    def to_json(self) -> str:
        obj = {
            "version": self.version,
            "command": self.command,
            "checks": [c.to_json_obj() for c in self.checks],
            "seconds": self.seconds,
        }
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def render_text(self) -> str:
        lines = [f"haantjeskit {self.version} — {self.command}"]
        for c in self.checks:
            lines.append(f"[{c.verdict:>13s}] {c.name}: {c.detail}")
            for key, value in c.payload.items():
                lines.append(f"    {key} = {value}")
        lines.append(f"({len(self.checks)} checks, {self.seconds:.2f}s)")
        return "\n".join(lines) + "\n"


def cmd_hessian(poly_text: str, n: int) -> Report:
    """Describe the Hessian operator of a polynomial on R^n."""
    result = checks.run_check(checks.check_hessian_torsion, poly_text, n)
    return Report(f"hessian --poly {poly_text!r} --dim {n}", [result])


def cmd_system(name: str, actions: Sequence[str], seed: int = 0) -> Report:
    """Run the selected analysis pipelines for a catalog system; all
    actions are validated before any runs."""
    actions = checks.system_actions(name, actions)
    return Report(f"system --system {name} {' '.join(actions)}",
                  checks.run_system(name, actions, seed=seed))


def cmd_reproduce(seed: int = 0) -> Report:
    """Run the complete verification suite in fixed order."""
    return Report(f"reproduce --seed {seed}", checks.run_all(seed=seed))


# ---- entry point ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as one "error:" line and exit status 2;
    the subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="haantjeskit",
        description="Exact torsion, Killing-tensor and ideal computations "
                    "for second-order superintegrable systems.")
    parser.add_argument("--version", action="version",
                        version=f"haantjeskit {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_h = sub.add_parser("hessian",
                         help="torsions and conservation laws of a "
                              "Hessian operator field")
    p_h.add_argument("--poly", required=True,
                     help="generating polynomial, e.g. 'x1^3 + x1*x2*x3'")
    p_h.add_argument("--dim", type=int, default=3)
    p_h.add_argument("--json", action="store_true")

    p_s = sub.add_parser("system", help="analysis pipelines for a "
                                        "catalog system")
    p_s.add_argument("--system", required=True)
    p_s.add_argument("actions", nargs="*", metavar="action",
                     help=f"subset of {checks.SYSTEM_ACTIONS}")
    p_s.add_argument("--seed", type=int, default=0)
    p_s.add_argument("--json", action="store_true")

    p_r = sub.add_parser("reproduce", help="run the full verification suite")
    p_r.add_argument("--seed", type=int, default=0)
    p_r.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.subcommand == "hessian":
            report = cmd_hessian(args.poly, args.dim)
        elif args.subcommand == "system":
            report = cmd_system(args.system, args.actions, seed=args.seed)
        else:
            report = cmd_reproduce(seed=args.seed)
    except (ParseError, PrintError, TensorError, UnknownSystem) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.json else report.render_text())
    return 0 if report.ok() else 1


if __name__ == "__main__":
    sys.exit(main())
