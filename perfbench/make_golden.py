"""Record the reference outputs that run.py compares items with.

    python3 perfbench/make_golden.py

Writes golden/reproduce.json, the ``reproduce --json`` report with
``seconds`` and ``command`` removed, and golden/system_pipelines.json,
the (name, verdict, payload) of every action of ``system`` for each
catalog system.  Both are seed-independent; each is computed at two
seeds and written only if the two agree.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from haantjeskit import cli  # noqa: E402
from run import SYSTEMS  # noqa: E402


def reproduce_report(seed):
    report = json.loads(cli.cmd_reproduce(seed=seed).to_json())
    for key in ("seconds", "command"):
        del report[key]
    for check in report["checks"]:
        del check["seconds"]
    return report


def system_entries(seed):
    return {name: [[c.name, c.verdict, json.loads(json.dumps(c.payload))]
                   for c in cli.cmd_system(name, [], seed=seed).checks]
            for name in SYSTEMS}


def main():
    for filename, make, seeds in (("reproduce.json", reproduce_report, (0, 7)),
                                  ("system_pipelines.json", system_entries, (0, 5))):
        first, second = (make(s) for s in seeds)
        if first != second:
            sys.exit(f"{filename}: output differs between seeds {seeds}")
        text = json.dumps(first, sort_keys=True, indent=1) + "\n"
        (BENCH / "golden" / filename).write_text(text)
        print(f"wrote golden/{filename}")


if __name__ == "__main__":
    main()
