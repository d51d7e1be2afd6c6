"""Per-process caches: each catalog system's Haantjes-zero ideal, its
radical record and the Killing spaces are computed once."""

import os
import subprocess
import sys
from pathlib import Path

from haantjeskit import checks
from haantjeskit.cli import cmd_system
from haantjeskit.killing import killing_space

CACHES = (checks.system_ideal, checks.system_radical, killing_space)
SRC = Path(__file__).resolve().parent.parent / "src"


def _clear():
    for cache in CACHES:
        cache.cache_clear()


def _run_every_system():
    return [(r.name, r.verdict, r.payload)
            for name in checks.SYSTEMS
            for r in checks.run_system(name, checks.system_actions(name, []))]


def test_import_and_catalog_fill_no_cache():
    # nor compute any catalog family's basis: the set-up is timed
    code = ("import haantjeskit.cli\n"
            "from haantjeskit import checks, killing\n"
            "checks.catalog()\n"
            "print([f.cache_info().currsize for f in (checks.system_ideal, "
            "checks.system_radical, killing.killing_space)],\n"
            "      [fam._basis for _, fam in checks.catalog().values()])\n")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={**os.environ, "PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "[0, 0, 0] [None, None, None, None, None]"


def test_one_miss_per_system_and_identical_results_after_clearing():
    _clear()
    first = _run_every_system()
    assert checks.system_ideal.cache_info().misses == len(checks.SYSTEMS)
    assert checks.system_ideal.cache_info().currsize == len(checks.SYSTEMS)
    # one record per system with a nonzero ideal: sw1, oo and iv
    assert checks.system_radical.cache_info().misses == 3
    assert killing_space.cache_info().misses == 1
    _clear()
    assert _run_every_system() == first


def test_radical_check_twice_leaves_the_record_unchanged():
    record = checks.system_radical("oo")
    # what `haantjeskit system --system oo radical-check` reports
    first, second = (cmd_system("oo", ["radical-check"]).checks[0].payload
                     for _ in range(2))
    assert first == second
    assert first is not second
    assert checks.system_radical("oo") is record
    assert record == checks.system_radical.__wrapped__("oo")
