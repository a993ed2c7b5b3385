"""Named one-line mutants of the engine that the test suite must kill.

Each mutant is a source file, an exact old text and its replacement.  For
each one the script copies `src`, `tests`, `pyproject.toml` and `README.md`
(whose examples a test runs) to a temporary directory, applies the mutant
there and runs

    python -m pytest -x -q -p no:cacheprovider tests

under a per-mutant timeout.  It prints a Markdown table: killed or survived,
the first failing test and the time taken.  The unmutated copy runs first
and must pass, or every kill would mean nothing.

A mutant whose old text does not occur exactly once is stale: the script
fails before it runs anything, and the change that moved the code updates
the mutant.  It also fails when a mutant survives that SURVIVORS does not
name; a listed survivor names the open item that will kill it.

Run from the repository root, optionally with mutant names to run only those:

    python tests/mutants.py [name ...]

pytest collects only `test_*.py`, so it never collects this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600

# name: (file under src/quadbook, exact old text, replacement)
MUTANTS = {
    "duality-rank-degree": (
        "splitting.py", "{d - 1 - i: group.rank(i)", "{d - i: group.rank(i)"),
    "wedge-shift": (
        "splitting.py", "group.shift(1 + len(J) - len(chosen))", "group.shift(len(J) - len(chosen))"),
    "widened-sphere-shortcut": (
        "splitting.py", "if len(inside) <= 2:", "if len(inside) <= 3:"),
    "lowered-half-bound": (
        "splitting.py", "half = v_mask.bit_count() // 2", "half = v_mask.bit_count() // 2 - 1"),
    "lex-subsets-one-size-early": (
        "configuration.py", "if len(prefix) < k:", "if len(prefix) < k - 1:"),
    "self-check-disabled": (
        "classify.py", "    _self_check(rays, found_parts,", "    (lambda *_: None)(rays, found_parts,"),
    "torsion-dropped": (
        "complexes.py", "chain = torsion.get(d + 2, ())", "chain = ()"),
    "duality-torsion-degree": (
        "splitting.py", "{d - 2 - i: group.torsion(i)", "{d - 1 - i: group.torsion(i)"),
    "self-check-run-length": (
        "classify.py", "for t in range(ell)) for p in range(m)}", "for t in range(ell - 1)) for p in range(m)}"),
    "sweep-never-resets-fresh": (
        "classify.py", "if c is None:\n            fresh = True", "if c is None:\n            fresh = False"),
    "canonical-classes-in-sweep-order": (
        "classify.py", "for src in order)", "for src in range(len(order)))"),
}

# name: the open item that will kill it
SURVIVORS: dict[str, str] = {}


def _run_suite(name: str | None = None) -> tuple[str, str, float]:
    """(outcome, first failing test, seconds) of the suite on a copy of the tree, mutated by name."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        for part in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / part, tree / part)
        if name is not None:
            path, old, new = MUTANTS[name]
            target = tree / "src" / "quadbook" / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"]
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "timeout", "", time.perf_counter() - start
        seconds = time.perf_counter() - start
    if done.returncode == 0:
        return "passed", "", seconds
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", done.stdout, re.M)
    return "failed", first.group(1) if first else f"exit {done.returncode}", seconds


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    stale = [name for name in names
             if (ROOT / "src" / "quadbook" / MUTANTS[name][0]).read_text(encoding="utf-8")
             .count(MUTANTS[name][1]) != 1]
    if stale:
        print(f"stale mutants, old text not found exactly once: {stale}", file=sys.stderr)
        return 1
    outcome, first, seconds = _run_suite()
    if outcome != "passed":
        print(f"the unmutated suite did not pass ({outcome}, {first}); no kill would mean anything",
              file=sys.stderr)
        return 1
    print(f"Unmutated suite: passed in {seconds:.0f} s.\n", flush=True)
    print("| mutant | file | result | first failing test | time |")
    print("|---|---|---|---|---|")
    unexpected = []
    for name in names:
        outcome, first, seconds = _run_suite(name)
        if outcome == "passed":
            result = "survived" + (f" (listed: {SURVIVORS[name]})" if name in SURVIVORS else "")
            if name not in SURVIVORS:
                unexpected.append(name)
        else:
            result = "killed" if outcome == "failed" else "killed (timeout)"
        print(f"| {name} | {MUTANTS[name][0]} | {result} | {first or '-'} | {seconds:.0f} s |", flush=True)
    if unexpected:
        print(f"\nmutants that survived without being listed: {unexpected}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
