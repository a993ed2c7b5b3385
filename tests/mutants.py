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
    "prefix-pass-one-short": (
        "configuration.py", "range(1, top))", "range(1, top - 1))"),
    "prefix-pass-skipped": (
        "configuration.py", "if first != tuple(range(top)):", "if True:"),
    "self-check-disabled": (
        "classify.py", "    _self_check(rays, [", "    (lambda *_: None)(rays, ["),
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
    "bland-leaving-tie-break": (
        "configuration.py", "basis[i] < basis[leave]", "basis[i] > basis[leave]"),
    "bland-entering-last": (
        "configuration.py", "for entering in range(width):", "for entering in reversed(range(width)):"),
    "alexander-dual-without-empty-face": (
        "splitting.py", "dual.add(0)", "dual.discard(0)"),
    "dual-faces-without-largest-proper-parts": (
        "complexes.py", "range(min(len(inside), len(members) - 1) + 1)", "range(min(len(inside), len(members) - 1))"),
    "restriction-ignores-within": (
        "complexes.py", "inside = [i for i in members if within >> (i - 1) & 1]", "inside = list(members)"),
    "restriction-keeps-split-classes-whole": (
        "complexes.py", "if len(inside) == len(members) else []", "if True else []"),
    "euler-sign": (
        "splitting.py", "(-1) ** (cfg.n - cfg.k - 1) * total", "(-1) ** (cfg.n - cfg.k) * total"),
    "zplus-filter-off-by-one": (
        "splitting.py", "cfg.distinguished in J", "cfg.distinguished + 1 in J"),
    "angular-order-reversed-in-half": (
        "classify.py", "Fraction(-x, y) if y else 0", "Fraction(-x, abs(y)) if y else 0"),
    "witness-mapping-trusts-first": (
        "configuration.py", "else _phase_one(*start(s))[0] is not None", "else False"),
    "complex-book-cap-on-the-undeleted-input": (
        "openbook.py", "_require_cap(2 * (cfg.n - 1))", "_require_cap(2 * cfg.n)"),
    "real-book-cap-on-the-underlying-model": (
        "openbook.py", "_require_cap(cfg.n - 2 if", "_require_cap(cfg.n - 1 if"),
    "real-book-cap-without-the-page-model": (
        "openbook.py", "_require_cap(cfg.n - 2 if cfg.k == 2 else cfg.n - 1)", "_require_cap(cfg.n - 2)"),
    "dual-faces-unsorted-within-a-size": (
        "reporting.py", "sorted(by_size[size])", "by_size[size]"),
    "parse-cache-ignores-entry-types": (
        "configuration.py", "(raw, tuple(map(type, raw)))", "(raw, ())"),
    "unhashable-entry-reaches-the-caller": (
        "configuration.py", "except TypeError:", "except KeyError:"),
    "long-vector-accepted": (
        "configuration.py", "if len(raw) != self.k:", "if len(raw) < self.k:"),
    "walk-ratio-keeps-a-larger-row": (
        "complexes.py", "if cross < 0:", "if cross > 0:"),
    "walk-tie-never-flagged": (
        "complexes.py", "tie = True", "tie = False"),
    "walk-trusts-a-degenerate-first-vertex": (
        "complexes.py", "if len(found) < len(basis):", "if False:"),
    "empty-ledger-only-within-the-cap": (
        "splitting.py", "if cfg.n > cap and _phase_one(", "if cfg.n <= cap and _phase_one("),
    "nerve-torsion-degree": (
        "splitting.py", "{n - 4 - i: group.torsion(i)", "{n - 3 - i: group.torsion(i)"),
    "nerve-guard-degree": (
        "splitting.py", "_nerve(base, v_mask), v_mask.bit_count() - d - 3", "_nerve(base, v_mask), d"),
    "homology-takes-variant": (
        "cli.py", '"max_n": DEFAULT_SUBSET_CAP}', '"max_n": DEFAULT_SUBSET_CAP, "variant": "complex"}'),
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
