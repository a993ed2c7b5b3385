"""Tests of the benchmark itself: output schema, oracles, refusal without sources.

    python3 -m pytest perfbench/tests -q

Runs use a two-request design per workload so each takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    """Cut every workload's design to its two cheapest strata."""
    cheapest = {
        "k2-session": lambda s: len(s[0]),
        "dense-k34": lambda s: (len(s), len(s[0])),
        "screen-large-n": lambda s: (len(s[0][0]) != 2, len(s[0]), s[1] is not None),
    }
    for name, (make, design) in list(gen._DESIGNS.items()):
        small = tuple(sorted(design, key=cheapest[name])[:2])
        monkeypatch.setitem(gen._DESIGNS, name, (make, small))


def run_worker(workload: str, tmp_path: Path, capsys, trace: int = 0) -> dict:
    argv = ["--workload", workload, "--seed", "7", "--seconds", "0",
            "--trace", str(trace), "--workdir", str(tmp_path / "inputs"),
            "--spans", str(tmp_path / "spans.jsonl")]
    assert worker.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_schema(workload, trace, tiny, tmp_path, capsys):
    summary = run_worker(workload, tmp_path, capsys, trace)
    summary["setup_s"] = 0.5
    line = run.result(summary, trace)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    # two cycles of two requests; a traced run stops after one
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] == (2 if trace else 4)
    expected = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: metric["unit"] for name, metric in line["metrics"].items()}
    for metric in line["metrics"].values():
        assert set(metric) == {"value", "unit"} and isinstance(metric["value"], float)
    if trace:
        spans = [json.loads(s) for s in (tmp_path / "spans.jsonl").read_text().splitlines()]
        assert [s["name"] for s in spans].count("request") == 2
        assert all(s["end"] >= s["start"] for s in spans)
    json.dumps(line)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"] for m in BENCH["end_to_end"]} == set(run.END_TO_END)


def _edit(outputs, command, change):
    """Rewrite one command's structured report with ``change(report)``."""
    out = []
    for name, code, text in outputs:
        if name == command:
            report = json.loads(text)
            code = change(report) or code
            text = json.dumps(report)
        out.append((name, code, text))
    return out


def _zc_rows(report):
    return report["spaces"]["ZC"]["table"]


CORRUPTIONS = {
    "normal-form": ("k2-session", "classify",
                    lambda r: r.__setitem__("normal_form", r["normal_form"] + [1, 1])),
    "complex-homology": ("k2-session", "homology",
                         lambda r: _zc_rows(r)[-1].__setitem__("rank", 2)),
    "open-book-check": ("k2-session", "open-book",
                        lambda r: r["consistency"][0].__setitem__("status", "fail")),
    "size-cap": ("k2-session", "dual-complex", lambda r: 3),
    "poincare-duality": ("dense-k34", "homology",
                         lambda r: _zc_rows(r)[1].__setitem__("torsion", [2])),
    "euler": ("dense-k34", "homology", lambda r: r.__setitem__("euler", r["euler"] + 2)),
    "witness": ("screen-large-n", "check",
                lambda r: r.__setitem__("witness", [1, 2]) if "witness" in r
                else r.update(ok=False, witness=[1, 2]) or 2),
    "exit-code": ("screen-large-n", "check", lambda r: 1),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_corrupted_answers_are_counted_failures(kind, tiny, tmp_path, capsys, monkeypatch):
    workload, command, change = CORRUPTIONS[kind]
    real = worker.run_request

    def corrupted(cli, name, path):
        seconds, outputs = real(cli, name, path)
        return seconds, _edit(outputs, command, change)

    monkeypatch.setattr(worker, "run_request", corrupted)
    summary = run_worker(workload, tmp_path, capsys)
    assert summary["failed"] == summary["requests"] == 4
    assert run.result({**summary, "setup_s": 0.5}, 0)["correct"] is False


def test_raising_request_is_a_counted_failure(tiny, tmp_path, capsys, monkeypatch):
    def broken(argv=None):
        raise ValueError("boom")

    quadbook = worker.import_quadbook()
    monkeypatch.setattr(quadbook.cli, "main", broken)
    summary = run_worker("dense-k34", tmp_path, capsys)
    assert summary["failed"] == 4
    assert "ValueError" in summary["failures"][0]["reasons"][0]


def test_expected_witness():
    assert gen.expected_witness(5, 9, 2) == [5, 9]
    assert gen.expected_witness(5, 9, 3) == [1, 5, 9]
    assert gen.expected_witness(1, 9, 3) == [1, 2, 9]
    assert gen.expected_witness(1, 2, 4) == [1, 2]
    assert gen.expected_witness(3, 4, 4) == [1, 2, 3, 4]


def test_generators_are_seeded():
    for workload in gen.WORKLOADS:
        a, b, c = (gen.cases(workload, s) for s in (1, 1, 2))
        first = [next(a)["doc"] for _ in range(3)]
        assert first == [next(b)["doc"] for _ in range(3)]
        assert first != [next(c)["doc"] for _ in range(3)]


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "k2-session", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
