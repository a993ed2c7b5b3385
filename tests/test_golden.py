"""Golden structured output of every command over a fixed corpus.

`golden_structured.json` pins the exit code and the exact stdout of
`quadbook.cli.main([..., "--format", "structured"])` for each case.  The
input documents are stored in the data file itself, so the test does not
rebuild them through the package.  Regenerate the data only when an output
change is intended:

    PYTHONPATH=src python tests/test_golden.py

The script names every case whose exit code or stdout changed (new cases
included), so each intended change can be reviewed on its own.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from quadbook.cli import main

DATA = Path(__file__).with_name("golden_structured.json")

COMMANDS = (
    ("check",),
    ("dual-complex",),
    ("homology",),
    ("classify",),
    ("open-book", "--variant", "complex"),
    ("open-book", "--variant", "real"),
)

PARTITIONS = ((1, 1, 1), (1, 1, 1, 1, 1), (2, 2, 2), (2, 1, 1, 1, 1), (1, 2, 2, 2, 2), (1,) * 7)


def _explicit_inputs() -> dict:
    import quadbook as qb
    from quadbook.reporting import config_document

    def doc(vectors, distinguished=1):
        return {"schema": 1, "k": len(vectors[0]), "n": len(vectors),
                "lambdas": [[str(x) for x in v] for v in vectors],
                "distinguished": distinguished}

    pentagon = qb.partition_configuration((1, 1, 1, 1, 1))
    return {
        "k2-scaled-copies": doc([(1, 0), (2, 0), (-1, 1), ("-1/2", "1/2"), (-1, -1), (-3, -3)], 2),
        "pentagon-duplicate-1": config_document(qb.duplicate_coordinate(pentagon, 1)),
        "k3-n7": doc([(1, -9, -9), (-9, 8, -9), (3, -3, 4), (-9, 7, -2), (5, 6, 8),
                      (-2, 2, -2), (-2, 5, 0)]),
        "k4-n7": doc([(8, -4, -2, -2), (-9, -4, 1, -4), (-5, 7, 7, 2), (7, 8, -4, 5),
                      (4, 7, 2, 9), (2, 2, 5, -4), (3, 5, 7, -2)]),
        "empty-variety": doc([(1, 0), (1, 1), (0, 1)]),
        "invalid-antipodal": doc([(1, 0), (-1, 0), (0, 1)]),
    }


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _argv(case: dict, config_path: Path) -> list[str]:
    argv = list(case["argv"])
    if case["doc"] is not None:
        config_path.write_text(json.dumps(case["doc"]))
        argv += ["--config", str(config_path)]
    return argv + ["--format", "structured"]


def _generate(config_path: Path) -> list[dict]:
    inputs = [(f"partition-{'-'.join(map(str, p))}", ["--partition", ",".join(map(str, p))], None)
              for p in PARTITIONS]
    inputs += [(name, [], doc) for name, doc in _explicit_inputs().items()]
    cases = [{"name": "cross-validate-n5", "doc": None,
              "argv": ["cross-validate", "--family", "partitions:n<=5"]}]
    for name, flags, doc in inputs:
        for command in COMMANDS:
            label = "-".join(c.lstrip("-") for c in command)
            cases.append({"name": f"{name}/{label}", "doc": doc,
                          "argv": [command[0], *flags, *command[1:]]})
    for case in cases:
        case["exit"], case["stdout"] = _run(_argv(case, config_path))
    return cases


CASES = json.loads(DATA.read_text())["cases"] if DATA.exists() else []


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_structured_output_matches_golden(case, tmp_path):
    code, stdout = _run(_argv(case, tmp_path / "input.json"))
    assert code == case["exit"]
    assert stdout == case["stdout"]


def test_golden_cases_list_no_coordinate_faces(monkeypatch, tmp_path):
    """Every command but dual-complex and cross-validate runs on the class complex alone."""
    import sys

    def refuse(cfg):
        raise AssertionError("coordinate faces listed")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "quadbook" and hasattr(module, "dual_face_masks"):
            monkeypatch.setattr(module, "dual_face_masks", refuse)
    cases = [c for c in CASES if c["argv"][0] in ("check", "homology", "classify", "open-book")]
    assert len(cases) == 5 * (len(PARTITIONS) + 6)
    for case in cases:
        assert _run(_argv(case, tmp_path / "input.json")) == (case["exit"], case["stdout"]), case["name"]


def test_golden_requests_build_no_polygon(monkeypatch, tmp_path):
    """classify and open-book read a polygon only from a --partition input."""
    import sys

    def refuse(partition, **kwargs):
        raise AssertionError("polygon realisation built inside a request")

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "quadbook" and name != "quadbook.reporting"
                and hasattr(module, "partition_configuration")):
            monkeypatch.setattr(module, "partition_configuration", refuse)
    cases = [c for c in CASES if c["argv"][0] in ("classify", "open-book")]
    assert len(cases) == 3 * (len(PARTITIONS) + 6)
    for case in cases:
        assert _run(_argv(case, tmp_path / "input.json")) == (case["exit"], case["stdout"]), case["name"]


def test_golden_corpus_is_present():
    assert len(CASES) == 1 + 6 * (len(PARTITIONS) + 6)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        generated = _generate(Path(tmp) / "input.json")
    old = {c["name"]: (c["exit"], c["stdout"]) for c in CASES}
    for case in generated:
        if old.get(case["name"]) != (case["exit"], case["stdout"]):
            print(f"changed: {case['name']}")
    DATA.write_text(json.dumps({"cases": generated}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(generated)} cases to {DATA}")
