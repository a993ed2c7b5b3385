import contextlib
import io
import json
from concurrent.futures.process import BrokenProcessPool

import pytest
from hypothesis import given, settings, strategies as st

import quadbook as qb
from quadbook import reporting
from quadbook.cli import main
from quadbook.reporting import config_document, load_document


PENTAGON_CFG = qb.partition_configuration((1, 1, 1, 1, 1))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_text(capsys):
    code, out, _ = run_cli(capsys, "classify", "--partition", "1,1,1,1,1")
    assert code == 0
    assert "#_5(S^1 x S^1)" in out
    assert "genus 5 surface" in out
    assert "#_5(S^3 x S^4)" in out


def test_homology_structured(capsys):
    code, out, _ = run_cli(capsys, "homology", "--partition", "2,2,2",
                           "--space", "Z", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    table = report["spaces"]["Z"]["table"]
    assert [(row["degree"], row["rank"]) for row in table] == [(0, 1), (1, 3), (2, 3), (3, 1)]
    assert report["euler"] == 0


def test_check_invalid_exit_code(tmp_path, capsys):
    doc = {
        "schema": 1, "k": 2, "n": 3,
        "lambdas": [["1", "0"], ["-1", "0"], ["0", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "check", "--config", str(path), "--format", "structured")
    assert code == 2
    report = json.loads(out)
    assert report["ok"] is False
    assert report["witness"] == [1, 2]


def test_check_valid(capsys):
    code, out, _ = run_cli(capsys, "check", "--partition", "1,1,1,1,1")
    assert code == 0
    assert "valid" in out


def test_parse_errors_exit_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "classify", "--partition", "1,banana")
    assert code == 1
    code, _, err = run_cli(capsys, "classify")
    assert code == 1
    code, out, err = run_cli(capsys, "homology", "--partition", "1,1,1", "--max-n", "abc")
    assert (code, out) == (1, "")
    assert "argument --max-n: invalid int value: 'abc'" in err
    doc = {"schema": 1, "partition": [1, 1, 1], "surprise": True}
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 1
    assert "unknown fields" in err
    path.write_text(json.dumps({"partition": [1, 1, 1]}))
    code, _, err = run_cli(capsys, "check", "--config", str(path))
    assert code == 1
    assert "schema" in err


def test_partition_document_refuses_labels(tmp_path, capsys):
    # a partition names its coordinates x1..xn, so labels beside it would be dropped
    path = tmp_path / "labelled.json"
    path.write_text(json.dumps({"schema": 1, "partition": [1, 1, 1, 1, 1], "labels": ["a"]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert (code, out) == (1, "")
    assert "not both" in err


def test_cap_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "homology", "--partition", "1,1,1,1,1", "--max-n", "3")
    assert code == 3

    def no_face_enumeration(cfg):
        raise AssertionError("faces enumerated before the cap check")

    # n = 21 is over the default cap; it must be refused before any face is listed
    monkeypatch.setattr(reporting, "euler_cellcount", no_face_enumeration)
    code, out, _ = run_cli(capsys, "homology", "--partition", ",".join(["1"] * 21))
    assert (code, out) == (3, "")


def test_cap_refusal_offers_the_flag_only_where_it_exists(capsys):
    code, out, err = run_cli(capsys, "homology", "--partition", ",".join(["1"] * 21))
    assert (code, out) == (3, "")
    assert "n = 21 exceeds the subset cap 20" in err and "--max-n" in err
    code, out, err = run_cli(capsys, "open-book", "--partition", "3,3,3,3,3")
    assert (code, out) == (3, "")
    assert "exceeds the subset cap 20" in err  # the complex page model has n = 28
    assert "--max-n" not in err and "raise" not in err
    # the flag the homology refusal names is one that open-book does not take
    assert run_cli(capsys, "open-book", "--partition", "3,3,3,3,3", "--max-n", "64")[0] == 1


def test_cross_validate_family_cap(capsys):
    with pytest.raises(qb.SizeCapError):
        reporting.parse_family("partitions:n<=40")
    assert reporting.parse_family("partitions:n<=9") == 9
    code, out, _ = run_cli(capsys, "cross-validate", "--family", "partitions:n<=40")
    assert (code, out) == (3, "")


def test_invalid_config_blocks_homology(tmp_path, capsys):
    doc = {
        "schema": 1, "k": 2, "n": 3,
        "lambdas": [["1", "0"], ["-1", "0"], ["0", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "homology", "--config", str(path))
    assert code == 2
    assert "witness" in err


def test_dual_complex_command(capsys):
    code, out, _ = run_cli(capsys, "dual-complex", "--partition", "1,1,1,1,1",
                           "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["face_count"] == 11
    assert [sorted(f) for f in report["maximal_faces"]] == [
        [1, 3], [1, 4], [2, 4], [2, 5], [3, 5]]


def test_open_book_command(capsys):
    code, out, _ = run_cli(capsys, "open-book", "--partition", "1,1,1,1,1",
                           "--variant", "complex", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["monodromy"] == "trivial"
    assert report["page"]["case"] == "d"
    assert all(c["status"] in ("pass", "skip") for c in report["consistency"])


TEXT_OUTPUT = [
    (["dual-complex", "--partition", "1,1,1,1,1"],
     "dual complex: dim 1, 11 faces\nmaximal faces:\n  [1, 3]\n  [1, 4]\n  [2, 4]\n"
     "  [2, 5]\n  [3, 5]\n"),
    (["dual-complex", "--config", "empty-variety"],
     "dual complex: void (the variety is empty)\n"),
    (["homology", "--partition", "2,1,1"],
     "euler characteristic: 0\nspace Z:\n  H_0 = Z^4\n  H_1 = Z^4\n  contributing subsets: 8\n"
     "space ZC:\n  H_0 = Z\n  H_1 = Z^2\n  H_2 = Z\n  H_3 = Z\n  H_4 = Z^2\n  H_5 = Z\n"
     "  contributing subsets: 8\nspace Zplus:\n  H_0 = Z^4\n  contributing subsets: 4\n"),
    (["open-book", "--partition", "1,1,1"],
     "open book (complex), total dimension 3\nmonodromy: trivial\nbinding: empty\n"
     "page (case a): S(1) x S(1) x D(0)\nconsistency:\n"
     "  [pass] binding-euler-zero: odd-dimensional binding has chi = 0\n"
     "  [pass] page-double-euler: chi(double) = 0, 2 chi(page) = 0\n"
     "  [pass] page-boundary-betti: closed page requires an empty binding\n"),
    (["open-book", "--partition", "1,1,1,1,1", "--variant", "complex"],
     "open book (complex), total dimension 7\nmonodromy: trivial\n"
     "binding: n = 8 configuration (k = 2, labels x2a, x2b, x3a, x3b...)\n"
     "page (case d): PP(3,3;6) #b E(1,1;6)\n"
     "  flag: exterior E(1,1;6) outside the recognition lemma regime (needs p, q, m-p-q-1 >= 2)\n"
     "consistency:\n"
     "  [pass] binding-euler-zero: odd-dimensional binding has chi = 0\n"
     "  [pass] page-double-euler: chi(double) = 0, 2 chi(page) = 0\n"
     "  [pass] page-boundary-betti: boundary (S^5) # (S^1 x S^1 x S^3) vs binding homology\n"),
    # a book without a symbolic page: the page line names the half manifold
    (["open-book", "--config", "k3-n7", "--variant", "complex"],
     "open book (complex), total dimension 10\nmonodromy: trivial\n"
     "binding: n = 12 configuration (k = 3, labels x2a, x2b, x3a, x3b...)\n"
     "page: interior of the complex half manifold at x1\nconsistency:\n"
     "  [skip] binding-euler-zero: binding dimension is even\n"
     "  [skip] page-double-euler: no page model\n"
     "  [skip] page-boundary-betti: no symbolic page\n"),
    (["cross-validate", "--family", "partitions:n<=4"],
     "cases: 4\nresult: all checks passed\n"),
]

INPUTS = {
    "empty-variety": {"schema": 1, "k": 2, "n": 3, "lambdas": [["1", "0"], ["1", "1"], ["0", "1"]]},
    "k3-n7": {"schema": 1, "k": 3, "n": 7, "distinguished": 1,
              "lambdas": [["1", "-9", "-9"], ["-9", "8", "-9"], ["3", "-3", "4"], ["-9", "7", "-2"],
                          ["5", "6", "8"], ["-2", "2", "-2"], ["-2", "5", "0"]]},
}


def test_text_output_is_pinned(tmp_path, capsys):
    """The default text format of the commands the structured tests do not render."""
    for name, doc in INPUTS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for argv, expected in TEXT_OUTPUT:
        argv = [str(tmp_path / f"{arg}.json") if arg in INPUTS else arg for arg in argv]
        assert run_cli(capsys, *argv) == (0, expected, ""), argv


def test_cross_validate_failure_text_is_pinned(monkeypatch, capsys):
    original = reporting._cross_validate_item

    def failing(parts):
        item = original(parts)
        if parts == (1, 1, 2):
            item = {**item, "checks": {**item["checks"], "doubling": "fail", "pages": "fail"}, "ok": False}
        return item

    monkeypatch.setattr(reporting, "_cross_validate_item", failing)
    assert run_cli(capsys, "cross-validate", "--family", "partitions:n<=4") == (
        4, "cases: 4\nresult: MISMATCHES FOUND\n  partition (1, 1, 2): failed ['doubling', 'pages']\n", "")


def test_distinguished_flag_on_both_input_paths(tmp_path, capsys):
    pentagon = qb.partition_configuration((1, 1, 1, 1, 1))
    path = tmp_path / "pentagon.json"
    path.write_text(json.dumps(config_document(pentagon)))
    expected = reporting.graded_document(qb.homology_Zplus(pentagon.with_distinguished(3)))
    for source in (["--partition", "1,1,1,1,1"], ["--config", str(path)]):
        code, out, _ = run_cli(capsys, "homology", *source, "--distinguished", "3",
                               "--format", "structured")
        assert code == 0
        report = json.loads(out)
        assert report["input"]["distinguished"] == 3
        assert report["spaces"]["Zplus"]["table"] == expected
        code, out, err = run_cli(capsys, "homology", *source, "--distinguished", "9")
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("parse error: ")


def test_report_determinism(capsys):
    first = run_cli(capsys, "homology", "--partition", "1,2,2", "--format", "structured")
    second = run_cli(capsys, "homology", "--partition", "1,2,2", "--format", "structured")
    assert first == second


def test_cross_validate_passes_and_is_parallel_invariant(capsys):
    code1, out1, _ = run_cli(capsys, "cross-validate", "--family", "partitions:n<=5",
                             "--format", "structured", "--jobs", "1")
    assert code1 == 0
    code2, out2, _ = run_cli(capsys, "cross-validate", "--family", "partitions:n<=5",
                             "--format", "structured", "--jobs", "8")
    assert code2 == 0
    assert out1 == out2


class _FakePool:
    """Stands in for ProcessPoolExecutor: records its size and maps in-process, or breaks."""

    sizes: list[int] = []
    broken_at = None  # the first chunk that gets no result

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize):
        items = list(items)
        for start in range(0, len(items), chunksize):
            if start // chunksize == self.broken_at:
                raise BrokenProcessPool("a process in the pool was terminated abruptly")
            yield from map(fn, items[start:start + chunksize])


@pytest.fixture
def fake_pool(monkeypatch):
    monkeypatch.setattr(_FakePool, "sizes", [])
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _FakePool)
    monkeypatch.setattr(reporting, "_cross_validate_item",
                        lambda parts: {"partition": list(parts), "checks": {}, "ok": True})
    return _FakePool


def test_cross_validate_pool_has_one_worker_per_chunk(fake_pool):
    # pool.map(chunksize=4) hands out ceil(items / 4) chunks; more workers would idle
    assert len(reporting.odd_partitions(9)) == 247
    assert reporting.cross_validate(["partitions:n<=9"], jobs=5000)["cases"] == 247
    assert len(reporting.odd_partitions(5)) == 11
    reporting.cross_validate(["partitions:n<=5"], jobs=8)
    reporting.cross_validate(["partitions:n<=5"], jobs=2)
    reporting.cross_validate(["partitions:n<=9"], jobs=1)
    assert fake_pool.sizes == [62, 3, 2]


def test_cross_validate_broken_pool_exits_4(fake_pool, monkeypatch, capsys):
    items, size = reporting.odd_partitions(5), reporting._CHUNK
    assert len(items) > 2 * size  # three chunks at least
    for chunk in range(3):
        monkeypatch.setattr(fake_pool, "broken_at", chunk)
        code, out, err = run_cli(capsys, "cross-validate", "--family", "partitions:n<=5", "--jobs", "8")
        assert (code, out) == (4, "")
        assert len(err.splitlines()) == 1 and "worker process died" in err
        assert "Traceback" not in err
        # the message names the partitions of the first chunk without a result, and no others
        assert [p for p in items if str(p) in err] == items[size * chunk:size * (chunk + 1)]


def test_one_parse_per_session(tmp_path, capsys, monkeypatch):
    from quadbook import cli

    calls = []
    monkeypatch.setattr(cli, "load_document", lambda doc: calls.append(doc) or load_document(doc))
    cli._parse_input.cache_clear()
    path = tmp_path / "session.json"
    try:
        path.write_text(json.dumps(config_document(qb.partition_configuration((1, 2, 2)))))
        for command in ("check", "classify", "homology", "open-book", "dual-complex"):
            assert run_cli(capsys, command, "--config", str(path))[0] == 0
        assert len(calls) == 1
        # a rewritten file is parsed again
        path.write_text(json.dumps(config_document(PENTAGON_CFG)))
        code, out, _ = run_cli(capsys, "check", "--config", str(path), "--format", "structured")
        assert code == 0 and len(calls) == 2
        assert load_document(json.loads(out)["input"]) == PENTAGON_CFG
    finally:
        cli._parse_input.cache_clear()


def test_invalid_json_exits_one_on_every_call(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "partition": [1, 1, 1]')
    results = [run_cli(capsys, "check", "--config", str(path)) for _ in range(3)]
    code, out, err = results[0]
    assert (code, out) == (1, "") and err.startswith(f"parse error: invalid JSON in {path}: ")
    assert results == [results[0]] * 3
    # once the file is mended, the same path parses
    path.write_text('{"schema": 1, "partition": [1, 1, 1]}')
    assert run_cli(capsys, "check", "--config", str(path))[0] == 0


def test_document_round_trip():
    cfg = qb.partition_configuration((1, 2, 2)).with_distinguished(2)
    doc = config_document(cfg)
    assert load_document(doc) == cfg
    text = json.dumps(doc, sort_keys=True)
    assert load_document(json.loads(text)) == cfg


def test_pentagon_report_appendix(capsys):
    code, out, _ = run_cli(capsys, "homology", "--partition", "1,1,1,1,1",
                           "--space", "Z", "--format", "structured")
    assert code == 0
    report = json.loads(out)
    appendix = report["spaces"]["Z"]["contributing_subsets"]
    degree_one = [
        entry for entry in appendix
        if any(row["degree"] == 1 and row["rank"] for row in entry["groups"])
    ]
    assert len(degree_one) == 10


def test_classify_report_carries_flags(capsys):
    code, out, _ = run_cli(capsys, "classify", "--partition", "1,1,1,1,2",
                           "--format", "structured")
    assert code == 0
    report = json.loads(out)
    assert report["normal_form"] == [1, 1, 1, 1, 2]
    flags = report["real"]["flags"]
    assert any("pi1" in f for f in flags)
    assert report["complex"]["flags"] == ["complex-case: unconditional"]


_TRIANGLE_DOC = {"schema": 1, "k": 2, "n": 3, "lambdas": [["1", "0"], ["-1", "1"], ["-1", "-1"]]}


def _document_bytes(**fields) -> bytes:
    return json.dumps({**_TRIANGLE_DOC, **fields}).encode()


@pytest.mark.parametrize("raw", [
    _document_bytes(lambdas=5),
    _document_bytes(lambdas=[1, 2, 3]),
    _document_bytes(labels=7),
    _document_bytes(labels=[1, 2, 3]),
    _document_bytes(distinguished=True),
    _document_bytes(schema=True),
    b'\xff{"schema": 1}',
    b'{"schema": 1, "partition": [' + b"1" * 5000 + b', 1, 1]}',
    _document_bytes(lambdas=[["1e5000", "0"], ["-1", "1"], ["-1", "-1"]]),
    _document_bytes(lambdas=[["0." + "1" * 4300, "0"], ["-1", "1"], ["-1", "-1"]]),
], ids=["lambdas-int", "lambdas-flat", "labels-int", "labels-ints", "distinguished-bool",
        "schema-bool", "not-utf8", "huge-int-literal", "exponent-string", "long-decimal"])
def test_malformed_documents_are_parse_errors(raw, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_bytes(raw)
    code, out, err = run_cli(capsys, "open-book", "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("parse error:")


def test_partition_total_above_the_bound_is_a_parse_error(capsys):
    # a few characters denote any n; the refusal comes before one vector is built
    code, out, err = run_cli(capsys, "check", "--partition", "1000000000000,1,1")
    assert (code, out) == (1, "")
    assert err == "parse error: partition total n = 1000000000002 exceeds the bound 1000000\n"
    assert "Traceback" not in err


def test_max_n_belongs_to_homology_only(capsys):
    code, _, err = run_cli(capsys, "open-book", "--partition", "1,1,1", "--max-n", "5")
    assert code == 1
    assert "--max-n" in err


_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 7), st.floats(-2, 2),
                  st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3))


@st.composite
def _documents(draw):
    """A small well-formed document (n <= 6), then at most one field replaced by junk."""
    if draw(st.booleans()):
        parts = draw(st.lists(st.integers(-1, 2), max_size=6).filter(lambda p: sum(p) <= 6))
        doc = {"schema": 1, "partition": parts}
    else:
        k = draw(st.integers(1, 3))
        vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                                min_size=1, max_size=6))
        doc = {"schema": 1, "k": k, "n": len(vectors),
               "lambdas": [[str(x) for x in v] for v in vectors]}
        if draw(st.booleans()):
            doc["labels"] = [f"y{i}" for i in range(len(vectors))]
    if draw(st.booleans()):
        doc["distinguished"] = draw(st.integers(-1, 7))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["schema", "k", "n", "lambdas", "labels", "distinguished",
                                    "partition", "surprise"]))
        doc[key] = draw(_JUNK)
    return doc


_COMMANDS = st.sampled_from([
    ["check"], ["dual-complex"], ["homology"], ["homology", "--max-n", "4"], ["classify"],
    ["open-book", "--variant", "complex"], ["open-book", "--variant", "real"],
    ["open-book", "--facet", "2"], ["check", "--distinguished", "9"],
])


@given(doc=_documents(), command=_COMMANDS, structured=st.booleans())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_exit_codes(doc, command, structured, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command[0], "--config", str(path), *command[1:]]
    if structured:
        argv += ["--format", "structured"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in range(5)
    assert "Traceback" not in err.getvalue()


def test_parser_state_does_not_leak_between_calls(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "homology", "--partition", "2,2,2",
                           "--space", "Z", "--format", "structured")
    assert code == 0 and set(json.loads(out)["spaces"]) == {"Z"}
    code, out, _ = run_cli(capsys, "homology", "--partition", "2,2,2", "--format", "structured")
    assert code == 0 and set(json.loads(out)["spaces"]) == {"Z", "ZC", "Zplus"}

    seen = []
    monkeypatch.setattr("quadbook.cli.cross_validate",
                        lambda families, jobs: seen.append(families) or {"ok": True})
    monkeypatch.setattr("quadbook.cli._emit", lambda report, fmt, stream: None)
    assert main(["cross-validate", "--family", "partitions:n<=4"]) == 0
    assert main(["cross-validate"]) == 0
    assert main(["cross-validate", "--family", "partitions:n<=5"]) == 0
    assert seen == [["partitions:n<=4"], ["partitions:n<=6"], ["partitions:n<=5"]]


@pytest.mark.parametrize("argv, value", [
    pytest.param(argv, value, id=value if argv[-1] == "--max-n" else "jobs" + value)
    for argv in (("homology", "--partition", "1,1,1", "--max-n"), ("cross-validate", "--jobs"))
    for value in ("0", "-1")])
def test_max_n_below_one_is_a_parse_error(argv, value, capsys):
    code, out, err = run_cli(capsys, *argv, value)
    assert (code, out) == (1, "")
    assert f"argument {argv[-1]}: must be at least 1, got {value}" in err


def test_import_leaves_the_process_pool_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(qb.__file__).resolve().parents[1])
    probe = ("import sys, quadbook.cli; "
             "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_document_refusals(tmp_path, capsys):
    with pytest.raises(qb.ParseError, match="input document must be a mapping"):
        load_document([])
    with pytest.raises(qb.ParseError, match="missing field 'lambdas'"):
        load_document({"schema": 1, "k": 2, "n": 3})
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"schema": 1, "k": 2, "n": 3,
                                "lambdas": [[1.5, 0], [0, 1], [-1, -1]]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "parse error: not an exact rational: 1.5\n"
    # JSON true is an int to Python, but no rational
    path.write_text(json.dumps({"schema": 1, "k": 2, "n": 3,
                                "lambdas": [[True, 0], [0, 1], [-1, -1]]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "parse error: not an exact rational: True\n"
    path.write_text(json.dumps({"schema": 1, "k": 2, "n": 4,
                                "lambdas": [[1, 0], [0, 1], [-1, -1]]}))
    code, out, err = run_cli(capsys, "check", "--config", str(path))
    assert (code, out) == (1, "")
    assert err == "parse error: n = 4 but 3 vectors given\n"


def test_report_refusals():
    with pytest.raises(qb.ParseError, match="unknown open book variant 'x'"):
        reporting.open_book_report(PENTAGON_CFG, 1, variant="x")
    with pytest.raises(qb.ParseError, match="unknown family 'cubes'"):
        reporting.parse_family("cubes")


def test_unreadable_config_is_a_parse_error(tmp_path, capsys):
    for path in (tmp_path / "missing.json", tmp_path):
        code, out, err = run_cli(capsys, "check", "--config", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"parse error: cannot read {path}: ")
