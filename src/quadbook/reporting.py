"""Input documents, deterministic reports, and the cross-validation battery.

Reports mirror the domain types one to one and leave out the input, whose
document the CLI adds to structured output.  Every list is emitted in a fixed order
so identical inputs produce byte-identical output, independently of the
parallelism degree used to compute them.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable

from .classify import (
    ManifoldDescription,
    classify_complex,
    classify_real,
    d_values,
    double_partition,
    expected_homology,
    normal_form,
    normal_form_labelled,
    partition_configuration,
    rotate_parts,
)
from .complexes import GradedGroup, _coordinate_faces, pair_homology
from .configuration import (
    Configuration,
    ConfigurationError,
    ParseError,
    QuadbookError,
    SizeCapError,
    _is_int,
    complexify,
    require_valid,
    validate,
)
from .openbook import (
    boundary_consistency,
    open_book_complex,
    open_book_real,
    page_homology,
    page_topology,
)
from .splitting import (
    DEFAULT_SUBSET_CAP,
    euler_cellcount,
    homology_Z,
    homology_ZC,
    homology_Zplus,
    splitting_ledger,
)

SCHEMA_VERSION = 1
_ALLOWED_KEYS = {"schema", "k", "n", "lambdas", "labels", "distinguished", "partition"}


def _is_list_of(value, item_check) -> bool:
    return isinstance(value, list) and all(item_check(x) for x in value)


def load_document(doc: dict) -> Configuration:
    """Parse the versioned input schema into a configuration."""
    if not isinstance(doc, dict):
        raise ParseError("input document must be a mapping")
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}; schema {SCHEMA_VERSION} rejects them")
    if not _is_int(doc.get("schema")) or doc["schema"] != SCHEMA_VERSION:
        raise ParseError(f"missing or unsupported schema version (expected {SCHEMA_VERSION})")
    distinguished = doc.get("distinguished", 1)
    try:
        if "partition" in doc:
            if doc.keys() & {"k", "n", "lambdas", "labels"}:
                raise ParseError("give either a partition or an explicit configuration, not both")
            parts = doc["partition"]
            if not _is_list_of(parts, _is_int):
                raise ParseError("partition must be a list of integers")
            return partition_configuration(tuple(parts), distinguished=distinguished)
        for key in ("k", "n", "lambdas"):
            if key not in doc:
                raise ParseError(f"missing field {key!r}")
        if not _is_int(doc["n"]):
            raise ParseError("n must be an integer")
        if not _is_list_of(doc["lambdas"], lambda row: isinstance(row, list)):
            raise ParseError("lambdas must be a list of vectors, each a list of rationals")
        labels = doc.get("labels", [])
        if not isinstance(labels, list):  # a string would be a sequence of one-letter labels
            raise ParseError("labels must be a list of strings")
        if len(doc["lambdas"]) != doc["n"]:
            raise ParseError(f"n = {doc['n']} but {len(doc['lambdas'])} vectors given")
        return Configuration(doc["k"], doc["lambdas"], tuple(labels), distinguished)
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from exc


def config_document(cfg: Configuration) -> dict:
    """The round-trippable document for a configuration."""
    text = {id(vec): vec for vec in cfg.lambdas}  # the constructor shares one tuple per distinct raw vector
    text = {key: [str(x) for x in vec] for key, vec in text.items()}
    return {
        "schema": SCHEMA_VERSION,
        "k": cfg.k,
        "n": cfg.n,
        "lambdas": [text[id(vec)] for vec in cfg.lambdas],
        "labels": list(cfg.labels),
        "distinguished": cfg.distinguished,
    }


def graded_document(group: GradedGroup) -> list[dict]:
    return [
        {"degree": d, "rank": r, "torsion": list(chain)}
        for d, r, chain in group.groups
    ]


# ---------------------------------------------------------------------------
# per-command reports


def check_report(cfg: Configuration) -> dict:
    report = validate(cfg)
    out = {"command": "check", "ok": report.ok}
    if not report.ok:
        out["witness"] = list(report.witness)
    return out


def dual_complex_report(cfg: Configuration) -> dict:
    """The dual complex; its maximal faces are its faces of the largest size.

    On its vertices the class complex of a valid input is the boundary of a
    simplicial polytope, hence pure, and so is its wedge on the coordinates.
    """
    require_valid(cfg)
    by_size: dict[int, list[list[int]]] = {}  # listed by size, then in list order within one
    for f in _coordinate_faces(cfg, (1 << cfg.n) - 1):
        by_size.setdefault(f.bit_count(), []).append([i + 1 for i in range(cfg.n) if f >> i & 1])
    faces = [face for size in sorted(by_size) for face in sorted(by_size[size])]
    size = len(faces[-1]) if faces else 0
    return {
        "command": "dual-complex",
        "void": not faces,
        "dim": size - 1,
        "maximal_faces": [face for face in faces if len(face) == size],
        "face_count": len(faces),
        "faces": faces,
    }


def homology_report(cfg: Configuration, spaces: Iterable[str] = ("Z", "ZC", "Zplus"), *,
                    cap: int = DEFAULT_SUBSET_CAP) -> dict:
    out = {"command": "homology", "spaces": {}}
    for space in spaces:
        led = splitting_ledger(cfg, space, cap=cap)
        out["spaces"][space] = {
            "table": graded_document(led.total),
            "contributing_subsets": [
                {"subset": list(J), "groups": graded_document(g)} for J, g in led.entries
            ],
        }
    # only after the ledgers, which refuse an input over the cap before any face is listed
    out["euler"] = euler_cellcount(cfg)
    return out


def _description_document(desc: ManifoldDescription) -> dict:
    out = {
        "kind": desc.kind,
        "summands": [list(s.dims) for s in desc.summands],
        "symbol": desc.render(),
        "flags": list(desc.flags),
    }
    note = desc.annotation()
    if note is not None:
        out["annotation"] = note
    return out


def classify_report(cfg: Configuration) -> dict:
    partition, classes = normal_form_labelled(cfg)
    return {
        "command": "classify",
        "normal_form": list(partition.parts),
        "classes": [list(c) for c in classes],
        "d_values": list(d_values(partition)),
        "real": _description_document(classify_real(partition)),
        "complex": _description_document(classify_complex(partition)),
    }


def open_book_report(cfg: Configuration, coordinate: int, *, variant: str = "complex") -> dict:
    if variant == "real":
        structure = open_book_real(cfg, coordinate)
    elif variant == "complex":
        structure = open_book_complex(cfg, coordinate)
    else:
        raise ParseError(f"unknown open book variant {variant!r}")
    checks = boundary_consistency(structure)
    out = {
        "command": "open-book",
        "variant": variant,
        "total_dim": structure.total_dim,
        "monodromy": structure.monodromy,
        "binding": config_document(structure.binding) if structure.binding else None,
        "binding_empty": structure.binding is None,
        "page_label": structure.page_label,
        "consistency": [
            {"name": c.name, "status": c.status, "detail": c.detail} for c in checks
        ],
    }
    if structure.page is not None:
        out["page"] = {
            "case": structure.page.case,
            "symbol": structure.page.render(),
            "dim": structure.page.dim,
            "flags": list(structure.page.flags),
            "homology": graded_document(page_homology(structure.page)),
        }
    else:
        out["page"] = None
    return out


# ---------------------------------------------------------------------------
# cross-validation battery

_FAMILY_RE = re.compile(r"^partitions\s*:?\s*n\s*<=\s*(\d+)$")
# the family grows exponentially in N; n<=9 already takes minutes
FAMILY_LIMIT = 9


def parse_family(spec: str) -> int:
    match = _FAMILY_RE.match(spec.strip())
    if not match:
        raise ParseError(f"unknown family {spec!r}; expected 'partitions:n<=N'")
    limit = int(match.group(1))
    if limit > FAMILY_LIMIT:
        raise SizeCapError(f"family {spec!r} exceeds n<={FAMILY_LIMIT}")
    return limit


def odd_partitions(limit: int) -> list[tuple[int, ...]]:
    """All cyclic-order tuples with an odd number of positive parts, total <= limit."""
    out = []
    for total in range(3, limit + 1):
        for count in range(3, total + 1, 2):
            out.extend(_compositions(total, count))
    return out


def _compositions(total: int, count: int) -> list[tuple[int, ...]]:
    """The compositions of total into count positive parts, by their cut points, in lex order."""
    return [tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
            for cuts in itertools.combinations(range(1, total), count - 1)]


def _cross_validate_item(parts: tuple[int, ...]) -> dict:
    cfg = partition_configuration(parts)
    partition = normal_form(cfg)
    checks = {}
    h_z = homology_Z(cfg)
    h_zc = homology_ZC(cfg)
    # summed at coordinate level over the class unions J, not through the class engine
    dbl = complexify(cfg)
    unions = itertools.product(*[((), members) for members in dbl.classes])
    checks["doubling"] = h_zc == GradedGroup.sum(pair_homology(dbl, sum(J, ())) for J in unions)
    checks["euler"] = h_z.euler() == euler_cellcount(cfg)
    checks["complex-formula"] = expected_homology(classify_complex(partition)) == h_zc
    real = classify_real(partition)
    top = max(h_z.max_degree or 0, expected_homology(real).max_degree or 0)
    checks["real-betti"] = expected_homology(real).betti(top) == h_z.betti(top)
    page_ok = True
    for class_index in range(1, len(parts) + 1):
        rotated = rotate_parts(parts, class_index)
        real_cfg = partition_configuration(rotated)
        real_page = page_homology(page_topology(rotated, 1))
        if real_page != homology_Zplus(real_cfg):
            page_ok = False
        doubled = double_partition(rotated)
        cplx_page = page_homology(page_topology(rotated, 1, complex_case=True))
        if cplx_page != homology_Zplus(partition_configuration(doubled)):
            page_ok = False
    checks["pages"] = page_ok
    return {
        "partition": list(parts),
        "checks": {name: ("pass" if ok else "fail") for name, ok in sorted(checks.items())},
        "ok": all(checks.values()),
    }


_CHUNK = 4  # partitions per task that cross_validate hands a worker


class WorkerDiedError(QuadbookError):
    """A cross-validation worker process died, so its pool gave no result."""


def cross_validate(families: Iterable[str], *, jobs: int = 1) -> dict:
    """Run the oracle battery over partition families; deterministic output."""
    limit = max(parse_family(f) for f in families)
    items = odd_partitions(limit)
    workers = min(jobs, (len(items) + _CHUNK - 1) // _CHUNK)  # one per chunk that pool.map hands out
    if workers > 1:
        from concurrent import futures  # only a pool needs it, and it loads logging

        results = []
        try:
            with futures.ProcessPoolExecutor(max_workers=workers) as pool:
                results.extend(pool.map(_cross_validate_item, items, chunksize=_CHUNK))
        except futures.BrokenExecutor as exc:
            # map yields the chunks in order, so the first chunk without a result
            # starts here; a dying worker fails every pending chunk, so it need
            # not be the chunk that killed the worker
            lost = ", ".join(str(tuple(parts)) for parts in items[len(results):len(results) + _CHUNK])
            raise WorkerDiedError(f"{exc}; the chunk of partitions {lost} got no result") from exc
    else:
        results = [_cross_validate_item(parts) for parts in items]
    ok = all(r["ok"] for r in results)
    return {
        "command": "cross-validate",
        "families": sorted(set(families)),
        "cases": len(results),
        "ok": ok,
        "failures": [r for r in results if not r["ok"]],
        "results": results,
    }


# ---------------------------------------------------------------------------
# text rendering


def _graded_lines(rows: list[dict]) -> list[str]:
    group = GradedGroup(tuple((row["degree"], row["rank"], tuple(row["torsion"])) for row in rows))
    return [f"  H_{d} = {group.describe(d)}" for d in group.degrees] or ["  (zero)"]


def render_text(report: dict) -> str:
    command = report.get("command")
    lines: list[str] = []
    if command == "check":
        lines.append("valid: weakly hyperbolic" if report["ok"]
                      else f"INVALID: origin in conv(lambda_J) for J = {report['witness']}")
    elif command == "dual-complex":
        if report["void"]:
            lines.append("dual complex: void (the variety is empty)")
        else:
            lines.append(f"dual complex: dim {report['dim']}, {report['face_count']} faces")
            lines.append("maximal faces:")
            lines.extend(f"  {face}" for face in report["maximal_faces"])
    elif command == "homology":
        lines.append(f"euler characteristic: {report['euler']}")
        for space, entry in sorted(report["spaces"].items()):
            lines.append(f"space {space}:")
            lines.extend(_graded_lines(entry["table"]))
            lines.append(f"  contributing subsets: {len(entry['contributing_subsets'])}")
    elif command == "classify":
        lines.append(f"normal form: {tuple(report['normal_form'])}")
        lines.append(f"d values: {tuple(report['d_values'])}")
        real = report["real"]
        note = f" [{real['annotation']}]" if "annotation" in real else ""
        lines.append(f"Z = {real['symbol']}{note}")
        for flag in real["flags"]:
            lines.append(f"  flag: {flag}")
        lines.append(f"Z^C = {report['complex']['symbol']}")
    elif command == "open-book":
        lines.append(f"open book ({report['variant']}), total dimension {report['total_dim']}")
        lines.append(f"monodromy: {report['monodromy']}")
        if report["binding_empty"]:
            lines.append("binding: empty")
        else:
            b = report["binding"]
            lines.append(f"binding: n = {b['n']} configuration ({report_binding_summary(b)})")
        if report["page"]:
            page = report["page"]
            lines.append(f"page (case {page['case']}): {page['symbol']}")
            for flag in page["flags"]:
                lines.append(f"  flag: {flag}")
        else:
            lines.append(f"page: {report['page_label']}")
        lines.append("consistency:")
        for c in report["consistency"]:
            lines.append(f"  [{c['status']}] {c['name']}: {c['detail']}")
    elif command == "cross-validate":
        lines.append(f"cases: {report['cases']}")
        lines.append(f"result: {'all checks passed' if report['ok'] else 'MISMATCHES FOUND'}")
        for failure in report["failures"]:
            bad = [k for k, v in failure["checks"].items() if v == "fail"]
            lines.append(f"  partition {tuple(failure['partition'])}: failed {bad}")
    return "\n".join(lines) + "\n"


def report_binding_summary(doc: dict) -> str:
    return f"k = {doc['k']}, labels {', '.join(doc['labels'][:4])}" + ("..." if doc["n"] > 4 else "")
