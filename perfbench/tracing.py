"""Per-layer spans for traced runs, recorded from outside the package.

For each request the caller first runs it untraced and clears every cache.
The tracer then calls each layer's public entry point in pipeline order, one
span each, so every span runs with its predecessors already cached.  Last it
re-runs the request itself with everything cached, which leaves parsing,
report assembly and JSON (``reporting.residual``).  Spans stay in memory and
are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import gen

TIMES = ("configuration.validate", "complexes.dual", "splitting.homology",
         "classify.normal_form", "classify.describe", "openbook.book",
         "openbook.consistency", "reporting.residual")
COUNTS = ("configuration.validate_calls", "complexes.faces", "splitting.classes",
          "splitting.ledger_entries", "splitting.subsets_visited",
          "input.coordinates", "input.ray_dup_coords")


class Tracer:
    def __init__(self, quadbook, workload: str):
        self.qb = quadbook
        self.workload = workload
        self.spans: list[tuple[int, str, float, float]] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.requests = 0

    def _span(self, request: int, name: str, fn, *args):
        start = time.perf_counter()
        value = fn(*args)
        end = time.perf_counter()
        self.spans.append((request, name, start, end))
        self.sums[name + "_s"] += end - start
        return value

    def _count_validate(self):
        """Route every module's ``validate`` through a counter; returns the undo."""
        original = self.qb.configuration.validate
        holders = [m for m in (self.qb.configuration, self.qb.reporting, self.qb.openbook,
                               self.qb.splitting, self.qb.complexes, self.qb.classify, self.qb)
                   if getattr(m, "validate", None) is original]

        def counted(cfg):
            self.sums["configuration.validate_calls"] += 1
            return original(cfg)

        for module in holders:
            module.validate = counted

        def undo():
            for module in holders:
                module.validate = original
        return undo

    def request(self, i: int, case: dict, untraced_s: float, rerun) -> None:
        """Trace one request; every cache must be empty on entry."""
        qb = self.qb
        span = functools.partial(self._span, i)
        undo = self._count_validate()
        start = time.perf_counter()
        try:
            cfg = qb.reporting.load_document(case["doc"])
            span("configuration.validate", qb.configuration.validate, cfg)
            if self.workload != "screen-large-n":
                faces = span("complexes.dual", qb.complexes.dual_face_masks, cfg)
                span("splitting.homology", lambda: [
                    qb.splitting.homology_Z(cfg, cap=64), qb.splitting.homology_ZC(cfg, cap=64),
                    qb.splitting.homology_Zplus(cfg, cap=64)])
            if self.workload == "k2-session":
                partition = span("classify.normal_form", qb.classify.normal_form_labelled, cfg)[0]
                span("classify.describe", lambda: (qb.classify.classify_real(partition),
                                                   qb.classify.classify_complex(partition)))
                book = span("openbook.book", qb.openbook.open_book_complex, cfg, cfg.distinguished)
                span("openbook.consistency", qb.openbook.boundary_consistency, book)
            _, outputs = span("reporting.residual", rerun)
        finally:
            undo()
        end = time.perf_counter()
        self.spans.append((i, "request", start, end))
        self.sums["trace.overhead_s"] += (end - start) - untraced_s
        self.requests += 1

        vectors = case["doc"]["lambdas"]
        self.sums["input.coordinates"] += len(vectors)
        self.sums["input.ray_dup_coords"] += gen.ray_dup_count(vectors)
        if self.workload != "screen-large-n":
            # splitting visits every subset of the classes of equal vectors
            classes = len({tuple(v) for v in vectors})
            self.sums["complexes.faces"] += len(faces)
            self.sums["splitting.classes"] += classes
            self.sums["splitting.subsets_visited"] += 2 ** classes
            homology = next(json.loads(text) for name, _, text in outputs if name == "homology")
            self.sums["splitting.ledger_entries"] += len(
                homology["spaces"]["Z"]["contributing_subsets"])

    def metrics(self, factor: float) -> dict[str, tuple[float, str]]:
        """Means per traced request, and the two ratios with their bases.

        Times are multiplied by ``factor``, the run's speed factor.
        """
        n = max(self.requests, 1)
        out = {name + "_s": (self.sums[name + "_s"] * factor / n, "s") for name in TIMES}
        out["trace.overhead_s"] = (self.sums["trace.overhead_s"] * factor / n, "s")
        out.update({name: (self.sums[name] / n, "count") for name in COUNTS})
        visited = self.sums["splitting.subsets_visited"]
        coords = self.sums["input.coordinates"]
        out["splitting.useful_ratio"] = (
            self.sums["splitting.ledger_entries"] / visited if visited else 0.0, "ratio")
        out["input.ray_dup_share"] = (
            self.sums["input.ray_dup_coords"] / coords if coords else 0.0, "ratio")
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for request, name, start, end in self.spans:
                parent = None if name == "request" else "request"
                handle.write(json.dumps({"request": request, "name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
