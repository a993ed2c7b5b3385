"""One benchmark process: set up a workload, then run its closed loop.

Started by ``run.py``, which times the set-up from process start to the
``ready`` line printed here.  Set-up is importing quadbook and generating and
writing the inputs; with ``--setup-only`` the process stops there.  The loop
is one client: the next request starts when the previous one has finished.
It runs whole cycles of the workload's design, at least two (one when
traced), until ``--seconds`` have passed, so every run sees the same mix of
strata.  A calibration slice timed before each request gives the speed
factor that scales every reported time.  The result is one JSON line on
stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import gen
import oracles

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = {
    "k2-session": (["check"], ["classify"], ["homology", "--max-n", "64"],
                   ["open-book", "--variant", "complex"], ["dual-complex"]),
    "dense-k34": (["check"], ["homology"]),
    "screen-large-n": (["check"],),
}
# stop starting requests past this, even inside a cycle, so a run always ends
HARD_LIMIT_S = 120.0


def import_quadbook():
    src = ROOT / "src"
    if not (src / "quadbook" / "__init__.py").is_file():
        raise SystemExit(f"quadbook sources not found under {src}")
    sys.path.insert(0, str(src))
    import quadbook
    import quadbook.cli
    if Path(quadbook.__file__).resolve().parent != (src / "quadbook").resolve():
        raise SystemExit(f"imported quadbook from {quadbook.__file__}, not from {src}")
    return quadbook


class Inputs:
    """The request stream, with each input document written under ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.stream = gen.cases(workload, seed)
        self.workdir = workdir
        self.cases: list[dict] = []
        workdir.mkdir(parents=True, exist_ok=True)

    def get(self, i: int) -> dict:
        while len(self.cases) <= i:
            case = next(self.stream)
            case["path"] = str(self.workdir / f"req-{len(self.cases)}.json")
            with open(case["path"], "w", encoding="utf-8") as handle:
                json.dump(case["doc"], handle)
            self.cases.append(case)
        return self.cases[i]


def cache_clearers(quadbook) -> list:
    """Every cache in the package, so no request reuses another's results."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "quadbook" or name.startswith("quadbook."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def run_request(cli, workload: str, path: str):
    """Run the request's commands in-process; return (seconds, outcome or error)."""
    outputs = []
    start = time.perf_counter()
    try:
        for args in COMMANDS[workload]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([args[0], "--config", path, "--format", "structured"] + args[1:])
            outputs.append((args[0], code, out.getvalue()))
    except Exception as exc:  # a raising request is a counted failure, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, outputs


def judge(workload: str, case: dict, result) -> list[str]:
    if isinstance(result, str):
        return [f"raised {result}"]
    outcome = {}
    for name, code, text in result:
        if code == 3:
            return [f"{name}: refused by a size cap (exit 3)"]
        try:
            outcome[name] = (code, json.loads(text) if text.strip() else None)
        except json.JSONDecodeError:
            return [f"{name}: stdout is not one JSON report"]
        if outcome[name][1] is None:
            return [f"{name}: exit {code} with no report"]
    return oracles.ORACLES[workload](case, outcome)


def tail_percentile(cycle: int) -> float:
    """The highest percentile with ten requests beyond it in a run of two cycles.

    Every run holds at least two cycles, so the percentile, and with it the
    metric's meaning, stays the same however many cycles a run completes.
    """
    return 100.0 * (1 - 10 / (2 * cycle))


def percentile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with Beta((n + 1) q, (n + 1)(1 - q))
    weights for q = p / 100.  It moves less from run to run than one order
    statistic does when neighbouring requests differ much in cost.
    """
    ordered = sorted(values)
    n = len(ordered)
    q = min(max(p / 100, 0.5 / n), 1 - 0.5 / n)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 64  # midpoint rule per order statistic; the weights are renormalised
    weights = []
    for i in range(n):
        total = 0.0
        for j in range(steps):
            t = (i + (j + 0.5) / steps) / n
            total += math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
        weights.append(total)
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def calibration_chunk() -> float:
    """Seconds taken by a fixed slice of pure-Python work like the engine's.

    The host is shared and its speed moves by a quarter within minutes.
    Timing this slice before every request tracks that speed, and every
    reported time is scaled to the speed at which the slice takes
    REFERENCE_CHUNK_S on average.  A change to quadbook cannot move the slice.
    """
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 1000):
        acc += Fraction(i % 97, i % 89 + 1)
    table: dict[int, int] = {}
    for i in range(20000):
        key = i * 7 % 1009
        table[key] = table.get(key, 0) + i
    return time.perf_counter() - start


# mean slice time on the machine the bounds were set on (see README.md)
REFERENCE_CHUNK_S = 0.0100


def speed_factor(chunks: list[float]) -> float:
    """Multiply a measured time by this to express it at the reference speed."""
    return REFERENCE_CHUNK_S / statistics.fmean(chunks)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": sys.version.split()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(COMMANDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its spans (JSON lines)")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    quadbook = import_quadbook()
    inputs = Inputs(args.workload, args.seed, Path(args.workdir))
    cycle = gen.cycle_length(args.workload)
    for i in range(2 * cycle):
        inputs.get(i)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        import tracing
        tracer = tracing.Tracer(quadbook, args.workload)
    clear = cache_clearers(quadbook)
    # a traced run reports no percentiles, and each of its requests runs twice
    min_cycles = 1 if args.trace else 2
    latencies: list[float] = []
    chunks: list[float] = []
    failures: list[dict] = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (i % cycle == 0 and i >= min_cycles * cycle
                                       and elapsed >= args.seconds):
            break
        case = inputs.get(i)
        for fn in clear:
            fn()
        chunks.append(calibration_chunk())
        seconds, result = run_request(quadbook.cli, args.workload, case["path"])
        latencies.append(seconds)
        reasons = judge(args.workload, case, result)
        if reasons:
            failures.append({"request": i, "input": case["doc"], "reasons": reasons})
        if args.trace:
            for fn in clear:
                fn()
            tracer.request(i, case, seconds, lambda: run_request(
                quadbook.cli, args.workload, case["path"]))
        i += 1

    factor = speed_factor(chunks)
    scaled = [t * factor for t in latencies]
    tail_p = tail_percentile(cycle)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": machine(),
        "requests": len(latencies),
        "cycles": len(latencies) / cycle,
        "loop_s": time.perf_counter() - start,
        "failed": len(failures),
        "fail_ratio": len(failures) / len(latencies),
        "speed_factor": factor,
        "latency_p50_s": percentile(scaled, 50),
        "latency_tail_s": percentile(scaled, tail_p),
        "latency_tail_percentile": tail_p,
        "throughput_rps": len(scaled) / sum(scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failures": failures[:5],
        "latencies_s": latencies,
    }
    if args.trace:
        summary["layers"] = tracer.metrics(factor)
        tracer.write(Path(args.spans))
        summary["spans_file"] = args.spans
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
