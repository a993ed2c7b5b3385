"""The quadbook benchmark: seeded request streams run in-process against the CLI.

    python3 perfbench/run.py --workload k2-session --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Set-up (interpreter start, ``import
quadbook``, generating and writing the inputs) is timed in separate processes
and reported as the median; the last of them goes on to run the closed loop
in ``worker.py``.  The last line of stdout is the result: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer ones.  The line
before it is the run's full summary.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import worker  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170.0

END_TO_END = ("latency_p50_s", "latency_tail_s", "throughput_rps", "setup_s", "peak_rss_mb")
UNITS = {"latency_p50_s": "s", "latency_tail_s": "s", "throughput_rps": "1/s",
         "setup_s": "s", "peak_rss_mb": "MB"}


def start_worker(args, workdir: Path, setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with its set-up time, read at its ``ready`` line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        spans = ROOT / ".bench_work" / "traces" / f"{args.workload}-{args.seed}-{os.getpid()}.jsonl"
        cmd += ["--spans", str(spans)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quadbook" / "__init__.py").is_file():
        print(f"quadbook sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    base = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    proc = None
    try:
        setups, chunks = [], []
        for rep in range(SETUP_RUNS):
            last = rep == SETUP_RUNS - 1
            chunks += [worker.calibration_chunk() for _ in range(3)]
            proc, setup = start_worker(args, base / f"run{rep}", setup_only=not last)
            setups.append(setup)
            if not last:
                proc.wait(timeout=DEADLINE_S)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        out, _ = proc.communicate(timeout=remaining)
        if proc.returncode != 0:
            print(f"worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        summary = json.loads(out.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        print("benchmark run exceeded its deadline", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(base, ignore_errors=True)

    summary["setup_s"] = statistics.median(setups) * worker.speed_factor(chunks)
    summary["setup_samples_s"] = setups
    print(json.dumps(summary, sort_keys=True))
    print(json.dumps(result(summary, args.trace)))
    return 0


def result(summary: dict, trace: int) -> dict:
    """The result line: end-to-end metrics, or with ``trace`` the per-layer ones."""
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary["layers"].items()}
    else:
        metrics = {name: {"value": summary[name], "unit": UNITS[name]} for name in END_TO_END}
    return {"correct": summary["failed"] == 0, "attempted": summary["requests"],
            "failed": summary["failed"], "metrics": metrics}


if __name__ == "__main__":
    raise SystemExit(main())
