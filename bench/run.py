#!/usr/bin/env python3
"""The sixv benchmark: time one workload of the ``sixv`` CLI and check its output.

    python3 bench/run.py --workload sweep-std --seed 1 --seconds 30 --trace 0

Every repetition is a fresh, single-threaded Python process (worker.py) that
calls ``sixv.cli.main`` once, so caches start cold as they do for a CLI
user.  Repetitions run one after another, with ``SIXV_JOBS`` unset, for
about ``--seconds`` in all.  Before each, two more processes only import
``sixv`` and build the inputs, to measure set-up.  Every output is checked
against ``reference.json``; the run fails (exit 1) if any operation's output
is wrong, so wrong output is never reported as a speed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics from the traced ones, plus the tracing
overhead (median traced minus median untraced wall time).  The line before
the result gives quartiles, sample counts, ``error_frac``, nproc and the
Python version.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import WORKLOADS, uses_seed

BENCH = Path(__file__).resolve().parent
ROOT = Path(workloads.ROOT)
# Set-up-only processes before each repetition; spread over the run, they
# sample set-up at the same machine speeds as the repetitions.
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150


class WorkerError(Exception):
    """A worker process failed or printed no record."""


def run_worker(workload: str, seed: int, rep: int, mode: str) -> dict:
    """Run worker.py once and return its record."""
    env = {k: v for k, v in os.environ.items() if k != "SIXV_JOBS"}
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--rep", str(rep), "--mode", mode],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker ({mode}, rep {rep}) exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def _spread(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _median(values: list) -> float | None:
    """Median of the numbers; None when an entry point was absent from the code."""
    return None if any(v is None for v in values) else statistics.median(values)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repetitions, each after a few set-up probes, for about ``seconds``.

    The run stops where it ends nearest to ``seconds``: it starts another
    repetition only if that is expected to end less than half a repetition
    late.
    """
    deadline = time.monotonic() + seconds
    modes = ("run", "trace") if trace else ("run",)
    records: list[dict] = []
    took: list[float] = []
    while True:
        began = time.monotonic()
        rep = len(took)
        records += [run_worker(workload, seed, rep, "setup") for _ in range(SETUP_PROBES)]
        records.append(run_worker(workload, seed, rep, modes[rep % len(modes)]))
        took.append(time.monotonic() - began)
        if len(took) >= len(modes) and time.monotonic() + statistics.median(took) / 2 > deadline:
            return records


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "sixv" / "cli.py").is_file():
        print(f"error: no sixv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    try:
        records = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runs = [r for r in records if r["mode"] == "run"]
    traced = [r for r in records if r["mode"] == "trace"]
    checked = runs + traced
    attempted = sum(r["ops"] for r in checked)
    failed = sum(r["errors"] for r in checked)

    samples = {
        "setup_s": [r["setup_s"] for r in records],
        "wall_s": [r["wall_s"] for r in runs],
        "ops_per_s": [r["ops"] / r["wall_s"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    if traced:
        samples["trace.wall_s"] = [r["wall_s"] for r in traced]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": uses_seed(args.workload),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "error_frac": failed / attempted,
        "spread": {name: _spread(values) for name, values in samples.items()},
        "counters": {k: _median([r["counters"][k] for r in runs])
                     for k in runs[0]["counters"]},
    }
    print(json.dumps({"info": info}))

    if args.trace:
        values = {k: _median([r["counters"][k] for r in traced])
                  for k in traced[0]["counters"]}
        values["trace.overhead_s"] = (statistics.median(samples["trace.wall_s"])
                                      - statistics.median(samples["wall_s"]))
        declared_metrics = declared["per_layer"]
    else:
        values = {name: statistics.median(v) for name, v in samples.items()}
        declared_metrics = declared["end_to_end"]
    metrics = {}
    for m in declared_metrics:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        if values[m["name"]] is None:
            metrics[m["name"]]["absent"] = True
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics if correct else {}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
