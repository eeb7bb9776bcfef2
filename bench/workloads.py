"""The benchmark's four workloads, expressed as ``sixv`` command lines.

The benchmark drives only the documented entry point ``sixv.cli.main(argv)``
and the JSON sweep-spec format, so a change that replaces an engine's
internals cannot break it.  The worker imports this module inside its timed
set-up, so it imports nothing that ``sixv.cli`` does not import itself
(hence ``os.path``, not ``pathlib``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from typing import Callable, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))  # holds src/sixv
WORKDIR = os.path.join(ROOT, ".bench_work")  # spec files, report files and span dumps

# name -> why it is in the benchmark (one line each, copied to BENCHMARK.json)
WORKLOADS = {
    "sweep-std": "the standard exhaustive sweep users run most: many short "
    "instances, time in contraction, Fraction arithmetic, reports and JSON output",
    "check-long": "one t=6 check: time in t-step composition and step-law "
    "enumeration with no t-step cache hits, the backward engine's target",
    "mc-traj": "Monte Carlo cross-check: sampler, RNG seeding and site lookups; "
    "bypasses the exact engines, so exact-engine changes must not move it",
    "sweep-inhom": "site-dependent sweep with 4,274 expected failures: nontrivial "
    "per-site lookups and the failure-report path",
}

WINDOW = (0, 6)
# The three homogeneous parameter pairs of the standard battery, written as
# (q, b2) with b1 = q*b2: (b1, b2) = (1/2, 1/4), (1/4, 1/2), (1/3, 1/6).
STANDARD_PARAMS = (
    {"q": "2/1", "b2": "1/4"},
    {"q": "1/2", "b2": "1/2"},
    {"q": "2/1", "b2": "1/6"},
)
# Site-dependent pass weights cycled over the window, with q = 1/2.
PALETTE = ("1/4", "1/3", "1/2")
INHOM_PARAMS = {
    "q": "1/2",
    "b2_default": PALETTE[0],
    "b2_sites": {
        str(site): PALETTE[(site - WINDOW[0]) % len(PALETTE)]
        for site in range(WINDOW[0], WINDOW[1] + 1)
    },
}

CHECK_LONG_ARGV = ["check", "--x", "0,1,2,3", "--y", "12,8,5", "--kind", "H", "--t", "6"]
MC_SAMPLES = 20000
MC_ARGV = ["check", "--x", "0,1,2", "--y", "4,2", "--kind", "H", "--t", "2",
           "--n-samples", str(MC_SAMPLES)]


def uses_seed(name: str) -> bool:
    """Only mc-traj draws from the seed; the other workloads are exhaustive or fixed."""
    return name == "mc-traj"


def mc_seed(seed: int, rep: int) -> int:
    """The CLI seed of one mc-traj repetition: fixed by the workload seed."""
    return seed * 1000 + rep


def _sweep_spec(params: Sequence[dict]) -> dict:
    return {
        "max_ell": 3,
        "max_k": 2,
        "window": list(WINDOW),
        "t_range": [1, 2],
        "kinds": ["H", "G", "D"],
        "params": list(params),
    }


def build(name: str, seed: int, rep: int) -> tuple[list[str], str | None]:
    """The argv of one repetition and the report file it writes (sweeps only)."""
    if name in ("sweep-std", "sweep-inhom"):
        params = STANDARD_PARAMS if name == "sweep-std" else (INHOM_PARAMS,)
        os.makedirs(WORKDIR, exist_ok=True)
        spec_path = os.path.join(WORKDIR, f"{name}.spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(_sweep_spec(params), handle)
        out_path = os.path.join(WORKDIR, f"{name}.reports.jsonl")
        return ["sweep", "--spec", spec_path, "--out", out_path], out_path
    if name == "check-long":
        return list(CHECK_LONG_ARGV), None
    if name == "mc-traj":
        return MC_ARGV + ["--seed", str(mc_seed(seed, rep))], None
    raise ValueError(f"unknown workload {name!r}")


def import_cli():
    """``sixv.cli`` from this checkout's ``src``, never from anywhere else."""
    src = os.path.realpath(os.path.join(ROOT, "src"))
    sys.path.insert(0, src)
    import sixv.cli

    if not os.path.realpath(sixv.cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"sixv was imported from {sixv.cli.__file__}, not from {src}")
    return sixv.cli


def run_cli(main: Callable[[list[str]], int], argv: list[str]) -> tuple[int, str]:
    """Call the CLI in-process, returning its exit code and captured stdout."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()
