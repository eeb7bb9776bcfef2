#!/usr/bin/env python3
"""Negative controls for the benchmark's own output checks.

    python3 bench/controls.py

* A sweep-std run with ``--mutation landing-factor`` (a known defect) must
  read as wrong: ``error_frac`` > 0.
* An mc-traj output must pass as it is, and must fail once either side's
  mean is shifted by 6 standard errors.

Exits 0 when every control behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

import check
from workloads import build, import_cli, run_cli


def _shift_mean(stdout: str, side: str, stderrs: float) -> str:
    lines = []
    for text in stdout.splitlines():
        obj = json.loads(text)
        if obj.get("mc_side") == side:
            obj["mean"] += stderrs * obj["stderr"]
        lines.append(json.dumps(obj))
    return "\n".join(lines) + "\n"


def main() -> int:
    cli = import_cli()
    reference = check.load_reference()
    outcomes = []

    argv, out_path = build("sweep-std", 0, 0)
    code, stdout = run_cli(cli.main, argv + ["--mutation", "landing-factor"])
    result = check.check_output("sweep-std", reference, code, stdout, out_path)
    os.remove(out_path)
    frac = result["errors"] / result["ops"]
    outcomes.append((f"sweep-std, --mutation landing-factor: error_frac {frac:.4f}", frac > 0))

    argv, _ = build("mc-traj", 1, 0)
    code, stdout = run_cli(cli.main, argv)
    errors = check.check_output("mc-traj", reference, code, stdout, None)["errors"]
    outcomes.append((f"mc-traj as run: {errors} wrong trajectories", errors == 0))
    for side in ("forward", "reversed"):
        shifted = _shift_mean(stdout, side, 6.0)
        errors = check.check_output("mc-traj", reference, code, shifted, None)["errors"]
        outcomes.append((f"mc-traj, {side} mean + 6 stderr: {errors} wrong trajectories",
                         errors > 0))

    for text, ok in outcomes:
        print(f"{'ok  ' if ok else 'FAIL'} {text}")
    return 0 if all(ok for _, ok in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
