#!/usr/bin/env python3
"""Run the standard exhaustive duality battery and write the reports.

Covers every configuration pair up to the requested sizes for all three
functional kinds and both asymmetry regimes, then prints one summary line
per kind.  All verdicts are exact rational comparisons; a nonzero exit
means at least one identity failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sixv.model import STANDARD_PARAMS
from sixv.verify import SweepSpec, run_sweep


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ell", type=int, default=3)
    parser.add_argument("--max-k", type=int, default=2)
    parser.add_argument("--window", default="0:6", metavar="LO:HI")
    parser.add_argument("--t-list", default="1,2")
    parser.add_argument("--out", default="standard_sweep.jsonl")
    args = parser.parse_args()

    lo, _, hi = args.window.partition(":")
    window = (int(lo), int(hi))
    t_range = tuple(int(t) for t in args.t_list.split(","))

    failed_total = 0
    with open(args.out, "w", encoding="utf-8") as handle:
        for kind in ("H", "G", "D"):
            spec = SweepSpec(
                max_ell=args.max_ell,
                max_k=args.max_k,
                window=window,
                t_range=t_range,
                params_list=STANDARD_PARAMS,
                kinds=(kind,),
            )
            result = run_sweep(spec)
            for report in result.reports:
                handle.write(json.dumps(report.to_json_obj()) + "\n")
            summary = result.summary()
            failed_total += summary["failed"]
            print(f"kind {kind}: {json.dumps(summary)}")
    print(f"reports written to {args.out}")
    return 0 if failed_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
