#!/usr/bin/env python3
"""Run the standard exhaustive duality battery and write the reports.

Covers every configuration pair up to the requested sizes for all three
functional kinds and both asymmetry regimes in one sweep, so each parameter
set's tables are built once for H, G and D together.  Reports are written
as they are made, in the sweep's canonical order: parameters, then kind,
then t, then configuration pair.  One summary line per kind is counted from
that stream; its ``elapsed_ms`` is the whole sweep's, writing included.
All verdicts are exact rational comparisons; a nonzero exit means at least
one identity failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sixv.duality import KINDS
from sixv.model import STANDARD_PARAMS
from sixv.verify import SweepSpec, iter_sweep, sweep_summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-ell", type=int, default=3)
    parser.add_argument("--max-k", type=int, default=2)
    parser.add_argument("--window", default="0:6", metavar="LO:HI")
    parser.add_argument("--t-list", default="1,2")
    parser.add_argument("--out", default="standard_sweep.jsonl")
    args = parser.parse_args()

    lo, _, hi = args.window.partition(":")
    spec = SweepSpec(
        max_ell=args.max_ell,
        max_k=args.max_k,
        window=(int(lo), int(hi)),
        t_range=tuple(int(t) for t in args.t_list.split(",")),
        params_list=STANDARD_PARAMS,
        kinds=KINDS,
    )
    start = time.monotonic()
    verdicts = {kind: Counter() for kind in KINDS}
    with open(args.out, "w", encoding="utf-8") as handle:
        for report in iter_sweep(spec):
            verdicts[report.kind][report.verdict] += 1
            handle.write(report.to_json_line() + "\n")
    elapsed_ms = int((time.monotonic() - start) * 1000)
    for kind in KINDS:
        print(f"kind {kind}: {json.dumps(sweep_summary(verdicts[kind], elapsed_ms))}")
    print(f"reports written to {args.out}")
    return 0 if all(v["fail"] == 0 for v in verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
