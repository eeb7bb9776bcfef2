#!/usr/bin/env python3
"""Probe how site-dependent pass weights act on the forward/reversed duality.

Runs the duality sweep of H and D with a palette of b2 values cycled over a
window (b1 follows as q*b2 with fixed q) and prints a failure census per
kind, the minimal counterexample, and the one-step transposed column sums.
H (and G) fail once b2 varies by site: for the mirror reversal to be dual
for them the reversed kernel would have to transpose the forward one, and
the transposed columns do not sum to 1.  D stays dual on every palette
tried, so its census reads 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sixv.dynamics import one_particle_kernel
from sixv.model import Params, cycled_inhom_params, format_rational, parse_rational
from sixv.verify import SweepSpec, run_sweep


def transposed_column_sum(params: Params, y: int, depth: int = 12) -> Fraction:
    """Exact sum over all x <= y of the one-particle forward law p(x -> y).

    Below the override window the summands shrink by exactly the default
    pass weight per site, so the infinite left tail is a geometric series.
    """
    floor = min((site for site, _ in params.b2_sites), default=y) - depth
    floor = min(floor, y - depth)
    total = Fraction(0)
    for x in range(floor, y + 1):
        total += one_particle_kernel(x, y, params)
    tail_ratio = params.b2
    total += one_particle_kernel(floor, y, params) * tail_ratio / (1 - tail_ratio)
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", default="1/2", help="fixed asymmetry ratio (rational)")
    parser.add_argument("--window", default="0:5", metavar="LO:HI")
    parser.add_argument("--max-ell", type=int, default=2)
    parser.add_argument("--max-k", type=int, default=2)
    args = parser.parse_args()

    lo_text, _, hi_text = args.window.partition(":")
    lo, hi = int(lo_text), int(hi_text)
    q = parse_rational(args.q)
    params = cycled_inhom_params(lo, hi, q)

    spec = SweepSpec(
        max_ell=args.max_ell,
        max_k=args.max_k,
        window=(lo, hi),
        t_range=(1,),
        params_list=(params,),
        kinds=("H", "D"),
    )
    result = run_sweep(spec)
    print("summary:", json.dumps(result.summary()))

    census = Counter((r.kind, len(r.x), len(r.y)) for r in result.failures)
    for kind in spec.kinds:
        total = sum(n for (k, _, _), n in census.items() if k == kind)
        print(f"kind {kind}: {total} failures")
        for (k, ell, dual), count in sorted(census.items()):
            if k == kind:
                print(f"  failures with {ell} particles / {dual} dual points: {count}")

    if result.failures:
        witness = min(
            result.failures,
            key=lambda r: (len(r.x) + len(r.y), len(r.x), r.x, r.y),
        )
        print(
            f"minimal counterexample: kind {witness.kind} x={witness.x} y={witness.y} "
            f"forward={format_rational(witness.lhs)} "
            f"reversed={format_rational(witness.rhs)}"
        )

    print("transposed column sums (all exactly 1 in the homogeneous model):")
    for y in range(lo, hi + 1):
        total = transposed_column_sum(params, y)
        marker = "" if total == 1 else "   <- not stochastic"
        print(f"  y={y}: {format_rational(total)}{marker}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
