"""Command line front end: identity checks, sweeps, and trajectory sampling.

Three subcommands:

* ``sixv check``     one configuration pair, exact reports as JSON lines
* ``sixv sweep``     exhaustive duality checks over an enumeration domain
* ``sixv simulate``  sample one trajectory of either process

Exit codes: 0 when every check passes (or the command simply succeeded),
1 when at least one identity check failed, 2 for malformed input.  Exact
rationals are always printed as ``num/den``; only Monte Carlo summaries
contain floats.

Configurations are comma-separated integers: ``--x`` ascending (forward
particles), ``--y`` descending (dual particles), and an empty string is the
empty configuration.  Parameters default to q = 2, b2 = 1/4; site overrides
come from a JSON file mapping site to rational, e.g. ``{"0": "1/3"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from collections import Counter
from typing import Iterator, Sequence, TextIO

from sixv.dynamics import Mutation, _sample_step, trajectory_rng
from sixv.duality import mc_expectation
from sixv.model import Params, validate_location, validate_reversed
from sixv.verify import (
    SweepSpec,
    check_case_identities,
    check_duality,
    check_lemma_factorization,
    iter_sweep,
    sweep_summary,
)


class CliError(Exception):
    """Bad command line input; reported on stderr with exit code 2."""


MUTATIONS = {
    "landing-factor": Mutation.LANDING_FACTOR,
    "push-trigger": Mutation.PUSH_TRIGGER,
    "inverted-q": Mutation.INVERTED_Q,
}


def _parse_positions(text: str, *, descending: bool, flag: str) -> tuple[int, ...]:
    stripped = text.strip()
    if not stripped:
        return ()
    try:
        values = tuple(int(part.strip()) for part in stripped.split(","))
    except ValueError:
        raise CliError(f"{flag} must be comma-separated integers, got {text!r}")
    try:
        if descending:
            return validate_reversed(values)
        return validate_location(values)
    except ValueError as exc:
        raise CliError(f"{flag}: {exc}")


def _params_from_args(ns: argparse.Namespace) -> Params:
    obj = {"q": ns.q, "b2": ns.b2}
    if ns.b2_sites:
        try:
            with open(ns.b2_sites, encoding="utf-8") as handle:
                obj = {"q": ns.q, "b2_default": ns.b2, "b2_sites": json.load(handle)}
        except OSError as exc:
            raise CliError(f"cannot read --b2-sites file: {exc}")
        except json.JSONDecodeError as exc:
            raise CliError(f"--b2-sites file is not valid JSON: {exc}")
    try:
        return Params.from_json_obj(obj)
    except ValueError as exc:
        raise CliError(str(exc))


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The file at ``out``, opened for writing, or stdout when ``out`` is None."""
    if out is None:
        yield sys.stdout
    else:
        try:
            handle = open(out, "w", encoding="utf-8")
        except OSError as exc:
            raise CliError(f"cannot write --out file: {exc}")
        with handle:
            yield handle


def _emit(text: str, out: str | None) -> None:
    with _output(out) as handle:
        handle.write(text)


# --- subcommands -----------------------------------------------------------------


def cmd_check(ns: argparse.Namespace) -> int:
    params = _params_from_args(ns)
    x = _parse_positions(ns.x, descending=False, flag="--x")
    y = _parse_positions(ns.y, descending=True, flag="--y")
    if not y:
        raise CliError("--y needs at least one dual particle")
    if ns.t < 0:
        raise CliError("--t must be >= 0")
    if ns.n_samples is not None:
        if ns.seed is None:
            raise CliError("--n-samples needs --seed")
        if ns.n_samples < 1:
            raise CliError("--n-samples must be >= 1")
    reports = [check_duality(x, y, ns.kind, ns.t, params)]
    if ns.identities == "all":
        # the decomposition identities are one-step statements; they run at
        # t = 1 regardless of --t
        if x and x[0] <= y[-1]:
            reports.extend(check_lemma_factorization(x, y, params))
        if len(x) >= 2:
            reports.extend(check_case_identities(x, y, params))
    lines = [r.to_json_line() for r in reports]
    if ns.n_samples is not None:
        for side in ("forward", "reversed"):
            res = mc_expectation(
                side, x, y, ns.kind, ns.t, params, ns.n_samples, ns.seed
            )
            lines.append(json.dumps({"mc_side": side, **res.to_json_obj()}))
    _emit("\n".join(lines) + "\n", ns.out)
    return 0 if all(r.verdict != "fail" for r in reports) else 1


def cmd_sweep(ns: argparse.Namespace) -> int:
    if ns.spec is not None:
        try:
            with open(ns.spec, encoding="utf-8") as handle:
                obj = json.load(handle)
            spec = SweepSpec.from_json_obj(obj)
        except OSError as exc:
            raise CliError(f"cannot read --spec file: {exc}")
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad sweep spec: {exc}")
    else:
        if ns.max_ell is None or ns.max_k is None or ns.window is None:
            raise CliError("sweep needs --spec or all of --max-ell, --max-k, --window")
        try:
            lo_text, _, hi_text = ns.window.partition(":")
            window = (int(lo_text), int(hi_text))
        except ValueError:
            raise CliError(f"--window must look like LO:HI, got {ns.window!r}")
        try:
            t_range = tuple(int(t) for t in ns.t_list.split(","))
        except ValueError:
            raise CliError(f"--t-list must be comma-separated ints, got {ns.t_list!r}")
        try:
            kinds = tuple(k.strip() for k in ns.kinds.split(","))
            spec = SweepSpec(
                max_ell=ns.max_ell,
                max_k=ns.max_k,
                window=window,
                t_range=t_range,
                params_list=(_params_from_args(ns),),
                kinds=kinds,
            )
        except ValueError as exc:
            raise CliError(str(exc))
    mutation = MUTATIONS[ns.mutation] if ns.mutation else None
    start = time.monotonic()
    verdicts: Counter[str] = Counter()
    with _output(ns.out) as handle:
        for report in iter_sweep(spec, mutation):
            verdicts[report.verdict] += 1
            handle.write(report.to_json_line() + "\n")
    summary = sweep_summary(verdicts, int((time.monotonic() - start) * 1000))
    sys.stdout.write(json.dumps(summary) + "\n")
    return 0 if summary["failed"] == 0 else 1


def cmd_simulate(ns: argparse.Namespace) -> int:
    if (ns.x is None) == (ns.y is None):
        raise CliError("simulate needs exactly one of --x (forward) or --y (reversed)")
    if ns.t < 0:
        raise CliError("--t must be >= 0")
    params = _params_from_args(ns)
    if ns.x is not None:
        side, step = "forward", +1
        current = _parse_positions(ns.x, descending=False, flag="--x")
    else:
        side, step = "reversed", -1
        current = _parse_positions(ns.y, descending=True, flag="--y")
    rng = trajectory_rng(ns.seed)
    rows = [current]
    for _ in range(ns.t):
        current = _sample_step(current, params, step, rng)
        rows.append(current)
    if ns.format == "json":
        payload = {"side": side, "seed": ns.seed, "steps": [list(r) for r in rows]}
        _emit(json.dumps(payload, indent=2) + "\n", ns.out)
        return 0
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    width = len(rows[0])
    writer.writerow(["step"] + [f"pos{i + 1}" for i in range(width)])
    for step, row in enumerate(rows):
        writer.writerow([step] + list(row))
    _emit(buffer.getvalue(), ns.out)
    return 0


# --- parser ----------------------------------------------------------------------


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--q", default="2", help="asymmetry ratio b1/b2 (rational, default 2)")
    parser.add_argument("--b2", default="1/4", help="default pass weight (rational in (0,1))")
    parser.add_argument(
        "--b2-sites", default=None, metavar="FILE",
        help="JSON file of per-site pass weights, e.g. {\"0\": \"1/3\"}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sixv",
        description="Exact duality checks and sampling for the six vertex particle system.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="check identities on one configuration pair")
    check.add_argument("--x", required=True, help="forward particles, ascending (may be empty)")
    check.add_argument("--y", required=True, help="dual particles, descending")
    check.add_argument("--kind", choices=("H", "G", "D"), default="H")
    check.add_argument("--t", type=int, default=1, help="number of update steps (default 1)")
    check.add_argument(
        "--identities", choices=("duality", "all"), default="duality",
        help="'all' adds the one-step factorization and case checks",
    )
    check.add_argument("--n-samples", type=int, default=None,
                       help="also run a Monte Carlo cross-check with this many trajectories")
    check.add_argument("--seed", type=int, default=None, help="seed for --n-samples")
    check.add_argument("--out", default=None, help="write report lines here instead of stdout")
    _add_params_flags(check)
    check.set_defaults(func=cmd_check)

    sweep = sub.add_parser("sweep", help="exhaustive duality checks over a finite domain")
    sweep.add_argument("--spec", default=None, metavar="FILE",
                       help="JSON sweep spec; overrides the inline domain flags")
    sweep.add_argument("--max-ell", type=int, default=None, help="largest particle count")
    sweep.add_argument("--max-k", type=int, default=None, help="largest dual particle count")
    sweep.add_argument("--window", default=None, metavar="LO:HI", help="site window, inclusive")
    sweep.add_argument("--t-list", default="1", help="comma-separated step counts (default 1)")
    sweep.add_argument("--kinds", default="H", help="comma-separated functional kinds (default H)")
    sweep.add_argument("--mutation", choices=sorted(MUTATIONS), default=None,
                       help="inject a known defect; the sweep must catch it")
    sweep.add_argument("--out", default=None, metavar="FILE",
                       help="write report JSONL here; summary always goes to stdout")
    _add_params_flags(sweep)
    sweep.set_defaults(func=cmd_sweep)

    sim = sub.add_parser("simulate", help="sample one trajectory")
    sim.add_argument("--x", default=None, help="forward particles, ascending")
    sim.add_argument("--y", default=None, help="dual particles, descending (reversed process)")
    sim.add_argument("--t", type=int, default=1, help="steps to sample (0 echoes the start)")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--out", default=None, help="write here instead of stdout")
    _add_params_flags(sim)
    sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits on --help and usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return ns.func(ns)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
