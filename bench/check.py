"""Output checks: compare one run's output with the stored reference.

An *operation* is a sweep instance, a check (check-long) or a trajectory
(mc-traj); ``error_frac`` is the share of operations whose output disagrees
with ``reference.json``.

* Sweeps: reports are reduced to canonical rows
  ``(x, y, params, t, kind, lhs, rhs, verdict)``, with every rational
  normalised and key order ignored, so a new report field or a reordered key
  is not wrong output.  Rows are grouped by (params, kind, t, len x, len y)
  and each group is compared by a digest of its sorted rows; every instance
  of a group whose digest differs counts as an error.
* check-long: the exact rationals on both sides.
* mc-traj: the duality line must give the exact value on both sides, and
  each Monte Carlo mean must lie within ``MC_TOLERANCE`` standard errors of
  it.  The test does not depend on the RNG stream.

A wrong exit code counts as at least one wrong operation.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from workloads import MC_SAMPLES

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
MC_TOLERANCE = 5.0


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@lru_cache(maxsize=None)
def _rational(text: str) -> str:
    value = Fraction(text)
    return f"{value.numerator}/{value.denominator}"


def _canon(obj):
    """Normalise rationals ("2" vs "2/1") and key order inside a params object."""
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, str):
        try:
            return _rational(obj)
        except (ValueError, ZeroDivisionError):
            return obj
    return obj


def _den_bits(*values: str | None) -> int:
    """Largest denominator, in bits, among canonical ``num/den`` strings."""
    return max((int(v.partition("/")[2]).bit_length() for v in values if v is not None),
               default=0)


def _reports(lines) -> list[dict]:
    return [r for r in (json.loads(line) for line in lines if line.strip())
            if r.get("identity") == "duality"]


def sweep_summary(out_path: str) -> tuple[dict, dict]:
    """Group digests of a sweep report file, plus the counters read from it."""
    groups: dict[str, list[str]] = {}
    failed = den_bits = 0
    with open(out_path, encoding="utf-8") as handle:
        reports = _reports(handle)
    canon_params: dict[str, str] = {}
    for r in reports:
        raw = str(r["params"])
        params = canon_params.get(raw)
        if params is None:
            params = canon_params[raw] = json.dumps(_canon(r["params"]), sort_keys=True)
        lhs = None if r["lhs"] is None else _rational(r["lhs"])
        rhs = None if r["rhs"] is None else _rational(r["rhs"])
        row = f"{r['x']}|{r['y']}|{params}|{r['t']}|{r['kind']}|{lhs}|{rhs}|{r['verdict']}"
        key = f"{params}|{r['kind']}|t={r['t']}|l={len(r['x'])}|k={len(r['y'])}"
        groups.setdefault(key, []).append(row)
        failed += r["verdict"] == "fail"
        den_bits = max(den_bits, _den_bits(lhs, rhs))
    digests = {
        key: [len(rows), hashlib.sha256("\n".join(sorted(rows)).encode()).hexdigest()[:16]]
        for key, rows in groups.items()
    }
    counters = {"reports": len(reports), "reports_failed": failed, "max_den_bits": den_bits}
    return digests, counters


def _duality_line(stdout: str) -> dict | None:
    reports = _reports(stdout.splitlines())
    return reports[0] if len(reports) == 1 else None


def mc_side_ok(mean: float, stderr: float, exact: Fraction) -> bool:
    """A Monte Carlo mean agrees when it lies within MC_TOLERANCE stderr of the exact value."""
    return abs(mean - float(exact)) <= MC_TOLERANCE * stderr


def reference_entry(workload: str, code: int, stdout: str, out_path: str | None) -> dict:
    """What ``reference.json`` stores for one workload, taken from a trusted run."""
    entry: dict = {"exit": code}
    if out_path is not None:
        entry["groups"], counters = sweep_summary(out_path)
        entry["total"] = counters["reports"]
        entry["failed"] = counters["reports_failed"]
    else:
        line = _duality_line(stdout)
        if line is None or line["verdict"] != "pass":
            raise ValueError(f"{workload}: no passing duality line to take as reference")
        entry["exact"] = _rational(line["lhs"])
    return entry


def check_output(
    workload: str, reference: dict, code: int, stdout: str, out_path: str | None
) -> dict:
    """Operations attempted, operations wrong, and the counters the output carries."""
    ref = reference[workload]
    if out_path is not None:
        ops = ref["total"]
        digests, counters = sweep_summary(out_path)
        errors = sum(n for key, (n, d) in ref["groups"].items()
                     if digests.get(key) != [n, d])
        errors += sum(n for key, (n, _) in digests.items() if key not in ref["groups"])
    else:
        exact = Fraction(ref["exact"])
        line = _duality_line(stdout)
        exact_ok = (
            line is not None and line["verdict"] == "pass"
            and Fraction(line["lhs"]) == exact and Fraction(line["rhs"]) == exact
        )
        counters = {
            "reports": 0 if line is None else 1,
            "reports_failed": int(line is not None and line["verdict"] == "fail"),
            "max_den_bits": 0 if line is None else _den_bits(_rational(line["lhs"]),
                                                             _rational(line["rhs"])),
        }
        if workload == "check-long":
            ops = 1
            errors = 0 if exact_ok else 1
        else:
            ops = 2 * MC_SAMPLES
            sides = {}
            for text in stdout.splitlines():
                obj = json.loads(text) if text.strip() else {}
                if "mc_side" in obj:
                    sides[obj["mc_side"]] = obj
            errors = 0
            for side in ("forward", "reversed"):
                obj = sides.get(side)
                if not (exact_ok and obj is not None and obj["n"] == MC_SAMPLES
                        and mc_side_ok(obj["mean"], obj["stderr"], exact)):
                    errors += MC_SAMPLES
    if code != ref["exit"]:
        errors = max(errors, 1)
    return {"ops": ops, "errors": min(errors, ops), **counters}
