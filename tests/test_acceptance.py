"""The acceptance gate: ten criteria, one verdict line each.

Every criterion appends a PASS/FAIL line to ``LINES`` (echoed at the end of
the pytest run) and asserts its own verdict.  All equality checks are exact
rational comparisons; only the Monte Carlo criterion uses a statistical
band, and that band comes from the estimator's own standard error.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

from sixv.dynamics import (
    Mutation,
    forward_step_distribution,
    reversed_step_distribution,
)
from sixv.duality import (
    exact_expectation_forward,
    exact_expectation_reversed,
    expect_forward,
    expect_reversed,
    mc_expectation,
)
from sixv.model import (
    STANDARD_PARAMS,
    VertexType,
    cycled_inhom_params,
    format_rational,
    vertex_weight,
)
from sixv.verify import (
    SweepSpec,
    check_case_identities,
    check_lemma_factorization,
    check_truncation_invariance,
    iter_config_pairs,
    run_sweep,
)

LINES: list[str] = []

STANDARD_DOMAIN = SweepSpec(
    max_ell=3,
    max_k=2,
    window=(0, 6),
    t_range=(1, 2),
    params_list=STANDARD_PARAMS,
    kinds=("H",),
)


def _record(number: int, ok: bool, detail: str) -> None:
    LINES.append(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_forward_reversed_agreement_for_h():
    result = run_sweep(STANDARD_DOMAIN)
    summary = result.summary()
    ok = summary["failed"] == 0 and summary["elapsed_ms"] < 120_000
    _record(
        1,
        ok,
        f"H duality sweep (max 3 particles, 2 dual, window [0,6], t in 1..2, "
        f"3 parameter pairs): {summary['passed']}/{summary['total']} exact "
        f"matches in {summary['elapsed_ms']} ms",
    )


def test_criterion_02_forward_reversed_agreement_for_g_and_d():
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 6), t_range=(1, 2),
        params_list=STANDARD_PARAMS, kinds=("G", "D"),
    )
    result = run_sweep(spec)
    summary = result.summary()
    _record(
        2,
        summary["failed"] == 0,
        f"G and D duality over the same domain: "
        f"{summary['passed']}/{summary['total']} exact matches",
    )


def test_criterion_03_hold_factorization_everywhere_applicable():
    checked = 0
    bad = []
    for params in STANDARD_PARAMS:
        for x, y in iter_config_pairs(STANDARD_DOMAIN):
            if not x or x[0] > y[-1]:
                continue
            for report in check_lemma_factorization(x, y, params):
                if report.verdict == "skip":
                    continue
                checked += 1
                if report.verdict != "pass":
                    bad.append(report)
    _record(
        3,
        checked > 0 and not bad,
        f"hold factorization exact on all {checked} applicable instances"
        + (f"; first failure {bad[0].to_json_obj()}" if bad else ""),
    )


def test_criterion_04_case_identities_everywhere_applicable():
    by_identity: dict[str, int] = {}
    bad = []
    for params in STANDARD_PARAMS:
        for x, y in iter_config_pairs(STANDARD_DOMAIN):
            if len(x) < 2:
                continue
            for report in check_case_identities(x, y, params):
                by_identity[report.identity] = by_identity.get(report.identity, 0) + 1
                if report.verdict == "fail":
                    bad.append(report)
    total = sum(by_identity.values())
    spread = ", ".join(f"{k}={v}" for k, v in sorted(by_identity.items()))
    _record(
        4,
        total > 0 and not bad and len(by_identity) >= 8,
        f"case identities exact on {total} reports ({spread})"
        + (f"; first failure {bad[0].to_json_obj()}" if bad else ""),
    )


def test_criterion_05_truncation_invariance_randomized():
    rng = random.Random(20260817)
    sites = list(range(0, 7))
    failures = []
    trials = 0
    while trials < 200:
        ell = rng.randint(0, 3)
        k = rng.randint(1, 2)
        if ell + k < 2:
            continue
        x = tuple(sorted(rng.sample(sites, ell)))
        y = tuple(sorted(rng.sample(sites, k), reverse=True))
        extra_count = rng.randint(1, 3)
        pool = [s for s in range(y[0] + 1, y[0] + 8) if s not in x]
        extras = tuple(sorted(rng.sample(pool, extra_count)))
        params = rng.choice(STANDARD_PARAMS)
        kind = rng.choice(("H", "G", "D"))
        reports = check_truncation_invariance(x, y, extras, kind, params)
        trials += 1
        failures.extend(r for r in reports if r.verdict != "pass")
    _record(
        5,
        trials == 200 and not failures,
        f"{trials} randomized instances with 1-3 extra particles right of y_1 "
        f"left both expectations unchanged"
        + (f"; first failure {failures[0].to_json_obj()}" if failures else ""),
    )


def test_criterion_06_every_step_distribution_is_stochastic():
    params_pool = STANDARD_PARAMS + (cycled_inhom_params(0, 5),)
    sites = range(0, 7)
    count = 0
    for params in params_pool:
        for ell in range(0, 4):
            for x in combinations(sites, ell):
                start = x[-1] if x else 0
                for r in range(start, 7):
                    dist = forward_step_distribution(x, params, r)
                    assert sum(n for _, n in dist.entries) == dist.den, (x, r, params)
                    count += 1
        for k in range(1, 3):
            for ys in combinations(sites, k):
                y = tuple(reversed(ys))
                for length in range(0, y[-1] + 1):
                    dist = reversed_step_distribution(y, params, length)
                    assert sum(n for _, n in dist.entries) == dist.den, (y, length, params)
                    count += 1
    pairs = 0
    for params in params_pool:
        for site in sites:
            assert vertex_weight(VertexType.I, params, site) == 1
            assert vertex_weight(VertexType.II, params, site) == 1
            assert (
                vertex_weight(VertexType.III, params, site)
                + vertex_weight(VertexType.IV, params, site)
            ) == 1
            assert (
                vertex_weight(VertexType.V, params, site)
                + vertex_weight(VertexType.VI, params, site)
            ) == 1
            pairs += 2
    _record(
        6,
        count > 0,
        f"{count} one-step laws sum to exactly 1; {pairs} vertex weight pairs "
        f"sum to exactly 1",
    )


MC_FIXTURES = (
    ("forward", (0,), (1,), "H", 1, STANDARD_PARAMS[0], 101),
    ("forward", (0, 1), (2, 0), "G", 2, STANDARD_PARAMS[0], 102),
    ("reversed", (0, 2), (1,), "H", 1, STANDARD_PARAMS[1], 103),
    ("forward", (0, 2, 4), (3, 1), "D", 3, STANDARD_PARAMS[0], 104),
    ("reversed", (1, 3), (4, 2), "G", 3, STANDARD_PARAMS[2], 105),
)


def test_criterion_07_monte_carlo_tracks_the_exact_values():
    n = 100_000
    worst = 0.0
    details = []
    for side, x, y, kind, t, params, seed in MC_FIXTURES:
        res = mc_expectation(side, x, y, kind, t, params, n, seed)
        engine = expect_forward if side == "forward" else expect_reversed
        exact = float(engine(x, y, kind, t, params))
        gap = abs(res.mean - exact)
        band = 4 * res.stderr
        pulls = gap / res.stderr if res.stderr else 0.0
        worst = max(worst, pulls)
        details.append(gap <= max(band, 1e-12))
    again = mc_expectation(*MC_FIXTURES[0][:4], MC_FIXTURES[0][4], MC_FIXTURES[0][5],
                           n, MC_FIXTURES[0][6])
    first = mc_expectation(*MC_FIXTURES[0][:4], MC_FIXTURES[0][4], MC_FIXTURES[0][5],
                           n, MC_FIXTURES[0][6])
    deterministic = (again.mean, again.stderr) == (first.mean, first.stderr)
    _record(
        7,
        all(details) and deterministic,
        f"5 fixtures at n={n}: worst deviation {worst:.2f} standard errors "
        f"(limit 4); estimates reproduce exactly under a fixed seed",
    )


def test_criterion_08_each_seeded_defect_breaks_the_sweep():
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 6), t_range=(1,),
        params_list=(STANDARD_PARAMS[0],), kinds=("H",),
    )
    counts = {}
    for mutation in Mutation:
        counts[mutation.name] = run_sweep(spec, mutation=mutation).summary()["failed"]
    spread = ", ".join(f"{name}={n}" for name, n in counts.items())
    _record(
        8,
        all(n >= 1 for n in counts.values()),
        f"every canned defect is caught ({spread} sweep failures)",
    )


def test_criterion_09_site_dependent_parameters_reported_with_witness():
    spec = SweepSpec(
        max_ell=2, max_k=2, window=(0, 5), t_range=(1,),
        params_list=(cycled_inhom_params(0, 5),), kinds=("H",),
    )
    result = run_sweep(spec)
    summary = result.summary()
    expected_total = sum(1 for _ in iter_config_pairs(spec))
    complete = summary["total"] == expected_total
    if not result.failures:
        _record(9, complete, f"site-dependent sweep: {summary['passed']}/"
                f"{summary['total']} exact matches")
        return
    witness = min(
        result.failures,
        key=lambda r: (len(r.x) + len(r.y), len(r.x), r.x, r.y),
    )
    surfaced = witness.verdict == "fail" and witness.lhs != witness.rhs
    _record(
        9,
        complete and surfaced,
        f"site-dependent sweep ran ({summary['failed']}/{summary['total']} "
        f"failures) and surfaced the minimal counterexample x={witness.x} "
        f"y={witness.y}: {format_rational(witness.lhs)} != "
        f"{format_rational(witness.rhs)} — H is not dual once b2 varies by "
        f"site (see the one-step column sums), while D stays dual",
    )


def test_criterion_10_desk_scale_worked_values():
    p = STANDARD_PARAMS[0]
    values = (
        exact_expectation_forward((0,), (0,), "H", 1, p),
        exact_expectation_reversed((0,), (0,), "H", 1, p),
        exact_expectation_forward((0,), (1,), "H", 1, p),
        exact_expectation_reversed((0,), (1,), "H", 1, p),
    )
    ok = values == (Fraction(1, 4), Fraction(1, 4), Fraction(3, 16), Fraction(3, 16))
    _record(
        10,
        ok,
        "one-particle worked values are exactly 1/4 (x=0, y=0) and 3/16 "
        "(x=0, y=1) on both sides",
    )
