"""Duality functionals and the exact / Monte Carlo expectation engines.

The three functionals on an occupation configuration g at dual points
y_1 > ... > y_k (q is the asymmetry ratio b1/b2):

    H(g, y) = prod_i g_{y_i} * q^(-N_{y_i}(g))
    G(g, y) = prod_i           q^(-N_{y_i}(g))
    D(g, y) = prod_i (1 - g_{y_i}) * q^(-N_{y_i}(g))

with N_s(g) the number of particles at or left of s.

Exact expectations compose the lumped one-step laws from
:mod:`sixv.dynamics`.  The lump boundaries are chosen so that lumped
particles contribute a constant factor to every functional: forward
particles beyond R = y_1 sit right of every evaluation point, reversed
particles below L = x_1 see an empty left tail (factor 0 for H, 1 for G
and D).  Nothing is truncated; every result is an exact rational.

The engine works in scaled integers.  Each cached one-step law is one lcm
denominator plus integer numerators (:class:`ScaledLaw`); t-step laws
compose those with integer multiplies and adds, reduced by their gcd after
every step.  Contraction uses that every functional is 0 or q^(-m) for an
integer m: numerators are summed per m, and one Fraction is built per
expectation from q = a/b at the end.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple

from sixv.dynamics import (
    Mutation,
    StepDistribution,
    forward_step_distribution,
    reversed_step_distribution,
    sample_forward_step,
    sample_reversed_step,
    trajectory_rng,
)
from sixv.model import (
    LocationConfig,
    OccupationConfig,
    Params,
    ReversedConfig,
    format_rational,
    validate_location,
    validate_reversed,
)

KINDS = ("H", "G", "D")

# DP state: resolved particle positions plus the count lumped past the boundary.
State = tuple[tuple[int, ...], int]


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class ExpectationResult:
    """Either an exact rational value or a Monte Carlo (mean, stderr, n, seed)."""

    value: Fraction | None = None
    mean: float | None = None
    stderr: float | None = None
    n: int | None = None
    seed: int | None = None

    def to_json_obj(self) -> dict:
        if self.value is not None:
            return {"value": format_rational(self.value)}
        return {
            "mean": self.mean,
            "stderr": self.stderr,
            "n": self.n,
            "seed": self.seed,
        }


# --- functionals ---------------------------------------------------------------


def _exponent_at_points(
    kind: str, particles: tuple[int, ...], points: tuple[int, ...]
) -> int | None:
    """m with H/G/D = q^(-m) at sorted ``particles``, or None where it is 0.

    Every functional is a product of indicators and height weights, so its
    value is either 0 or q^(-m), m the sum of the heights at the points.
    """
    m = 0
    for site in points:
        n = bisect_right(particles, site)
        occupied = n > 0 and particles[n - 1] == site
        if (kind == "H" and not occupied) or (kind == "D" and occupied):
            return None
        m += n
    return m


def _functional_at_points(
    kind: str, particles: tuple[int, ...], points: tuple[int, ...], q: Fraction
) -> Fraction:
    """Evaluate H/G/D with g the indicator of sorted particle positions."""
    m = _exponent_at_points(kind, particles, points)
    return Fraction(0) if m is None else q ** (-m)


def eval_functional(
    kind: str, g: OccupationConfig, y: ReversedConfig, q: Fraction
) -> Fraction:
    """Exact value of the ``kind`` functional of g at the dual points y.

    Every y_i must lie inside g's window; particles lumped in
    ``escaped_right`` sit strictly right of the window and therefore neither
    occupy any y_i nor count toward any height there.
    """
    _require_kind(kind)
    y = validate_reversed(y)
    for site in y:
        if not (g.lo <= site <= g.hi):
            raise ValueError(f"dual point {site} outside the window [{g.lo}, {g.hi}]")
    particles = tuple(g.lo + i for i, bit in enumerate(g.bits) if bit)
    return _functional_at_points(kind, particles, y, q)


def _contract(
    kind: str,
    terms: Iterable[tuple[tuple[int, ...], tuple[int, ...], int]],
    den: int,
    q: Fraction,
) -> Fraction:
    """sum of num/den * kind(particles, points) over (particles, points, num).

    Numerators are summed per exponent m, then with q = a/b, so that
    q^(-m) = b^m / a^m, every m is brought over the one denominator
    a^top * den, top the largest exponent.
    """
    by_exponent: dict[int, int] = {}
    for particles, points, num in terms:
        m = _exponent_at_points(kind, particles, points)
        if m is not None:
            by_exponent[m] = by_exponent.get(m, 0) + num
    if not by_exponent:
        return Fraction(0)
    a, b = q.numerator, q.denominator
    top = max(by_exponent)
    numerator = sum(c * b**m * a ** (top - m) for m, c in by_exponent.items())
    return Fraction(numerator, den * a**top)


# --- exact engines ---------------------------------------------------------------


class ScaledLaw(NamedTuple):
    """A finite law with probability ``num / den`` on each (state, num) entry.

    Under the landing-factor mutation the numerators sum to less than
    ``den``; otherwise they sum to exactly ``den``.
    """

    den: int
    entries: tuple[tuple[State, int], ...]


def _fold_forward(x: tuple[int, ...], boundary: int) -> State:
    """Initial DP state: positions beyond the boundary enter the lump at once.

    Exact because a resolved particle's walk lumps at the boundary before it
    could ever reach a beyond-boundary neighbour's pre-update position, with
    the same crossing mass either way.
    """
    kept = tuple(p for p in x if p <= boundary)
    return kept, len(x) - len(kept)


def _fold_reversed(y: tuple[int, ...], boundary: int) -> State:
    kept = tuple(p for p in y if p >= boundary)
    return kept, len(y) - len(kept)


def _scaled(law: StepDistribution) -> ScaledLaw:
    """One step law over its lcm denominator, keyed by (positions, lumped)."""
    den = math.lcm(*(p.denominator for _, p in law.entries))
    return ScaledLaw(
        den,
        tuple(
            ((o.positions, o.lumped), p.numerator * (den // p.denominator))
            for o, p in law.entries
        ),
    )


@lru_cache(maxsize=None)
def _forward_entries(
    positions: tuple[int, ...], params: Params, R: int, mutation: Mutation | None
) -> ScaledLaw:
    return _scaled(forward_step_distribution(positions, params, R, mutation))


@lru_cache(maxsize=None)
def _reversed_entries(
    positions: tuple[int, ...], params: Params, L: int, mutation: Mutation | None
) -> ScaledLaw:
    return _scaled(reversed_step_distribution(positions, params, L, mutation))


@lru_cache(maxsize=None)
def _evolve(
    state: State,
    params: Params,
    boundary: int,
    t: int,
    mutation: Mutation | None,
    reverse: bool,
) -> ScaledLaw:
    """t-step law from a lumped state, in lowest terms."""
    if t == 0:
        return ScaledLaw(1, ((state, 1),))
    step = _reversed_entries if reverse else _forward_entries
    prev = _evolve(state, params, boundary, t - 1, mutation, reverse)
    laws = [
        (lumped, num, step(positions, params, boundary, mutation))
        for (positions, lumped), num in prev.entries
    ]
    scale = math.lcm(*(law.den for _, _, law in laws))
    acc: dict[State, int] = {}
    for lumped, num, law in laws:
        weight = num * (scale // law.den)
        for (positions, more), p in law.entries:
            key = (positions, lumped + more)
            acc[key] = acc.get(key, 0) + weight * p
    den = prev.den * scale
    g = math.gcd(den, *acc.values())
    if g > 1:
        return ScaledLaw(den // g, tuple((key, p // g) for key, p in acc.items()))
    return ScaledLaw(den, tuple(acc.items()))


def _effective_q(params: Params, mutation: Mutation | None) -> Fraction:
    return 1 / params.q if mutation is Mutation.INVERTED_Q else params.q


def expect_forward(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    boundary: int | None = None,
    mutation: Mutation | None = None,
) -> Fraction:
    """E^x[kind(x(t), y)] as an exact rational.

    Internal workhorse: accepts empty y (empty product, so the value is 1)
    so the identity checkers can express their sub-expectations.  The lump
    boundary defaults to y_1 and may be enlarged freely.
    """
    _require_kind(kind)
    x = validate_location(x)
    y = validate_reversed(y)
    if t < 0:
        raise ValueError("t must be >= 0")
    if not y:
        return Fraction(1)
    R = y[0] if boundary is None else boundary
    if R < y[0]:
        raise ValueError(f"lump boundary {R} must be at least y_1 = {y[0]}")
    law = _evolve(_fold_forward(x, R), params, R, t, mutation, reverse=False)
    # particles beyond R sit right of every y_i: factor 1 in all kinds
    terms = ((positions, y, num) for (positions, _lumped), num in law.entries)
    return _contract(kind, terms, law.den, _effective_q(params, mutation))


def expect_reversed(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    boundary: int | None = None,
    mutation: Mutation | None = None,
) -> Fraction:
    """E^y[kind(x, y(t))] as an exact rational; mirror of :func:`expect_forward`.

    Accepts empty x: then every g factor is 0, so H vanishes while G and D
    are products of q^0 = 1 whatever y does.
    """
    _require_kind(kind)
    x = validate_location(x)
    y = validate_reversed(y)
    if t < 0:
        raise ValueError("t must be >= 0")
    if not y:
        return Fraction(1)
    if not x:
        return Fraction(0) if kind == "H" else Fraction(1)
    L = x[0] if boundary is None else boundary
    if L > x[0]:
        raise ValueError(f"lump boundary {L} must be at most x_1 = {x[0]}")
    law = _evolve(_fold_reversed(y, L), params, L, t, mutation, reverse=True)
    # a lumped dual point sits left of every particle: g = 0 there, which
    # kills H, and height 0, a factor 1 for G and D
    terms = (
        (x, positions, num)
        for (positions, lumped), num in law.entries
        if not (lumped and kind == "H")
    )
    return _contract(kind, terms, law.den, _effective_q(params, mutation))


def expect_one_step_held(
    side: str,
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    params: Params,
) -> Fraction:
    """One-step expectation restricted to the first-updating particle holding.

    side = "forward": E^x[kind(x(1), y) ; x_1(1) = x_1] — the event filter
    conditions on the leftmost particle staying put.  side = "reversed" is
    the mirror for the rightmost dual particle.  The moving configuration
    must be nonempty.
    """
    _require_kind(kind)
    x = validate_location(x)
    y = validate_reversed(y)
    if side == "forward":
        if not x:
            raise ValueError("forward filter needs at least one particle")
        if not y:
            # the functional is identically 1; the filtered mass is P(hold)
            return params.b1_at(x[0])
        law = _forward_entries(x, params, max(y[0], x[-1]), None)
        terms = (
            (positions, y, num)
            for (positions, _lumped), num in law.entries
            if positions and positions[0] == x[0]
        )
        return _contract(kind, terms, law.den, params.q)
    if side == "reversed":
        if not y:
            raise ValueError("reversed filter needs at least one dual particle")
        L = min(y[-1], x[0]) if x else y[-1]
        law = _reversed_entries(y, params, L, None)
        terms = (
            (x, positions, num)
            for (positions, lumped), num in law.entries
            if positions and positions[0] == y[0] and not (lumped and kind == "H")
        )
        return _contract(kind, terms, law.den, params.q)
    raise ValueError(f"side must be 'forward' or 'reversed', got {side!r}")


# --- public wrappers --------------------------------------------------------------


def exact_expectation_forward(
    x: LocationConfig, y: ReversedConfig, kind: str, t: int, params: Params
) -> ExpectationResult:
    """E^x[kind(x(t), y)], exact; y must carry at least one dual particle."""
    y = validate_reversed(y)
    if not y:
        raise ValueError("y must contain at least one dual particle")
    return ExpectationResult(value=expect_forward(x, y, kind, t, params))


def exact_expectation_reversed(
    x: LocationConfig, y: ReversedConfig, kind: str, t: int, params: Params
) -> ExpectationResult:
    """E^y[kind(x, y(t))], exact; mirror engine with lump boundary x_1."""
    y = validate_reversed(y)
    if not y:
        raise ValueError("y must contain at least one dual particle")
    return ExpectationResult(value=expect_reversed(x, y, kind, t, params))


def mc_expectation(
    side: str,
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    n_samples: int,
    seed: int,
) -> ExpectationResult:
    """Monte Carlo estimate of the same expectations, with standard error.

    Each trajectory uses an independent generator derived from
    (seed, trajectory index), so results are reproducible and independent
    of evaluation order.  t = 0 short-circuits to the exact value.
    """
    _require_kind(kind)
    if side not in ("forward", "reversed"):
        raise ValueError(f"side must be 'forward' or 'reversed', got {side!r}")
    x = validate_location(x)
    y = validate_reversed(y)
    if not y:
        raise ValueError("y must contain at least one dual particle")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        exact = _functional_at_points(kind, x, y, params.q)
        return ExpectationResult(
            mean=float(exact), stderr=0.0, n=n_samples, seed=seed
        )
    q = params.q
    total = 0.0
    total_sq = 0.0
    for i in range(n_samples):
        rng = trajectory_rng(seed, i)
        if side == "forward":
            current = x
            for _ in range(t):
                current = sample_forward_step(current, params, rng)
            v = float(_functional_at_points(kind, current, y, q))
        else:
            current = y
            for _ in range(t):
                current = sample_reversed_step(current, params, rng)
            v = float(_functional_at_points(kind, x, current, q))
        total += v
        total_sq += v * v
    mean = total / n_samples
    if n_samples > 1:
        var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    else:
        stderr = 0.0
    return ExpectationResult(mean=mean, stderr=stderr, n=n_samples, seed=seed)
