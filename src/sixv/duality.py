"""Duality functionals and the exact / Monte Carlo expectation engines.

The three functionals of particles at sorted positions x and dual points
y_1 > ... > y_k (q is the asymmetry ratio b1/b2):

    H(x, y) = prod_i 1{y_i in x} * q^(-N_{y_i}(x))
    G(x, y) = prod_i               q^(-N_{y_i}(x))
    D(x, y) = prod_i 1{y_i not in x} * q^(-N_{y_i}(x))

with N_s(x) the number of particles at or left of s.  Configurations are
position tuples only; the occupation indicator and the height are read off
x by bisection.

One engine serves both sides of the duality.  The forward side moves the
particles x against fixed dual points y; the reversed side moves y against
fixed x.  The direction is data: ``step`` is +1 forward and -1 reversed,
and it picks the step law, the lump boundary's side and which argument of
the functional moves.

Exact expectations advance lumped laws with the row update of
:mod:`sixv.dynamics`.  The lump boundaries are chosen so that lumped
particles contribute a constant factor to every functional: forward
particles beyond R = y_1 sit right of every evaluation point, reversed
particles below L = x_1 see an empty left tail (factor 0 for H, 1 for G
and D).  Nothing is truncated; every result is an exact rational.  An
outcome of a law is its resolved positions: particles are conserved, so
ℓ − len(positions) of the ℓ moving ones are lumped.  A side with no fixed
points (no dual points forward, no particles reversed) lumps everything:
it starts from the empty state, which no scan changes, and contracts to
the empty products.  So every pair takes the same path, orient, fold
(:func:`_fold`, the one place that picks the boundary), advance and
contract, whatever is empty.

The engine works in scaled integers: every law is a
:class:`~sixv.dynamics.ScaledLaw`, and a t-step law is t row scans of the
whole law in a loop (:func:`~sixv.dynamics._scan`), each reduced by its
gcd and checked.  At each outcome every functional is 0 or q^(-m) with one
integer m for all three (:func:`_reading`, the one reader of a functional),
so one pass over a law weighs each numerator by its power of q = a/b over
one denominator and gives H, G and D at once (:func:`_contract`).

The sweep reads its answers from tables (:func:`expectation_table`) by the
backward equation, V_t = P V_{t-1} from V_0 = F: the pairs of one lump
boundary share a chain, each state's row scanned once, and all columns of
a state advance together, packed into one int (:func:`_chain_table`).  One
call builds both sides' tables and shares one Fraction per reduced value,
so a value dual to its mirror is the same object on both sides.  Slots
widen linearly in t, so the tables suit a sweep's short horizons; the
lru-cached :func:`_evolve` stays the t-step entry point of single
expectations and the identity checkers.

Configurations are validated once, by the public entry points (here
``exact_expectation_*``, ``mc_expectation`` and ``eval_functional``; the
checkers in :mod:`sixv.verify`).  ``expect_forward``, ``expect_reversed``
and ``expect_one_step_held`` take tuples that are already checked.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from sixv.dynamics import (
    Mutation,
    ScaledLaw,
    State,
    _sampler,
    _scan,
    _step_distribution,
    trajectory_rng,
)
from sixv.model import (
    LocationConfig,
    Params,
    ReversedConfig,
    validate_instance,
    validate_location,
    validate_reversed,
)

KINDS = ("H", "G", "D")
# Most particle updates of one Monte Carlo run: 10-25 s at 2-5 M updates/s.
MC_UPDATE_BUDGET = 50_000_000
# One expectation of every kind, in the order of KINDS.
Values = tuple[Fraction, Fraction, Fraction]
# A table column: the fixed configuration and the number of dual points k.
Column = tuple[tuple[int, ...], int]


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _step_of(side: str) -> int:
    """+1 for the forward side, -1 for the reversed side."""
    if side == "forward":
        return +1
    if side == "reversed":
        return -1
    raise ValueError(f"side must be 'forward' or 'reversed', got {side!r}")


def _oriented(
    step: int, moving: tuple[int, ...], fixed: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(particles, dual points) from the moving and the fixed configuration.

    Forward the particles move, reversed the dual points.  The map is its
    own inverse, so ``_oriented(step, x, y)`` is (moving, fixed).
    """
    return (moving, fixed) if step > 0 else (fixed, moving)


@dataclass(frozen=True)
class ExpectationResult:
    """A Monte Carlo estimate: mean, standard error, sample count and seed."""

    mean: float
    stderr: float
    n: int
    seed: int

    def to_json_obj(self) -> dict:
        return asdict(self)


# --- functionals ---------------------------------------------------------------


def _functional_at_points(
    kind: str, particles: tuple[int, ...], points: tuple[int, ...], q: Fraction
) -> Fraction:
    """Evaluate H/G/D with g the indicator of sorted particle positions.

    Read through :func:`_reading`, with :func:`_contract`'s rule: H needs
    a particle at every dual point, D at none, and G is q^(-m) everywhere.
    """
    m, hits = _reading(particles, points, True)
    if (kind == "H" and hits != len(points)) or (kind == "D" and hits):
        return Fraction(0)
    return q ** (-m)


def eval_functional(
    kind: str, x: LocationConfig, y: ReversedConfig, q: Fraction
) -> Fraction:
    """Exact value of the ``kind`` functional of particles x at the dual points y."""
    _require_kind(kind)
    return _functional_at_points(kind, validate_location(x), validate_reversed(y), q)


def _reading(
    positions: State, fixed: tuple[int, ...], forward: bool
) -> tuple[int, int]:
    """(m, hits) at one outcome of the moving configuration against ``fixed``.

    m is the sum of the heights at the dual points and hits how many of
    them sit on a particle.  Every functional there is 0 or q^(-m): G
    always, H when all k dual points are hits, D when none is.  Forward
    the outcome is the particles, reversed the dual points.
    """
    particles, points = (positions, fixed) if forward else (fixed, positions)
    m = hits = 0
    for site in points:
        n = bisect_right(particles, site)
        m += n
        if n and particles[n - 1] == site:
            hits += 1
    return m, hits


def _contract(
    law: ScaledLaw, fixed: tuple[int, ...], k: int, step: int, q: Fraction
) -> Values:
    """(H, G, D) of the law of the moving configuration against ``fixed``, in one pass.

    ``k`` is the number of dual points, resolved or not; each outcome is
    read by :func:`_reading`.  Forward, particles lumped beyond R sit right
    of every dual point: a factor 1 in all kinds.  Reversed, a lumped dual
    point (an outcome with fewer than k positions) sits left of every
    particle: g = 0 there, which kills H, and height 0, a factor 1 for G
    and D.  So the all-lumped law of an empty fixed side gives the empty
    products: (1, 1, 1) without dual points, (0, 1, 1) without particles.
    Each m is at most k times the particle count, top; with q = a/b,
    q^(-m) = b^m a^(top-m) / a^top, so the three sums are integer
    numerators over the one denominator a^top * den.
    """
    forward = step > 0
    top = k * (max((len(p) for p, _ in law.entries), default=0) if forward else len(fixed))
    a, b = q.numerator, q.denominator
    weight = [b**m * a ** (top - m) for m in range(top + 1)]
    h = g = d = 0
    for positions, num in law.entries:
        m, hits = _reading(positions, fixed, forward)
        num *= weight[m]
        g += num
        if hits == k:
            h += num
        if not hits:
            d += num
    den = law.den * a**top
    return Fraction(h, den), Fraction(g, den), Fraction(d, den)


# --- exact engines ---------------------------------------------------------------


def _fold(
    moving: tuple[int, ...], fixed: tuple[int, ...], step: int
) -> tuple[State, int | None]:
    """Start state and lump boundary: the fixed configuration's first point.

    The boundary is y_1 forward and x_1 reversed, and moving positions
    beyond it enter the lump at once.  Exact because a resolved particle's
    walk lumps at the boundary before it could ever reach a
    beyond-boundary neighbour's pre-update position, with the same crossing
    mass either way.  With nothing fixed every moving point is lumped: the
    start is the empty state, which a scan passes through without reading
    its boundary (None).
    """
    if not fixed:
        return (), None
    boundary = fixed[0]
    return tuple(p for p in moving if (p - boundary) * step <= 0), boundary


@lru_cache(maxsize=None)
def _forward_entries(
    positions: tuple[int, ...], params: Params, R: int, mutation: Mutation | None
) -> ScaledLaw:
    return _step_distribution(positions, params, R, +1, mutation)


@lru_cache(maxsize=None)
def _evolve(
    state: State,
    params: Params,
    boundary: int | None,
    t: int,
    mutation: Mutation | None,
    step: int,
) -> ScaledLaw:
    """t-step law from the resolved positions ``state``, in lowest terms.

    Starts that differ only in what is lumped share one entry.  Each step
    is one :func:`~sixv.dynamics._scan` of the whole law, in a loop, so no
    horizon is too long for the stack.
    """
    law = ScaledLaw(1, ((state, 1),))
    for _ in range(t):
        law = _scan(law, params, boundary, step, mutation)
    return law


def _law_mutation_and_q(
    params: Params, mutation: Mutation | None
) -> tuple[Mutation | None, Fraction]:
    """The mutation the dynamics run under and the q the functionals use.

    INVERTED_Q is a defect of the functional alone: the dynamics stay clean
    and share the clean laws, and only the contraction inverts q.
    """
    if mutation is Mutation.INVERTED_Q:
        return None, 1 / params.q
    return mutation, params.q


def _expect(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    mutation: Mutation | None,
    step: int,
) -> Fraction:
    """The body of :func:`expect_forward` (step +1) and :func:`expect_reversed` (-1)."""
    _require_kind(kind)
    if t < 0:
        raise ValueError("t must be >= 0")
    mutation, q = _law_mutation_and_q(params, mutation)
    moving, fixed = _oriented(step, x, y)
    state, boundary = _fold(moving, fixed, step)
    law = _evolve(state, params, boundary, t, mutation, step)
    return _contract(law, fixed, len(y), step, q)[KINDS.index(kind)]


def expectation_table(
    pairs: Sequence[tuple[LocationConfig, ReversedConfig]],
    horizons: Iterable[int],
    params: Params,
    mutation: Mutation | None = None,
) -> tuple[dict[int, list[Values]], dict[int, list[Values]]]:
    """Both sides' expectations of every kind, for every pair at every horizon.

    Returns the forward table and the reversed table.  Each maps each
    horizon t >= 0 to the (H, G, D) values of the pairs, in pair order;
    each value is what :func:`expect_forward` (or :func:`expect_reversed`)
    gives for that pair, kind and t.  The pairs must be validated already.
    On each side, each pair folds by :func:`_fold` to a start and a lump
    boundary, and the pairs of one boundary share one chain
    (:func:`_chain_table`), whose columns are the distinct (fixed
    configuration, k).  k is part of the key because reversed H drops
    lumped outcomes: two y of different length can fold to the same state.

    Both sides read their values from one memo of Fractions keyed by the
    reduced denominator, then numerator, so equal values are one Fraction
    object and a forward value that equals its reversed one is that very
    object.
    """
    mutation, q = _law_mutation_and_q(params, mutation)
    horizons = sorted(set(horizons))
    if horizons and horizons[0] < 0:
        raise ValueError("t must be >= 0")
    memo: dict[int, dict[int, Fraction]] = {}
    tables = []
    for step in (+1, -1):
        # per lump boundary, its starts and its columns, each kept once in order
        chains: dict[int | None, tuple[dict[State, None], dict[Column, None]]] = {}
        slots: list[tuple[State, Column]] = []  # each pair's key into ``values``
        for x, y in pairs:
            moving, fixed = _oriented(step, x, y)
            state, boundary = _fold(moving, fixed, step)
            column = (fixed, len(y))
            starts, columns = chains.setdefault(boundary, ({}, {}))
            starts[state] = columns[column] = None
            slots.append((state, column))
        values: dict[tuple[State, Column], list[Values]] = {}
        for boundary, (starts, columns) in chains.items():
            values.update(_chain_table(
                list(starts), list(columns), boundary, horizons, params, q, step, mutation, memo
            ))
        tables.append({t: [values[key][i] for key in slots] for i, t in enumerate(horizons)})
    return tables[0], tables[1]


def _chain_table(
    starts: list[State],
    columns: list[Column],
    boundary: int | None,
    horizons: list[int],
    params: Params,
    q: Fraction,
    step: int,
    mutation: Mutation | None,
    memo: dict[int, dict[int, Fraction]],
) -> dict[tuple[State, Column], list[Values]]:
    """(H, G, D) per (start, column) at each horizon, by the backward equation.

    The chain's states are the starts and every state they reach; moves go
    one way and stop at ``boundary``, so there are finitely many.  Each
    state's row is its one-step law
    (:func:`~sixv.dynamics._step_distribution`), and the rows are brought
    to one denominator D, their lcm.  With F read at each state
    (:func:`_reading`) as numerators over a^top (q = a/b), V_0 = F and
    V_t = P V_{t-1} are numerators over D^t a^top, and V_t at a start is
    E_start[F(t)], for every column.

    All columns of a state advance together, packed into one int of W-bit
    slots, three per column (H, G, D), so a step is one multiply-add per
    nonzero row entry.  No slot overflows into the next: every V_0 slot is
    at most max(a, b)^top, and a row's numerators sum to at most D (to
    exactly D but for the landing-factor mutation's deficit), so every V_t
    slot is at most D^t max(a, b)^top < 2^W with
    W = bit_length(D^T max(a, b)^top) + 1, T the largest horizon, rounded
    up to whole bytes.  At each horizon the starts' slots are unpacked and
    each distinct numerator, reduced, is looked up in ``memo``, which holds
    one Fraction per reduced value, keyed by denominator, then numerator;
    the inner keys are the Fractions' own ints, so the memo stores no copy.
    """
    forward = step > 0
    index = {state: i for i, state in enumerate(starts)}
    states = list(starts)
    laws = []
    for state in states:  # the list grows as the rows reach new states
        law = _step_distribution(state, params, boundary, step, mutation)
        for outcome, _ in law.entries:
            if outcome not in index:
                index[outcome] = len(states)
                states.append(outcome)
        laws.append(law)
    den = math.lcm(*(law.den for law in laws))
    rows = [
        ([index[o] for o, _ in law.entries], [num * (den // law.den) for _, num in law.entries])
        for law in laws
    ]

    longest = max(map(len, starts))
    top = max(k * (longest if forward else len(fixed)) for fixed, k in columns)
    a, b = q.numerator, q.denominator
    weight = [b**m * a ** (top - m) for m in range(top + 1)]
    bound = den ** max(horizons, default=0) * max(a, b) ** top
    size = -(-(bound.bit_length() + 1) // 8)  # W in whole bytes
    width = 8 * size
    packed = []
    for state in states:
        v = 0
        for fixed, k in reversed(columns):
            m, hits = _reading(state, fixed, forward)
            w = weight[m]
            for slot in (0 if hits else w, w, w if hits == k else 0):  # D, G, H: H lowest
                v = v << width | slot
        packed.append(v)

    length = 3 * len(columns) * size  # bytes per state
    values: dict[tuple[State, Column], list[Values]] = {
        (start, column): [] for start in starts for column in columns
    }
    done = 0
    for t in horizons:
        for _ in range(t - done):
            packed = [
                sum(map(operator.mul, nums, map(packed.__getitem__, targets)))
                for targets, nums in rows
            ]
        done = t
        numerators = []
        for v in packed[: len(starts)]:
            raw = v.to_bytes(length, "little")
            numerators.append(
                [int.from_bytes(raw[i : i + size], "little") for i in range(0, length, size)]
            )
        scale = den**t * a**top
        fraction = {}
        for num in set().union(*numerators):
            g = math.gcd(num, scale)
            n, d = num // g, scale // g
            shared = memo.get(d)
            if shared is None:
                shared = memo[d] = {}
            value = shared.get(n)
            if value is None:
                value = Fraction(n, d)
                shared[value.numerator] = value
            fraction[num] = value
        for start, nums in zip(starts, numerators):
            read = map(fraction.__getitem__, nums)
            for column, kinds in zip(columns, zip(read, read, read)):
                values[start, column].append(kinds)
    return values


def expect_forward(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    mutation: Mutation | None = None,
) -> Fraction:
    """E^x[kind(x(t), y)] as an exact rational, for already validated x and y.

    Internal workhorse: accepts empty y (empty product, so the value is 1)
    so the identity checkers can express their sub-expectations.  The lump
    boundary is y_1.
    """
    return _expect(x, y, kind, t, params, mutation, +1)


def expect_reversed(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    t: int,
    params: Params,
    mutation: Mutation | None = None,
) -> Fraction:
    """E^y[kind(x, y(t))] as an exact rational; mirror of :func:`expect_forward`.

    Accepts empty x: then every g factor is 0, so H vanishes while G and D
    are products of q^0 = 1 whatever y does.  The lump boundary is x_1.
    """
    return _expect(x, y, kind, t, params, mutation, -1)


def expect_one_step_held(
    x: LocationConfig,
    y: ReversedConfig,
    kind: str,
    params: Params,
) -> Fraction:
    """E^x[kind(x(1), y) ; x_1(1) = x_1]: the forward step with the leftmost particle held.

    x must be nonempty; x and y must be validated already.
    """
    _require_kind(kind)
    if not x:
        raise ValueError("the held law needs at least one particle")
    # a boundary past every site leaves nothing lumped at the start
    law = _forward_entries(x, params, max(x + y), None)
    held = tuple((state, num) for state, num in law.entries if state[:1] == x[:1])
    values = _contract(ScaledLaw(law.den, held), y, len(y), +1, params.q)
    return values[KINDS.index(kind)]


# --- public wrappers --------------------------------------------------------------


def exact_expectation_forward(
    x: LocationConfig, y: ReversedConfig, kind: str, t: int, params: Params
) -> Fraction:
    """E^x[kind(x(t), y)], exact; y must carry at least one dual particle."""
    x, y = validate_instance(x, y)
    return expect_forward(x, y, kind, t, params)


def exact_expectation_reversed(
    x: LocationConfig, y: ReversedConfig, kind: str, t: int, params: Params
) -> Fraction:
    """E^y[kind(x, y(t))], exact; mirror engine with lump boundary x_1."""
    x, y = validate_instance(x, y)
    return expect_reversed(x, y, kind, t, params)


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

    One sampler draws every trajectory in turn from the one generator that
    ``seed`` fixes (:func:`~sixv.dynamics.trajectory_rng`), so a seed
    reproduces the estimate, and the functional is read once per distinct
    final configuration.  t = 0 short-circuits to the exact value.  A run
    of more than :data:`MC_UPDATE_BUDGET` particle updates is refused.
    """
    _require_kind(kind)
    step = _step_of(side)
    x, y = validate_instance(x, y)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        exact = float(_functional_at_points(kind, x, y, params.q))
        return ExpectationResult(mean=exact, stderr=0.0, n=n_samples, seed=seed)
    moving, fixed = _oriented(step, x, y)
    updates = n_samples * t * max(len(moving), 1)  # a step of nothing still costs
    if updates > MC_UPDATE_BUDGET:
        raise ValueError(f"{updates:,} particle updates (n_samples * t * moving) "
                         f"exceed MC_UPDATE_BUDGET = {MC_UPDATE_BUDGET:,}")
    sample = _sampler(params, step, trajectory_rng(seed))
    # the float value per final configuration met; float(Fraction) rounds correctly
    value: dict[State, float] = {}
    total = total_sq = 0.0
    for _ in range(n_samples):
        current = moving
        for _ in range(t):
            current = sample(current)
        v = value.get(current)
        if v is None:
            particles, points = _oriented(step, current, fixed)
            v = value[current] = float(_functional_at_points(kind, particles, points, params.q))
        total += v
        total_sq += v * v
    mean = total / n_samples
    stderr = 0.0
    if n_samples > 1:
        var = max(total_sq - n_samples * mean * mean, 0.0) / (n_samples - 1)
        stderr = math.sqrt(var / n_samples)
    return ExpectationResult(mean=mean, stderr=stderr, n=n_samples, seed=seed)
