"""One-step transition kernels of the forward and reversed particle processes.

The forward process updates particles left to right.  A particle whose left
neighbour did NOT land on it holds with probability b1 (case a); otherwise it
is pushed and must move (case b).  A moving particle passes each empty site
with probability b2, stops on an interior site with the extra landing factor
(1 - b2), and the jump that saturates the gap — landing exactly on the next
particle's pre-update position — carries no landing factor (that mass is
what the next particle's push absorbs).  All factors are read at the sites
actually traversed, so one implementation serves both the homogeneous and
the site-dependent law.

The reversed process is the spatial mirror: the rightmost particle updates
first and everything moves left.

Exactness device: distributions are *lumped* at a boundary.  Mass where a
particle crosses the boundary (forward: > R, reversed: < L) is aggregated
per prefix into the single outcome of the particles still resolved.  The
crossing mass is a closed-form product of pass-through factors, so the
distribution stays finite and exactly rational — nothing is truncated.
The dynamics conserve particles, so an outcome is its resolved positions
alone: from ℓ particles, ℓ − len(positions) are lumped.

Every law is advanced the way the row update is taken: one scan over the
particles in update order, applied to the whole law at once, merging the
partial states that agree (:func:`_scan`), so a step of a t-step law costs
one pass per particle over the merged states, not one enumeration per
outcome.  A particle's moves at a given (position, cap) are two integer
lists over one denominator, free (hold with b1, then each landing) and
pushed (landings only), every factor read from
:func:`~sixv.model.vertex_weight` (hold V, depart VI, pass III, land IV),
built and checked once (:func:`_particle_moves`).  A one-step law is the
scan of a one-entry law.  Every law is a :class:`ScaledLaw`, checked after
every scan; the t-step engine in :mod:`sixv.duality` scans its law t times.
The public ``*_step_distribution`` functions validate their input, so the
scan trusts its own.

The sampler (:func:`_sampler`) draws the row update against exact float
thresholds; a Monte Carlo run builds one and reads the functional once per
distinct final configuration.
"""

from __future__ import annotations

import math
import operator
import random
from collections import defaultdict
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from sixv.model import (
    LocationConfig,
    Params,
    ReversedConfig,
    VertexType,
    validate_location,
    validate_reversed,
    vertex_weight,
)


class Mutation(Enum):
    """Deliberate single-point defects used to prove the checkers can fail.

    LANDING_FACTOR: pushed particles keep the (1-b2) landing factor on the
    gap-saturating jump, leaking probability mass.
    PUSH_TRIGGER: a particle is pushed whenever its neighbour moved at all,
    not only when the neighbour landed on it.
    INVERTED_Q: functionals are evaluated with 1/q in place of q.  It acts
    only where the exact engine picks q for contraction: the step laws here
    ignore it, and the engine drops it from its cache keys, so an inverted
    run reuses the clean laws.
    """

    LANDING_FACTOR = "landing_factor"
    PUSH_TRIGGER = "push_trigger"
    INVERTED_Q = "inverted_q"


# A lumped outcome: the resolved positions; the rest are lumped past the boundary.
State = tuple[int, ...]


class ScaledLaw(NamedTuple):
    """Exact finite law with probability ``num / den`` on each (positions, num) entry.

    One-step and t-step laws alike.  An outcome is its resolved positions;
    particles are conserved, so an outcome of a law from ℓ particles has
    ℓ − len(positions) lumped past the boundary.  :meth:`check` holds each
    law a scan builds to the rules the scan guarantees.
    """

    den: int
    entries: tuple[tuple[State, int], ...]

    def check(self, boundary: int, step: int, mass_deficit: bool = False) -> None:
        """Reject anything but a lumped law in the ``step`` direction.

        Numerators are positive, outcomes unique, resolved positions strictly
        ordered along ``step`` (+1: increasing, -1: decreasing) with none
        past ``boundary``, and the numerators sum to exactly ``den``; to at
        most ``den`` when ``mass_deficit`` is set (only the landing-factor
        mutation does that).
        """
        if self.den < 1:
            raise ValueError(f"denominator {self.den} must be positive")
        seen: set[State] = set()
        total = 0
        in_order = operator.lt if step > 0 else operator.gt
        for positions, num in self.entries:
            if num <= 0:
                raise ValueError(f"non-positive numerator {num} for {positions}")
            if positions in seen:
                raise ValueError(f"duplicate outcome {positions}")
            seen.add(positions)
            if not all(map(in_order, positions, positions[1:])):
                raise ValueError(f"outcome positions out of order: {positions}")
            if positions and (positions[-1] - boundary) * step > 0:
                raise ValueError(f"resolved position crosses the lump boundary: {positions}")
            total += num
        if total > self.den or (total < self.den and not mass_deficit):
            raise ValueError(f"numerators sum to {total}, not den = {self.den}")


@lru_cache(maxsize=None)
def _particle_moves(
    u: int,
    cap: int | None,
    boundary: int,
    params: Params,
    step: int,
    mutation: Mutation | None,
) -> tuple[int, tuple[tuple[int | None, int], ...], tuple[tuple[int | None, int], ...]]:
    """One particle's moves, both lists over one integer denominator.

    Returns ``(den, free, pushed)``: ``free`` holds at u first, then
    departs; ``pushed`` must leave u.  Each is a tuple of (site, numerator)
    in walk order, and site None is the lump past ``boundary``.  ``cap`` is
    the pre-update position of the next particle (None for the last one),
    which lies inside the boundary whenever the scan runs.  Cached, so each
    list is built and checked (:func:`_check_moves`) once per process.
    """
    # landings given departure: (site, numerator, running denominator); a
    # site passed weighs type III, the landing site type IV, and the two
    # share a denominator
    walk: list[tuple[int | None, int, int]] = []
    through, through_den = 1, 1
    z = u + step
    while z != cap and (z - boundary) * step <= 0:
        land = vertex_weight(VertexType.IV, params, z)
        passed = vertex_weight(VertexType.III, params, z)
        walk.append((z, through * land.numerator, through_den * land.denominator))
        through, through_den = through * passed.numerator, through_den * passed.denominator
        z += step
    free_walk = walk + [(cap, through, through_den)]
    pushed_walk = free_walk
    if cap is not None and mutation is Mutation.LANDING_FACTOR:
        land = vertex_weight(VertexType.IV, params, cap)
        pushed_walk = walk + [(cap, through * land.numerator, through_den * land.denominator)]
    walk_den = pushed_walk[-1][2]  # every other walk denominator divides it
    # hold (type V) and depart (type VI) share a denominator
    hold = vertex_weight(VertexType.V, params, u)
    depart = vertex_weight(VertexType.VI, params, u)
    hold_den = hold.denominator
    free = ((u, hold.numerator * walk_den),) + tuple(
        (site, depart.numerator * num * (walk_den // d)) for site, num, d in free_walk
    )
    pushed = tuple((site, hold_den * num * (walk_den // d)) for site, num, d in pushed_walk)
    den = hold_den * walk_den
    for moves in (free, pushed):
        _check_moves(den, moves, u, cap, boundary, step, mutation is Mutation.LANDING_FACTOR)
    return den, free, pushed


def _check_moves(
    den: int,
    moves: tuple[tuple[int | None, int], ...],
    u: int,
    cap: int | None,
    boundary: int,
    step: int,
    mass_deficit: bool,
) -> None:
    """Reject a move list of the particle at u that the scan could not trust.

    Numerators are positive, sites strictly ordered along ``step`` from u
    on with none past ``boundary``, the lump (site None) is only the last
    move of a particle with no cap, and the numerators sum to exactly
    ``den``; to at most ``den`` when ``mass_deficit`` is set.
    """
    total, last = 0, u - step
    for k, (site, num) in enumerate(moves):
        if num <= 0:
            raise ValueError(f"non-positive numerator {num} for a move to {site}")
        if site is None:
            if cap is not None or k + 1 < len(moves):
                raise ValueError(f"only the last move of an uncapped particle lumps: {moves}")
        elif (site - last) * step <= 0 or (site - boundary) * step > 0:
            raise ValueError(f"moves out of order or past the boundary: {moves}")
        else:
            last = site
        total += num
    if total > den or (total < den and not mass_deficit):
        raise ValueError(f"moves sum to {total}, not den = {den}")


def _scan(
    law: ScaledLaw,
    params: Params,
    boundary: int,
    step: int,
    mutation: Mutation | None,
) -> ScaledLaw:
    """One row update of every outcome of ``law``, particle by particle.

    Pass i updates particle i.  A partial state is keyed by its positions,
    new up to i and old from i on, and by whether particle i is pushed: its
    predecessor landed on its position, or under ``PUSH_TRIGGER`` merely
    moved, which the positions cannot tell.  Equal keys merge.  A state
    with no particle left passes through.  Each pass reads the moves of
    each distinct (position, cap) once and brings them to the lcm of their
    denominators.  The result is reduced by its gcd and checked
    (:meth:`ScaledLaw.check`).  Every outcome must lie inside ``boundary``
    and be ordered along ``step``.
    """
    trigger = mutation is Mutation.PUSH_TRIGGER
    den = law.den
    partial: dict[tuple[State, bool], int] = {(state, False): num for state, num in law.entries}
    for i in range(max((len(state) for state, _ in law.entries), default=0)):
        done: list[tuple[State, int]] = []
        groups: defaultdict[tuple[int, int | None], list] = defaultdict(list)
        for (state, is_pushed), weight in partial.items():
            if len(state) <= i:
                done.append((state, weight))
            else:
                cap = state[i + 1] if i + 1 < len(state) else None
                groups[state[i], cap].append((state, is_pushed, weight))
        built = {pair: _particle_moves(*pair, boundary, params, step, mutation) for pair in groups}
        scale = math.lcm(*(d for d, _, _ in built.values()))
        grown: defaultdict[tuple[State, bool], int] = defaultdict(int)
        for state, weight in done:
            grown[state, False] += weight * scale
        for (u, cap), members in groups.items():
            d, free, pushed = built[u, cap]
            for state, is_pushed, weight in members:
                weight *= scale // d
                head, tail = state[:i], state[i + 1 :]
                for site, num in pushed if is_pushed else free:
                    if site is None:  # only the last particle, which has no cap, can lump
                        grown[head, False] += weight * num
                    else:
                        pushes = cap is not None and (site != u if trigger else site == cap)
                        grown[head + (site,) + tail, pushes] += weight * num
        partial = grown
        den *= scale
    g = math.gcd(den, *partial.values())
    law = ScaledLaw(den // g, tuple((state, num // g) for (state, _), num in partial.items()))
    law.check(boundary, step, mass_deficit=mutation is Mutation.LANDING_FACTOR)
    return law


def _step_distribution(
    start: tuple[int, ...],
    params: Params,
    boundary: int,
    step: int,
    mutation: Mutation | None,
) -> ScaledLaw:
    """Shared forward/reversed one-step law; ``step`` fixes the direction.

    The :func:`_scan` of the one-entry law at ``start``, which must already
    be ordered along ``step``; a start wholly past the boundary is the one
    lumped outcome ().
    """
    beyond = [(p - boundary) * step > 0 for p in start]
    if any(beyond) and not all(beyond):
        raise ValueError(
            "initial positions straddle the lump boundary; move the boundary "
            f"past {start}"
        )
    resolved = () if any(beyond) else start
    return _scan(ScaledLaw(1, ((resolved, 1),)), params, boundary, step, mutation)


def one_particle_kernel(x: int, y: int, params: Params) -> Fraction:
    """Transition probability of a lone forward particle from x to y.

    The resolved entry at y of the one-step law lumped beyond y, so 0 for
    y < x; in the homogeneous case it is b1 at y = x and
    (1-b1)(1-b2) b2^(y-x-1) past it.
    """
    law = _step_distribution((x,), params, y, +1, None)
    return Fraction(dict(law.entries).get((y,), 0), law.den)


def forward_step_distribution(
    x: LocationConfig, params: Params, R: int, mutation: Mutation | None = None
) -> ScaledLaw:
    """Exact one-step law of the forward process, lumped beyond R.

    Requires R ≥ max(x) (so every particle is resolved) or every particle
    already > R (one fully lumped outcome).
    """
    x = validate_location(x)
    return _step_distribution(x, params, R, +1, mutation)


def reversed_step_distribution(
    y: ReversedConfig, params: Params, L: int, mutation: Mutation | None = None
) -> ScaledLaw:
    """Exact one-step law of the reversed process, lumped below L.

    Spatial mirror of :func:`forward_step_distribution`: the rightmost
    particle updates first, motion is leftward, and the kernel reads its
    site factors at the sites traversed, so in the homogeneous case each
    one-particle transition y -> v has the forward probability of v -> y.
    """
    y = validate_reversed(y)
    return _step_distribution(y, params, L, -1, mutation)


# --- samplers -----------------------------------------------------------------


def trajectory_rng(seed: int) -> random.Random:
    """A run's one generator, seeded by str(seed): Random(-7) would draw Random(7)'s stream."""
    return random.Random(str(seed))


def _sampler(params: Params, step: int, rng: random.Random):
    """``sample(start)``: one unlumped draw of the ``step`` law from a start along ``step``.

    Binds ``rng.random`` and the threshold lookups once per run.  Particles
    go in update order.  One not pushed holds when a draw falls below b1 at
    its site; otherwise it walks site by site, stopping where a draw falls
    below 1 - b2, or without a draw on its cap.  Draws are compared with
    :attr:`Params.hold_thresholds` and :attr:`Params.stop_thresholds`,
    which agree with a test against the Fraction on every draw
    (:func:`~sixv.model.float_threshold`), so every outcome is that test's.
    """
    draw = rng.random
    (hold_at, hold), (stop_at, stop) = params.hold_thresholds, params.stop_thresholds
    hold_at, stop_at = hold_at.get, stop_at.get

    def sample(start):
        out: list[int] = []
        prev: int | None = None
        last = len(start) - 1
        for i, u in enumerate(start):
            if prev != u and draw() < hold_at(u, hold):
                prev = u
            else:
                cap = start[i + 1] if i < last else None
                z = u + step
                while z != cap and draw() >= stop_at(z, stop):
                    z += step
                prev = z
            out.append(prev)
        return tuple(out)

    return sample


def _sample_step(start: State, params: Params, step: int, rng: random.Random) -> State:
    """One draw of a fresh :func:`_sampler`."""
    return _sampler(params, step, rng)(start)
