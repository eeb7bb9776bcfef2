"""Independent reference implementations used only by the tests.

Everything here recomputes step laws from the closed-form per-particle jump
pmf (departure / pass-through / landing factors multiplied out explicitly)
and composes particles by plain recursion over full landing tuples, with an
analytic geometric remainder past a truncation site.  No lumping, no
incremental walk: a deliberately different code path from the package's
enumeration engine, so agreement is evidence rather than tautology.

The one exception is :func:`oracle_t_step_law` (and the expectation
:func:`oracle_t_step_expectation` built on it), which reuses the package's
one-step laws (checked against the closed forms above) and composes them
state by state in plain ``Fraction`` arithmetic: it is the reference for
the engine's whole-law scan, its scaled integers and its contraction.  It
reads the functionals with :func:`oracle_functional` and settles empty
sides by their own cases, so it shares no reader with the package.

:func:`oracle_sample_step` is the sampler that compares every draw with a
``Fraction``: the reference for the package's float-threshold sampler,
which must draw the same outcomes from the same stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from sixv.dynamics import (
    Mutation,
    forward_step_distribution,
    reversed_step_distribution,
)
from sixv.model import Params


def pass_product(params: Params, lo: int, hi: int) -> Fraction:
    """Product of b2 over sites lo..hi inclusive (1 when the range is empty)."""
    return math.prod((params.b2_at(s) for s in range(lo, hi + 1)), start=Fraction(1))


def free_jump_prob(params: Params, u: int, z: int, cap: int | None) -> Fraction:
    """P(landing at z) for an unconstrained particle starting at u.

    ``cap`` is the pre-update position of the next particle (None if there is
    none); the jump onto ``cap`` saturates the gap and omits the landing
    factor.
    """
    if z == u:
        return params.b1_at(u)
    if z < u or (cap is not None and z > cap):
        return Fraction(0)
    depart = 1 - params.b1_at(u)
    through = pass_product(params, u + 1, z - 1)
    if cap is not None and z == cap:
        return depart * through
    return depart * through * (1 - params.b2_at(z))


def pushed_jump_prob(params: Params, u: int, z: int, cap: int | None) -> Fraction:
    """P(landing at z) for a particle whose left neighbour landed on u (must move)."""
    if z <= u or (cap is not None and z > cap):
        return Fraction(0)
    through = pass_product(params, u + 1, z - 1)
    if cap is not None and z == cap:
        return through
    return through * (1 - params.b2_at(z))


def oracle_forward_outcomes(
    x: tuple[int, ...], params: Params, zmax: int, mutation: Mutation | None = None
) -> tuple[dict[tuple[int, ...], Fraction], dict[tuple[int, ...], Fraction]]:
    """Exhaustive one-step enumeration of the forward process.

    Returns ``(outcomes, tails)``: ``outcomes`` maps complete landing tuples
    (rightmost landing ≤ zmax) to exact probabilities; ``tails`` maps the
    landing prefix of all but the last particle to the exact mass of the last
    particle ending up strictly right of zmax (closed-form geometric
    remainder).  Requires zmax ≥ max(x).

    The two dynamics mutations change one decision each, as the
    :class:`Mutation` docstring states them: under ``LANDING_FACTOR`` a
    pushed particle's jump onto its cap keeps 1 - b2(cap); under
    ``PUSH_TRIGGER`` a particle is pushed whenever its left neighbour moved.
    """
    if x and zmax < max(x):
        raise ValueError("zmax must cover the initial configuration")
    outcomes: dict[tuple[int, ...], Fraction] = {}
    tails: dict[tuple[int, ...], Fraction] = {}

    def recurse(i: int, prev_landing: int | None, prefix: tuple[int, ...], mass: Fraction) -> None:
        if i == len(x):
            outcomes[prefix] = outcomes.get(prefix, Fraction(0)) + mass
            return
        u = x[i]
        if mutation is Mutation.PUSH_TRIGGER:
            pushed = prev_landing is not None and prev_landing != x[i - 1]
        else:
            pushed = prev_landing is not None and prev_landing == u
        cap = x[i + 1] if i + 1 < len(x) else None
        jump = pushed_jump_prob if pushed else free_jump_prob
        lo = u + 1 if pushed else u
        hi = cap if cap is not None else zmax
        for z in range(lo, hi + 1):
            p = jump(params, u, z, cap)
            if pushed and z == cap and mutation is Mutation.LANDING_FACTOR:
                p *= 1 - params.b2_at(z)
            if p:
                recurse(i + 1, z, prefix + (z,), mass * p)
        if cap is None:
            depart = Fraction(1) if pushed else 1 - params.b1_at(u)
            tail = mass * depart * pass_product(params, u + 1, zmax)
            if tail:
                tails[prefix] = tails.get(prefix, Fraction(0)) + tail

    recurse(0, None, (), Fraction(1))
    return outcomes, tails


def coarsen_to_boundary(
    outcomes: dict[tuple[int, ...], Fraction],
    tails: dict[tuple[int, ...], Fraction],
    boundary: int,
) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Fold landings strictly beyond ``boundary`` into a per-prefix lumped count.

    Output keys are (resolved positions, lumped count) so the result is
    directly comparable with the engine's lumped step distributions.
    """
    folded: dict[tuple[tuple[int, ...], int], Fraction] = {}

    def add(key: tuple[tuple[int, ...], int], p: Fraction) -> None:
        folded[key] = folded.get(key, Fraction(0)) + p

    for landing, p in outcomes.items():
        if landing and landing[-1] > boundary:
            add((landing[:-1], 1), p)
        else:
            add((landing, 0), p)
    for prefix, p in tails.items():
        add((prefix, 1), p)
    return {k: v for k, v in folded.items() if v}


def by_positions(
    law: dict[tuple[tuple[int, ...], int], Fraction], ell: int
) -> dict[tuple[int, ...], Fraction]:
    """A coarsened law of ``ell`` particles keyed by resolved positions alone.

    Checks conservation on the way: every outcome lumps exactly the
    ``ell - len(positions)`` particles it no longer resolves.
    """
    for positions, lumped in law:
        assert lumped == ell - len(positions), (positions, lumped, ell)
    return {positions: p for (positions, _), p in law.items()}


def reflect_params(params: Params) -> Params:
    """Site-reflected parameters: b2 at site s becomes b2 at -s."""
    return Params(
        q=params.q,
        b2=params.b2,
        b2_sites=tuple((-s, v) for s, v in params.b2_sites),
    )


def oracle_reversed_coarse(
    y: tuple[int, ...],
    params: Params,
    boundary: int,
    zmin: int,
    mutation: Mutation | None = None,
) -> dict[tuple[tuple[int, ...], int], Fraction]:
    """Negate-run-forward-negate oracle for the reversed (leftward) process.

    The reversed walk from y under params is the mirror image of the forward
    walk from -y under site-reflected params; landings left of ``boundary``
    lump.  Requires zmin ≤ min(y).
    """
    mirrored = tuple(-p for p in y)  # descending y negates to ascending
    outcomes, tails = oracle_forward_outcomes(
        mirrored, reflect_params(params), -zmin, mutation
    )
    folded = coarsen_to_boundary(outcomes, tails, -boundary)
    result: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for (positions, lumped), p in folded.items():
        back = tuple(-z for z in positions)  # ascending negates to descending
        result[(back, lumped)] = result.get((back, lumped), Fraction(0)) + p
    return result


def oracle_functional(
    kind: str, particles: tuple[int, ...], y: tuple[int, ...], q: Fraction
) -> Fraction:
    """Direct evaluation of H/G/D from the defining product, no height caching."""
    value = Fraction(1)
    for site in y:
        g = 1 if site in particles else 0
        n = sum(1 for p in particles if p <= site)
        weight = q ** (-n)
        if kind == "H":
            value *= g * weight
        elif kind == "G":
            value *= weight
        elif kind == "D":
            value *= (1 - g) * weight
        else:
            raise ValueError(kind)
    return value


def oracle_forward_expectation_one_step(
    x: tuple[int, ...], y: tuple[int, ...], kind: str, params: Params
) -> Fraction:
    """One-step E^x[kind(x(1), y)] straight from the coarsened oracle law.

    Lumped particles sit strictly right of max(y), where none of the three
    functionals can see them.
    """
    boundary = max(y)
    zmax = max([boundary] + list(x)) if x else boundary
    outcomes, tails = oracle_forward_outcomes(x, params, zmax)
    total = Fraction(0)
    for (positions, _lumped), p in coarsen_to_boundary(outcomes, tails, boundary).items():
        total += p * oracle_functional(kind, positions, y, params.q)
    return total


def oracle_reversed_expectation_one_step(
    x: tuple[int, ...], y: tuple[int, ...], kind: str, params: Params
) -> Fraction:
    """One-step E^y[kind(x, y(1))] from the negated-forward oracle law.

    Reversed particles lumped strictly left of min(x) have g = 0 and height 0,
    contributing factor 0 to H and factor 1 to G and D.
    """
    if not x:
        if kind == "H":
            return Fraction(0)
        boundary = min(y) - 1
    else:
        boundary = min(x)
    zmin = min([boundary] + list(y))
    total = Fraction(0)
    for (positions, lumped), p in oracle_reversed_coarse(y, params, boundary, zmin).items():
        if lumped and kind == "H":
            continue
        total += p * oracle_functional(kind, x, positions, params.q)
    return total


def oracle_t_step_law(
    start: tuple[int, ...],
    params: Params,
    boundary: int,
    t: int,
    step: int,
    mutation: Mutation | None = None,
) -> dict[tuple[int, ...], Fraction]:
    """The t-step law from the resolved positions ``start``, state by state.

    The lumped one-step law of each outcome (forward for step +1, reversed
    for -1) is weighted by the outcome's ``Fraction`` probability and summed
    into the next law, t times.
    """
    one_step = forward_step_distribution if step > 0 else reversed_step_distribution
    law = {start: Fraction(1)}
    for _ in range(t):
        composed: dict[tuple[int, ...], Fraction] = {}
        for positions, prob in law.items():
            one = one_step(positions, params, boundary, mutation)
            for moved, num in one.entries:
                composed[moved] = composed.get(moved, Fraction(0)) + prob * Fraction(num, one.den)
        law = composed
    return law


def oracle_t_step_expectation(
    side: str,
    x: tuple[int, ...],
    y: tuple[int, ...],
    kind: str,
    t: int,
    params: Params,
    mutation: Mutation | None = None,
    boundary: int | None = None,
) -> Fraction:
    """E^x[kind(x(t), y)] (side "forward") or E^y[kind(x, y(t))] ("reversed").

    The law of :func:`oracle_t_step_law`, contracted outcome by outcome
    with the functional; an outcome with fewer positions than the start has
    lumped the rest.  The lump boundary defaults to y_1 (forward) or x_1
    (reversed); initial positions beyond it start lumped.
    """
    if not y:
        return Fraction(1)  # empty product
    q = 1 / params.q if mutation is Mutation.INVERTED_Q else params.q
    if side == "forward":
        boundary = y[0] if boundary is None else boundary
        kept = tuple(p for p in x if p <= boundary)
        start, step = x, +1
    else:
        if not x:
            # the engines' convention: without particles every g factor is 0
            # and every height weight is q^0 = 1, whatever y does
            return Fraction(0) if kind == "H" else Fraction(1)
        boundary = x[0] if boundary is None else boundary
        kept = tuple(p for p in y if p >= boundary)
        start, step = y, -1
    total = Fraction(0)
    for positions, prob in oracle_t_step_law(kept, params, boundary, t, step, mutation).items():
        if side == "forward":
            total += prob * oracle_functional(kind, positions, y, q)
        elif not (len(positions) < len(start) and kind == "H"):  # lumped dual points have g = 0
            total += prob * oracle_functional(kind, x, positions, q)
    return total


def _oracle_sample_landing(
    u: int, cap: int | None, params: Params, step: int, pushed: bool, rng: random.Random
) -> int:
    """Draw one landing site by walking the geometric passage site by site."""
    if not pushed:
        if rng.random() < params.b1_at(u):
            return u
    z = u + step
    while True:
        if cap is not None and z == cap:
            return z
        if rng.random() < 1 - params.b2_at(z):
            return z
        z += step


def oracle_sample_step(
    start: tuple[int, ...], params: Params, step: int, rng: random.Random
) -> tuple[int, ...]:
    """One unlumped draw of the ``step`` law, every draw compared with a Fraction."""
    out: list[int] = []
    prev: int | None = None
    for i, u in enumerate(start):
        pushed = prev is not None and prev == u
        cap = start[i + 1] if i + 1 < len(start) else None
        prev = _oracle_sample_landing(u, cap, params, step, pushed, rng)
        out.append(prev)
    return tuple(out)
