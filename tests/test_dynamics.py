import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from sixv.dynamics import (
    Mutation,
    ScaledLaw,
    _check_moves,
    _sample_step,
    _step_distribution,
    forward_step_distribution,
    one_particle_kernel,
    reversed_step_distribution,
)
from sixv.model import STANDARD_PARAMS, Params, cycled_inhom_params

P_HALF_QUARTER = Params.from_b1_b2("1/2", "1/4")


def entries_dict(dist: ScaledLaw) -> dict[tuple[int, ...], Fraction]:
    return {positions: Fraction(num, dist.den) for positions, num in dist.entries}


def total_mass(dist: ScaledLaw) -> Fraction:
    return Fraction(sum(num for _, num in dist.entries), dist.den)


locations = st.lists(st.integers(-4, 8), unique=True, min_size=0, max_size=4).map(
    lambda xs: tuple(sorted(xs))
)
some_params = st.sampled_from(STANDARD_PARAMS + (cycled_inhom_params(-4, 8),))


# --- one particle kernel -------------------------------------------------------


def test_one_particle_kernel_examples():
    assert one_particle_kernel(0, 0, P_HALF_QUARTER) == Fraction(1, 2)
    assert one_particle_kernel(0, 2, P_HALF_QUARTER) == Fraction(3, 32)
    assert one_particle_kernel(5, 4, P_HALF_QUARTER) == 0


@pytest.mark.parametrize(
    "p", STANDARD_PARAMS + (cycled_inhom_params(0, 8),), ids=["std0", "std1", "std2", "cycled"]
)
def test_one_particle_kernel_matches_the_closed_form(p):
    for x in range(0, 7):
        for y in range(x - 1, 9):
            assert one_particle_kernel(x, y, p) == oracle.free_jump_prob(p, x, y, None)


def test_one_particle_kernel_sums_with_analytic_tail():
    p = P_HALF_QUARTER
    total = sum(one_particle_kernel(0, y, p) for y in range(0, 41))
    tail = (1 - p.b1) * p.b2**40
    assert total + tail == 1


def test_one_particle_kernel_inhomogeneous_reads_sites():
    p = Params(
        q=Fraction(1, 2),
        b2=Fraction(1, 4),
        b2_sites=((1, Fraction(1, 3)), (2, Fraction(1, 2))),
    )
    # depart at 0, pass 1, land at 2: (1 - 1/8) * 1/3 * (1 - 1/2)
    assert one_particle_kernel(0, 2, p) == Fraction(7, 8) * Fraction(1, 3) * Fraction(1, 2)


# --- forward step distributions ------------------------------------------------


def test_forward_single_particle_frozen():
    dist = forward_step_distribution((0,), P_HALF_QUARTER, R=2)
    assert entries_dict(dist) == {
        (0,): Fraction(1, 2),
        (1,): Fraction(3, 8),
        (2,): Fraction(3, 32),
        (): Fraction(1, 32),
    }


def test_forward_adjacent_pair_frozen():
    dist = forward_step_distribution((0, 1), P_HALF_QUARTER, R=1)
    assert entries_dict(dist) == {
        (0, 1): Fraction(1, 4),
        (0,): Fraction(1, 4),
        (1,): Fraction(1, 2),
    }


def test_pushed_particle_lands_interior():
    # First particle saturates its gap onto site 1; the pushed second particle
    # then lands one site further with the plain landing factor 1 - b2 = 3/4.
    dist = forward_step_distribution((0, 1), P_HALF_QUARTER, R=4)
    d = entries_dict(dist)
    assert oracle.pushed_jump_prob(P_HALF_QUARTER, 1, 2, None) == Fraction(3, 4)
    assert d[(1, 2)] == Fraction(1, 2) * Fraction(3, 4)


def test_forward_rejects_unsorted():
    with pytest.raises(ValueError):
        forward_step_distribution((3, 1), P_HALF_QUARTER, R=5)


def test_forward_all_beyond_boundary_is_single_lump():
    dist = forward_step_distribution((4, 6), P_HALF_QUARTER, R=3)
    assert entries_dict(dist) == {(): Fraction(1)}


def test_forward_straddling_boundary_rejected():
    with pytest.raises(ValueError):
        forward_step_distribution((2, 6), P_HALF_QUARTER, R=3)


def test_empty_configuration_steps_to_itself():
    dist = forward_step_distribution((), P_HALF_QUARTER, R=0)
    assert entries_dict(dist) == {(): Fraction(1)}


@settings(max_examples=60)
@given(locations, some_params, st.integers(0, 3))
def test_forward_matches_bruteforce_oracle(x, params, slack):
    r = (max(x) if x else 0) + slack
    zmax = r + 6
    outcomes, tails = oracle.oracle_forward_outcomes(x, params, zmax)
    expected = oracle.by_positions(oracle.coarsen_to_boundary(outcomes, tails, r), len(x))
    assert entries_dict(forward_step_distribution(x, params, r)) == expected


@settings(max_examples=60)
@given(locations, some_params, st.integers(0, 3))
def test_forward_mass_and_exclusion(x, params, slack):
    r = (max(x) if x else 0) + slack
    dist = forward_step_distribution(x, params, r)
    assert total_mass(dist) == 1
    for moved, _ in dist.entries:
        assert all(a < b for a, b in zip(moved, moved[1:]))
        for old, new in zip(x, moved):
            assert new >= old  # never left
        for i, new in enumerate(moved[1:], start=1):
            assert new <= x[i + 1] if i + 1 < len(x) else True


@settings(max_examples=40)
@given(locations, some_params, st.integers(0, 2), st.integers(1, 3))
def test_lumping_coarsens_consistently(x, params, slack, extra):
    r = (max(x) if x else 0) + slack
    fine = forward_step_distribution(x, params, r + extra)
    coarse = forward_step_distribution(x, params, r)
    folded: dict[tuple[int, ...], Fraction] = {}
    for pos, p in entries_dict(fine).items():
        if pos and pos[-1] > r:
            pos = pos[:-1]
        folded[pos] = folded.get(pos, Fraction(0)) + p
    assert folded == entries_dict(coarse)


def test_homogeneous_site_map_agrees_with_scalar():
    p = Params.from_b1_b2("1/2", "1/4")
    p_mapped = Params(
        q=p.q, b2=p.b2, b2_sites=tuple((s, Fraction(1, 4)) for s in range(-2, 6))
    )
    assert p_mapped.is_homogeneous()
    for x in [(0,), (0, 1), (0, 2, 3)]:
        assert entries_dict(
            forward_step_distribution(x, p, R=4)
        ) == entries_dict(forward_step_distribution(x, p_mapped, R=4))


# --- reversed step distributions ------------------------------------------------


def test_reversed_single_particle_mirror_frozen():
    dist = reversed_step_distribution((3,), P_HALF_QUARTER, L=1)
    assert entries_dict(dist) == {
        (3,): Fraction(1, 2),
        (2,): Fraction(3, 8),
        (1,): Fraction(3, 32),
        (): Fraction(1, 32),
    }


def test_reversed_pair_against_negation_oracle():
    y = (3, 1)
    expected = oracle.by_positions(
        oracle.oracle_reversed_coarse(y, P_HALF_QUARTER, boundary=0, zmin=-4), len(y)
    )
    got = entries_dict(reversed_step_distribution(y, P_HALF_QUARTER, L=0))
    assert got == expected
    # the (2, 1) outcome spelled out: y_1 leaves 3 and lands interior on 2,
    # y_2 holds: (1-b1)(1-b2) * b1
    assert got[(2, 1)] == Fraction(1, 2) * Fraction(3, 4) * Fraction(1, 2)


@settings(max_examples=100)
@given(
    st.lists(st.integers(-4, 8), unique=True, min_size=1, max_size=4),
    some_params,
    st.integers(0, 3),
)
def test_reversed_matches_negation_oracle(ys, params, slack):
    y = tuple(sorted(ys, reverse=True))
    boundary = min(y) - slack
    expected = oracle.by_positions(
        oracle.oracle_reversed_coarse(y, params, boundary, zmin=boundary - 6), len(y)
    )
    got = entries_dict(reversed_step_distribution(y, params, boundary))
    assert got == expected


@settings(max_examples=60)
@given(
    st.lists(st.integers(-4, 8), unique=True, min_size=1, max_size=4),
    some_params,
    st.integers(0, 3),
)
def test_reversed_mass_and_exclusion(ys, params, slack):
    y = tuple(sorted(ys, reverse=True))
    boundary = min(y) - slack
    dist = reversed_step_distribution(y, params, boundary)
    assert total_mass(dist) == 1
    for moved, _ in dist.entries:
        assert all(a > b for a, b in zip(moved, moved[1:]))
        for old, new in zip(y, moved):
            assert new <= old  # never right


def test_reversed_rejects_unsorted():
    with pytest.raises(ValueError):
        reversed_step_distribution((1, 3), P_HALF_QUARTER, L=0)


def test_reversed_transpose_of_forward_kernel_homogeneous():
    # For one particle with homogeneous parameters the reversed law is the
    # transpose of the forward one: p_rev(u -> v) = p(v -> u).
    p = P_HALF_QUARTER
    dist = reversed_step_distribution((5,), p, L=0)
    d = entries_dict(dist)
    for v in range(0, 6):
        assert d[(v,)] == one_particle_kernel(v, 5, p)


# --- mutations ------------------------------------------------------------------


def test_landing_factor_mutation_leaks_mass():
    # Needs a pushed particle with a finite gap: (0,1,3) -> first saturates
    # onto 1, second is pushed and may saturate onto 3.
    clean = forward_step_distribution((0, 1, 3), P_HALF_QUARTER, R=3)
    hurt = forward_step_distribution(
        (0, 1, 3), P_HALF_QUARTER, R=3, mutation=Mutation.LANDING_FACTOR
    )
    assert total_mass(clean) == 1
    assert total_mass(hurt) < 1


def test_push_trigger_mutation_changes_law():
    clean = forward_step_distribution((0, 2), P_HALF_QUARTER, R=3)
    hurt = forward_step_distribution(
        (0, 2), P_HALF_QUARTER, R=3, mutation=Mutation.PUSH_TRIGGER
    )
    assert total_mass(hurt) == 1  # still a distribution, just the wrong one
    assert entries_dict(hurt) != entries_dict(clean)
    # concretely: after the first particle lands interior on 1, the second is
    # wrongly denied its hold branch, so the (1, 2) outcome disappears.
    assert (1, 2) in entries_dict(clean)
    assert (1, 2) not in entries_dict(hurt)


@settings(max_examples=100)
@given(
    st.lists(st.integers(-4, 8), unique=True, min_size=1, max_size=4),
    some_params,
    st.integers(0, 3),
    st.sampled_from([Mutation.LANDING_FACTOR, Mutation.PUSH_TRIGGER]),
)
def test_mutated_laws_match_the_mutated_oracle(sites, params, slack, mutation):
    x = tuple(sorted(sites))
    r = x[-1] + slack
    outcomes, tails = oracle.oracle_forward_outcomes(x, params, r + 6, mutation)
    expected = oracle.by_positions(oracle.coarsen_to_boundary(outcomes, tails, r), len(x))
    assert entries_dict(forward_step_distribution(x, params, r, mutation)) == expected
    y, boundary = x[::-1], x[0] - slack
    expected = oracle.by_positions(
        oracle.oracle_reversed_coarse(y, params, boundary, boundary - 6, mutation), len(y)
    )
    assert entries_dict(reversed_step_distribution(y, params, boundary, mutation)) == expected


# --- the integer law check -----------------------------------------------------


# every state of the window 0:6, forward with ℓ <= 4 and reversed with k <= 3,
# lumped at the window's far edge
WINDOW_STATES = {
    +1: [s for ell in range(5) for s in combinations(range(0, 7), ell)],
    -1: [s[::-1] for k in range(4) for s in combinations(range(0, 7), k)],
}
EDGE = {+1: 6, -1: 0}


@pytest.mark.parametrize("step", [+1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize(
    "params", STANDARD_PARAMS + (cycled_inhom_params(0, 6),),
    ids=["std0", "std1", "std2", "palette"],
)
def test_step_laws_are_products_of_vertex_weights(params, step):
    for start in WINDOW_STATES[step]:
        law = _step_distribution(start, params, EDGE[step], step, None)
        assert entries_dict(law) == oracle.vertex_law(start, params, EDGE[step], step), start


@pytest.mark.parametrize("mutation", [Mutation.LANDING_FACTOR, Mutation.PUSH_TRIGGER])
@pytest.mark.parametrize("step", [+1, -1], ids=["forward", "reversed"])
def test_each_dynamics_defect_changes_some_vertex_law(step, mutation):
    assert any(
        entries_dict(_step_distribution(start, P_HALF_QUARTER, EDGE[step], step, mutation))
        != oracle.vertex_law(start, P_HALF_QUARTER, EDGE[step], step)
        for start in WINDOW_STATES[step]
    )


def test_step_distribution_rejects_bad_totals_and_duplicates():
    # each defect the enumeration rules out, fed to the integer check of a law
    # lumped at 3 (forward, +1) or at 0 (reversed, -1)
    defects = [
        (ScaledLaw(2, (((0,), 2), ((1,), 0))), +1, False),  # zero mass
        (ScaledLaw(2, (((0,), 3), ((1,), -1))), +1, False),  # negative
        (ScaledLaw(2, (((0,), 1), ((0,), 1))), +1, False),  # duplicate
        (ScaledLaw(1, (((2, 1), 1),)), +1, False),  # out of order
        (ScaledLaw(1, (((1, 2), 1),)), -1, False),  # out of order, mirrored
        (ScaledLaw(1, (((5,), 1),)), +1, False),  # resolved past R
        (ScaledLaw(1, (((-1,), 1),)), -1, False),  # resolved past L
        (ScaledLaw(2, (((0,), 1),)), +1, False),  # total below den
        (ScaledLaw(2, (((0,), 3),)), +1, True),  # above den, even leaking
        (ScaledLaw(0, ()), +1, False),  # no denominator
    ]
    for law, step, deficit in defects:
        with pytest.raises(ValueError):
            law.check(3 if step > 0 else 0, step, mass_deficit=deficit)
    # the same shapes without their defect pass
    ScaledLaw(2, (((0,), 1), ((1,), 1))).check(3, +1)
    ScaledLaw(2, (((2, 1), 1), ((), 1))).check(0, -1)
    ScaledLaw(2, (((0,), 1),)).check(3, +1, mass_deficit=True)


def test_move_lists_are_checked_as_they_are_built():
    # each defect a move list cannot have, for a particle at u = 0 with the
    # lump boundary at 3 (forward, +1) or at -3 (reversed, -1)
    defects = [
        (2, ((0, 2), (1, 0)), 1, +1, False),  # zero mass
        (2, ((1, 1), (0, 1)), 2, +1, False),  # out of order
        (2, ((0, 1), (1, 1)), -2, -1, False),  # out of order, mirrored
        (2, ((-1, 1), (1, 1)), 2, +1, False),  # behind the particle
        (2, ((0, 1), (4, 1)), None, +1, False),  # past the boundary
        (2, ((0, 1), (None, 1)), 2, +1, False),  # lumps with a cap ahead
        (2, ((None, 1), (1, 1)), None, +1, False),  # lumps before the last move
        (3, ((0, 1), (1, 1)), 2, +1, False),  # total below den
        (1, ((0, 1), (1, 1)), 2, +1, True),  # above den, even leaking
    ]
    for den, moves, cap, step, deficit in defects:
        with pytest.raises(ValueError):
            _check_moves(den, moves, 0, cap, 3 * step, step, deficit)
    # the same shapes without their defect pass
    _check_moves(2, ((0, 1), (1, 1)), 0, 2, 3, +1, False)
    _check_moves(2, ((0, 1), (-1, 1)), 0, -2, -3, -1, False)
    _check_moves(2, ((0, 1), (3, 1)), 0, None, 3, +1, False)
    _check_moves(2, ((0, 1), (None, 1)), 0, None, 3, +1, False)
    _check_moves(3, ((0, 1), (1, 1)), 0, 2, 3, +1, True)


# --- samplers --------------------------------------------------------------------


def test_sampler_draws_are_fixed_by_the_generator_state():
    # same generator state, same steps; another state, other steps
    a = [
        _sample_step((0, 2, 5), P_HALF_QUARTER, +1, random.Random(f"7:{i}"))
        for i in range(50)
    ]
    b = [
        _sample_step((0, 2, 5), P_HALF_QUARTER, +1, random.Random(f"7:{i}"))
        for i in range(50)
    ]
    c = [
        _sample_step((0, 2, 5), P_HALF_QUARTER, +1, random.Random(f"8:{i}"))
        for i in range(50)
    ]
    assert a == b
    assert a != c


def test_sampler_near_certain_hold():
    p = Params(q=Fraction(999), b2=Fraction(1, 1000))  # b1 = 999/1000
    n = 10_000
    rng = random.Random("11:hold")
    stays = sum(_sample_step((0,), p, +1, rng) == (0,) for _ in range(n))
    mean = p.b1
    sigma = float(mean * (1 - mean) / n) ** 0.5
    assert abs(stays / n - float(mean)) < 4 * sigma


def test_sampler_matches_exact_distribution_within_4_sigma():
    p = P_HALF_QUARTER
    n = 100_000
    rng = random.Random("3:cells")
    counts: dict[int, int] = {}
    for _ in range(n):
        (z,) = _sample_step((0,), p, +1, rng)
        counts[z] = counts.get(z, 0) + 1
    exact = entries_dict(forward_step_distribution((0,), p, R=6))
    for z in range(0, 7):
        prob = float(exact[(z,)])
        sigma = (prob * (1 - prob) / n) ** 0.5
        assert abs(counts.get(z, 0) / n - prob) < 4 * sigma
    lump_prob = float(exact[()])
    lump_freq = sum(v for z, v in counts.items() if z > 6) / n
    sigma = (lump_prob * (1 - lump_prob) / n) ** 0.5
    assert abs(lump_freq - lump_prob) < 4 * sigma


def test_sampler_preserves_order():
    rng = random.Random("5:order")
    pick = random.Random("5:configs")
    for _ in range(10_000):
        x = tuple(sorted(pick.sample(range(-3, 9), pick.randint(1, 4))))
        out = _sample_step(x, P_HALF_QUARTER, +1, rng)
        assert all(a < b for a, b in zip(out, out[1:]))


def test_reversed_sampler_mirrors_forward_within_4_sigma():
    p = P_HALF_QUARTER
    n = 100_000
    rng = random.Random("13:mirror")
    counts: dict[int, int] = {}
    for _ in range(n):
        (z,) = _sample_step((0,), p, -1, rng)
        counts[z] = counts.get(z, 0) + 1
    for v in range(0, -7, -1):
        prob = float(one_particle_kernel(0, -v, p))  # mirror of forward jump
        sigma = (prob * (1 - prob) / n) ** 0.5
        assert abs(counts.get(v, 0) / n - prob) < 4 * sigma


def test_reversed_sampler_hold_frequency_and_order():
    p = P_HALF_QUARTER
    rng = random.Random("17:rev")
    n = 100_000
    stays = 0
    for _ in range(n):
        out = _sample_step((4, 1, 0), p, -1, rng)
        assert all(a > b for a, b in zip(out, out[1:]))
        stays += out[0] == 4
    prob = float(p.b1)
    sigma = (prob * (1 - prob) / n) ** 0.5
    assert abs(stays / n - prob) < 4 * sigma


SAMPLER_PARAMS = STANDARD_PARAMS + (cycled_inhom_params(0, 6), Params.homogeneous("2", "1/997"))
SAMPLER_STARTS = {
    +1: [(0, 1, 2), (0, 2, 5), (3,), (-1, 0, 4, 5)],
    -1: [(2, 1, 0), (5, 2, 0), (3,), (6, 5, 4, 1)],
}


def sample_both(start, params, step, rng, oracle_rng, steps=3):
    """``steps`` chained draws from each sampler, checked to agree after each one."""
    ours, theirs = start, start
    for _ in range(steps):
        ours = _sample_step(ours, params, step, rng)
        theirs = oracle.oracle_sample_step(theirs, params, step, oracle_rng)
        assert ours == theirs, (start, params, step)


@pytest.mark.parametrize("step", [+1, -1])
@pytest.mark.parametrize("params", SAMPLER_PARAMS)
def test_sampler_draws_the_fraction_samplers_stream(params, step):
    for seed in range(150):
        for start in SAMPLER_STARTS[step]:
            rng = random.Random(f"{seed}:{start}")
            oracle_rng = random.Random(f"{seed}:{start}")
            sample_both(start, params, step, rng, oracle_rng)
            assert rng.getstate() == oracle_rng.getstate()
            assert rng.random() == oracle_rng.random()


class EdgeDraws:
    """A generator stand-in that draws only the grid points k/2^53 around ``probs``.

    For each probability p these are the multiple of 2^-53 at or just above
    p and the one below it: the draws where a rounded float threshold would
    disagree with p.  ``random()`` can return them, but a seeded stream
    almost never does.
    """

    def __init__(self, probs, seed):
        grid = 2**53
        ceils = {-(-p.numerator * grid // p.denominator) for p in probs}
        self.draws = sorted(k / grid for c in ceils for k in (c - 1, c) if 0 <= k < grid)
        self.pick = random.Random(seed)
        self.count = 0

    def random(self):
        self.count += 1
        return self.pick.choice(self.draws)


@pytest.mark.parametrize("step", [+1, -1])
@pytest.mark.parametrize("params", SAMPLER_PARAMS)
def test_sampler_agrees_with_fractions_on_the_threshold_grid_points(params, step):
    b2s = [params.b2] + [value for _, value in params.b2_sites]
    probs = [params.q * b2 for b2 in b2s] + [1 - b2 for b2 in b2s]
    for seed in range(150):
        for start in SAMPLER_STARTS[step]:
            rng, oracle_rng = EdgeDraws(probs, seed), EdgeDraws(probs, seed)
            sample_both(start, params, step, rng, oracle_rng)
            assert rng.count == oracle_rng.count
