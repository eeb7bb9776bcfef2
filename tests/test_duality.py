"""Tests for the functionals and the exact/Monte-Carlo expectation engines."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import sixv.duality
from sixv.dynamics import (
    Mutation,
    _step_distribution,
    forward_step_distribution,
    reversed_step_distribution,
)
from sixv.duality import (
    KINDS,
    ExpectationResult,
    _evolve,
    eval_functional,
    exact_expectation_forward,
    exact_expectation_reversed,
    expect_forward,
    expect_one_step_held,
    expect_reversed,
    expectation_table,
    mc_expectation,
)
from sixv.model import STANDARD_PARAMS, Params, cycled_inhom_params

P_HALF_QUARTER = Params.from_b1_b2("1/2", "1/4")  # q = 2

locations = st.lists(
    st.integers(min_value=-2, max_value=4), unique=True, max_size=3
).map(lambda v: tuple(sorted(v)))
dual_points = st.lists(
    st.integers(min_value=-2, max_value=4), unique=True, min_size=1, max_size=2
).map(lambda v: tuple(sorted(v, reverse=True)))
kinds = st.sampled_from(("H", "G", "D"))
param_choices = st.sampled_from(STANDARD_PARAMS)


# --- functional values ---------------------------------------------------------


def test_functional_single_occupied_site():
    q = Fraction(2)
    assert eval_functional("H", (0,), (0,), q) == Fraction(1, 2)
    assert eval_functional("G", (0,), (0,), q) == Fraction(1, 2)
    assert eval_functional("D", (0,), (0,), q) == Fraction(0)


def test_functional_empty_window():
    q = Fraction(2)
    assert eval_functional("H", (), (0,), q) == Fraction(0)
    assert eval_functional("G", (), (0,), q) == Fraction(1)
    assert eval_functional("D", (), (0,), q) == Fraction(1)


def test_functional_counts_heights_left_of_each_point():
    x = (1, 3)
    q = Fraction(2)
    # heights: one particle at or below 1, two at or below 3
    assert eval_functional("H", x, (3, 1), q) == Fraction(1, 8)
    assert eval_functional("G", x, (3, 1), q) == Fraction(1, 8)
    assert eval_functional("G", x, (2,), q) == Fraction(1, 2)
    assert eval_functional("D", x, (2,), q) == Fraction(1, 2)
    assert eval_functional("H", x, (2,), q) == Fraction(0)


def test_functional_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        eval_functional("Z", (0,), (0,), Fraction(2))


@given(
    particles=locations,
    point=st.integers(min_value=-2, max_value=4),
    params=param_choices,
)
def test_single_point_indicator_split(particles, point, params):
    # at one dual point the plain height factor splits into the occupied
    # and vacant parts exactly
    q = params.q
    h = eval_functional("H", particles, (point,), q)
    d = eval_functional("D", particles, (point,), q)
    assert eval_functional("G", particles, (point,), q) == h + d
    assert h == oracle.oracle_functional("H", particles, (point,), q)
    assert d == oracle.oracle_functional("D", particles, (point,), q)


# --- exact engines: frozen worked values ----------------------------------------


def test_one_particle_on_its_dual_point():
    assert expect_forward((0,), (0,), "H", 1, P_HALF_QUARTER) == Fraction(1, 4)
    assert expect_reversed((0,), (0,), "H", 1, P_HALF_QUARTER) == Fraction(1, 4)


def test_one_particle_below_its_dual_point():
    assert expect_forward((0,), (1,), "H", 1, P_HALF_QUARTER) == Fraction(3, 16)
    assert expect_reversed((0,), (1,), "H", 1, P_HALF_QUARTER) == Fraction(3, 16)


def test_time_zero_is_the_plain_functional():
    assert expect_forward((0, 2), (2, 0), "H", 0, P_HALF_QUARTER) == Fraction(1, 8)
    assert expect_reversed((0, 2), (2, 0), "H", 0, P_HALF_QUARTER) == Fraction(1, 8)


@given(x=locations, y=dual_points, kind=kinds, params=param_choices)
def test_time_zero_matches_direct_evaluation(x, y, kind, params):
    expected = oracle.oracle_functional(kind, x, y, params.q)
    assert expect_forward(x, y, kind, 0, params) == expected
    assert expect_reversed(x, y, kind, 0, params) == expected


# --- exact engines: oracle cross-checks ------------------------------------------


@settings(max_examples=60)
@given(x=locations, y=dual_points, kind=kinds, params=param_choices)
def test_forward_one_step_matches_oracle(x, y, kind, params):
    expected = oracle.oracle_forward_expectation_one_step(x, y, kind, params)
    assert expect_forward(x, y, kind, 1, params) == expected


@settings(max_examples=60)
@given(x=locations, y=dual_points, kind=kinds, params=param_choices)
def test_reversed_one_step_matches_oracle(x, y, kind, params):
    expected = oracle.oracle_reversed_expectation_one_step(x, y, kind, params)
    assert expect_reversed(x, y, kind, 1, params) == expected


@settings(max_examples=40)
@given(x=locations, y=dual_points, kind=kinds)
def test_one_step_oracle_agreement_site_dependent(x, y, kind):
    params = cycled_inhom_params(-4, 8)
    assert expect_forward(x, y, kind, 1, params) == (
        oracle.oracle_forward_expectation_one_step(x, y, kind, params)
    )
    assert expect_reversed(x, y, kind, 1, params) == (
        oracle.oracle_reversed_expectation_one_step(x, y, kind, params)
    )


# --- exact engines: scaled integers against the plain-Fraction reference ----------

# q > 1 with site-dependent b2 (every b1 = q * b2 stays below 1)
SITE_DEPENDENT_Q_ABOVE_ONE = Params(
    q=Fraction(3, 2),
    b2=Fraction(1, 4),
    b2_sites=((-1, Fraction(1, 2)), (1, Fraction(1, 3)), (2, Fraction(1, 5))),
)
reference_params = st.sampled_from(
    STANDARD_PARAMS + (cycled_inhom_params(-4, 8), SITE_DEPENDENT_Q_ABOVE_ONE)
)
mutations = st.sampled_from((None, *Mutation))


@settings(max_examples=120)
@given(
    x=locations,
    y=dual_points,
    kind=kinds,
    t=st.integers(min_value=0, max_value=3),
    params=reference_params,
    mutation=mutations,
)
# empty x; dual points lumped from the start; a leaking mutation
@example((), (2, 0), "G", 2, P_HALF_QUARTER, None)
@example((2, 3), (1, -1), "D", 2, P_HALF_QUARTER, None)
@example((0, 1, 2), (2, 0), "G", 3, P_HALF_QUARTER, Mutation.LANDING_FACTOR)
def test_scaled_engine_matches_fraction_reference(x, y, kind, t, params, mutation):
    # both engines lump at their default boundaries, y_1 and x_1
    assert expect_forward(
        x, y, kind, t, params, mutation=mutation
    ) == oracle.oracle_t_step_expectation("forward", x, y, kind, t, params, mutation)
    assert expect_reversed(
        x, y, kind, t, params, mutation=mutation
    ) == oracle.oracle_t_step_expectation("reversed", x, y, kind, t, params, mutation)


@settings(max_examples=120)
@given(
    x=locations,
    y=dual_points,
    kind=kinds,
    t=st.integers(min_value=0, max_value=3),
    params=reference_params,
    slack=st.integers(min_value=1, max_value=3),
)
# widened past the whole start
@example((0, 1, 2), (2, 0), "G", 3, P_HALF_QUARTER, 2)
def test_enlarging_the_lump_boundary_changes_nothing(x, y, kind, t, params, slack):
    # lumping at y_1 (forward) or x_1 (reversed) loses nothing: the
    # reference gives the same value with either boundary widened by
    # ``slack``, and the engine matches the reference at the default
    # (above).  Only the clean dynamics lump exactly: a leaking mutation
    # loses mass that depends on which particles are resolved.
    for side, widened in (("forward", y[0] + slack), ("reversed", x[0] - slack if x else None)):
        assert oracle.oracle_t_step_expectation(
            side, x, y, kind, t, params
        ) == oracle.oracle_t_step_expectation(side, x, y, kind, t, params, None, widened)


@settings(max_examples=150)
@given(
    sites=st.lists(st.integers(min_value=-2, max_value=4), unique=True, max_size=3),
    t=st.integers(min_value=0, max_value=3),
    params=reference_params,
    mutation=mutations,
    reverse=st.booleans(),
    slack=st.integers(min_value=-1, max_value=2),
)
# a push trigger at t = 2 from two and three particles, site-dependent b2
@example([0, 1], 2, P_HALF_QUARTER, Mutation.PUSH_TRIGGER, False, 1)
@example([0, 1, 2], 2, cycled_inhom_params(-4, 8), Mutation.PUSH_TRIGGER, True, 0)
# the last particle starts lumped; the laws then mix lengths
@example([-1, 1, 4], 3, P_HALF_QUARTER, None, False, -1)
def test_evolve_law_matches_the_state_by_state_composition(
    sites, t, params, mutation, reverse, slack
):
    # the engine scans the whole law once per step; the oracle composes the
    # one-step law of each outcome on its own.  A slack of -1 puts the
    # boundary inside the start, which then starts partly lumped.
    step = -1 if reverse else +1
    start = tuple(sorted(sites, reverse=reverse))
    boundary = step * (max((step * p for p in start), default=0) + slack)
    kept = tuple(p for p in start if (p - boundary) * step <= 0)
    law = _evolve(kept, params, boundary, t, mutation, step)
    expected = oracle.oracle_t_step_law(kept, params, boundary, t, step, mutation)
    assert len(law.entries) == len(expected)
    assert {positions: Fraction(num, law.den) for positions, num in law.entries} == expected


def _mass(law):
    return sum(num for _, num in law.entries)


@settings(max_examples=60)
@given(
    sites=st.lists(
        st.integers(min_value=-2, max_value=4), unique=True, min_size=1, max_size=3
    ),
    t=st.integers(min_value=1, max_value=3),
    params=reference_params,
    reverse=st.booleans(),
    slack=st.integers(min_value=0, max_value=2),
)
def test_scaled_laws_keep_their_mass_in_lowest_terms(sites, t, params, reverse, slack):
    positions = tuple(sorted(sites, reverse=reverse))
    boundary = min(sites) - slack if reverse else max(sites) + slack
    direction = -1 if reverse else +1
    for law in (
        _step_distribution(positions, params, boundary, direction, None),
        _evolve(positions, params, boundary, t, None, direction),
    ):
        assert _mass(law) == law.den
        assert math.gcd(law.den, *(num for _, num in law.entries)) == 1
    leaky = (
        _step_distribution(positions, params, boundary, direction, Mutation.LANDING_FACTOR),
        _evolve(positions, params, boundary, t, Mutation.LANDING_FACTOR, direction),
    )
    for law in leaky:
        # a pushed particle with a neighbour ahead loses mass on its
        # gap-saturating jump; that needs three resolved particles
        if len(positions) >= 3:
            assert _mass(law) < law.den
        else:
            assert _mass(law) == law.den


def test_a_thousand_steps_compose_without_recursion():
    # one particle at 0 below the dual point 1: it must hold until some step
    # s, land on 1 with (1 - b1)(1 - b2), then hold t - s - 1 more times, so
    # E = q^(-1) * t (1 - b1)(1 - b2) b1^(t - 1)
    t = 1000
    expected = Fraction(1, 2) * t * Fraction(1, 2) * Fraction(3, 4) / 2 ** (t - 1)
    assert expect_forward((0,), (1,), "H", t, P_HALF_QUARTER) == expected
    assert expect_reversed((0,), (1,), "H", t, P_HALF_QUARTER) == expected


# --- exact engines: structure ----------------------------------------------------


@settings(max_examples=30)
@given(
    x=st.lists(
        st.integers(min_value=-1, max_value=3), unique=True, min_size=1, max_size=2
    ).map(lambda v: tuple(sorted(v))),
    y=st.lists(
        st.integers(min_value=-1, max_value=3), unique=True, min_size=1, max_size=2
    ).map(lambda v: tuple(sorted(v, reverse=True))),
    kind=kinds,
    params=param_choices,
)
def test_two_steps_compose_from_one(x, y, kind, params):
    # evolve one explicit step with the lumped law, then let the engine do
    # the second; particles lumped past y_1 can never touch the functional
    r = max(y[0], x[-1])
    total = Fraction(0)
    law = forward_step_distribution(x, params, r)
    for positions, num in law.entries:
        total += Fraction(num, law.den) * expect_forward(positions, y, kind, 1, params)
    assert expect_forward(x, y, kind, 2, params) == total


@settings(max_examples=30)
@given(
    x=st.lists(
        st.integers(min_value=-1, max_value=3), unique=True, min_size=1, max_size=2
    ).map(lambda v: tuple(sorted(v))),
    y=st.lists(
        st.integers(min_value=-1, max_value=3), unique=True, min_size=1, max_size=2
    ).map(lambda v: tuple(sorted(v, reverse=True))),
    kind=kinds,
    params=param_choices,
)
def test_two_reversed_steps_compose_from_one(x, y, kind, params):
    length = min(y[-1], x[0])
    total = Fraction(0)
    law = reversed_step_distribution(y, params, length)
    for positions, num in law.entries:
        if len(positions) < len(y) and kind == "H":
            continue  # dual points below x_1 stay there; H is dead
        total += Fraction(num, law.den) * expect_reversed(x, positions, kind, 1, params)
    assert expect_reversed(x, y, kind, 2, params) == total


def test_starts_that_differ_only_in_the_lump_share_one_evolve_entry():
    # at R = y_1 = 3 the particle at 5 starts lumped, and a lumped particle
    # is a factor 1 in every functional: x = (0, 5) evolves as x = (0,)
    for kind in ("H", "G", "D"):
        alone = expect_forward((0,), (3,), kind, 2, P_HALF_QUARTER)
        misses = _evolve.cache_info().misses
        assert expect_forward((0, 5), (3,), kind, 2, P_HALF_QUARTER) == alone
        assert _evolve.cache_info().misses == misses


def test_negative_horizons_are_rejected():
    with pytest.raises(ValueError):
        expect_forward((0,), (2,), "H", -1, P_HALF_QUARTER)
    with pytest.raises(ValueError):
        expect_reversed((0,), (2,), "H", -1, P_HALF_QUARTER)


def _table(side, pairs, horizons, params, mutation):
    """One side's table from :func:`expectation_table`, which builds both."""
    forward, reversed_ = expectation_table(pairs, horizons, params, mutation)
    return forward if side == "forward" else reversed_


# no dual points, no particles, or neither, on either side
EMPTY_PAIRS = [((0, 1), ()), ((-1, 2, 4), ()), ((), (1,)), ((), (2, 0)), ((), ())]


@pytest.mark.parametrize("mutation", [None, *Mutation])
@pytest.mark.parametrize("side", ["forward", "reversed"])
@pytest.mark.parametrize("params", [P_HALF_QUARTER, cycled_inhom_params(0, 6)])
def test_empty_configuration_conventions(side, mutation, params):
    # without dual points every kind is the empty product 1; without
    # particles H's occupied-site product dies and every height weight is
    # q^0 = 1, whatever moves, for how long and under which defect
    engine = expect_forward if side == "forward" else expect_reversed
    horizons = (0, 1, 3)
    table = _table(side, EMPTY_PAIRS, horizons, params, mutation)
    for t in horizons:
        for (x, y), values in zip(EMPTY_PAIRS, table[t]):
            empty_products = (1, 1, 1) if not y else (0, 1, 1)
            for kind, value, expected in zip(KINDS, values, empty_products):
                reference = oracle.oracle_t_step_expectation(side, x, y, kind, t, params, mutation)
                assert value == engine(x, y, kind, t, params, mutation) == reference == expected


# starts whose chains reach states no start holds, with nothing fixed on
# one side or the other, at unsorted, repeated horizons with t = 0
UNCOVERED_PAIRS = [((0, 1, 2, 3), (12, 8, 5)), ((1, 4), (6, 2)), ((), (3, 1)), ((2,), ())]


@pytest.mark.parametrize("mutation", [None, *Mutation])
@pytest.mark.parametrize("side", ["forward", "reversed"])
@pytest.mark.parametrize(
    "params",
    [P_HALF_QUARTER, STANDARD_PARAMS[1], cycled_inhom_params(0, 12)],
    ids=["q=2", "q=1/2", "palette"],
)
def test_a_table_reads_every_state_its_starts_reach(side, mutation, params):
    # each chain holds every state its starts reach, not only those within
    # some horizon's depth, so every value is the single expectation's
    engine = expect_forward if side == "forward" else expect_reversed
    horizons = (3, 0, 1, 3)
    table = _table(side, UNCOVERED_PAIRS, horizons, params, mutation)
    assert sorted(table) == [0, 1, 3]
    for t in horizons:
        for (x, y), values in zip(UNCOVERED_PAIRS, table[t]):
            assert values == tuple(engine(x, y, kind, t, params, mutation) for kind in KINDS)


@pytest.mark.parametrize(
    "params", [P_HALF_QUARTER, cycled_inhom_params(0, 12)], ids=["q=2", "palette"]
)
def test_both_tables_hold_one_fraction_per_value(params):
    # one memo serves both sides at every horizon: equal values are one
    # object, so a forward value equal to its reversed one is that object
    forward, reversed_ = expectation_table(UNCOVERED_PAIRS, (0, 1, 2), params)
    first_seen = {}
    for table in (forward, reversed_):
        for rows in table.values():
            for values in rows:
                for value in values:
                    assert first_seen.setdefault(value, value) is value
    for t, rows in forward.items():
        for lhs, rhs in zip(rows, reversed_[t]):
            assert [a is b for a, b in zip(lhs, rhs)] == [a == b for a, b in zip(lhs, rhs)]


def test_public_wrappers_require_dual_particles():
    assert exact_expectation_forward((0,), (1,), "H", 1, P_HALF_QUARTER) == Fraction(3, 16)
    assert exact_expectation_reversed((0,), (1,), "H", 1, P_HALF_QUARTER) == Fraction(3, 16)
    with pytest.raises(ValueError):
        exact_expectation_forward((0,), (), "H", 1, P_HALF_QUARTER)
    with pytest.raises(ValueError):
        exact_expectation_reversed((0,), (), "H", 1, P_HALF_QUARTER)


def test_expectation_result_json_shapes():
    mc = ExpectationResult(mean=0.25, stderr=0.01, n=100, seed=7)
    assert mc.to_json_obj() == {"mean": 0.25, "stderr": 0.01, "n": 100, "seed": 7}


# --- hold-filtered expectations ---------------------------------------------------


def _oracle_forward_held(x, y, kind, params):
    r = max(y[0], x[-1])
    zmax = max(r, x[-1])
    outcomes, tails = oracle.oracle_forward_outcomes(x, params, zmax)
    coarse = oracle.coarsen_to_boundary(outcomes, tails, r)
    total = Fraction(0)
    for (positions, _lumped), prob in coarse.items():
        if positions and positions[0] == x[0]:
            total += prob * oracle.oracle_functional(kind, positions, y, params.q)
    return total


@settings(max_examples=40)
@given(
    x=st.lists(
        st.integers(min_value=-2, max_value=4), unique=True, min_size=1, max_size=3
    ).map(lambda v: tuple(sorted(v))),
    y=dual_points,
    kind=kinds,
    params=param_choices,
)
def test_held_filter_matches_oracle(x, y, kind, params):
    assert expect_one_step_held(x, y, kind, params) == _oracle_forward_held(x, y, kind, params)


def test_held_filter_frozen_values():
    # holding at 0 leaves the dual point at 1 vacant: H contributes nothing
    assert expect_one_step_held((0,), (1,), "H", P_HALF_QUARTER) == 0
    # for G the hold keeps height 1 below the point: b1 * q^(-1)
    assert expect_one_step_held((0,), (1,), "G", P_HALF_QUARTER) == Fraction(1, 4)
    # no dual points at all: the filtered mass is just the hold probability
    assert expect_one_step_held((0, 2), (), "H", P_HALF_QUARTER) == Fraction(1, 2)
    with pytest.raises(ValueError):
        expect_one_step_held((), (1,), "H", P_HALF_QUARTER)


# --- mutation plumbing ------------------------------------------------------------


def test_inverted_q_mutation_flips_the_weight():
    clean = expect_forward((0,), (1,), "H", 1, P_HALF_QUARTER)
    hurt = expect_forward((0,), (1,), "H", 1, P_HALF_QUARTER, mutation=Mutation.INVERTED_Q)
    assert clean == Fraction(3, 16)
    assert hurt == Fraction(3, 4)  # the landing weight doubles instead of halving


# --- Monte Carlo ------------------------------------------------------------------


def test_mc_is_deterministic_in_the_seed():
    a = mc_expectation("forward", (0, 1), (1,), "H", 1, P_HALF_QUARTER, 500, seed=11)
    b = mc_expectation("forward", (0, 1), (1,), "H", 1, P_HALF_QUARTER, 500, seed=11)
    assert (a.mean, a.stderr, a.n, a.seed) == (b.mean, b.stderr, b.n, b.seed)
    c = mc_expectation("forward", (0, 1), (1,), "H", 1, P_HALF_QUARTER, 500, seed=12)
    assert c.mean != a.mean


@pytest.mark.parametrize(
    "side,x,y,kind,params,seed,mean,stderr",
    [
        ("forward", (0, 1, 3), (4, 2), "G", P_HALF_QUARTER, 31,
         0.081984375, 0.0011230537134867486),
        ("reversed", (0, 2, 3), (5, 3, 1), "D", cycled_inhom_params(0, 6), 37,
         1.296, 0.09629552644960773),
    ],
    ids=["forward-homogeneous", "reversed-site-dependent"],
)
def test_mc_golden_values(side, x, y, kind, params, seed, mean, stderr):
    # recorded from this estimator with oracle.oracle_sample_step, which
    # compares every draw with a Fraction, in place of the float-threshold
    # sampler: the package must reproduce them bit for bit
    res = mc_expectation(side, x, y, kind, 2, params, 2000, seed)
    assert (repr(res.mean), repr(res.stderr)) == (repr(mean), repr(stderr))


def test_mc_seeds_one_generator_per_call(monkeypatch):
    calls = []
    real = sixv.duality.trajectory_rng

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sixv.duality, "trajectory_rng", counted)
    mc_expectation("forward", (0, 2), (3, 1), "G", 2, P_HALF_QUARTER, 500, seed=9)
    assert calls == [(9,)]


def test_mc_time_zero_is_exact():
    res = mc_expectation("forward", (0, 2), (2, 0), "H", 0, P_HALF_QUARTER, 50, seed=3)
    assert res.mean == 0.125
    assert res.stderr == 0.0


@pytest.mark.parametrize(
    "side,x,y,kind,t",
    [
        ("forward", (0, 1), (1,), "H", 1),
        ("forward", (0, 2), (3, 1), "G", 2),
        ("reversed", (0, 1), (1,), "H", 1),
        ("reversed", (1, 3), (2, 0), "D", 2),
    ],
)
def test_mc_agrees_with_exact_within_four_sigma(side, x, y, kind, t):
    n = 20_000
    res = mc_expectation(side, x, y, kind, t, P_HALF_QUARTER, n, seed=2024)
    engine = expect_forward if side == "forward" else expect_reversed
    exact = float(engine(x, y, kind, t, P_HALF_QUARTER))
    band = max(4 * res.stderr, 1e-12)
    assert abs(res.mean - exact) <= band


def test_mc_input_validation():
    with pytest.raises(ValueError):
        mc_expectation("forward", (0,), (), "H", 1, P_HALF_QUARTER, 10, seed=1)
    with pytest.raises(ValueError):
        mc_expectation("forward", (0,), (1,), "H", 1, P_HALF_QUARTER, 0, seed=1)
    with pytest.raises(ValueError):
        mc_expectation("backward", (0,), (1,), "H", 1, P_HALF_QUARTER, 10, seed=1)
    with pytest.raises(ValueError, match="t must be >= 0"):
        mc_expectation("forward", (0,), (1,), "H", -3, P_HALF_QUARTER, 10, seed=1)
