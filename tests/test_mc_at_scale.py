"""Many-particle Monte Carlo against the exact value of the other side.

Twenty particles cannot be tracked exactly at t = 20, but the dual side
has only two moving points, so duality supplies the exact answer cheaply:
E_x[F(x(t), y)] = E_y[F(x, y(t))].  The mirror runs twenty moving dual
points against a two-particle forward side.  This is how Borodin, Corwin
and Gorin use duality ("Stochastic six-vertex model", arXiv:1407.6729).

Each fixture draws n = 4,000 trajectories from seed 1 and must land within
4 standard errors of the exact value.  The acceptance suite's criterion 7
keeps its own fixtures, n and limit.
"""

import pytest

from sixv.duality import MC_UPDATE_BUDGET, expect_forward, expect_reversed, mc_expectation
from sixv.model import STANDARD_PARAMS

N_SAMPLES = 4_000
SEED = 1
LIMIT = 4  # standard errors
T = 20
MANY = tuple(range(0, 40, 2))  # x = (0, 2, ..., 38)
MANY_DUAL = tuple(range(38, -1, -2))  # y = (38, 36, ..., 0)


@pytest.mark.parametrize(
    "side,x,y",
    [("forward", MANY, (30, 22)), ("reversed", (0, 3), MANY_DUAL)],
    ids=["forward-20-particles", "reversed-20-dual-points"],
)
@pytest.mark.parametrize("kind", ["G", "D"])
def test_many_particle_monte_carlo_matches_the_dual_exact_value(side, x, y, kind):
    params = STANDARD_PARAMS[0]
    res = mc_expectation(side, x, y, kind, T, params, N_SAMPLES, SEED)
    # the exact value comes from the side that does not move many points
    dual = expect_reversed if side == "forward" else expect_forward
    exact = float(dual(x, y, kind, T, params))
    assert exact > 0
    assert res.stderr > 0
    assert abs(res.mean - exact) <= LIMIT * res.stderr


def test_the_fixtures_sit_far_inside_the_monte_carlo_budget():
    # n * t * moving points of the largest fixture, against the refusal limit
    assert 10 * N_SAMPLES * T * len(MANY) <= MC_UPDATE_BUDGET
