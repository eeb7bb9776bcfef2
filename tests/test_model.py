from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sixv.model import (
    Params,
    VertexType,
    float_threshold,
    format_rational,
    parse_rational,
    validate_location,
    validate_reversed,
    vertex_weight,
)

probs = st.fractions(
    min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16
)


def params_strategy():
    return st.builds(lambda b1, b2: Params(q=b1 / b2, b2=b2), probs, probs)


# --- rationals ---------------------------------------------------------------


def test_parse_rational_basic():
    assert parse_rational("1/4") == Fraction(1, 4)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(" 2/8 ") == Fraction(1, 4)


@pytest.mark.parametrize("bad", ["0.25", "1e-3", "1/0", "one half"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_always_shows_denominator():
    assert format_rational(Fraction(1, 4)) == "1/4"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(0)) == "0/1"


def test_format_rational_prints_values_past_the_digit_limit():
    # 10**5000 + 1 has 5,001 digits, past the default int-to-str limit of 4,300
    expected = "1" + "0" * 4999 + "1" + "/3"
    assert format_rational(Fraction(10**5000 + 1, 3)) == expected
    assert format_rational(Fraction(-(10**5000) - 1, 3)) == "-" + expected


# --- Params ------------------------------------------------------------------


def test_params_b1_is_derived():
    p = Params.from_b1_b2("1/2", "1/4")
    assert p.q == 2
    assert p.b1 == Fraction(1, 2)
    assert p.b1_at(17) == Fraction(1, 2)
    assert p.is_homogeneous()


def test_params_rejects_out_of_range():
    with pytest.raises(ValueError):
        Params(q=Fraction(2), b2=Fraction(2, 3))  # b1 = 4/3 is not a probability
    with pytest.raises(ValueError):
        Params(q=Fraction(1, 2), b2=Fraction(0))
    with pytest.raises(ValueError):
        Params(q=Fraction(1, 2), b2=Fraction(1, 4), b2_sites=((0, Fraction(1)),))


def test_params_rejects_duplicate_site():
    with pytest.raises(ValueError):
        Params(
            q=Fraction(1, 2),
            b2=Fraction(1, 4),
            b2_sites=((0, Fraction(1, 3)), (0, Fraction(1, 2))),
        )


def test_params_rejects_bool_site_keys():
    # True is an int to isinstance, but it serializes as "True", which
    # from_json_obj cannot read back
    with pytest.raises(ValueError, match="must be ints"):
        Params(q=Fraction(1, 2), b2=Fraction(1, 4), b2_sites=((True, Fraction(1, 3)),))


def test_params_site_lookup():
    p = Params(
        q=Fraction(1, 2),
        b2=Fraction(1, 4),
        b2_sites=((0, Fraction(1, 3)), (2, Fraction(1, 2))),
    )
    assert p.b2_at(0) == Fraction(1, 3)
    assert p.b2_at(1) == Fraction(1, 4)
    assert p.b2_at(2) == Fraction(1, 2)
    assert p.b1_at(2) == Fraction(1, 4)
    assert not p.is_homogeneous()
    # overrides listed in another order name the same parameters
    twin = Params(q=p.q, b2=p.b2, b2_sites=tuple(reversed(p.b2_sites)))
    assert twin == p and hash(twin) == hash(p)
    assert {p: 1}[twin] == 1
    assert twin.b2_at(0) == Fraction(1, 3)
    # the sampler's thresholds, per override site and for the default
    assert p.hold_thresholds == (
        {0: float_threshold(Fraction(1, 6)), 2: float_threshold(Fraction(1, 4))},
        float_threshold(Fraction(1, 8)),
    )
    assert p.stop_thresholds == (
        {0: float_threshold(Fraction(2, 3)), 2: float_threshold(Fraction(1, 2))},
        float_threshold(Fraction(3, 4)),
    )


def test_params_json_round_trip():
    hom = Params.homogeneous("2", "1/4")
    assert hom.to_json_obj() == {"q": "2/1", "b2": "1/4"}
    assert Params.from_json_obj(hom.to_json_obj()) == hom

    inhom = Params(
        q=Fraction(1, 2), b2=Fraction(1, 4), b2_sites=((1, Fraction(1, 3)),)
    )
    obj = inhom.to_json_obj()
    assert obj["b2_sites"] == {"1": "1/3"}
    assert Params.from_json_obj(obj) == inhom


def test_params_json_is_a_fresh_object_each_call():
    # the rationals are formatted once per Params; the dicts are not shared
    hom = Params.homogeneous("2", "1/4")
    hom.to_json_obj()["q"] = "3/1"
    assert hom.to_json_obj() == {"q": "2/1", "b2": "1/4"}

    inhom = Params(
        q=Fraction(1, 2), b2=Fraction(1, 4), b2_sites=((1, Fraction(1, 3)),)
    )
    obj = inhom.to_json_obj()
    obj["b2_default"] = "1/5"
    obj["b2_sites"]["1"] = "1/2"
    obj["b2_sites"]["7"] = "1/7"
    assert inhom.to_json_obj() == {"q": "1/2", "b2_default": "1/4", "b2_sites": {"1": "1/3"}}


@pytest.mark.parametrize(
    "obj,field",
    [({"q": "1/2"}, "b2"), ({"b2": "1/4"}, "q"),
     ({"q": "1/2", "b2": "1/4", "b2_sites": {"0": "1/3"}}, "b2_default")],
)
def test_params_from_json_names_a_missing_field(obj, field):
    with pytest.raises(ValueError, match=f"missing the '{field}' field"):
        Params.from_json_obj(obj)


@pytest.mark.parametrize(
    "obj,field",
    [({"q": "1/2", "b2": "1/4", "b2_site": {"0": "1/3"}}, "b2_site"),
     ({"q": "1/2", "b2": "1/4", "b2_default": "1/3"}, "b2_default"),
     ({"q": "1/2", "b2_default": "1/4", "b2_sites": {"0": "1/3"}, "b2": "1/2"}, "b2")],
)
def test_params_from_json_names_an_unknown_field(obj, field):
    with pytest.raises(ValueError, match=f"unknown field '{field}'"):
        Params.from_json_obj(obj)


# --- sampler thresholds --------------------------------------------------------

GRID = 2**53  # random.random() returns k / GRID for an integer k in [0, GRID)


def assert_threshold_exact(p: Fraction) -> None:
    """k / GRID < T(p) agrees with k / GRID < p at the grid points around p."""
    threshold = float_threshold(p)
    floor = p.numerator * GRID // p.denominator
    ceil = -(-p.numerator * GRID // p.denominator)
    for k in (floor - 1, floor, ceil, ceil + 1):
        if 0 <= k < GRID:
            assert (k / GRID < threshold) == (Fraction(k, GRID) < p), (p, k)


@pytest.mark.parametrize(
    "p", [Fraction(1, 4), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3),
          Fraction(3, 4), Fraction(1, 997)],
)
def test_float_threshold_is_exact_at_the_grid_points(p):
    assert_threshold_exact(p)


@given(st.fractions(min_value=0, max_value=1).filter(lambda p: 0 < p < 1))
def test_float_threshold_is_exact_for_any_probability(p):
    assert_threshold_exact(p)


# --- configurations ----------------------------------------------------------


def test_validate_location_orders():
    assert validate_location((0, 2, 5)) == (0, 2, 5)
    assert validate_location(()) == ()
    with pytest.raises(ValueError):
        validate_location((2, 2))
    with pytest.raises(ValueError):
        validate_location((3, 1))


def test_validate_reversed_orders():
    assert validate_reversed((5, 2, 0)) == (5, 2, 0)
    with pytest.raises(ValueError):
        validate_reversed((0, 2))
    with pytest.raises(ValueError):
        validate_reversed((2, 2))


# --- vertex weights ----------------------------------------------------------


def test_vertex_weight_table():
    p = Params.from_b1_b2("1/2", "1/4")
    assert vertex_weight(VertexType.I, p) == 1
    assert vertex_weight(VertexType.II, p) == 1
    assert vertex_weight(VertexType.III, p) == Fraction(1, 4)
    assert vertex_weight(VertexType.IV, p) == Fraction(3, 4)
    assert vertex_weight(VertexType.V, p) == Fraction(1, 2)
    assert vertex_weight(VertexType.VI, p) == Fraction(1, 2)


def test_vertex_weight_site_indexed():
    p = Params(q=Fraction(1, 2), b2=Fraction(1, 4), b2_sites=((3, Fraction(1, 2)),))
    assert vertex_weight(VertexType.III, p, site=3) == Fraction(1, 2)
    assert vertex_weight(VertexType.V, p, site=3) == Fraction(1, 4)


@given(params_strategy(), st.integers(-5, 5))
def test_vertex_weight_pairs_sum_to_one(p, site):
    third = vertex_weight(VertexType.III, p, site)
    fourth = vertex_weight(VertexType.IV, p, site)
    fifth = vertex_weight(VertexType.V, p, site)
    sixth = vertex_weight(VertexType.VI, p, site)
    assert third + fourth == 1
    assert fifth + sixth == 1
