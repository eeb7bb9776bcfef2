"""Tests for the identity checkers and the exhaustive duality sweep."""

import copy
import json
import math
import pickle
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixv import duality, dynamics, verify
from sixv.duality import (
    KINDS,
    _evolve,
    _forward_entries,
    eval_functional,
    exact_expectation_forward,
    exact_expectation_reversed,
    mc_expectation,
)
from sixv.dynamics import (
    Mutation,
    _particle_moves,
    forward_step_distribution,
    one_particle_kernel,
    reversed_step_distribution,
)
from sixv.model import STANDARD_PARAMS, Params, cycled_inhom_params, vertex_weight
from sixv.verify import (
    CheckReport,
    SweepSpec,
    check_case_identities,
    check_duality,
    check_lemma_factorization,
    check_truncation_invariance,
    classify_case,
    iter_config_pairs,
    iter_sweep,
    run_sweep,
)

P_HALF_QUARTER = Params.from_b1_b2("1/2", "1/4")
INHOM = Params(
    q=Fraction(1, 2),
    b2=Fraction(1, 4),
    b2_sites=((0, Fraction(1, 4)), (1, Fraction(1, 2)), (2, Fraction(1, 3))),
)

small_x = st.lists(
    st.integers(min_value=0, max_value=4), unique=True, min_size=2, max_size=3
).map(lambda v: tuple(sorted(v)))
small_y = st.lists(
    st.integers(min_value=0, max_value=4), unique=True, min_size=1, max_size=2
).map(lambda v: tuple(sorted(v, reverse=True)))


# --- reports ---------------------------------------------------------------------


def _report(lhs, rhs):
    return CheckReport("duality", (0,), (0,), P_HALF_QUARTER, 1, "H", lhs, rhs)


def test_report_verdict_is_worked_out_from_the_values():
    assert _report(Fraction(1), Fraction(1)).verdict == "pass"
    assert _report(Fraction(1), Fraction(2)).verdict == "fail"
    assert _report(Fraction(0), Fraction(0)).verdict == "pass"


def test_a_skip_report_holds_no_values():
    report = _report(None, None)
    assert (report.lhs, report.rhs, report.verdict) == (None, None, "skip")
    # the verdict is not an argument, so no report with values can be a skip
    with pytest.raises(TypeError):
        CheckReport(
            "duality", (0,), (0,), P_HALF_QUARTER, 1, "H",
            Fraction(1), Fraction(2), verdict="skip",
        )


@pytest.mark.parametrize("lhs,rhs", [(Fraction(1), None), (None, Fraction(1))])
def test_a_report_with_one_side_none_is_rejected(lhs, rhs):
    with pytest.raises(ValueError, match="both sides or neither"):
        _report(lhs, rhs)


def test_a_report_cannot_be_changed():
    report = _report(Fraction(1), Fraction(1))
    for name, value in (("lhs", Fraction(2)), ("verdict", "fail"), ("note", "")):
        with pytest.raises(AttributeError):
            setattr(report, name, value)
    assert report == _report(Fraction(1), Fraction(1))
    assert report.verdict == "pass"


def test_reports_are_equal_by_value_whether_or_not_their_sides_are_one_object():
    shared = Fraction(3, 16)
    one = _report(shared, shared)
    two = _report(Fraction(3, 16), Fraction(6, 32))
    assert one.lhs is one.rhs and two.lhs is not two.rhs
    assert one == two and hash(one) == hash(two)
    assert one.verdict == two.verdict == "pass"


def test_every_way_to_make_a_report_works_out_its_verdict():
    passed = _report(Fraction(1), Fraction(1))
    assert passed._replace(rhs=Fraction(2)).verdict == "fail"
    assert passed._replace(lhs=None, rhs=None).verdict == "skip"
    assert passed._replace(case="at_first")[8:10] == ("pass", "at_first")
    with pytest.raises(TypeError, match="verdict"):
        passed._replace(verdict="fail")
    with pytest.raises(ValueError, match="both sides or neither"):
        passed._replace(lhs=None)
    # _make takes every field in order; its verdict must be the derived one
    fields = list(passed)
    assert CheckReport._make(fields) == passed
    fields[passed._fields.index("verdict")] = "fail"
    with pytest.raises(ValueError, match="verdict is 'pass'"):
        CheckReport._make(fields)
    # a missing field is not filled in with its default
    with pytest.raises(ValueError, match="not a report's fields"):
        CheckReport._make(list(passed)[:-1])
    with pytest.raises(TypeError):
        CheckReport._make([*passed, ""])
    failed = _report(Fraction(1), Fraction(2))
    copies = [copy.copy(failed), copy.deepcopy(failed), pickle.loads(pickle.dumps(failed))]
    if hasattr(copy, "replace"):  # Python 3.13 and later
        copies.append(copy.replace(passed, rhs=Fraction(2)))
    for made in copies:
        assert type(made) is CheckReport
        assert made == failed and made.verdict == "fail"


def test_report_json_shape():
    report = check_duality((0,), (0,), "H", 1, P_HALF_QUARTER)
    assert report.to_json_obj() == {
        "identity": "duality",
        "x": [0],
        "y": [0],
        "params": {"q": "2/1", "b2": "1/4"},
        "t": 1,
        "kind": "H",
        "lhs": "1/4",
        "rhs": "1/4",
        "verdict": "pass",
        "case": None,
        "detail": "",
    }


# Values whose digits are known without str(int): past the 4,300-digit limit
# on int-to-str conversion, as at t = 1500 in test_cli.py.
SEVENS = Fraction(7 * (10**4400 - 1) // 9, 10**4400)
SEVENS_TEXT = "7" * 4400 + "/1" + "0" * 4400


def _report_and_dict(name):
    """A report and the dict json.dumps should print it as, assembled here."""
    hom = {"q": "2/1", "b2": "1/4"}
    fields = ("identity", "x", "y", "params", "t", "kind", "lhs", "rhs", "verdict",
              "case", "detail")
    if name == "pass":
        report = check_duality((0, 2), (3, 1), "G", 2, P_HALF_QUARTER)
        value = f"{report.lhs.numerator}/{report.lhs.denominator}"
        row = ("duality", [0, 2], [3, 1], hom, 2, "G", value, value, "pass", "separated", "")
    elif name == "fail":
        report = CheckReport(
            "duality", (0, 1, 4), (4,), P_HALF_QUARTER, 1, "D",
            Fraction(-3, 8), Fraction(1, 2), "at_third_or_later",
        )
        row = ("duality", [0, 1, 4], [4], hom, 1, "D", "-3/8", "1/2", "fail",
               "at_third_or_later", "")
    elif name == "skip":
        report = check_lemma_factorization((0, 1), (1,), P_HALF_QUARTER)[1]
        row = ("hold_factorization_pinned", [0, 1], [1], hom, 1, "H", None, None, "skip",
               "at_second", "needs x_1 = y_k")
    elif name == "empty_x":
        report = check_duality((), (1, 0), "D", 1, P_HALF_QUARTER)
        row = ("duality", [], [1, 0], hom, 1, "D", "1/1", "1/1", "pass", None, "")
    elif name == "by_site":
        report = check_duality((0,), (1,), "H", 1, INHOM)
        lhs, rhs = (f"{v.numerator}/{v.denominator}" for v in (report.lhs, report.rhs))
        by_site = {"q": "1/2", "b2_default": "1/4",
                   "b2_sites": {"0": "1/4", "1": "1/2", "2": "1/3"}}
        row = ("duality", [0], [1], by_site, 1, "H", lhs, rhs, report.verdict, None, "")
    elif name == "truncation":
        report = check_truncation_invariance((0, 2), (3, 1), (5, 7), "H", P_HALF_QUARTER)[1]
        lhs = f"{report.lhs.numerator}/{report.lhs.denominator}"
        row = ("truncation_invariance_reversed", [0, 2, 5, 7], [3, 1], hom, 1, "H", lhs, lhs,
               "pass", None, "")
    elif name == "escaped_detail":
        detail = 'say "why" \\ for ℓ ≥ 2\n'
        report = CheckReport(
            "case_identities", (0,), (1,), P_HALF_QUARTER, 1, None, None, None, None,
            detail,
        )
        row = ("case_identities", [0], [1], hom, 1, None, None, None, "skip", None, detail)
    else:  # past the digit limit on both sides
        report = CheckReport(
            "duality", (0,), (1,), P_HALF_QUARTER, 1500, "H", SEVENS, 1 - SEVENS
        )
        twos = "2" * 4399 + "3/1" + "0" * 4400
        row = ("duality", [0], [1], hom, 1500, "H", SEVENS_TEXT, twos, "fail", None, "")
    return report, dict(zip(fields, row))


@pytest.mark.parametrize(
    "name",
    ["pass", "fail", "skip", "empty_x", "by_site", "truncation", "escaped_detail",
     "past_digit_limit"],
)
def test_report_line_is_what_json_dumps_prints(name):
    report, expected = _report_and_dict(name)
    assert report.to_json_line() == json.dumps(expected)
    assert report.to_json_obj() == expected


# --- classification ---------------------------------------------------------------


@pytest.mark.parametrize(
    "x,y,label",
    [
        ((1, 3), (4, 1), "at_first"),
        ((0, 1), (1,), "at_second"),
        ((0, 1, 3), (3,), "at_third_or_later"),
        ((0, 3), (4, 1), "separated"),
        ((1, 3), (4, 0), "separated"),
        ((0, 1), (3,), "above_second"),
        ((0, 1, 2), (5, 4), "above_second"),
    ],
)
def test_classification_examples(x, y, label):
    assert classify_case(x, y) == label


def test_classification_needs_two_particles_and_a_dual_point():
    with pytest.raises(ValueError):
        classify_case((0,), (1,))
    with pytest.raises(ValueError):
        classify_case((0, 1), ())


@given(x=small_x, y=small_y)
def test_classification_is_total_and_exclusive(x, y):
    label = classify_case(x, y)
    yk = y[-1]
    if yk == x[0]:
        assert label == "at_first"
    elif yk == x[1]:
        assert label == "at_second"
    elif yk in x[2:]:
        assert label == "at_third_or_later"
    elif yk < x[1]:
        assert label == "separated"
    else:
        assert label == "above_second"


# --- duality ----------------------------------------------------------------------


def test_duality_for_an_unreachable_pair_of_dual_points():
    report = check_duality((0,), (2, 0), "H", 1, P_HALF_QUARTER)
    assert report.verdict == "pass"
    assert report.lhs == report.rhs == 0


def test_duality_attaches_the_case_label():
    report = check_duality((0, 1), (1,), "G", 1, P_HALF_QUARTER)
    assert report.verdict == "pass"
    assert report.lhs == Fraction(7, 16)
    assert report.case == "at_second"


def test_duality_fails_for_site_dependent_parameters():
    report = check_duality((0,), (1,), "H", 1, INHOM)
    assert report.verdict == "fail"
    assert (report.lhs, report.rhs) == (Fraction(7, 8), Fraction(9, 8))


# --- truncation invariance ---------------------------------------------------------


def test_extra_particles_right_of_the_top_dual_point_are_invisible():
    reports = check_truncation_invariance((0, 1), (2, 0), (3, 5), "H", P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "truncation_invariance_forward",
        "truncation_invariance_reversed",
    ]
    for report in reports:
        assert report.verdict == "pass"
        assert report.x == (0, 1, 3, 5)


@settings(max_examples=40)
@given(
    x=st.lists(
        st.integers(min_value=0, max_value=3), unique=True, max_size=2
    ).map(lambda v: tuple(sorted(v))),
    y=small_y,
    extras=st.lists(
        st.integers(min_value=5, max_value=9), unique=True, min_size=1, max_size=2
    ),
    kind=st.sampled_from(("H", "G", "D")),
    params=st.sampled_from(STANDARD_PARAMS),
)
def test_truncation_invariance_property(x, y, extras, kind, params):
    reports = check_truncation_invariance(x, y, extras, kind, params)
    assert [r.verdict for r in reports] == ["pass", "pass"]


def test_truncation_rejects_extras_at_or_below_the_top_dual_point():
    with pytest.raises(ValueError):
        check_truncation_invariance((0,), (2, 0), (2,), "H", P_HALF_QUARTER)
    with pytest.raises(ValueError):
        check_truncation_invariance((0, 4), (2, 0), (4,), "H", P_HALF_QUARTER)
    with pytest.raises(ValueError):
        check_truncation_invariance((0,), (), (3,), "H", P_HALF_QUARTER)


# --- hold factorization -------------------------------------------------------------


def test_factorization_below_the_lowest_dual_point():
    free, pinned = check_lemma_factorization((0, 2), (3,), P_HALF_QUARTER)
    assert free.identity == "hold_factorization"
    assert free.verdict == "pass"
    assert free.lhs == Fraction(3, 64)
    assert pinned.verdict == "skip"


def test_factorization_with_the_first_particle_pinned():
    free, pinned = check_lemma_factorization((0, 2), (3, 0), P_HALF_QUARTER)
    assert free.verdict == "skip"
    assert pinned.identity == "hold_factorization_pinned"
    assert pinned.verdict == "pass"
    assert pinned.lhs == Fraction(3, 128)


def test_factorization_when_the_functional_is_unreachable():
    free, pinned = check_lemma_factorization((0, 2), (3, 1), P_HALF_QUARTER)
    assert free.verdict == "pass"
    assert free.lhs == free.rhs == 0
    assert pinned.verdict == "skip"


def test_factorization_survives_site_dependent_parameters():
    free, pinned = check_lemma_factorization((1, 3), (4, 1), INHOM)
    assert pinned.verdict == "pass"
    assert pinned.lhs == Fraction(21, 16)


def test_factorization_preconditions():
    with pytest.raises(ValueError):
        check_lemma_factorization((2, 3), (1,), P_HALF_QUARTER)
    with pytest.raises(ValueError):
        check_lemma_factorization((), (1,), P_HALF_QUARTER)
    with pytest.raises(ValueError):
        check_lemma_factorization((0,), (), P_HALF_QUARTER)


@settings(max_examples=40)
@given(
    x=st.lists(
        st.integers(min_value=0, max_value=4), unique=True, min_size=1, max_size=3
    ).map(lambda v: tuple(sorted(v))),
    y=small_y,
    params=st.sampled_from(STANDARD_PARAMS),
)
def test_factorization_property(x, y, params):
    if x[0] > y[-1]:
        with pytest.raises(ValueError):
            check_lemma_factorization(x, y, params)
        return
    reports = check_lemma_factorization(x, y, params)
    verdicts = sorted(r.verdict for r in reports)
    assert verdicts == ["pass", "skip"]


# --- case identities ----------------------------------------------------------------


def test_single_particle_instances_are_skipped():
    (report,) = check_case_identities((0,), (2, 0), P_HALF_QUARTER)
    assert report.verdict == "skip"
    assert "fewer_than_two_particles" in report.detail


def test_separated_case_splits_into_a_product():
    reports = check_case_identities((0, 3), (4, 1), P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "separated_split_forward",
        "separated_split_reversed",
    ]
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].lhs == Fraction(9, 512)
    assert reports[1].lhs == Fraction(9, 512)


def test_first_site_case_peels_a_scalar():
    reports = check_case_identities((1, 3), (4, 1), P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "first_site_peel_forward",
        "first_site_peel_reversed",
    ]
    assert all(r.verdict == "pass" for r in reports)


def test_second_site_case_three_way_combination():
    reports = check_case_identities((0, 1), (1,), P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "second_site_split_forward",
        "second_site_split_reversed",
        "second_site_link",
    ]
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].lhs == Fraction(5, 16)
    assert reports[1].lhs == Fraction(5, 16)
    assert reports[2].lhs == Fraction(1, 4)


def test_second_site_case_with_a_spectator():
    reports = check_case_identities((0, 1, 4), (5, 1), P_HALF_QUARTER)
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].lhs == Fraction(63, 4096)
    assert reports[2].lhs == Fraction(3, 128)


def test_above_second_case():
    reports = check_case_identities((0, 1), (3,), P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "above_second_split_forward",
        "above_second_split_reversed",
    ]
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].lhs == Fraction(9, 256)
    assert reports[1].lhs == Fraction(9, 256)


def test_third_or_later_case_takes_the_above_second_split():
    reports = check_case_identities((0, 1, 3), (3,), P_HALF_QUARTER)
    assert [r.identity for r in reports] == [
        "above_second_split_forward",
        "above_second_split_reversed",
    ]
    assert all(r.case == "at_third_or_later" for r in reports)
    assert all(r.verdict == "pass" for r in reports)
    assert reports[0].lhs == Fraction(25, 256)
    assert reports[1].lhs == Fraction(25, 256)


def test_site_dependent_parameters_split_by_case():
    # the first two cases keep exact identities; the rest have no
    # factorable coefficients and must skip, never fail silently
    assert all(
        r.verdict == "pass" for r in check_case_identities((0, 3), (4, 1), INHOM)
    )
    assert all(
        r.verdict == "pass" for r in check_case_identities((1, 3), (4, 1), INHOM)
    )
    (skip_b,) = check_case_identities((0, 1, 4), (5, 1), INHOM)
    assert skip_b.verdict == "skip" and "at_second" in skip_b.detail
    (skip_c,) = check_case_identities((0, 1), (3,), INHOM)
    assert skip_c.verdict == "skip" and "above_second" in skip_c.detail
    (skip_d,) = check_case_identities((0, 1, 3), (3,), INHOM)
    assert skip_d.verdict == "skip" and "at_third_or_later" in skip_d.detail


@settings(max_examples=60)
@given(x=small_x, y=small_y, params=st.sampled_from(STANDARD_PARAMS))
def test_case_identities_hold_everywhere(x, y, params):
    label = classify_case(x, y)
    for report in check_case_identities(x, y, params):
        assert report.verdict == "pass", report.to_json_obj()
        assert report.case == label


# --- sweeps -------------------------------------------------------------------------


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(max_ell=2, max_k=0, window=(0, 3), params_list=(P_HALF_QUARTER,))
    with pytest.raises(ValueError):
        SweepSpec(max_ell=0, max_k=1, window=(0, 3), params_list=(P_HALF_QUARTER,))
    with pytest.raises(ValueError):
        SweepSpec(max_ell=2, max_k=1, window=(3, 0), params_list=(P_HALF_QUARTER,))
    with pytest.raises(ValueError):
        SweepSpec(max_ell=2, max_k=1, window=(0, 3), params_list=())
    with pytest.raises(ValueError):
        SweepSpec(
            max_ell=2, max_k=1, window=(0, 3), params_list=(P_HALF_QUARTER,),
            kinds=("Z",),
        )
    with pytest.raises(ValueError, match="kinds must be nonempty"):
        SweepSpec(max_ell=2, max_k=1, window=(0, 3), params_list=(P_HALF_QUARTER,), kinds=())


@pytest.mark.parametrize("sites", [1, 2, 3])
def test_sweep_spec_rejects_exactly_the_domains_without_a_pair(sites):
    for max_ell in range(0, 4):
        for max_k in range(1, 4):
            domain = SimpleNamespace(max_ell=max_ell, max_k=max_k, window=(2, 1 + sites))
            if any(iter_config_pairs(domain)):
                SweepSpec(max_ell, max_k, domain.window, params_list=(P_HALF_QUARTER,))
            else:
                with pytest.raises(ValueError, match="no \\(x, y\\) pair"):
                    SweepSpec(max_ell, max_k, domain.window, params_list=(P_HALF_QUARTER,))


def test_sweep_spec_json_round_trip():
    spec = SweepSpec(
        max_ell=2,
        max_k=2,
        window=(0, 3),
        t_range=(1, 2),
        params_list=(P_HALF_QUARTER, INHOM),
        kinds=("H", "G"),
    )
    assert SweepSpec.from_json_obj(spec.to_json_obj()) == spec


def test_config_enumeration_is_deterministic():
    spec = SweepSpec(
        max_ell=2, max_k=1, window=(0, 2), params_list=(P_HALF_QUARTER,)
    )
    pairs = list(iter_config_pairs(spec))
    assert len(pairs) == 18  # 1 + 2 particle configs pair with every point
    assert pairs[0] == ((0,), (0,))
    assert pairs == list(iter_config_pairs(spec))


def test_small_sweep_passes_and_counts_consistently():
    spec = SweepSpec(
        max_ell=2, max_k=2, window=(0, 3), t_range=(1,),
        params_list=(P_HALF_QUARTER,), kinds=("H",),
    )
    result = run_sweep(spec)
    summary = result.summary()
    assert summary["total"] == 106
    assert summary["passed"] == 106
    assert summary["failed"] == 0
    assert summary["elapsed_ms"] >= 0
    assert result.failures == []


def test_sweep_reports_follow_the_canonical_order():
    spec = SweepSpec(
        max_ell=2, max_k=2, window=(0, 3), t_range=(1, 2),
        params_list=(P_HALF_QUARTER,), kinds=("H", "G"),
    )
    result = run_sweep(spec)
    expected = [
        (params, kind, t, x, y)
        for params in spec.params_list
        for kind in spec.kinds
        for t in spec.t_range
        for x, y in iter_config_pairs(spec)
    ]
    assert [(r.params, r.kind, r.t, r.x, r.y) for r in result.reports] == expected


@pytest.mark.parametrize("mutation", [None, *Mutation])
@pytest.mark.parametrize("params", [P_HALF_QUARTER, INHOM], ids=["homogeneous", "by_site"])
def test_sweep_reports_equal_the_per_instance_checks(params, mutation):
    # t unsorted, repeated and 0; kinds out of KINDS order; x = () occurs
    spec = SweepSpec(
        max_ell=2, max_k=2, window=(0, 3), t_range=(2, 0, 1, 2),
        params_list=(params,), kinds=("D", "H"),
    )
    pairs = list(iter_config_pairs(spec))
    assert ((), (1, 0)) in pairs
    # reversed, with x_1 = 2 both y fold to (3,); the lumped point of the
    # longer one kills H, so the tables must not share their contraction
    short, long = ((2,), (3,)), ((2,), (3, 0))
    assert short in pairs and long in pairs
    assert check_duality(*long, "H", 1, params).rhs == 0
    assert check_duality(*short, "H", 1, params).rhs != 0
    expected = [
        check_duality(x, y, kind, t, params, mutation).to_json_obj()
        for kind in spec.kinds
        for t in spec.t_range
        for x, y in pairs
    ]
    assert [r.to_json_obj() for r in run_sweep(spec, mutation).reports] == expected


def test_sweep_yields_reports_before_the_next_parameter_set_is_built(monkeypatch):
    calls = []
    original = verify.expectation_table

    def counting_table(pairs, horizons, params, *args):
        calls.append(params)
        return original(pairs, horizons, params, *args)

    monkeypatch.setattr(verify, "expectation_table", counting_table)
    spec = SweepSpec(
        max_ell=1, max_k=1, window=(0, 2), params_list=(P_HALF_QUARTER, INHOM)
    )
    reports = iter_sweep(spec)
    first = next(reports)
    assert (first.params, calls) == (P_HALF_QUARTER, [P_HALF_QUARTER])
    rest = list(reports)
    assert calls == [P_HALF_QUARTER, INHOM]
    assert [first, *rest] == run_sweep(spec).reports


@pytest.mark.parametrize(
    "params,kinds",
    [(P_HALF_QUARTER, ("H", "G", "D")), (cycled_inhom_params(0, 4), ("D",))],
    ids=["homogeneous", "palette"],
)
def test_a_clean_sweep_decides_every_pass_by_identity(monkeypatch, params, kinds):
    # both sides' tables share one Fraction per value, so a passing report's
    # sides are one object and no rationals are compared; a defect makes
    # sides that are two objects, and those are compared and fail
    comparisons = []
    original = Fraction.__eq__

    def counting_eq(a, b):
        comparisons.append((a, b))
        return original(a, b)

    # an equal Params from an earlier test, held as a cache key, would be
    # compared field by field on every lookup: start the caches empty
    for cache in (_evolve, _forward_entries, _particle_moves, vertex_weight):
        cache.cache_clear()
    monkeypatch.setattr(Fraction, "__eq__", counting_eq)
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 4), t_range=(1, 2),
        params_list=(params,), kinds=kinds,
    )
    clean = run_sweep(spec)
    assert (clean.summary()["failed"], len(comparisons)) == (0, 0)
    assert all(r.lhs is r.rhs for r in clean.reports)
    broken = run_sweep(spec, Mutation.LANDING_FACTOR)
    assert broken.summary()["failed"] > 0
    assert len(comparisons) >= broken.summary()["failed"]


def test_a_sweep_scans_each_step_of_a_law_once(monkeypatch):
    # adding t = 1 to a t = 2 sweep costs no scans, and neither does a
    # longer horizon: each chain state's row is scanned once
    scans = []
    original = duality._scan

    def counting_scan(*args):
        scans.append(args)
        return original(*args)

    monkeypatch.setattr(duality, "_scan", counting_scan)
    monkeypatch.setattr(dynamics, "_scan", counting_scan)

    def scans_of(t_range):
        for cache in (_evolve, _forward_entries, _particle_moves):
            cache.cache_clear()
        scans.clear()
        run_sweep(SweepSpec(
            max_ell=2, max_k=2, window=(0, 3), t_range=t_range,
            params_list=(P_HALF_QUARTER,), kinds=("H", "G", "D"),
        ))
        return len(scans)

    both, last = scans_of((1, 2)), scans_of((2,))
    assert 0 < both <= last
    assert scans_of((1, 2, 6)) == scans_of((1,))


@pytest.mark.parametrize("mutation", list(Mutation))
def test_each_seeded_defect_is_caught(mutation):
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 4), t_range=(1,),
        params_list=(P_HALF_QUARTER,), kinds=("H",),
    )
    result = run_sweep(spec, mutation=mutation)
    assert result.summary()["failed"] > 0


def test_site_dependent_sweep_reports_failures_with_a_witness():
    spec = SweepSpec(
        max_ell=2, max_k=1, window=(0, 2), t_range=(1,),
        params_list=(INHOM,), kinds=("H",),
    )
    result = run_sweep(spec)
    assert result.summary()["failed"] > 0
    witness = result.failures[0]
    assert witness.verdict == "fail"
    assert witness.lhs != witness.rhs


def test_d_stays_dual_under_site_dependent_b2_and_each_defect_breaks_it():
    # the palette 1/4, 1/3, 1/2 cycled over 0:6 with q = 1/2: H and G fail
    # there, D does not.  ℓ = 3 is needed: with ℓ ≤ 2, LANDING_FACTOR
    # leaves D intact on this palette
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 6), t_range=(1, 2),
        params_list=(cycled_inhom_params(0, 6),), kinds=("H", "G", "D"),
    )

    def failed(mutation):
        counts = dict.fromkeys(spec.kinds, 0)
        for report in run_sweep(spec, mutation).failures:
            counts[report.kind] += 1
        return counts

    clean = failed(None)
    assert clean["H"] > 0 and clean["G"] > 0
    assert clean["D"] == 0
    for mutation in Mutation:
        assert failed(mutation)["D"] > 0, mutation

    # the one-step closed forms at ℓ = k = 1 that prove it there (README,
    # "Site-dependent weights"): with Π the product of b2 strictly between x
    # and y, D's value at x < y is symmetric in b2(x) and b2(y), and H's two
    # sides differ by a multiple of b2(y) - b2(x)
    (params,) = spec.params_list
    q = params.q
    for x in range(0, 7):
        for y in range(0, 7):
            bx, by = params.b2_at(x), params.b2_at(y)
            if x < y:
                gap = math.prod((params.b2_at(s) for s in range(x + 1, y)), start=Fraction(1))
                d = 1 / q - gap * (1 / q - bx - by + q * bx * by)
                h_excess = gap * (q - 1) * (by - bx) / q
            else:
                d = 1 - q * bx if x == y else Fraction(1)
                h_excess = 0
            for engine in (exact_expectation_forward, exact_expectation_reversed):
                assert engine((x,), (y,), "D", 1, params) == d, (engine, x, y)
            h_forward = exact_expectation_forward((x,), (y,), "H", 1, params)
            assert h_forward - exact_expectation_reversed((x,), (y,), "H", 1, params) == h_excess


def test_site_dependent_census_and_smallest_witness():
    # the README's census of the palette cycled over 0:6 with q = 1/2, read
    # off the report stream: H and G fail, D never does
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 6), t_range=(1, 2),
        params_list=(cycled_inhom_params(0, 6),), kinds=KINDS,
    )
    reports, failures = Counter(), []
    for report in iter_sweep(spec):
        reports[report.kind] += 1
        if report.verdict == "fail":
            failures.append(report)
    assert reports == dict.fromkeys(KINDS, 3570)
    assert Counter(r.kind for r in failures) == {"H": 1580, "G": 2694}
    # the smallest witness: fewest points, then fewest particles, then x and y
    witness = min(failures, key=lambda r: (
        len(r.x) + len(r.y), len(r.x), r.x, r.y, KINDS.index(r.kind), r.t,
    ))
    assert (witness.kind, witness.t, witness.x, witness.y) == ("H", 1, (0,), (1,))
    assert (witness.lhs, witness.rhs) == (Fraction(7, 6), Fraction(5, 4))


def transposed_column_sum(params: Params, y: int, depth: int = 12) -> Fraction:
    """Exact sum over all x <= y of the one-particle forward law p(x -> y).

    Below the override window the summands shrink by exactly the default
    pass weight per site, so the infinite left tail is a geometric series.
    """
    floor = min(min((site for site, _ in params.b2_sites), default=y), y) - depth
    total = sum((one_particle_kernel(x, y, params) for x in range(floor, y + 1)), Fraction(0))
    return total + one_particle_kernel(floor, y, params) * params.b2 / (1 - params.b2)


@pytest.mark.parametrize(
    "params,sums",
    [(params, [1] * 7) for params in STANDARD_PARAMS]
    + [(cycled_inhom_params(0, 6), [
        Fraction(1), Fraction(17, 18), Fraction(31, 36), Fraction(55, 48),
        Fraction(211, 216), Fraction(751, 864), Fraction(1327, 1152),
    ])],
    ids=["std0", "std1", "std2", "palette"],
)
def test_transposed_columns_sum_to_one_only_without_site_dependence(params, sums):
    # why H and G cannot be dual on the palette: the reversal would have to
    # transpose the forward one-step law, and there its columns stop being
    # stochastic
    assert [transposed_column_sum(params, y) for y in range(0, 7)] == sums


def test_the_standard_spec_file_is_the_standard_battery():
    # specs/standard.json is `sixv sweep --spec`'s standard battery; the
    # presets it spells out stay defined once, in STANDARD_PARAMS and KINDS
    spec = SweepSpec(
        max_ell=3, max_k=2, window=(0, 6), t_range=(1, 2),
        params_list=STANDARD_PARAMS, kinds=KINDS,
    )
    path = Path(__file__).resolve().parent.parent / "specs" / "standard.json"
    obj = json.loads(path.read_text(encoding="utf-8"))
    assert SweepSpec.from_json_obj(obj) == spec
    assert spec.to_json_obj() == obj
    pairs = sum(1 for _ in iter_config_pairs(spec))
    assert pairs * len(spec.t_range) * len(spec.kinds) * len(spec.params_list) == 32130


# --- input validation at the public entry points -------------------------------------

GOOD_X, GOOD_Y = (0, 2, 3), (3, 1)
BAD = {
    "x": {"unsorted": (2, 0, 3), "repeated": (0, 0, 3), "bool": (0, True, 3)},
    "y": {"unsorted": (1, 3), "repeated": (3, 3), "bool": (3, True)},
}
# name -> (call on (x, y), the configurations it reads)
ENTRY_POINTS = {
    "check_duality": (lambda x, y: check_duality(x, y, "H", 1, P_HALF_QUARTER), "xy"),
    "eval_functional": (lambda x, y: eval_functional("H", x, y, Fraction(2)), "xy"),
    "exact_expectation_forward": (
        lambda x, y: exact_expectation_forward(x, y, "H", 1, P_HALF_QUARTER), "xy"
    ),
    "exact_expectation_reversed": (
        lambda x, y: exact_expectation_reversed(x, y, "H", 1, P_HALF_QUARTER), "xy"
    ),
    "mc_expectation": (
        lambda x, y: mc_expectation("forward", x, y, "H", 1, P_HALF_QUARTER, 1, 1), "xy"
    ),
    "check_truncation_invariance": (
        lambda x, y: check_truncation_invariance(x, y, (5,), "H", P_HALF_QUARTER), "xy"
    ),
    "check_lemma_factorization": (
        lambda x, y: check_lemma_factorization(x, y, P_HALF_QUARTER), "xy"
    ),
    "check_case_identities": (
        lambda x, y: check_case_identities(x, y, P_HALF_QUARTER), "xy"
    ),
    "classify_case": (classify_case, "xy"),
    "forward_step_distribution": (
        lambda x, y: forward_step_distribution(x, P_HALF_QUARTER, 3), "x"
    ),
    "reversed_step_distribution": (
        lambda x, y: reversed_step_distribution(y, P_HALF_QUARTER, 1), "y"
    ),
}


@pytest.mark.parametrize(
    "entry,side,defect",
    [
        (entry, side, defect)
        for entry, (_, sides) in ENTRY_POINTS.items()
        for side in sides
        for defect in ("unsorted", "repeated", "bool")
    ],
)
def test_public_entry_points_reject_malformed_configurations(entry, side, defect):
    # the engines behind these entry points no longer check their input
    call, _ = ENTRY_POINTS[entry]
    call(GOOD_X, GOOD_Y)
    x = BAD["x"][defect] if side == "x" else GOOD_X
    y = BAD["y"][defect] if side == "y" else GOOD_Y
    with pytest.raises(ValueError, match="strictly (in|de)creasing|must be ints"):
        call(x, y)


def test_inverted_q_reuses_the_clean_laws():
    # INVERTED_Q changes only the q of the contraction, so a run of it after
    # a clean run of the same instances, by the sweep's tables or one check
    # at a time, builds no move list, step law or t-step law
    spec = SweepSpec(
        max_ell=2, max_k=2, window=(0, 3), t_range=(1, 2),
        params_list=(P_HALF_QUARTER,), kinds=("H", "G", "D"),
    )
    caches = (_evolve, _forward_entries, _particle_moves)
    checks = [(x, y, t) for x, y in iter_config_pairs(spec) for t in spec.t_range]
    clean = run_sweep(spec)
    for x, y, t in checks:
        check_duality(x, y, "G", t, P_HALF_QUARTER)
    misses = [cache.cache_info().misses for cache in caches]
    inverted = run_sweep(spec, mutation=Mutation.INVERTED_Q)
    for x, y, t in checks:
        check_duality(x, y, "G", t, P_HALF_QUARTER, Mutation.INVERTED_Q)
    assert [cache.cache_info().misses for cache in caches] == misses
    assert not clean.failures
    assert inverted.failures
