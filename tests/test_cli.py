"""End-to-end tests of the command line interface (driven through main)."""

import json
from fractions import Fraction

import pytest

import sixv
from sixv.cli import MUTATIONS, main
from sixv.duality import mc_expectation
from sixv.model import Params
from sixv.verify import SweepSpec, check_duality, iter_config_pairs, run_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- check -----------------------------------------------------------------------


def test_check_single_particle_pair(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--x", "0", "--y", "0",
        "--q", "2", "--b2", "1/4", "--kind", "H", "--t", "1",
    )
    assert code == 0
    (report,) = [json.loads(line) for line in out.splitlines()]
    assert report["verdict"] == "pass"
    assert report["lhs"] == "1/4"
    assert report["rhs"] == "1/4"


def test_check_empty_forward_configuration(capsys):
    code, out, _ = run_cli(capsys, "check", "--x", "", "--y", "0", "--kind", "H")
    assert code == 0
    (report,) = [json.loads(line) for line in out.splitlines()]
    assert report["x"] == []
    assert report["lhs"] == "0/1"
    assert report["rhs"] == "0/1"
    assert report["verdict"] == "pass"


def test_check_interlaced_pair(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--x", "0,1", "--y", "1,0", "--kind", "H", "--t", "1"
    )
    assert code == 0
    (report,) = [json.loads(line) for line in out.splitlines()]
    assert report["verdict"] == "pass"
    assert report["case"] == "at_first"


def test_check_all_identities_expands_the_report_list(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--x", "0,1", "--y", "1", "--identities", "all"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    names = [r["identity"] for r in reports]
    assert names == [
        "duality",
        "hold_factorization",
        "hold_factorization_pinned",
        "second_site_split_forward",
        "second_site_split_reversed",
        "second_site_link",
    ]
    assert all(r["verdict"] in ("pass", "skip") for r in reports)


def test_check_monte_carlo_lines_are_deterministic(capsys):
    args = (
        "check", "--x", "0,2", "--y", "1", "--kind", "G",
        "--n-samples", "300", "--seed", "9",
    )
    code, out_a, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b
    lines = [json.loads(line) for line in out_a.splitlines()]
    mc = [l for l in lines if "mc_side" in l]
    assert [l["mc_side"] for l in mc] == ["forward", "reversed"]
    assert all(set(l) >= {"mean", "stderr", "n", "seed"} for l in mc)


def test_check_writes_to_a_file_when_asked(capsys, tmp_path):
    out_file = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        capsys, "check", "--x", "0", "--y", "0", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text().strip())
    assert report["verdict"] == "pass"


def test_check_prints_values_past_the_digit_limit(capsys):
    # both sides carry denominators of about 4,500 digits at t = 1500
    code, out, err = run_cli(
        capsys, "check", "--x", "0", "--y", "1", "--q", "2", "--b2", "1/997",
        "--t", "1500",
    )
    assert (code, err) == (0, "")
    (report,) = [json.loads(line) for line in out.splitlines()]
    assert report["verdict"] == "pass"
    assert len(report["lhs"]) > 4300


@pytest.mark.parametrize(
    "x,y,t,value",
    [
        # the benchmark's check-long instance and its stored reference value
        ("0,1,2,3", "12,8,5", "6", "2731356776468313/147573952589676412928"),
        # five particles: the value the state-by-state composition gave
        ("0,2,4,6,8", "16,12,8,4", "3", "2275157079/18446744073709551616"),
    ],
)
def test_check_long_horizon_values(capsys, x, y, t, value):
    code, out, _ = run_cli(capsys, "check", "--x", x, "--y", y, "--kind", "H", "--t", t)
    assert code == 0
    (report,) = [json.loads(line) for line in out.splitlines()]
    assert (report["lhs"], report["rhs"], report["verdict"]) == (value, value, "pass")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--x", "1,0", "--y", "1"),            # unordered x
        ("check", "--x", "0", "--y", "0,1"),            # unordered y
        ("check", "--x", "0", "--y", ""),               # no dual particles
        ("check", "--x", "0", "--y", "1", "--b2", "0.25"),  # float rational
        ("check", "--x", "0", "--y", "1", "--t", "-1"),
        ("check", "--x", "a,b", "--y", "1"),
        ("check", "--x", "0", "--y", "1", "--n-samples", "10"),  # seedless MC
        ("check", "--x", "0", "--y", "1", "--q", "4", "--b2", "1/2"),  # q*b2 >= 1
    ],
)
def test_check_rejects_malformed_input(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "error" in err.lower()


@pytest.mark.parametrize(
    "flags,message",
    [(("--n-samples", "10"), "--n-samples needs --seed"),
     (("--n-samples", "0", "--seed", "1"), "--n-samples must be >= 1"),
     (("--seed", "5"), "--seed needs --n-samples")],
)
def test_check_rejects_monte_carlo_flags_before_the_exact_check(
    capsys, monkeypatch, flags, message
):
    def exact_check(*args, **kwargs):
        raise AssertionError("the exact check ran before the flags were checked")

    monkeypatch.setattr(sixv.cli, "check_duality", exact_check)
    code, _, err = run_cli(
        capsys, "check", "--x", "0,1,2,3", "--y", "12,8,5", "--t", "6", *flags
    )
    assert code == 2
    assert err == f"error: {message}\n"


def test_check_refuses_a_monte_carlo_run_over_the_budget(capsys, monkeypatch):
    def sampler(*args):
        raise AssertionError("a sampler was built")

    monkeypatch.setattr(sixv.duality, "_sampler", sampler)
    code, out, err = run_cli(
        capsys, "check", "--x", "0", "--y", "1", "--n-samples", "1000000000", "--seed", "1"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "MC_UPDATE_BUDGET" in err


# --- --b2-sites ------------------------------------------------------------------


def _b2_sites_file(tmp_path, text: str) -> str:
    path = tmp_path / "b2_sites.json"
    path.write_text(text)
    return str(path)


def test_b2_sites_file_gives_the_library_report(capsys, tmp_path):
    path = _b2_sites_file(tmp_path, json.dumps({"0": "1/3", "2": "1/2"}))
    code, out, _ = run_cli(
        capsys, "check", "--x", "0,1", "--y", "2", "--kind", "G", "--t", "2",
        "--q", "1/2", "--b2", "1/4", "--b2-sites", path,
    )
    params = Params(
        q=Fraction(1, 2), b2=Fraction(1, 4),
        b2_sites=((0, Fraction(1, 3)), (2, Fraction(1, 2))),
    )
    expected = check_duality((0, 1), (2,), "G", 2, params).to_json_obj()
    assert code == (1 if expected["verdict"] == "fail" else 0)
    assert [json.loads(line) for line in out.splitlines()] == [
        json.loads(json.dumps(expected))
    ]
    assert expected["params"]["b2_sites"] == {"0": "1/3", "2": "1/2"}


@pytest.mark.parametrize(
    "text",
    [
        None,
        "{not json",
        json.dumps(["0", "1/3"]),
        json.dumps({"a": "1/3"}),
        json.dumps({"0": 0.25}),
        json.dumps({"0": "3/2"}),
        '{"0": "1/3", "00": "1/2"}',
        json.dumps({"1_0": "1/3"}),
        json.dumps({" +1 ": "1/3"}),
        json.dumps({"\u0661": "1/3"}),
    ],
    ids=[
        "missing-file", "not-json", "json-list", "non-int-key", "float-value",
        "out-of-range-value", "duplicate-site", "underscore-key", "padded-key",
        "non-ascii-digit-key",
    ],
)
def test_b2_sites_file_rejects_bad_input(capsys, tmp_path, text):
    if text is None:
        path = str(tmp_path / "absent.json")
    else:
        path = _b2_sites_file(tmp_path, text)
    code, _, err = run_cli(capsys, "check", "--x", "0", "--y", "1", "--b2-sites", path)
    assert code == 2
    assert err.startswith("error:")


# --- sweep -----------------------------------------------------------------------


def test_sweep_writes_reports_and_a_summary(capsys, tmp_path):
    out_file = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(
        capsys, "sweep", "--max-ell", "2", "--max-k", "2",
        "--window", "0:3", "--out", str(out_file),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["total"] == 106
    assert summary["failed"] == 0
    lines = out_file.read_text().splitlines()
    assert len(lines) == summary["total"]
    expected = run_sweep(
        SweepSpec(
            max_ell=2, max_k=2, window=(0, 3), t_range=(1,),
            params_list=(Params.from_b1_b2("1/2", "1/4"),), kinds=("H",),
        )
    )
    assert [json.loads(line) for line in lines] == [
        r.to_json_obj() for r in expected.reports
    ]


def test_sweep_mutation_hook_fails_loudly(capsys, tmp_path):
    out_file = tmp_path / "mutated.jsonl"
    code, out, _ = run_cli(
        capsys, "sweep", "--max-ell", "2", "--max-k", "2", "--window", "0:3",
        "--mutation", "inverted-q", "--out", str(out_file),
    )
    assert code == 1
    assert json.loads(out)["failed"] > 0
    failures = [
        json.loads(line)
        for line in out_file.read_text().splitlines()
        if json.loads(line)["verdict"] == "fail"
    ]
    assert failures and all(f["lhs"] != f["rhs"] for f in failures)


def test_sweep_rejects_an_empty_dual_domain(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--max-ell", "2", "--max-k", "0", "--window", "0:3"
    )
    assert code == 2
    assert "max_k" in err


def test_sweep_reads_a_spec_file(capsys, tmp_path):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({
        "max_ell": 1,
        "max_k": 1,
        "window": [0, 2],
        "t_range": [1],
        "kinds": ["H", "G"],
        "params": [{"q": "2/1", "b2": "1/4"}],
    }))
    code, out, _ = run_cli(capsys, "sweep", "--spec", str(spec_file))
    lines = out.splitlines()
    assert code == 0
    assert json.loads(lines[-1]) == {
        "total": 18, "passed": 18, "failed": 0,
        "elapsed_ms": json.loads(lines[-1])["elapsed_ms"],
    }
    assert len(lines) == 19  # reports stream to stdout before the summary


def test_sweep_to_stdout_prints_the_out_file_then_the_summary(capsys, tmp_path):
    args = ("sweep", "--max-ell", "2", "--max-k", "2", "--window", "0:3",
            "--t-list", "2,0,1,2", "--kinds", "D,H")
    out_file = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(capsys, *args, "--out", str(out_file))
    assert code == 0
    code, streamed, _ = run_cli(capsys, *args)
    assert code == 0
    *reports, last = streamed.splitlines(keepends=True)
    summary = json.loads(last)
    assert len(reports) == summary["total"] == 848
    assert "".join(reports) == out_file.read_text()
    assert summary == {**json.loads(out), "elapsed_ms": summary["elapsed_ms"]}


@pytest.mark.parametrize("mutation", [None, *MUTATIONS])
def test_sweep_lines_equal_the_per_instance_check_lines(capsys, tmp_path, mutation):
    spec_obj = {
        "max_ell": 2, "max_k": 2, "window": [0, 3], "t_range": [2, 0, 1],
        "kinds": ["G", "H"],
        "params": [{"q": "1/2", "b2_default": "1/4", "b2_sites": {"0": "1/3", "2": "1/2"}}],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec_obj))
    out_file = tmp_path / "reports.jsonl"
    flags = ["--mutation", mutation] if mutation else []
    code, _, _ = run_cli(
        capsys, "sweep", "--spec", str(spec_file), "--out", str(out_file), *flags
    )
    spec = SweepSpec.from_json_obj(spec_obj)
    (params,) = spec.params_list
    reports = [
        check_duality(x, y, kind, t, params, MUTATIONS.get(mutation))
        for kind in spec.kinds
        for t in spec.t_range
        for x, y in iter_config_pairs(spec)
    ]
    assert out_file.read_text() == "".join(r.to_json_line() + "\n" for r in reports)
    assert code == (1 if any(r.verdict == "fail" for r in reports) else 0)


def _spec_text(**overrides) -> str:
    spec = {"max_ell": 1, "max_k": 1, "window": [0, 2],
            "params": [{"q": "2/1", "b2": "1/4"}], **overrides}
    return json.dumps(spec)


def _spec_without(field: str) -> str:
    spec = json.loads(_spec_text())
    del spec[field]
    return json.dumps(spec)


@pytest.mark.parametrize(
    "text, message",
    [
        ("{not json", "spec"),
        ("[1]", "spec"),
        (_spec_text(window=["0", "2"]), "spec"),
        (_spec_text(window=[0.5, 2]), "spec"),
        (_spec_text(kinds="HG"), "spec"),
        (_spec_text(max_ell=2.5), "spec"),
        (_spec_text(params=[{"q": "1/2", "b2_default": "1/4", "b2_sites": ["0"]}]), "spec"),
        (_spec_text(params=[{"q": "1/2", "b2_default": "1/4", "b2_sites": {"1_0": "1/3"}}]), "spec"),
        (_spec_text(params=[{"q": "1/2"}]), "spec"),
        (_spec_text(params=[{"b2": "1/4"}]), "spec"),
        (_spec_text(params=[{"q": "1/2", "b2": "1/4", "b2_sites": {"0": "1/3"}}]), "spec"),
        (_spec_without("max_ell"), "missing the 'max_ell' field"),
        (_spec_without("max_k"), "missing the 'max_k' field"),
        (_spec_without("window"), "missing the 'window' field"),
        (_spec_without("params"), "missing the 'params' field"),
        (_spec_text(**{"t-range": [2]}), "unknown field 't-range'"),
        (_spec_text(kind=["G"]), "unknown field 'kind'"),
        (_spec_text(params=[{"q": "2", "b2": "1/4", "b2_site": {"0": "1/3"}}]),
         "unknown field 'b2_site'"),
        (_spec_text(params=[{"q": "1/2", "b2": "1/2", "b2_default": "1/4",
                             "b2_sites": {"0": "1/3"}}]), "unknown field 'b2'"),
        (_spec_text(kinds=[]), "kinds must be nonempty"),
        (_spec_text(max_ell=0, max_k=2, window=[0, 0]), "no (x, y) pair"),
    ],
    ids=[
        "not-json", "json-list", "string-window", "float-window", "string-kinds",
        "float-max-ell", "list-b2-sites", "underscore-site-key",
        "missing-b2", "missing-q", "sites-without-default",
        "missing-max-ell", "missing-max-k", "missing-window", "missing-params",
        "misspelled-t-range", "misspelled-kinds", "misspelled-b2-sites", "b2-beside-b2-sites",
        "no-kinds", "no-pair",
    ],
)
def test_sweep_rejects_a_broken_spec_file(capsys, tmp_path, text, message):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(text)
    code, _, err = run_cli(capsys, "sweep", "--spec", str(spec_file))
    assert code == 2
    assert "spec" in err
    assert message in err


@pytest.mark.parametrize(
    "flags,message",
    [
        # one site holds no two distinct dual points, and ℓ = 0 needs k >= 2
        (("--max-ell", "0", "--max-k", "2", "--window", "0:0"), "no (x, y) pair"),
        (("--max-ell", "1", "--max-k", "1", "--window", "0:2", "--t-list", "1,x"),
         "error: --t-list must be comma-separated ints, got '1,x'"),
        (("--max-ell", "1", "--max-k", "1", "--window", "0:2", "--t-list", ""),
         "error: --t-list must be comma-separated ints, got ''"),
    ],
    ids=["no-pair", "t-list-not-int", "t-list-empty"],
)
def test_sweep_rejects_bad_domain_flags(capsys, flags, message):
    code, out, err = run_cli(capsys, "sweep", *flags)
    assert code == 2
    assert out == ""
    assert message in err


# --- simulate --------------------------------------------------------------------


def test_simulate_golden_forward_trajectory(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--x", "0,2,5", "--t", "3", "--seed", "7"
    )
    assert code == 0
    assert out == (
        "step,pos1,pos2,pos3\n"
        "0,0,2,5\n"
        "1,2,4,6\n"
        "2,2,4,7\n"
        "3,3,4,8\n"
    )


@pytest.mark.parametrize("seeds", [(7, -7), (31, -31), (7, 8)])
def test_different_seeds_draw_different_streams(capsys, seeds):
    # random.Random(int) seeds from |seed|, so 7 and -7 would share a stream
    params = Params.homogeneous("2", "1/4")
    rows = [
        run_cli(capsys, "simulate", "--x", "0,2,5", "--t", "3", "--seed", str(s))[1]
        for s in seeds
    ]
    assert rows[0] != rows[1]
    means = [
        mc_expectation("forward", (0, 1, 3), (4, 2), "G", 2, params, 2000, s).mean
        for s in seeds
    ]
    assert means[0] != means[1]


def test_simulate_validates_the_start_once(capsys, monkeypatch):
    calls = []
    real = sixv.model.validate_location

    def counted(positions):
        calls.append(positions)
        return real(positions)

    # every module that holds the name, so a call through any alias counts
    for module in (sixv, sixv.model, sixv.cli, sixv.dynamics, sixv.duality, sixv.verify):
        if getattr(module, "validate_location", None) is real:
            monkeypatch.setattr(module, "validate_location", counted)
    code, out, _ = run_cli(capsys, "simulate", "--x", "0,2,5", "--t", "50", "--seed", "7")
    assert code == 0
    assert len(out.splitlines()) == 52
    assert len(calls) <= 1


def test_simulate_zero_steps_echoes_the_start(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--x", "0,4", "--t", "0", "--seed", "1")
    assert code == 0
    assert out == "step,pos1,pos2\n0,0,4\n"


def test_simulate_reversed_trajectory_moves_left(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--y", "4,1", "--t", "5", "--seed", "13",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["side"] == "reversed"
    assert payload["steps"][0] == [4, 1]
    for before, after in zip(payload["steps"], payload["steps"][1:]):
        assert all(b >= a for b, a in zip(before, after))
        assert after[0] > after[1]


def test_simulate_forward_trajectory_stays_ordered(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "--x", "0,1,2", "--t", "20", "--seed", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    for before, after in zip(payload["steps"], payload["steps"][1:]):
        assert all(a >= b for b, a in zip(before, after))
        assert after[0] < after[1] < after[2]


def test_simulate_is_deterministic_per_seed(capsys):
    args = ("simulate", "--x", "0,3", "--t", "10", "--seed", "21")
    code, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert (code, code_b) == (0, 0)
    assert out_a == out_b
    _, out_c, _ = run_cli(capsys, "simulate", "--x", "0,3", "--t", "10", "--seed", "22")
    assert out_c != out_a


def test_simulate_needs_exactly_one_process_side(capsys):
    code, _, err = run_cli(capsys, "simulate", "--x", "0", "--y", "1", "--t", "1", "--seed", "7")
    assert code == 2
    assert "exactly one" in err
    code, _, _ = run_cli(capsys, "simulate", "--t", "1", "--seed", "7")
    assert code == 2


def test_simulate_requires_a_seed(capsys):
    code, _, _ = run_cli(capsys, "simulate", "--x", "0", "--t", "1")
    assert code == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--x", "0", "--y", "1"],
        ["sweep", "--max-ell", "1", "--max-k", "1", "--window", "0:1"],
        ["simulate", "--x", "0", "--seed", "1"],
    ],
    ids=["check", "sweep", "simulate"],
)
def test_an_unwritable_out_file_is_an_input_error(capsys, tmp_path, argv):
    # 1 would say a check failed; a path that cannot be opened is bad input
    out = tmp_path / "missing" / "r.jsonl"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 2
    assert "cannot write --out file" in err
    assert not out.parent.exists()
