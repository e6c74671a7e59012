"""Command-line interface: output shape, exit codes, determinism."""

import csv
import io
import json
import math
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpamm import (
    InputError,
    InternalError,
    NoConvergence,
    cli,
    load_script,
    run_scenario,
    snapshots_to_csv,
)
from cpamm.cli import main
from cpamm.figures import FIGURE_IDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_pairs(out):
    pairs = {}
    for line in out.strip().split("\n"):
        key, value = line.split("=", 1)
        pairs[key] = value
    return pairs


def test_quote(capsys):
    code, out, _ = run_cli(
        capsys, "quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "5"
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["amount_out"]) == pytest.approx(100 * 5 / 105, rel=1e-12)
    assert float(pairs["realized_rate"]) == pytest.approx(100 / 105, rel=1e-12)


def test_swap_exact_fractions(capsys):
    code, out, _ = run_cli(
        capsys,
        "swap",
        "--x",
        "100/1",
        "--y",
        "100/1",
        "--fee",
        "3/1000",
        "--direction",
        "y2x",
        "--amount",
        "100/1",
        "--fee-model",
        "collect_separately",
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert pairs["fee_paid"] == "3/10"
    assert pairs["fees_y"] == "3/10"
    assert pairs["new_y"] == "1997/10"  # 100 + 100 * 0.997


def test_swap_respects_spread_cap(capsys):
    code, out, _ = run_cli(
        capsys,
        "swap",
        "--x",
        "100",
        "--y",
        "100",
        "--direction",
        "y2x",
        "--amount",
        "1000000",
        "--max-spread",
        "0.75",
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["capped_in"]) == pytest.approx(100.0, rel=1e-12)
    assert float(pairs["spread_applied"]) == pytest.approx(0.75, rel=1e-12)


def test_pool_info(capsys):
    code, out, _ = run_cli(
        capsys, "pool-info", "--x", "200", "--y", "50", "--p-x", "1", "--p-y", "4"
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["rate"]) == 4.0
    assert float(pairs["liquidity"]) == pytest.approx(100.0, rel=1e-12)
    assert float(pairs["value"]) == 400.0


def test_il_with_replay_check(capsys):
    code, out, _ = run_cli(
        capsys, "il", "--delta-x", "1", "--delta-y", "4", "--replay-check"
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["loss"]) == pytest.approx(-0.2, rel=1e-12)
    assert float(pairs["loss_replay"]) == pytest.approx(-0.2, rel=1e-9)


def test_evolve(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--delta-x", "1", "--delta-y", "4", "--alpha", "0.2", "--t", "1"
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["hold"]) == 2.5
    assert float(pairs["auto_compound"]) == pytest.approx(2.4, rel=1e-12)
    assert float(pairs["collect_separately"]) == pytest.approx(2.5, rel=1e-12)


def test_roi_defaults(capsys):
    code, out, _ = run_cli(capsys, "roi")
    assert code == 0
    pairs = parse_pairs(out)
    assert float(pairs["roi_c_pct"]) == pytest.approx(20.0177, abs=1e-3)
    assert float(pairs["roi_nc_pct"]) == pytest.approx(18.2469, abs=1e-3)


def test_roi_methods_agree(capsys):
    _, out_a, _ = run_cli(capsys, "roi", "--method", "implicit")
    _, out_b, _ = run_cli(capsys, "roi", "--method", "rk4")
    rho_a = float(parse_pairs(out_a)["rho_c"])
    rho_b = float(parse_pairs(out_b)["rho_c"])
    assert rho_a == pytest.approx(rho_b, rel=1e-8)


def test_run_scenario(capsys, tmp_path):
    doc = {
        "pool": {"x": 100, "y": 100},
        "prices": {"p_x": 1.0, "p_y": 1.0},
        "events": [{"type": "price_move", "t": 1.0, "delta_x": 1.0, "delta_y": 4.0}],
    }
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "run-scenario", str(path))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("label,t,")
    final = lines[-1].split(",")
    assert final[0] == "final"
    assert float(final[8]) == pytest.approx(-0.2, rel=1e-12)


def test_emit_figure_stdout_and_file(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys,
        "emit-figure",
        "--figure",
        "il_one_coin",
        "--grid-min",
        "0",
        "--grid-max",
        "200",
        "--count",
        "3",
    )
    assert code == 0
    assert out.startswith("price_change_pct,il_pct")
    assert len(out.strip().split("\n")) == 4

    target = tmp_path / "fig.csv"
    code, out2, _ = run_cli(
        capsys,
        "emit-figure",
        "--figure",
        "il_one_coin",
        "--grid-min",
        "0",
        "--grid-max",
        "200",
        "--count",
        "3",
        "--out",
        str(target),
    )
    assert code == 0
    assert out2 == ""
    assert target.read_text() == out


def test_emit_figure_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "emit-figure", "--figure", "fee_model_comparison")
    _, second, _ = run_cli(capsys, "emit-figure", "--figure", "fee_model_comparison")
    assert first == second


def test_input_errors_exit_1(capsys):
    code, _, err = run_cli(
        capsys, "quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "-5"
    )
    assert code == 1
    assert err.startswith("error:")

    code, _, err = run_cli(capsys, "roi", "--step", "0")
    assert code == 1

    code, _, err = run_cli(
        capsys, "emit-figure", "--figure", "il_one_coin", "--grid-min", "-150"
    )
    assert code == 1

    code, _, err = run_cli(capsys, "run-scenario", "/nonexistent/path.json")
    assert code == 1


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quote", "--x", "100"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["emit-figure", "--figure", "nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


COMMANDS = ["quote", "swap", "pool-info", "il", "evolve", "roi", "run-scenario", "emit-figure"]


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["bogus"]]
    + [[command, "-h"] for command in COMMANDS]
    + [[command, "--no-such-flag"] for command in COMMANDS],
)
def test_usage_reads_as_with_every_commands_arguments(capsys, argv):
    # main gives arguments only to the command its argv names.
    with pytest.raises(SystemExit) as alone:
        main(argv)
    alone_out = capsys.readouterr()
    with pytest.raises(SystemExit) as full:
        cli.build_parser().parse_args(argv)
    assert (alone.value.code, alone_out) == (full.value.code, capsys.readouterr())
    assert alone_out.out or alone_out.err


def test_zero_denominator_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "1/0"])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"events": [[1, 2]]},
        {"events": [{"type": "trade", "t": 0, "direction": "y2x", "amount": None}]},
        {"events": [{"type": "trade", "t": 0, "direction": "y2x", "amount": "five"}]},
        {"pool": [1]},
        {"events": "abc"},
    ],
)
def test_malformed_script_exits_1(capsys, tmp_path, doc):
    script = {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, **doc}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, out, err = run_cli(capsys, "run-scenario", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_nan_timestamp_exits_1(capsys, tmp_path):
    events = [{"type": "snapshot", "t": 5}, {"type": "snapshot", "t": "NaN"},
              {"type": "snapshot", "t": 1}]
    script = {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, "events": events}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    code, out, err = run_cli(capsys, "run-scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: event 1: timestamp must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["quote", "swap"])
def test_nan_x2y_spread_cap_exits_1(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--x", "100", "--y", "100", "--direction", "x2y",
        "--amount", "50", "--max-spread", "nan",
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: X-for-Y spread must be finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["quote", "swap"])
def test_draining_float_swap_exits_1(capsys, command):
    code, out, err = run_cli(
        capsys, command, "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "1e20"
    )
    assert (code, out) == (1, "")
    assert err.startswith("error: swap of 1e+20 would drain the output reserve")
    assert "Traceback" not in err


def assert_rejected(code, out, err):
    assert (code, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_zero_script_price_exits_1(capsys, tmp_path):
    script = {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 0, "p_y": 1}, "events": []}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    assert_rejected(*run_cli(capsys, "run-scenario", str(path)))


@pytest.mark.parametrize(
    "argv",
    [
        ["roi", "--method", "rk4", "--t", "nan"],
        ["roi", "--alpha", "nan"],
        ["roi", "--frac", "0", "--alpha", "1000"],
        ["il", "--delta-x", "inf"],
        ["evolve", "--t", "inf"],
        ["pool-info", "--x", "1", "--y", "1", "--p-x", "nan"],
        ["emit-figure", "--figure", "il_one_coin", "--grid-max", "inf"],
        ["quote", "--x", "1e300", "--y", "10", "--direction", "x2y",
         "--amount", "1.7976931348623157e308"],
        ["quote", "--x", "5e-324", "--y", "0.7", "--direction", "x2y", "--amount", "3"],
    ],
)
def test_out_of_domain_flags_exit_1(capsys, argv):
    assert_rejected(*run_cli(capsys, *argv))


def test_rk4_step_limit_exits_1_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "roi", "--method", "rk4", "--step", "1e-9")
    assert time.perf_counter() - started < 1.0
    assert_rejected(code, out, err)
    assert "RK4 steps" in err


def test_tiny_compounding_population_solves(capsys):
    code, out, _ = run_cli(capsys, "roi", "--frac", "1e-60", "--alpha", "0.2")
    assert code == 0
    # A vanishing compounder grows like exp(alpha t), holdouts like 1 + alpha t.
    assert float(parse_pairs(out)["rho_c"]) == pytest.approx(math.exp(0.2), rel=1e-12)


def test_compounding_population_where_the_bisection_ran_out_solves(capsys):
    # frac 2e-49 needed just over 200 halvings of the old bracket: exit 3.
    code, out, _ = run_cli(capsys, "roi", "--frac", "2e-49", "--alpha", "0.2", "--t", "1")
    assert code == 0
    assert abs(float(parse_pairs(out)["rho_c"]) - math.exp(0.2)) <= 1e-12


def test_roi_figure_with_a_subnormal_compounding_population_is_no_internal_error(capsys):
    code, _, err = run_cli(capsys, "emit-figure", "--figure", "roi_comparison", "--frac", "1e-318")
    assert code in (0, 1), err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["quote", "--direction", "up"],
         "argument --direction: invalid choice: 'up' (choose from 'y2x', 'x2y')"),
        (["swap", "--direction", "x2y", "--fee-model", "bogus"],
         "argument --fee-model: invalid choice: 'bogus'"
         " (choose from 'auto_compound', 'collect_separately')"),
    ],
)
def test_lazy_swap_choices_reject_as_a_choice_list(capsys, argv, message):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--x", "1", "--y", "1", "--amount", "1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: cpamm {argv[0]} [-h] --x X --y Y")
    assert err.endswith(f"cpamm {argv[0]}: error: {message}\n")


def test_figure_row_limit_exits_1_at_once(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "emit-figure", "--figure", "il_one_coin", "--count", "1000000001"
    )
    assert time.perf_counter() - started < 1.0
    assert_rejected(code, out, err)
    assert "grid points is more than" in err


def test_il_at_a_price_ratio_beyond_float_range(capsys):
    code, out, _ = run_cli(capsys, "il", "--delta-x", "5e-324", "--delta-y", "1e6")
    assert code == 0
    v_pooled = float(parse_pairs(out)["v_pooled"])
    assert v_pooled == pytest.approx(math.sqrt(5e-324 * 1e6), rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "command, delta, expected",
    [
        ("il", "1e-300", {"v_pooled": 1e-300, "v_held": 1e-300, "loss": 0.0}),
        ("il", "1e300", {"v_pooled": 1e300, "v_held": 1e300, "loss": 0.0}),
        ("evolve", "1e-200", {"auto_compound": 1.2e-200, "collect_separately": 1.2e-200}),
        ("evolve", "1e300", {"auto_compound": 1.2e300, "collect_separately": 1.2e300}),
    ],
)
def test_equal_price_changes_at_the_ends_of_float_range(capsys, command, delta, expected):
    # The product of the two changes leaves float range; their root does not.
    code, out, _ = run_cli(capsys, command, "--delta-x", delta, "--delta-y", delta)
    assert code == 0
    pairs = parse_pairs(out)
    for key, value in expected.items():
        assert float(pairs[key]) == pytest.approx(value, rel=1e-15, abs=0)


def test_non_finite_evolve_result_exits_1(capsys):
    code, out, err = run_cli(
        capsys, "evolve", "--delta-x", "1e300", "--delta-y", "1e300", "--alpha", "1e10"
    )
    assert_rejected(code, out, err)
    assert "auto_compound = inf leaves float range" in err


def test_roi_whose_root_ratio_overflows_exits_1(capsys):
    code, out, err = run_cli(capsys, "roi", "--frac", "1e-300", "--alpha", "1e300", "--t", "1e8")
    assert_rejected(code, out, err)
    assert err == "error: rho_c = inf leaves float range\n"


def test_non_finite_roi_result_exits_1(capsys):
    code, out, err = run_cli(capsys, "roi", "--frac", "5e-324", "--alpha", "1000", "--t", "1000")
    assert_rejected(code, out, err)
    assert "= inf leaves float range" in err


def test_non_finite_figure_value_exits_1_and_writes_nothing(capsys, tmp_path):
    argv = ["emit-figure", "--figure", "fee_model_comparison", "--alpha", "1e308"]
    assert_rejected(*run_cli(capsys, *argv))
    target = tmp_path / "fig.csv"
    assert_rejected(*run_cli(capsys, *argv, "--out", str(target)))
    assert not target.exists()


@pytest.mark.parametrize(
    "extra, x",
    [
        (["--figure", "fee_model_comparison", "--t", "8.5e306"], "12.0"),
        (["--figure", "fee_model_comparison", "--alpha", "1.7e306", "--grid-max", "1e6"],
         "2407.5137844611527"),
        (["--figure", "roi_comparison", "--alpha", "1e308", "--frac", "0.5"], "0.01"),
    ],
)
def test_non_finite_figure_row_is_named_and_no_file_is_written(capsys, tmp_path, extra, x):
    target = tmp_path / "fig.csv"
    code, out, err = run_cli(capsys, "emit-figure", *extra, "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: {extra[1]} leaves float range at x = {x}\n"
    assert not target.exists()


def test_internal_error_exits_3(capsys, monkeypatch):
    def solver_bug(*args, **kwargs):
        raise NoConvergence("bisection gave up")

    monkeypatch.setattr("cpamm.compounding.roi_pair", solver_bug)
    code, out, err = run_cli(capsys, "roi")
    assert (code, out, err) == (3, "", "internal error: bisection gave up\n")


# -- property: any argv ends in exit 0, 1 or 2 -------------------------------

_NON_FINITE = ("nan", "inf", "-inf")
_numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6).map(repr),
    st.sampled_from(("0",) + _NON_FINITE),
    st.builds("{}/{}".format, st.integers(-1000, 1000), st.integers(-1000, 1000)),
)
_json_numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from((0, math.nan, math.inf, -math.inf)),
    st.builds("{}/{}".format, st.integers(-10, 10), st.integers(-10, 10)),
)
_COMMANDS = {
    # command: (required numeric flags, optional numeric flags, other argv choices)
    "quote": (["--x", "--y", "--amount"], ["--fee", "--max-spread"],
              [["--direction", "y2x"], ["--direction", "x2y"]]),
    "swap": (["--x", "--y", "--amount"], ["--fee", "--max-spread"],
             [["--direction", d, "--fee-model", m] for d in ("y2x", "x2y")
              for m in ("auto_compound", "collect_separately")]),
    "pool-info": (["--x", "--y"], ["--p-x", "--p-y"], [[]]),
    "il": ([], ["--delta-x", "--delta-y"], [[], ["--replay-check"]]),
    "evolve": ([], ["--delta-x", "--delta-y", "--alpha", "--t"], [[]]),
    "roi": ([], ["--frac", "--alpha", "--t", "--step"],
            [["--method", "implicit"], ["--method", "rk4"]]),
    "emit-figure": ([], ["--grid-min", "--grid-max", "--count", "--alpha", "--t", "--frac"],
                    [["--figure", figure] for figure in FIGURE_IDS]),
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, others = _COMMANDS[command]
    argv = [command, *draw(st.sampled_from(others))]
    for flag in required + [f for f in optional if draw(st.booleans())]:
        value = _numbers if flag != "--count" else st.integers(-2, 200).map(str) | _numbers
        argv.append(f"{flag}={draw(value)}")  # "=" keeps "-inf" from reading as a flag
    return argv


@st.composite
def _script(draw):
    """A scenario document whose pool sits on the market rate unless the draw says not."""
    reserve, price = draw(_json_numbers), draw(_json_numbers)
    events = []
    for index in range(draw(st.integers(0, 4))):
        event = {"type": draw(st.sampled_from(("trade", "price_move", "collect_fees",
                                               "snapshot"))),
                 "t": draw(st.just(index) | _json_numbers)}
        if event["type"] == "trade":
            event.update(direction=draw(st.sampled_from(("y2x", "x2y"))),
                         amount=draw(_json_numbers))
            if draw(st.booleans()):
                event["max_spread"] = draw(_json_numbers)
        elif event["type"] == "price_move":
            event.update(delta_x=draw(_json_numbers), delta_y=draw(_json_numbers))
        elif event["type"] == "collect_fees":
            event["provider"] = "lp"
        else:
            event["label"] = f"s{index}"
        events.append(event)
    return {
        "pool": {"x": reserve, "y": draw(st.just(reserve) | _json_numbers),
                 "fee_rate": draw(st.just(0.003) | _json_numbers),
                 "fee_model": draw(st.sampled_from(("auto_compound", "collect_separately")))},
        "prices": {"p_x": price, "p_y": draw(st.just(price) | _json_numbers)},
        "events": events,
    }


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


def _check_exit(code, out, err, non_finite):
    assert code in (0, 1, 2), (code, err)
    if code == 0:
        assert out and not err
        assert not non_finite, out
    else:
        assert out == "" and "Traceback" not in err
        assert err.startswith("error:") if code == 1 else "error:" in err


@given(argv=_cli_argv())
@settings(max_examples=400, deadline=None)
def test_any_argv_exits_0_1_or_2(argv):
    non_finite = any(arg.split("=")[-1] in _NON_FINITE for arg in argv)
    _check_exit(*_main_in_process(argv), non_finite)


@given(doc=_script())
@settings(max_examples=300, deadline=None)
def test_any_script_exits_0_or_1(doc):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "script.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code, out, err = _main_in_process(["run-scenario", path])
    text = json.dumps(doc)
    _check_exit(code, out, err, any(word in text for word in ("NaN", "Infinity")))
    assert code != 2


# -- run-scenario replays records: the same answers as the object API ---------

_VALID_EVENTS = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("trade"), "direction": st.sampled_from(("y2x", "x2y")),
         "amount": st.floats(min_value=0.25, max_value=40.0) | st.sampled_from((5, "2.5"))},
        optional={"max_spread": st.sampled_from((None, 0, 0.01, 0.5))}),
    st.fixed_dictionaries(
        {"type": st.just("price_move"), "delta_x": st.floats(min_value=0.25, max_value=4.0),
         "delta_y": st.floats(min_value=0.25, max_value=4.0) | st.just(2)}),
    st.fixed_dictionaries(
        {"type": st.just("collect_fees"), "provider": st.sampled_from(("lp", "other"))}),
    st.fixed_dictionaries(
        {"type": st.just("snapshot")},
        optional={"label": st.sampled_from(("a", "q1,2026", 'say "hi"', "two\nlines", ""))}),
)
# One of each kind of event the parser or the replay must reject.
_REJECTED = [
    {"type": "trade", "direction": "up", "amount": 1},
    {"type": "trade", "direction": None, "amount": 1},
    {"type": "trade", "direction": "y2x"},
    {"type": "trade", "direction": "y2x", "amount": True},
    {"type": "trade", "direction": "y2x", "amount": "five"},
    {"type": "trade", "direction": "y2x", "amount": -1},
    {"type": "trade", "direction": "x2y", "amount": 0},
    {"type": "trade", "direction": "x2y", "amount": 1e20},
    {"type": "trade", "direction": "y2x", "amount": 1, "max_spread": 1},
    {"type": "trade", "direction": "x2y", "amount": 1, "max_spread": -0.5},
    {"type": "trade", "direction": "x2y", "amount": 1, "max_spread": "NaN"},
    {"type": "price_move", "delta_x": 0, "delta_y": 1},
    {"type": "price_move", "delta_x": 1, "delta_y": 1e40},
    {"type": "price_move", "delta_x": False, "delta_y": 1},
    {"type": "price_move", "delta_x": 1},
    {"type": "collect_fees"},
    {"type": "collect_fees", "provider": None},
    {"type": "snapshot", "label": None},
    {"type": "snapshot", "label": {"a": 1}},
    {"type": "snapshot", "t": "NaN"},
    {"type": "snapshot", "t": -1},
    {"type": "snapshot", "t": 0},  # earlier than every timestamp but the first
    {"type": "teleport"},
    [1], 5, "trade", None,
]


@st.composite
def _replay_doc(draw):
    """A script on a pool that sits on the market rate: valid events and, in
    some scripts, one event of a rejected kind."""
    x = draw(st.sampled_from((100.0, 1e6, 3)))
    p_x = draw(st.sampled_from((1.0, 0.5)))
    size = draw(st.integers(0, 8))
    rejected_at = draw(st.none() | st.integers(0, 8))
    events = []
    for index in range(size):
        event = draw(st.sampled_from(_REJECTED) if index == rejected_at else _VALID_EVENTS)
        if isinstance(event, dict):
            event = {"t": (index + 1) / 8, **event}
        events.append(event)
    doc = {"pool": {"x": x, "y": x * p_x, "fee_rate": draw(st.sampled_from((0, 0.003, 0.6))),
                    "fee_model": draw(st.sampled_from(("auto_compound", "collect_separately")))},
           "prices": {"p_x": p_x, "p_y": 1.0}, "events": events}
    provider = draw(st.sampled_from(("absent",) * 7 + ("lp", "other", None, 3)))
    if provider != "absent":
        doc["provider"] = provider
    return doc


def _api_outcome(path):
    """What ``run-scenario`` must print: the object API's CSV or its error."""
    try:
        return 0, snapshots_to_csv(run_scenario(load_script(path))), ""
    except InputError as err:
        return 1, "", f"error: {err}\n"
    except InternalError as err:
        return 3, "", f"internal error: {err}\n"


@given(doc=_replay_doc())
@settings(max_examples=400, deadline=None)
def test_run_scenario_prints_what_the_object_api_returns(doc):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "script.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert _main_in_process(["run-scenario", path]) == _api_outcome(path)


@pytest.mark.parametrize("model", ["auto_compound", "collect_separately"])
@pytest.mark.parametrize("rejected", _REJECTED, ids=json.dumps)
def test_every_rejected_kind_fails_as_in_the_object_api(tmp_path, rejected, model):
    trade = {"type": "trade", "t": 2, "direction": "y2x", "amount": 5, "max_spread": 0.5}
    if isinstance(rejected, dict):
        rejected = {"t": 1, **rejected}
    path = _write_script(tmp_path, [{"type": "snapshot", "t": 0.5}, rejected, trade],
                         pool={"x": 10, "y": 10, "fee_rate": 0.003, "fee_model": model})
    expected = _api_outcome(path)
    assert expected[0] == 1 and expected[2].startswith("error: event 1: ")
    assert _main_in_process(["run-scenario", path]) == expected


def _write_script(tmp_path, events, **fields):
    doc = {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, "events": events, **fields}
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_run_scenario_reports_a_parse_error_before_a_replay_error(capsys, tmp_path):
    events = [{"type": "snapshot", "t": 0},
              {"type": "trade", "t": 1, "direction": "y2x", "amount": -5},
              {"type": "snapshot", "t": 2}, {"type": "snapshot", "t": 3},
              {"type": "snapshot", "t": 4}, {"type": "price_move", "t": 5, "delta_x": 1}]
    code, out, err = run_cli(capsys, "run-scenario", _write_script(tmp_path, events))
    assert (code, out, err) == (1, "", "error: event 5: 'delta_y'\n")


def test_run_scenario_quotes_labels_that_need_it(capsys, tmp_path):
    labels = ["q1,2026", 'say "hi"', "two\nlines", "plain"]
    events = [{"type": "snapshot", "t": 0, "label": label} for label in labels]
    code, out, err = run_cli(capsys, "run-scenario", _write_script(tmp_path, events))
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert [len(row) for row in rows] == [11] * 6
    assert [row[0] for row in rows[1:]] == labels + ["final"]


@pytest.mark.parametrize("events, fields, message", [
    ([{"type": "snapshot", "label": None}], {}, "event 0: label: expected a string, got NoneType"),
    ([{"type": "collect_fees", "provider": 1}], {}, "event 0: provider: expected a string, got int"),
    ([], {"provider": None}, "provider: expected a string, got NoneType"),
])
def test_run_scenario_rejects_non_string_text(capsys, tmp_path, events, fields, message):
    code, out, err = run_cli(capsys, "run-scenario", _write_script(tmp_path, events, **fields))
    assert (code, out, err) == (1, "", f"error: {message}\n")
