"""Command-line interface: output shape, exit codes, determinism."""

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import bench_inputs, child_env
from cpamm import (
    InputError,
    InternalError,
    NoConvergence,
    cli,
    figures,
    load_script,
    run_scenario,
    snapshots_to_csv,
)
from cpamm import curves, replay
from cpamm.cli import main
from cpamm.figures import FIGURE_IDS
from cpamm.pool import create_pool, pool_value, rate_of


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


@pytest.mark.parametrize("direction, paid_out, paid_in", [("y2x", "x", "y"), ("x2y", "y", "x")])
def test_swap_exact_fractions(capsys, direction, paid_out, paid_in):
    # Either way round the same numbers settle, with the sides swapped.
    code, out, _ = run_cli(
        capsys, "swap", "--x", "100/1", "--y", "100/1", "--fee", "3/1000",
        "--direction", direction, "--amount", "100/1", "--fee-model", "collect_separately",
    )
    assert code == 0
    pairs = parse_pairs(out)
    assert pairs["fee_paid"] == "3/10"
    assert pairs[f"fees_{paid_in}"] == "3/10"
    assert pairs[f"fees_{paid_out}"] == "0"
    assert pairs[f"new_{paid_in}"] == "1997/10"  # 100 + 100 * 0.997
    assert pairs[f"new_{paid_out}"] == "100000/1997"  # 100 * 100 / (1997/10)


PAST_FLOAT_RANGE = f"1{'0' * 400}/1"


def assert_past_float_range_is_rejected(capsys, *argv):
    # A fraction past the largest float is rejected where it enters, as inf
    # is: this ended in an OverflowError traceback.
    code, out, err = run_cli(capsys, *argv, "--x", PAST_FLOAT_RANGE, "--y", PAST_FLOAT_RANGE)
    assert (code, out) == (1, "")
    assert err.startswith("error: initial reserves must be finite and positive, got (1000")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["swap", "--direction", "y2x", "--amount", "1/1"],
    ["pool-info"],
], ids=["swap", "pool-info"])
def test_an_exact_pool_past_float_range_is_an_input_error(capsys, command):
    assert_past_float_range_is_rejected(capsys, *command)
    # Reserves in float range whose product, 2e400, is past it and no perfect
    # square: the pool mints the root of each reserve's float, 1.414e200
    # shares, where the float root of the product was inf and rejected.
    code, out, err = run_cli(capsys, *command, "--x", f"{2 * 10**200}/1",
                             "--y", f"{10**200}/1")
    assert (code, err) == (0, "")
    pairs = parse_pairs(out)
    if command[0] == "swap":
        assert_exact(out)
        assert pairs["new_y"] == str(10**200 + 1)
    else:
        assert pairs == {"rate": "2", "liquidity": "1.414213562373095e+200",
                         "value": str(3 * 10**200)}


@pytest.mark.parametrize("x, y, report, bits", [
    # Each input is under the limit; the value's denominator, 3**8000 * 7**4500, is not.
    (Fraction(1, 3**8000), Fraction(1, 7**4500), lambda pool: pool_value(pool, 1, 1), 25313),
    # Here it is the rate, (2**12000 + 1) * 3**7000 over 2**12000 * (3**7000 + 1).
    (Fraction(2**12000 + 1, 2**12000), Fraction(3**7000 + 1, 3**7000), rate_of, 23095),
], ids=["value", "rate"])
def test_an_exact_result_past_the_size_limit_is_an_input_error(capsys, x, y, report, bits):
    message = f"exact result needs {bits} bits, more than the 13000-bit limit"
    with pytest.raises(InputError, match=f"^{message}"):
        report(create_pool(x, y))
    code, out, err = run_cli(capsys, "pool-info", "--x", f"{x.numerator}/{x.denominator}",
                             "--y", f"{y.numerator}/{y.denominator}")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err
    # An input past the limit is rejected where the pool is made.
    with pytest.raises(InputError, match="^exact result needs 14265 bits"):
        create_pool(Fraction(1, 3**9000), Fraction(1, 3**9000))


def assert_exact(out):
    """Every ``key=value`` line but the direction holds an int or a fraction."""
    for key, value in parse_pairs(out).items():
        assert key == "direction" or re.fullmatch(r"-?\d+(/\d+)?", value), (key, value)


@pytest.mark.parametrize("command", [
    ["swap", "--direction", "y2x", "--amount", "1/1"],
    ["pool-info"],
], ids=["swap", "pool-info"])
def test_an_exact_pool_past_float_range_keeps_the_defaults_exact(capsys, command):
    assert_past_float_range_is_rejected(capsys, *command)
    # The default fee and prices are ints, which join the pool's exact numbers
    # up to the largest float; as floats they would make the results floats.
    big = f"1{'0' * 300}/1"
    code, out, err = run_cli(capsys, *command, "--x", big, "--y", big)
    assert (code, err) == (0, "")
    assert_exact(out)
    pairs = parse_pairs(out)
    if command[0] == "swap":
        assert pairs["amount_out"] == str(Fraction(10**300, 10**300 + 1))
    else:
        assert pairs["value"] == str(2 * 10**300)


@pytest.mark.parametrize("argv", [
    ["swap", "--fee", "0.003", "--direction", "y2x", "--amount", "1/1"],
    ["pool-info", "--p-x", "1.0"],
    ["quote", "--fee", "0.003", "--direction", "y2x", "--amount", "1/1"],
    ["swap", "--direction", "y2x", "--amount", "1.0"],
    ["quote", "--direction", "y2x", "--amount", "1/1", "--max-spread", "0.01"],
], ids=["swap fee", "pool-info price", "quote fee", "swap amount", "quote spread cap"])
def test_a_float_beside_exact_reserves_past_float_range_is_an_input_error(capsys, argv):
    assert_past_float_range_is_rejected(capsys, *argv)
    # Anywhere in float range the float joins exact reserves.
    for reserve in ("100/1", f"1{'0' * 300}/1"):
        code, out, err = run_cli(capsys, *argv, "--x", reserve, "--y", reserve)
        assert (code, err) == (0, "")


@pytest.mark.parametrize("argv", [
    ["quote", "--x", "100/1", "--y", "100/1", "--direction", "y2x", "--amount", "1/3"],
    ["quote", "--x", "100/1", "--y", "400/1", "--fee", "3/1000", "--direction", "x2y",
     "--amount", "7/2"],
    ["swap", "--x", "9/4", "--y", "1/1", "--direction", "x2y", "--amount", "1/5",
     "--fee-model", "collect_separately"],
    ["pool-info", "--x", "4/1", "--y", "9/1"],
    ["pool-info", "--x", "4/1", "--y", "9/1", "--p-x", "1/2", "--p-y", "3/1"],
])
def test_fractional_inputs_print_no_float(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert_exact(out)


def test_an_exact_swap_at_the_default_fee_prints_fractions(capsys):
    code, out, _ = run_cli(capsys, "swap", "--x", "100/1", "--y", "100/1",
                           "--direction", "y2x", "--amount", "1/3")
    assert code == 0
    assert_exact(out)
    assert parse_pairs(out)["amount_out"] == "100/301"


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


@pytest.mark.parametrize("count", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_emit_figure_chunks_render_the_whole_text(capsys, tmp_path, figure_id, count):
    # Counts on each side of the chunk size: stdout, the file and emit_figure
    # all equal the rows joined at once.
    spec = figures.default_figure_spec(figure_id, domain_grid=(0.0, 150.0, count))
    _, header, rows = figures._FIGURES[figure_id]
    lines = rows(spec, spec.grid_points())
    whole = "\n".join([header, *lines, ""])
    assert figures.emit_figure(spec) == whole
    argv = ["emit-figure", "--figure", figure_id, "--grid-min", "0", "--grid-max", "150",
            "--count", str(count)]
    assert run_cli(capsys, *argv) == (0, whole, "")
    target = tmp_path / "fig.csv"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == whole.encode()


def test_emit_figure_into_a_pipe_closed_early_ends_quietly():
    # Far more than a pipe holds, and the reader leaves after one line, as
    # ``| head -1`` does: the rest of the chunks meet a broken pipe.
    argv = ["emit-figure", "--figure", "il_one_coin", "--count", "100000"]
    with subprocess.Popen([sys.executable, "-m", "cpamm.cli", *argv], env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"price_change_pct,il_pct\n"
        proc.stdout.close()
        code = proc.wait(timeout=60)
        assert (code, proc.stderr.read()) == (0, b"")


class FailingStdout(io.TextIOBase):
    """A stdout whose every write fails with ``error``."""

    def __init__(self, error):
        self.error = error

    def writable(self):
        return True

    def write(self, text):
        raise self.error


#: One valid call of each command; ``{script}`` stands for a scenario file.
ONE_CALL = {
    "quote": ["--x", "100", "--y", "100", "--direction", "y2x", "--amount", "5"],
    "swap": ["--x", "100", "--y", "100", "--direction", "x2y", "--amount", "5"],
    "pool-info": ["--x", "100", "--y", "100"],
    "il": ["--delta-y", "4"],
    "evolve": [],
    "roi": [],
    "run-scenario": ["{script}"],
    "emit-figure": ["--figure", "il_one_coin"],
}
FULL = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("command", cli._COMMANDS)
@pytest.mark.parametrize("error, code, message", [
    (FULL, 1, f"error: cannot write output: {FULL}\n"),
    (BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE)), 0, ""),
], ids=["full", "closed"])
def test_a_failed_write_of_stdout_ends_the_command(command, error, code, message,
                                                   tmp_path, capsys):
    # A closed pipe means the reader stopped early: it ends quietly.
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"pool": {"x": 100, "y": 100}, "prices": {"p_x": 1, "p_y": 1}}))
    argv = [command, *(arg.format(script=script) for arg in ONE_CALL[command])]
    with redirect_stdout(FailingStdout(error)):
        assert main(argv) == code
    assert capsys.readouterr() == ("", message)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_buffered_stdout_on_a_full_device_exits_1():
    # Buffered, the write fails only at the flush; what is left in the buffer
    # must not fail again when the interpreter flushes stdout at exit.
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "cpamm.cli", "roi"], env=env, stdout=full,
                              stderr=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stderr.decode()) == (1, f"error: cannot write output: {FULL}\n")


def _figure_file_peak(target, count):
    """The ``tracemalloc`` peak of writing a ``count``-row figure to ``target``."""
    argv = ["emit-figure", "--figure", "fee_model_comparison", "--count", str(count),
            "--out", str(target)]
    assert main(argv) == 0  # loads every module the measured call uses
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emit_figure_to_a_file_holds_one_chunk_of_its_text(tmp_path):
    # A list of all rows, their joined text and its encoding peaked at 2.9
    # times the file, and all checked chunks held at once at 1.14; chunks
    # written as they are computed hold one at a time (about 0.27).
    target = tmp_path / "fig.csv"
    peak = _figure_file_peak(target, 20000)
    assert peak <= 0.35 * target.stat().st_size
    # So the peak does not grow with the figure.
    assert _figure_file_peak(target, 80000) <= 1.1 * peak


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
    # main leaves each of these to argparse, on the parser of every command.
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


def test_a_flag_that_is_no_number_names_the_rule(capsys):
    # argparse names the reader of the flag: the public rule, not a private helper.
    with pytest.raises(SystemExit) as exc:
        main(["quote", "--x", "abc", "--y", "100", "--direction", "y2x", "--amount", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("error: argument --x: invalid number value: 'abc'\n")


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


def test_deeply_nested_script_exits_1(capsys, tmp_path):
    path = tmp_path / "script.json"
    path.write_text('{"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, '
                    f'"note": {"[" * 100_000}{"]" * 100_000}}}')
    code, out, err = run_cli(capsys, "run-scenario", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("frac", ["0.99", "1", "0"])
def test_rk4_step_limit_exits_1_at_once(capsys, frac):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "roi", "--frac", frac, "--method", "rk4", "--step", "1e-9")
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
        # Row 718,891 of 10**6, found by bisection without rendering the rest.
        (["--figure", "fee_model_comparison", "--grid-min", "-50", "--grid-max", "1e6",
          "--count", "1000000", "--alpha", "5e302"], "718877.6634776635"),
    ],
)
def test_non_finite_figure_row_is_named_and_no_file_is_written(capsys, tmp_path, extra, x):
    target = tmp_path / "fig.csv"
    code, out, err = run_cli(capsys, "emit-figure", *extra, "--out", str(target))
    assert (code, out) == (1, "")
    assert err == f"error: {extra[1]} leaves float range at x = {x}\n"
    assert not target.exists()


def test_non_finite_row_past_the_first_chunk_is_named_and_nothing_is_written(capsys, tmp_path):
    # About row 2,776 of 5,000: the first two chunks of 1,024 rows are finite.
    argv = ["emit-figure", "--figure", "fee_model_comparison", "--alpha", "1.7e306",
            "--grid-min", "-99", "--grid-max", "100", "--count", "5000"]
    err = "error: fee_model_comparison leaves float range at x = 11.506901380276048\n"
    assert run_cli(capsys, *argv) == (1, "", err)
    target = tmp_path / "fig.csv"
    assert run_cli(capsys, *argv, "--out", str(target)) == (1, "", err)
    assert not target.exists()


def test_a_row_that_fails_after_the_checks_is_an_internal_error(capsys, tmp_path, monkeypatch):
    # A row past the first chunk turns inf, which the last row cannot bound:
    # the stream's own scan stops it before it is printed, exit 3.
    grid, header, rows = curves._FIGURES["il_one_coin"]

    def rows_with_an_inf(spec, points):
        for i, line in enumerate(rows(spec, points)):
            yield "1.0,inf" if i == 1500 else line

    monkeypatch.setitem(curves._FIGURES, "il_one_coin", (grid, header, rows_with_an_inf))
    argv = ["emit-figure", "--figure", "il_one_coin", "--count", "3000"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert "inf" not in out
    assert err == ("internal error: il_one_coin failed after its checks passed: "
                   "a row holds inf or nan\n")
    target = tmp_path / "fig.csv"
    assert run_cli(capsys, *argv, "--out", str(target)) == (3, "", err)
    assert not target.exists()
    # Only a plain file is removed: a link named by --out, as /dev/stdout is
    # one, stays.
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert run_cli(capsys, *argv, "--out", str(link)) == (3, "", err)
    assert link.is_symlink()


@pytest.mark.parametrize("place", ["missing directory", "directory"])
def test_figure_that_cannot_be_written_exits_1(capsys, tmp_path, place):
    target = tmp_path / "missing" / "fig.csv" if place == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "emit-figure", "--figure", "il_one_coin", "--out", str(target))
    assert_rejected(code, out, err)
    assert err.startswith("error: cannot write figure: [Errno ")
    # The figure is checked first, so a non-finite one is reported as such.
    code, out, err = run_cli(capsys, "emit-figure", "--figure", "fee_model_comparison",
                             "--alpha", "1e308", "--out", str(target))
    assert_rejected(code, out, err)
    assert "leaves float range" in err


@pytest.mark.parametrize("content, message", [
    (b'{"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, "provider": "\xff"}',
     "error: cannot read script: 'utf-8' codec"),
    (b'{"pool": {"x": ' + b"1" * 5000 + b', "y": 10}, "prices": {"p_x": 1, "p_y": 1}}',
     "error: invalid JSON: Exceeds the limit"),
], ids=["not utf-8", "past the digit limit"])
def test_unreadable_script_exits_1(capsys, tmp_path, content, message):
    if message.startswith("error: invalid JSON") and not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this interpreter has no integer digit limit")
    path = tmp_path / "script.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "run-scenario", str(path))
    assert_rejected(code, out, err)
    assert err.startswith(message)


def test_internal_error_exits_3(capsys, monkeypatch):
    def solver_bug(*args, **kwargs):
        raise NoConvergence("bisection gave up")

    monkeypatch.setattr("cpamm.curves._roi_pair", solver_bug)
    code, out, err = run_cli(capsys, "roi")
    assert (code, out, err) == (3, "", "internal error: bisection gave up\n")


def test_a_root_that_does_not_settle_exits_3(capsys, monkeypatch):
    monkeypatch.setattr("cpamm.curves._ROOT_MAX_ITER", 1)
    code, out, err = run_cli(capsys, "roi")
    assert (code, out) == (3, "")
    assert err == "internal error: Newton's method took 1 steps without settling\n"


# -- property: any argv ends in exit 0, 1 or 2 -------------------------------

_NON_FINITE = ("nan", "inf", "-inf")
#: A part of ``a/b`` of 11,000 to 12,000 bits: under ``MAX_EXACT_BITS``, but
#: two of them meet in results past it.
_BIG_PART = st.integers(1 << 11_000, 1 << 12_000)


def _fractions(small):
    """``a/b`` text: parts of at most ``small`` in four draws of five, and
    in the fifth big parts, of either sign over a positive denominator."""
    part = st.integers(-small, small)
    big = st.builds("{}{}/{}".format, st.sampled_from(("", "-")), _BIG_PART, _BIG_PART)
    return st.sampled_from((st.builds("{}/{}".format, part, part),) * 4 + (big,)).flatmap(
        lambda fractions: fractions)


#: A pool's two exact numbers drawn together, big parts in each: independent
#: draws seldom give two, and so seldom a result past ``MAX_EXACT_BITS``.
_BIG_POOL = st.tuples(*[st.builds("{}/{}".format, _BIG_PART, _BIG_PART)] * 2)
_numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6).map(repr),
    st.sampled_from(("0",) + _NON_FINITE),
    _fractions(1000),
)
_json_numbers = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from((0, math.nan, math.inf, -math.inf)),
    _fractions(10),
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


#: Values that start with ``-``: after a space, argparse up to Python 3.13.0
#: reads the first as a value and the others as flags it does not know.
_DASHED = ("-84.5", "-1e-05", "-inf")
#: What a well-formed argv never holds: help, the end of the flags, a stray
#: positional, and a value given to a switch.
_EXTRAS = ("-h", "--", "stray", "--replay-check=1")


@st.composite
def _cli_argv(draw):
    """An argv of a command with every required flag: written ``--flag=value``
    in three of four draws and ``--flag value`` in the fourth, a flag
    sometimes repeated or abbreviated, and now and then one of ``_EXTRAS``.
    One pool in two is ``_BIG_POOL``."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    required, optional, others = _COMMANDS[command]
    argv = [command, *draw(st.sampled_from(others))]
    flags = required + [f for f in optional if draw(st.booleans())]
    pool = {}
    if "--x" in required and draw(st.booleans()):
        pool = dict(zip(("--x", "--y"), draw(_BIG_POOL)))
    for flag in flags + (draw(st.lists(st.sampled_from(flags), max_size=1)) if flags else []):
        value = _numbers if flag != "--count" else st.integers(-2, 200).map(str) | _numbers
        value = draw(st.sampled_from(_DASHED) if draw(st.integers(0, 9)) == 9 else value)
        value = pool.get(flag, value)
        if len(flag) > 3 and draw(st.integers(0, 19)) == 19:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        argv += [flag, value] if draw(st.integers(0, 3)) == 3 else [f"{flag}={value}"]
    if draw(st.integers(0, 7)) == 7:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_EXTRAS)))
    return argv


@st.composite
def _script(draw):
    """A scenario document whose pool sits on the market rate unless the draw
    says not; one pool in four is ``_BIG_POOL``, at the prices of its rate."""
    reserve, price = draw(_json_numbers), draw(_json_numbers)
    pool_y, price_y = draw(st.just(reserve) | _json_numbers), draw(st.just(price) | _json_numbers)
    if draw(st.integers(0, 3)) == 3:
        reserve, pool_y = draw(_BIG_POOL)
        price, price_y = pool_y, reserve
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
        "pool": {"x": reserve, "y": pool_y,
                 "fee_rate": draw(st.just(0.003) | _json_numbers),
                 "fee_model": draw(st.sampled_from(("auto_compound", "collect_separately")))},
        "prices": {"p_x": price, "p_y": price_y},
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


# Results past ``MAX_EXACT_BITS`` take two or more positive exact numbers
# together.  ``_BIG_POOL`` draws a pool's two, and members of that class are
# named here too: a value, a rate and a receipt's spread past the limit.
_BIG_A = f"{2**12000 + 1}/{2**12000}"
_BIG_B = f"{3**7000 + 1}/{3**7000}"


@given(argv=_cli_argv())
@example(argv=["pool-info", f"--x=1/{3**8000}", f"--y=1/{7**4500}"])
@example(argv=["pool-info", f"--x={_BIG_A}", f"--y={_BIG_B}"])
@example(argv=["swap", "--direction", "y2x", "--x=3/7", "--y=5/2", f"--amount={_BIG_A}"])
@settings(max_examples=400, deadline=None)
def test_any_argv_exits_0_1_or_2(argv):
    args = _argparse_reads(argv)[0]
    non_finite = args is not None and any(
        isinstance(value, float) and not math.isfinite(value) for value in vars(args).values())
    _check_exit(*_main_in_process(argv), non_finite)


def _argparse_reads(argv):
    """``(args, code, out, err)``: what argparse reads from ``argv``, or None
    and the status and text it exits with."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            return cli.build_parser().parse_args(argv), None, "", ""
        except SystemExit as exit_:
            return None, exit_.code, out.getvalue(), err.getvalue()


def _values(args) -> dict:
    # By repr, so that NaN matches NaN, and 1.0 matches neither 1 nor Fraction(1).
    return {name: repr(value) for name, value in vars(args).items()}


def assert_read_as_argparse_reads(argv, read=None):
    """Whatever ``cli._read`` reads from ``argv`` (if and only if ``read``,
    unless that is None) is what argparse reads.  An argv it declines that
    argparse rejects ends ``main`` with argparse's help or usage error."""
    ours = cli._read(argv)
    args, code, out, err = _argparse_reads(argv)
    assert read is None or (ours is not None) == read
    if ours is not None:
        assert args is not None, err
        assert _values(ours) == _values(args)
    elif args is None:
        assert _main_in_process(argv) == (code, out, err)


@given(argv=_cli_argv())
@settings(max_examples=400, deadline=None)
def test_the_flag_table_reads_what_argparse_reads(argv):
    assert_read_as_argparse_reads(argv)


_FIGURE = ["emit-figure", "--figure", "il_one_coin"]
_QUOTE = ["quote", "--x", "100", "--y", "100", "--direction", "y2x"]


@pytest.mark.parametrize("argv, read", [
    (_FIGURE + ["--grid-min", "-84.5"], True),  # argparse reads a negative number as a value
    (_FIGURE + ["--grid-min", "-.5"], True),
    (_FIGURE + ["--grid-min", "-5\n"], True),  # its pattern's "$" matches before a final newline
    (_FIGURE + ["--count", "-\u0663"], True),  # and its "\d" any decimal digit
    (_FIGURE + ["--grid-min", "-1e-05"], False),  # a flag to argparse up to Python 3.13.0
    (_FIGURE + ["--grid-min", "-5."], False),
    (_QUOTE + ["--amount", "-inf"], False),
    (_QUOTE + ["--amount=-inf"], True),
    (["il", "--delta-x", "2", "--delta-x", "3"], True),  # the last value stands
    (["il", "--delta-x", "abc", "--delta-x", "3"], False),  # but each is read
    (["il", "--replay-check", "--replay-check"], True),
    (["il", "--replay-check=1"], False),
    (_QUOTE + ["--am", "5"], False),  # an abbreviation, which argparse reads
    (["roi", "--method", "bogus"], False),
    (["roi", "--method=rk4", "--step", "1e-05"], True),
    (["quote", "--x", "1"], False),
    (["-h"], False),
    (["quote", "-h"], False),
    (["roi", "--"], False),
    (["roi", "stray"], False),
    ([], False),
    (["bogus"], False),
    (["run-scenario", "s.json"], True),
    (["run-scenario", "s.json", "t.json"], False),
    (["run-scenario"], False),
    (["run-scenario", "-"], False),  # a script argparse reads
    (_FIGURE + ["--out="], True),
    (_FIGURE + ["--out=--"], False),  # argparse up to 3.12 reads an empty list
    (_FIGURE + ["--out", "-"], False),  # argparse reads "-" as a value
])
def test_the_flag_table_reads_each_edge_form_as_argparse_does(argv, read):
    assert_read_as_argparse_reads(argv, read)


@given(tail=st.text(alphabet="0123456789.\n\u0663\u00b2e- ", max_size=6))
@example(tail="5\n")
@example(tail=".5")
def test_a_dashed_value_reads_as_a_number_where_argparse_says(tail):
    assert cli._negative_number("-" + tail) == bool(re.match(r"^-\d+$|^-\d*\.\d+$", "-" + tail))


def test_every_benchmark_argv_is_read_from_the_flag_table():
    # The benchmark's one-shot calls and figures, as at three seeds: argparse
    # runs only for help and usage errors, and none of them is either.
    inputs = bench_inputs()
    scripts = {"valid": ["a.json", "b.json"], "backwards": "back.json", "missing": "none.json"}
    argvs = [inputs.rk4_argv(100_000), inputs.implicit_argv()]
    for seed in (1, 2, 3):
        argvs += [job.argv for job in inputs.cli_call_jobs(seed, 300, scripts)]
        argvs += [job.argv for job in inputs.analytics_jobs(seed, 20_000)]
    assert len(argvs) == 917
    parser = cli.build_parser()
    for argv in argvs:
        args = cli._read(list(argv))
        assert args is not None and _values(args) == _values(parser.parse_args(argv)), argv


@given(doc=_script())
# Exact prices whose market rate, about 2, has more digits than str() gives.
@example(doc={"pool": {"x": 1, "y": 1}, "events": [],
              "prices": {"p_x": _BIG_B, "p_y": f"{2**12000 + 1}/{2**11999}"}})
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


#: A trade either way round under each form of cap, a price move either way
#: and a fee collection, each followed by a snapshot.
_EACH_FORM = [
    *({"type": "trade", "direction": side, "amount": 2.5, **cap} for side in ("y2x", "x2y")
      for cap in ({}, {"max_spread": None}, {"max_spread": 0}, {"max_spread": 0.0},
                  {"max_spread": 0.001})),
    {"type": "price_move", "delta_x": 1.01, "delta_y": 0.99},
    {"type": "price_move", "delta_x": 0.99, "delta_y": 1.01},
    {"type": "collect_fees", "provider": "lp"},
]
_EACH_FORM_DOC = {
    "pool": {"x": 100, "y": 100, "fee_rate": 0.003, "fee_model": "collect_separately"},
    "prices": {"p_x": 1, "p_y": 1},
    "events": [dict(event, t=index) for index, event in enumerate(
        entry for event in _EACH_FORM for entry in (event, {"type": "snapshot"}))],
}


@given(doc=_replay_doc())
@example(doc=_EACH_FORM_DOC)
@settings(max_examples=400, deadline=None)
def test_run_scenario_prints_what_the_object_api_returns(doc):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "script.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        assert _main_in_process(["run-scenario", path]) == _api_outcome(path)


@pytest.mark.parametrize("rows", [1, 1023, 1024, 1025, 2049])
def test_run_scenario_prints_what_the_object_api_returns_at_chunk_edges(tmp_path, rows):
    # ``rows`` counts the final snapshot.  Labels that need quoting sit on
    # either side of a chunk's edge (rows 1023 and 1024, 2047 and 2048).
    labels = {1022: "a,b", 1023: 'say "hi"', 1024: "a,b", 2047: 'say "hi"'}
    events = [{"type": "snapshot", "t": index, "label": labels.get(index, f"s{index}")}
              for index in range(rows - 1)]
    path = _write_script(tmp_path, events)
    expected = _api_outcome(path)
    assert expected[0] == 0 and expected[1].count("\n") == 1 + rows
    assert _main_in_process(["run-scenario", path]) == expected
    chunks = replay._run_script_file(path)
    assert [chunk.count("\n") for chunk in chunks] == [1, *[1024] * (rows // 1024), rows % 1024]


def test_run_scenario_holds_its_output_once_as_rows(tmp_path):
    events = [{"type": "snapshot", "t": index, "label": f"s{index}" if index % 1000 else "a,b"}
              for index in range(20_000)]
    args = cli.build_parser().parse_args(["run-scenario", _write_script(tmp_path, events)])
    text = "".join(args.func(args))  # loads every module the measured call uses
    tracemalloc.start()
    try:
        args.func(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Snapshot objects, a list of their lines and the joined text peaked at
    # 9.2 times the text; rows joined into chunks as they come take the text
    # once, plus a window of the script and one chunk: 1.6 times.
    assert peak <= 2.5 * len(text), peak / len(text)


@given(doc=_script() | _replay_doc(), window=st.sampled_from([7, 1 << 16]))
# A label that a cut between braces would split, read across many windows.
@example(doc=dict(_EACH_FORM_DOC, events=[*_EACH_FORM_DOC["events"][:8], {
    "type": "snapshot", "t": 8, "label": "}, {"}, *_EACH_FORM_DOC["events"][8:]]), window=7)
@settings(max_examples=200, deadline=None)
def test_run_scenario_reads_every_layout_alike(doc, window):
    # sort_keys puts events before the header, so the header comes late.
    outcomes, asked, stream = [], [], replay._stream

    def noted(read, begin):  # notes the size of every read
        def noted_read(size):
            asked.append(size)
            return read(size)

        return stream(noted_read, begin)

    with tempfile.TemporaryDirectory() as folder, mock.patch.object(replay, "_WINDOW", window), \
            mock.patch.object(replay, "_stream", noted):
        for layout in ({}, {"indent": 2}, {"sort_keys": True}):
            path = os.path.join(folder, "script.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle, **layout)
            outcomes.append(_main_in_process(["run-scenario", path]))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    # Each reading asks for one window first: the patch is the one read.
    assert window in asked and min(asked) >= window


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
