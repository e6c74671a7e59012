"""Scenario replay: events, snapshots, script files, effective alpha."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpamm import (
    CollectFees,
    CpammError,
    Direction,
    DomainError,
    EmptyWindow,
    FeeModel,
    InputError,
    InvalidRate,
    NonPositiveAmount,
    NonPositiveReserve,
    PortfolioSnapshot,
    PriceMove,
    PriceScenario,
    ScenarioScript,
    ScriptError,
    SideLedger,
    Snapshot,
    SpreadOutOfRange,
    Trade,
    create_pool,
    execute_swap,
    impermanent_loss,
    load_script,
    measure_effective_alpha,
    pool_value,
    run_scenario,
    snapshots_to_csv,
)
from conftest import child_env
from cpamm import replay
from cpamm.cli import main
from cpamm.pool import arbitrage_to_rate
from cpamm.rational import RationalPool, oracle_split_sum
from cpamm.replay import _parse_event, _read_script, _run_script_file
from cpamm.scenario import _event


def make_script(events, fee_rate=0.0, fee_model=FeeModel.AUTO_COMPOUND):
    return ScenarioScript(
        pool_x=100.0,
        pool_y=100.0,
        fee_rate=fee_rate,
        fee_model=fee_model,
        p_x0=1.0,
        p_y0=1.0,
        events=events,
    )


def test_empty_script_yields_final_snapshot():
    snapshots = run_scenario(make_script(()))
    assert len(snapshots) == 1
    final = snapshots[0]
    assert final.label == "final"
    assert final.t == 0.0
    assert final.lp_value_pooled == 200.0
    assert final.lambda_realized == 0.0


def test_price_move_reproduces_closed_form_loss():
    snapshots = run_scenario(make_script((PriceMove(t=1.0, delta_x=1.0, delta_y=4.0),)))
    final = snapshots[-1]
    assert final.reserve_x == pytest.approx(200.0, rel=1e-12)
    assert final.reserve_y == pytest.approx(50.0, rel=1e-12)
    assert final.lp_value_pooled == pytest.approx(400.0, rel=1e-12)
    assert final.lp_value_held == pytest.approx(500.0, rel=1e-12)
    assert final.lambda_realized == pytest.approx(-0.2, rel=1e-12)


@pytest.mark.parametrize("dx,dy", [(0.5, 2.0), (1.0, 3.0), (4.0, 0.25), (2.0, 2.0)])
def test_any_price_move_matches_analytics(dx, dy):
    snapshots = run_scenario(make_script((PriceMove(t=1.0, delta_x=dx, delta_y=dy),)))
    expected = impermanent_loss(PriceScenario(dx, dy)).relative_loss
    assert snapshots[-1].lambda_realized == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_split_price_moves_compose():
    # two half-moves end where one full move does
    one = run_scenario(make_script((PriceMove(t=1.0, delta_x=1.0, delta_y=4.0),)))
    two = run_scenario(
        make_script(
            (
                PriceMove(t=0.5, delta_x=1.0, delta_y=2.0),
                PriceMove(t=1.0, delta_x=1.0, delta_y=2.0),
            )
        )
    )
    assert two[-1].lambda_realized == pytest.approx(one[-1].lambda_realized, rel=1e-12)
    assert two[-1].p_y == one[-1].p_y == 4.0


def test_trade_fees_accumulate_in_ledger():
    script = make_script(
        (
            Trade(t=0.1, direction=Direction.Y_FOR_X, amount_in=100.0),
            Trade(t=0.2, direction=Direction.Y_FOR_X, amount_in=100.0),
        ),
        fee_rate=0.003,
        fee_model=FeeModel.COLLECT_SEPARATELY,
    )
    final = run_scenario(script)[-1]
    assert final.fees_y == pytest.approx(0.6, rel=1e-12)
    assert final.fees_x == 0


def test_collect_fees_empties_ledger():
    script = make_script(
        (
            Trade(t=0.1, direction=Direction.Y_FOR_X, amount_in=100.0),
            Snapshot(t=0.2, label="before"),
            CollectFees(t=0.3, provider="lp"),
        ),
        fee_rate=0.003,
        fee_model=FeeModel.COLLECT_SEPARATELY,
    )
    before, final = run_scenario(script)
    assert before.label == "before"
    assert before.fees_y == pytest.approx(0.3, rel=1e-12)
    assert final.fees_y == 0


def test_a_collection_keeps_an_exact_ledger_exact():
    # The liquidity sqrt(2 * 1) is irrational: its share ratio, 1.0, made
    # the ledger a float at the first collection.
    events = (
        Trade(t=0.0, direction=Direction.Y_FOR_X, amount_in=Fraction(1, 10)),
        CollectFees(t=1.0, provider="lp"),
        Trade(t=2.0, direction=Direction.X_FOR_Y, amount_in=Fraction(1, 7)),
        Trade(t=3.0, direction=Direction.X_FOR_Y, amount_in=Fraction(1, 9)),
        CollectFees(t=4.0, provider="bob"),
    )
    script = ScenarioScript(Fraction(2), Fraction(1), Fraction(3, 1000),
                            FeeModel.COLLECT_SEPARATELY, 1, 2, events)
    final = run_scenario(script)[-1]
    # lp took the first trade's Y fee; bob, who owns nothing, took nothing
    # of the X fees, 3/1000 * (1/7 + 1/9).
    assert (final.fees_x, final.fees_y) == (Fraction(2, 2625), 0)


def test_max_spread_caps_scripted_trade():
    script = make_script(
        (Trade(t=0.0, direction=Direction.Y_FOR_X, amount_in=1e9, max_spread=0.75),)
    )
    final = run_scenario(script)[-1]
    # cap is y * (1/sqrt(0.25) - 1) = 100, so y doubles
    assert final.reserve_y == pytest.approx(200.0, rel=1e-12)


@pytest.mark.parametrize("direction", ["y2x", "x2y"])
@pytest.mark.parametrize("cap", [0, 0.0, None, "absent"])
def test_a_zero_cap_is_a_cap_and_a_missing_one_none(tmp_path, direction, cap):
    # A cap of 0 admits no net input, so the trade is empty; without one the
    # same trade moves the pool and credits its fee.  The same on a script
    # file's CSV, on its loaded events and on Trade objects.
    event = {"type": "trade", "t": 0, "direction": direction, "amount": 5}
    if cap != "absent":
        event["max_spread"] = cap
    doc = script_doc(events=[event])
    doc["pool"].update(fee_rate=0.003, fee_model="collect_separately")
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spread = None if cap == "absent" else cap
    objects = dataclasses.replace(
        load_script(path), events=(Trade(0.0, Direction(direction), 5.0, spread),))
    fields = ("reserve_x", "reserve_y", "fees_x", "fees_y")
    row = list(csv.DictReader(io.StringIO("".join(_run_script_file(path)))))[-1]
    states = [tuple(float(row[name]) for name in fields)] + [
        tuple(getattr(run_scenario(script)[-1], name) for name in fields)
        for script in (load_script(path), objects)]
    assert states[0] == states[1] == states[2]
    x, y, fees_x, fees_y = states[0]
    if spread is None:
        sold, bought, fee = (y, x, fees_y) if direction == "y2x" else (x, y, fees_x)
        assert sold == 10 + 5 * (1 - 0.003) and bought < 10 and fee == pytest.approx(0.015)
    else:
        assert states[0] == (10, 10, 0, 0)


def test_initial_rate_must_match_prices():
    script = ScenarioScript(
        pool_x=100.0,
        pool_y=50.0,
        fee_rate=0.0,
        fee_model=FeeModel.AUTO_COMPOUND,
        p_x0=1.0,
        p_y0=1.0,
    )
    with pytest.raises(ScriptError):
        run_scenario(script)


def test_backwards_timestamps_rejected():
    script = make_script(
        (
            Snapshot(t=1.0, label="late"),
            Snapshot(t=0.5, label="early"),
        )
    )
    with pytest.raises(ScriptError, match="event 1"):
        run_scenario(script)


@pytest.mark.parametrize("t", [math.nan, math.inf])
def test_non_finite_replay_timestamp_rejected(t):
    # A hand-built script skips load_script's check; NaN compares False both
    # ways, so a plain "earlier than" test would let -1.0 run after it.
    script = make_script((Snapshot(t=t, label="odd"), Snapshot(t=-1.0, label="early")))
    with pytest.raises(ScriptError, match="^event 0: timestamp .* must be finite"):
        run_scenario(script)


def test_unknown_event_type_rejected():
    script = make_script((Snapshot(t=0.0, label="ok"), SimpleNamespace(t=1.0)))
    with pytest.raises(ScriptError, match="^event 1: unknown event type SimpleNamespace"):
        run_scenario(script)


def test_event_errors_carry_index_and_type():
    script = make_script((Trade(t=0.0, direction=Direction.Y_FOR_X, amount_in=-5.0),))
    with pytest.raises(NonPositiveAmount, match="event 0"):
        run_scenario(script)


def test_bad_price_move_rejected():
    script = make_script((PriceMove(t=0.0, delta_x=0.0, delta_y=1.0),))
    with pytest.raises(ScriptError, match="event 0"):
        run_scenario(script)


def test_load_script_round_trip(tmp_path):
    doc = {
        "pool": {"x": 100, "y": 100, "fee_rate": 0.003, "fee_model": "collect_separately"},
        "prices": {"p_x": 1.0, "p_y": 1.0},
        "events": [
            {"type": "trade", "t": 0.1, "direction": "y2x", "amount": 5, "max_spread": 0.5},
            {"type": "price_move", "t": 0.5, "delta_x": 1.0, "delta_y": 4.0},
            {"type": "collect_fees", "t": 0.9, "provider": "lp"},
            {"type": "snapshot", "t": 1.0, "label": "year-end"},
        ],
    }
    path = tmp_path / "script.json"
    path.write_text(json.dumps(doc))
    script = load_script(path)
    assert script.fee_model is FeeModel.COLLECT_SEPARATELY
    assert len(script.events) == 4
    assert script.events[0].max_spread == 0.5
    snapshots = run_scenario(script)
    assert [s.label for s in snapshots] == ["year-end", "final"]


def test_load_script_defaults():
    stream = io.StringIO(
        json.dumps({"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}})
    )
    script = load_script(stream)
    assert script.fee_rate == 0.0
    assert script.fee_model is FeeModel.AUTO_COMPOUND
    assert script.events == ()
    assert script.provider == "lp"


def test_load_script_rejects_garbage():
    with pytest.raises(ScriptError):
        load_script(io.StringIO("not json at all {"))
    with pytest.raises(ScriptError):
        load_script(io.StringIO(json.dumps({"pool": {"x": 1}})))
    bad_event = {
        "pool": {"x": 10, "y": 10},
        "prices": {"p_x": 1, "p_y": 1},
        "events": [{"type": "teleport", "t": 0}],
    }
    with pytest.raises(ScriptError, match="event 0"):
        load_script(io.StringIO(json.dumps(bad_event)))
    missing_field = {
        "pool": {"x": 10, "y": 10},
        "prices": {"p_x": 1, "p_y": 1},
        "events": [{"type": "trade", "t": 0, "direction": "y2x"}],
    }
    with pytest.raises(ScriptError, match="event 0"):
        load_script(io.StringIO(json.dumps(missing_field)))


def _load_bytes(tmp_path, data, as_stream):
    path = tmp_path / "script.json"
    path.write_bytes(data)
    if not as_stream:
        return load_script(path)
    with open(path, encoding="utf-8") as stream:
        return load_script(stream)


@pytest.mark.parametrize("as_stream", [False, True])
def test_script_that_is_not_utf8_cannot_be_read(tmp_path, as_stream):
    data = b'{"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, "provider": "\xff"}'
    with pytest.raises(ScriptError, match="^cannot read script: 'utf-8' codec can't decode"):
        _load_bytes(tmp_path, data, as_stream)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no integer digit limit")
@pytest.mark.parametrize("as_stream", [False, True])
def test_integer_past_the_digit_limit_is_invalid_json(tmp_path, as_stream):
    data = b'{"pool": {"x": ' + b"1" * 5000 + b', "y": 10}, "prices": {"p_x": 1, "p_y": 1}}'
    with pytest.raises(ScriptError, match="^invalid JSON: Exceeds the limit"):
        _load_bytes(tmp_path, data, as_stream)


def test_csv_shape_and_determinism():
    script = make_script(
        (
            Trade(t=0.1, direction=Direction.Y_FOR_X, amount_in=5.0),
            Snapshot(t=0.5, label="mid"),
        ),
        fee_rate=0.003,
    )
    first = snapshots_to_csv(run_scenario(script))
    second = snapshots_to_csv(run_scenario(script))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0].startswith("label,t,reserve_x,reserve_y")
    assert len(lines) == 3  # header + mid + final
    assert lines[1].split(",")[0] == "mid"


def test_effective_alpha_models_agree_for_small_trades():
    def script(model):
        events = tuple(
            Trade(
                t=i / 1000.0,
                direction=Direction.Y_FOR_X if i % 2 else Direction.X_FOR_Y,
                amount_in=0.1,
            )
            for i in range(1, 201)
        )
        return ScenarioScript(
            pool_x=1e6,
            pool_y=1e6,
            fee_rate=0.003,
            fee_model=model,
            p_x0=1.0,
            p_y0=1.0,
            events=events,
        )

    a_auto = measure_effective_alpha(script(FeeModel.AUTO_COMPOUND), window=1.0)
    a_collect = measure_effective_alpha(script(FeeModel.COLLECT_SEPARATELY), window=1.0)
    # 200 trades of 0.1 at fee 0.003 on liquidity 1e6: alpha = 3e-8
    assert a_collect == pytest.approx(3e-8, rel=1e-9)
    assert a_auto == pytest.approx(a_collect, rel=1e-6)


@pytest.mark.parametrize("replay", [run_scenario, lambda script: measure_effective_alpha(script, 1.0)],
                         ids=["run_scenario", "effective_alpha"])
def test_an_exact_replay_stops_at_the_size_limit(replay):
    # Each compounded fee multiplies the reserves' denominators: unchecked,
    # these 20 trades took about a second, and each two more about 6 times that.
    trades = tuple(Trade(i / 20, (Direction.Y_FOR_X, Direction.X_FOR_Y)[i % 2], Fraction(1))
                   for i in range(20))
    script = ScenarioScript(Fraction(100), Fraction(100), Fraction(3, 1000),
                            FeeModel.AUTO_COMPOUND, Fraction(1), Fraction(1), trades)
    start = time.perf_counter()
    with pytest.raises(InputError, match="^event 13: exact result needs 15984 bits, more than"):
        replay(script)
    assert time.perf_counter() - start < 1.0


def test_effective_alpha_zero_without_trades():
    assert measure_effective_alpha(make_script(()), window=1.0) == 0.0


@pytest.mark.parametrize("price", [1e200, 1e-200, 1e308])
def test_effective_alpha_at_extreme_prices(price):
    # The fees' liquidity equivalent divides by sqrt(p_x * p_y), whose
    # product leaves float range here, and at 1e308 so does twice the root;
    # alpha itself does not depend on it.
    def script(p):
        return ScenarioScript(100.0, 100.0, 0.003, FeeModel.COLLECT_SEPARATELY, p, p,
                              (Trade(0.5, Direction.Y_FOR_X, 5.0),))

    at_one = measure_effective_alpha(script(1.0), window=1.0)
    assert at_one == pytest.approx(7.5e-5, rel=1e-12)
    assert measure_effective_alpha(script(price), window=1.0) == pytest.approx(at_one, rel=1e-12)


@pytest.mark.parametrize("price", [1e-310, 1e-200, 1e308])
def test_effective_alpha_with_fees_on_both_sides_at_extreme_prices(price):
    # Fees in both tokens: at prices 1e-310 their value is subnormal, which
    # was rejected, though alpha does not depend on the price level.
    def script(p):
        trades = (Trade(0.5, Direction.Y_FOR_X, 1e-3), Trade(0.6, Direction.X_FOR_Y, 1e-3))
        return ScenarioScript(100.0, 100.0, 0.003, FeeModel.COLLECT_SEPARATELY, p, p, trades)

    at_one = measure_effective_alpha(script(1.0), window=1.0)
    assert at_one == 2.9999999999999647e-08
    assert measure_effective_alpha(script(price), window=1.0) == pytest.approx(at_one, rel=1e-12)


def test_effective_alpha_past_the_exact_product():
    # The reserve product is past float range and no perfect square after the
    # trade, whose fee grows the liquidity by about 1e-300: this was inf.
    big = Fraction(10**300)
    script = ScenarioScript(big, big, Fraction(1, 2), FeeModel.AUTO_COMPOUND, 1, 1,
                            (Trade(0.0, Direction.X_FOR_Y, Fraction(1)),))
    assert measure_effective_alpha(script, window=1.0) == 0.0


def test_effective_alpha_rejects_empty_window():
    with pytest.raises(EmptyWindow):
        measure_effective_alpha(make_script(()), window=0.0)
    with pytest.raises(EmptyWindow):
        measure_effective_alpha(make_script(()), window=-1.0)


def script_doc(**fields):
    return {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}, **fields}


@pytest.mark.parametrize("entry", [[1, 2], 5, "trade", None])
def test_non_object_event_names_its_index(entry):
    doc = script_doc(events=[{"type": "snapshot", "t": 0}, entry])
    with pytest.raises(ScriptError, match="^event 1: "):
        load_script(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("amount", [None, "five", 10**400], ids=["null", "text", "huge"])
def test_bad_trade_amount_names_its_index(amount):
    doc = script_doc(events=[{"type": "trade", "t": 0, "direction": "y2x", "amount": amount}])
    with pytest.raises(ScriptError, match="^event 0: "):
        load_script(io.StringIO(json.dumps(doc)))


def test_string_amount_replays_as_float():
    def csv_for(amount):
        trade = {"type": "trade", "t": 0, "direction": "y2x", "amount": amount}
        script = load_script(io.StringIO(json.dumps(script_doc(events=[trade]))))
        return script.events[0].amount_in, snapshots_to_csv(run_scenario(script))

    amount, csv = csv_for("5")
    assert amount == 5.0 and isinstance(amount, float)
    assert csv == csv_for(5)[1]


def test_a_script_number_is_a_float_unless_written_a_over_b():
    # The CLI's rule: a JSON int is a float, and only a string "a/b" is exact.
    plain = load_doc({"pool": {"x": 100, "y": 100}, "prices": {"p_x": 1, "p_y": 1}})
    assert plain.pool_x == 100.0 and type(plain.pool_x) is float
    # An absent fee is the int 0, as the CLI's --fee default, which keeps the
    # exact numbers exact; 0.0 would turn them into floats.
    assert plain.fee_rate == 0 and type(plain.fee_rate) is int
    exact = load_doc({"pool": {"x": "100/1", "y": "400/1", "fee_rate": "3/1000"},
                      "prices": {"p_x": "2/1", "p_y": 1},
                      "events": [{"type": "trade", "t": "1/2", "direction": "x2y",
                                  "amount": "7/2", "max_spread": "1/10"}]})
    assert (exact.pool_x, exact.pool_y, exact.fee_rate, exact.p_x0) == (
        Fraction(100), Fraction(400), Fraction(3, 1000), Fraction(2))
    assert exact.events == (Trade(Fraction(1, 2), Direction.X_FOR_Y, Fraction(7, 2),
                                  Fraction(1, 10)),)
    assert all(isinstance(value, Fraction) for value in dataclasses.astuple(exact.events[0])
               if not isinstance(value, str))


@pytest.mark.parametrize("prices, events, message", [
    # Exact prices whose ratio, about 2 in 23,095 bits, has more digits than str gives.
    ({"p_x": f"{3**7000 + 1}/{3**7000}", "p_y": f"{2**12000 + 1}/{2**11999}"}, [],
     "pool rate 1.0 does not match market rate an exact value of 23095 bits"),
    # A move that takes an exact price of 13,001 bits past float range.
    ({"p_x": f"{2**13000 + 1}/{2**12000}", "p_y": f"{2**13000 + 1}/{2**12000}"},
     [{"type": "price_move", "t": 1, "delta_x": f"{3**5000 << 30}/{3**5000 + 1}",
       "delta_y": 1}],
     "event 0: prices after the move must be finite and positive, got "
     "(an exact value of 20925 bits, 1.0715086071862673e+301)"),
], ids=["market rate", "price move"])
def test_an_exact_value_too_long_to_print_is_named_by_its_size(tmp_path, capsys, prices,
                                                               events, message):
    # str() of such a value raised ValueError, which ended the command in a traceback.
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"pool": {"x": 1, "y": 1}, "prices": prices, "events": events}))
    assert main(["run-scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_exact_prices_are_held_to_the_size_limit(tmp_path, capsys):
    # Each exact move grows the price's numerator by about 158.5 bits, so a
    # replay that let prices grow went on with ever-longer prices.
    delta = Fraction(3**100, 2**158)
    events = [{"type": "price_move", "t": 1, "delta_x": f"{delta.numerator}/{delta.denominator}",
               "delta_y": 1}] * 100 + [{"type": "snapshot", "t": 1, "label": "end"}]
    index, price = 0, delta
    while (bits := price.numerator.bit_length()) <= 13_000:
        index, price = index + 1, price * delta
    assert (index, bits) == (82, 13_156)
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"pool": {"x": 1, "y": 1}, "prices": {"p_x": "1/1", "p_y": 1},
                                "events": events}))
    assert main(["run-scenario", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: event 82: exact result needs 13156 bits, more "
                                   "than the 13000-bit limit on a numerator or denominator; "
                                   "use floats\n")


@pytest.mark.parametrize("parts", [7, 13])
def test_a_split_trade_replays_to_the_same_exact_pool(tmp_path, capsys, parts):
    # The paper's first result: splitting a fee-free trade into smaller ones
    # leaves the final pool unchanged.  In fractions it holds bit for bit.
    def replay(parts):
        events = [{"type": "trade", "t": 0.5, "direction": "y2x", "amount": f"1/{parts}"}
                  for _ in range(parts)]
        path = tmp_path / f"split-{parts}.json"
        path.write_text(json.dumps({"pool": {"x": "100/1", "y": "100/1"},
                                    "prices": {"p_x": 1, "p_y": 1}, "events": events}))
        assert main(["run-scenario", str(path)]) == 0
        return capsys.readouterr().out, run_scenario(load_script(path))[-1]

    whole, whole_final = replay(1)
    split, split_final = replay(parts)
    assert split == whole
    assert "\nfinal,0.5,99.00990099009901,101.0," in whole
    sold = oracle_split_sum(RationalPool(Fraction(100), Fraction(100)), Direction.Y_FOR_X,
                            [Fraction(1, parts)] * parts)
    assert (split_final.reserve_x, split_final.reserve_y) == (100 - sold, 101)
    assert split_final.reserve_x == whole_final.reserve_x == Fraction(10000, 101)


@pytest.mark.parametrize(
    "field, value",
    [("pool", [1]), ("pool", "x"), ("prices", [1]), ("events", "abc"), ("events", {})],
)
def test_non_object_sections_rejected(field, value):
    with pytest.raises(ScriptError, match=f"^{field}: "):
        load_script(io.StringIO(json.dumps(script_doc(**{field: value}))))


def test_script_values_stay_frozen():
    trade = Trade(t=0.0, direction=Direction.Y_FOR_X, amount_in=1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trade.amount_in = 2.0
    assert not hasattr(trade, "__dict__")


@pytest.mark.parametrize("direction", ["sideways", "Y_FOR_X", 5, None, [1], {"y2x": 1}])
def test_bad_direction_keeps_the_enum_message(direction):
    # e.g. "event 0: 'sideways' is not a valid Direction"
    with pytest.raises(ValueError) as expected:
        Direction(direction)
    doc = script_doc(events=[{"type": "trade", "t": 0, "direction": direction, "amount": 1}])
    with pytest.raises(ScriptError) as err:
        load_script(io.StringIO(json.dumps(doc)))
    assert str(err.value) == f"event 0: {expected.value}"


@pytest.mark.parametrize(
    "t", ["NaN", "inf", "-Infinity", math.nan, math.inf],
    ids=["text-nan", "text-inf", "text-minus-inf", "json-nan", "json-inf"],
)
def test_non_finite_timestamp_rejected(t):
    # A NaN time compares False both ways, so it would let the next event run backwards.
    events = [{"type": "snapshot", "t": when} for when in (5, t, 1)]
    with pytest.raises(ScriptError, match="^event 1: timestamp must be finite"):
        load_script(io.StringIO(json.dumps(script_doc(events=events))))



@pytest.mark.parametrize("path", [
    ("pool", "x"), ("pool", "y"), ("pool", "fee_rate"), ("prices", "p_x"), ("prices", "p_y"),
    ("events", 0, "t"), ("events", 0, "amount"), ("events", 0, "max_spread"),
    ("events", 1, "delta_x"), ("events", 1, "delta_y"),
])
@pytest.mark.parametrize("flag", [True, False])
def test_json_boolean_is_not_a_number(path, flag):
    # float(True) is 1.0, so a boolean would otherwise replay as the number 1.
    doc = script_doc(events=[
        {"type": "trade", "t": 0, "direction": "y2x", "amount": 1, "max_spread": 0.5},
        {"type": "price_move", "t": 0, "delta_x": 1, "delta_y": 2},
    ])
    *parents, field = path
    target = doc
    for key in parents:
        target = target[key]
    target[field] = flag
    where = f"event {path[1]}" if parents[0] == "events" else "malformed script"
    with pytest.raises(ScriptError, match=f"^{where}: expected a number, got {str(flag).lower()}"):
        load_script(io.StringIO(json.dumps(doc)))


# -- the replay against a fold of the value-level API ----------------------


def reference_replay(script):
    """``run_scenario`` spelled out with the public pool functions."""
    pool = start = create_pool(
        script.pool_x, script.pool_y, script.fee_rate, script.fee_model, script.provider
    )
    p_x, p_y, t = script.p_x0, script.p_y0, 0.0
    snapshots = []

    def snapshot(label):
        pooled, held = pool_value(pool, p_x, p_y), pool_value(start, p_x, p_y)
        ledger = pool.side_ledger
        return PortfolioSnapshot(label, t, pool.reserve_x, pool.reserve_y, ledger.fees_x,
                                 ledger.fees_y, pooled, held, (pooled - held) / held, p_x, p_y)

    for index, event in enumerate(script.events):
        t = event.t
        try:
            if isinstance(event, Trade):
                pool, _ = execute_swap(pool, event.direction, event.amount_in, event.max_spread)
            elif isinstance(event, PriceMove):
                p_x, p_y = p_x * event.delta_x, p_y * event.delta_y
                pool = arbitrage_to_rate(pool, p_y / p_x)
            elif isinstance(event, CollectFees):
                # The script's one provider owns every share, so it takes the
                # whole ledger, and any other name nothing.
                if event.provider in pool.share_ledger:
                    pool = dataclasses.replace(pool, side_ledger=SideLedger(0, 0))
            else:
                snapshots.append(snapshot(event.label))
        except CpammError as err:
            return type(err), f"event {index}: {err}"
    snapshots.append(snapshot("final"))
    return snapshots


def scripted_events(amount, delta, cap):
    """Up to eight events at increasing timestamps."""
    trade = st.builds(Trade, t=st.just(0.0), direction=st.sampled_from(list(Direction)),
                      amount_in=amount, max_spread=st.one_of(st.none(), cap))
    move = st.builds(PriceMove, t=st.just(0.0), delta_x=delta, delta_y=delta)
    collect = st.builds(CollectFees, t=st.just(0.0),
                        provider=st.sampled_from(["lp", "lp", "other"]))
    snap = st.builds(Snapshot, t=st.just(0.0), label=st.sampled_from(["a", "b"]))
    events = st.lists(st.one_of(trade, move, collect, snap), max_size=8)
    return events.map(lambda drawn: tuple(
        dataclasses.replace(event, t=index / 8) for index, event in enumerate(drawn)
    ))


# Mostly valid events, plus a few that must be rejected: a negative or a
# draining amount, a Y-for-X cap of 1 and a price move out of float reach.
float_scripts = st.tuples(
    st.floats(min_value=1.0, max_value=1e6), st.floats(min_value=1.0, max_value=1e6),
    st.sampled_from([0.0, 0.003, 0.003, 0.6]),
    scripted_events(
        st.one_of(st.floats(min_value=0.25, max_value=40.0), st.sampled_from([-1.0, 1e20])),
        st.one_of(st.floats(min_value=0.25, max_value=4.0), st.just(1e40)),
        st.sampled_from([0.0, 0.01, 0.5, 1.0]),
    ),
)
fraction_scripts = st.tuples(
    st.sampled_from([Fraction(100), Fraction(400, 3)]),
    st.sampled_from([Fraction(100), Fraction(25)]),
    st.sampled_from([Fraction(0), Fraction(3, 1000), Fraction(3, 1000)]),
    scripted_events(
        st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(7, 3), Fraction(-1)]),
        st.sampled_from([Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(7, 3)]),
        st.sampled_from([Fraction(0), Fraction(1, 100), Fraction(3, 4)]),
    ),
)


@given(case=st.one_of(float_scripts, fraction_scripts), model=st.sampled_from(list(FeeModel)))
@settings(max_examples=300, deadline=None)
def test_replay_equals_a_fold_of_the_public_api(case, model):
    x, y, fee, events = case
    script = ScenarioScript(x, y, fee, model, 1, x / y, events)
    expected = reference_replay(script)
    if isinstance(expected, tuple):
        error, message = expected
        with pytest.raises(error) as raised:
            run_scenario(script)
        assert str(raised.value) == message
    else:
        assert run_scenario(script) == expected


@pytest.mark.parametrize("event, error, message", [
    (Trade(0.0, Direction.Y_FOR_X, -5.0), NonPositiveAmount,
     "event 1: trade amount must be finite and positive, got -5.0"),
    (Trade(0.0, Direction.Y_FOR_X, 1.0, max_spread=1.0), SpreadOutOfRange,
     "event 1: Y-for-X spread must be in [0, 1), got 1.0"),
    (Trade(0.0, Direction.X_FOR_Y, 1.0, max_spread=math.nan), SpreadOutOfRange,
     "event 1: X-for-Y spread must be finite and >= 0, got nan"),
    (Trade(0.0, Direction.Y_FOR_X, -1.0, max_spread=5.0), NonPositiveAmount,
     "event 1: trade amount must be finite and positive, got -1.0"),
    (Trade(0.0, Direction.X_FOR_Y, 1e20), NonPositiveReserve,
     "event 1: swap of 1e+20 would drain the output reserve 100.0: "
     "the output rounds to the whole reserve"),
    (PriceMove(0.0, 1.0, 1e40), InvalidRate,
     "event 1: target rate 1e+40 is out of float reach of pool rate 1.0"),
])
def test_rejected_events_keep_their_messages(event, error, message):
    script = make_script((Snapshot(t=0.0, label="ok"), event), fee_rate=0.003)
    with pytest.raises(error) as raised:
        run_scenario(script)
    assert str(raised.value) == message


# -- the record path: script files parse straight into replay records -------


def load_doc(doc):
    return load_script(io.StringIO(json.dumps(doc)))


def test_loaded_events_equal_the_public_constructors():
    doc = script_doc(events=[
        {"type": "trade", "t": 0, "direction": "y2x", "amount": 5},
        {"type": "trade", "t": 0.5, "direction": "x2y", "amount": "2.5", "max_spread": 1},
        {"type": "trade", "t": 0.5, "direction": "y2x", "amount": 1.5, "max_spread": None},
        {"type": "price_move", "t": 1, "delta_x": 2, "delta_y": 0.5},
        {"type": "collect_fees", "provider": "lp"},
        {"type": "snapshot", "t": 2, "label": "mid"},
        {"type": "snapshot", "t": 3},
    ])
    doc["events"][4]["t"] = 1.5
    expected = (
        Trade(0.0, Direction.Y_FOR_X, 5.0),
        Trade(0.5, Direction.X_FOR_Y, 2.5, 1.0),
        Trade(0.5, Direction.Y_FOR_X, 1.5, None),
        PriceMove(1.0, 2.0, 0.5),
        CollectFees(1.5, "lp"),
        Snapshot(2.0, "mid"),
        Snapshot(3.0, "snapshot-6"),
    )
    events = load_doc(doc).events
    assert events == expected
    assert [type(event) for event in events] == [type(event) for event in expected]
    # Numbers arrive as floats, whatever JSON spelled them as.
    assert all(type(value) is float for event in events
               for value in dataclasses.astuple(event) if isinstance(value, (int, float)))


def test_a_parse_error_is_reported_before_a_replay_error():
    events = [{"type": "snapshot", "t": 0},
              {"type": "trade", "t": 1, "direction": "y2x", "amount": -5},
              *({"type": "snapshot", "t": 2} for _ in range(3)),
              {"type": "trade", "t": 3, "direction": "y2x"}]
    with pytest.raises(ScriptError, match="^event 5: 'amount'$"):
        load_doc(script_doc(events=events))
    del events[5]
    with pytest.raises(NonPositiveAmount, match="^event 1: trade amount"):
        run_scenario(load_doc(script_doc(events=events)))


@dataclasses.dataclass(frozen=True)
class TaggedTrade(Trade):
    tag: str = "desk-a"


def test_an_event_subclass_replays_as_its_base_type():
    plain = make_script((Trade(0.0, Direction.Y_FOR_X, 5.0), Snapshot(1.0, "s")), fee_rate=0.003)
    tagged = make_script((TaggedTrade(0.0, Direction.Y_FOR_X, 5.0), Snapshot(1.0, "s")),
                         fee_rate=0.003)
    assert run_scenario(tagged) == run_scenario(plain)
    assert measure_effective_alpha(tagged, 1.0) == measure_effective_alpha(plain, 1.0)


def test_an_unknown_event_fails_only_when_the_replay_reaches_it():
    # The earlier trade's error wins, as when events were replayed as objects.
    script = make_script((Trade(0.0, Direction.Y_FOR_X, -1.0), SimpleNamespace(t=1.0)))
    with pytest.raises(NonPositiveAmount, match="^event 0: "):
        run_scenario(script)
    script = make_script((Snapshot(0.0, "ok"), SimpleNamespace(t=1.0)))
    with pytest.raises(ScriptError, match="^event 1: unknown event type SimpleNamespace$"):
        measure_effective_alpha(script, 1.0)


@pytest.mark.parametrize("event, message", [
    (Trade(0.0, Direction.Y_FOR_X, "5"), "amount_in: expected a number, got str"),
    (Trade(0.0, Direction.Y_FOR_X, True), "amount_in: expected a number, got bool"),
    (Trade(0.0, Direction.X_FOR_Y, 1.0, "0.1"), "max_spread: expected a number, got str"),
    (PriceMove(0.0, "2", 1.0), "delta_x: expected a number, got str"),
    (PriceMove(0.0, 2.0, None), "delta_y: expected a number, got NoneType"),
    (CollectFees(0.0, ["lp"]), "provider: expected a string, got list"),
    (Snapshot("0", "a"), "timestamp: expected a number, got str"),
    (Snapshot(0.0, 5), "label: expected a string, got int"),
    (object(), "unknown event type object"),
], ids=["amount-text", "amount-bool", "spread-text", "delta-text", "delta-none",
        "provider-list", "time-text", "label-int", "no-event"])
@pytest.mark.parametrize("replay", [run_scenario, lambda script: measure_effective_alpha(script, 1.0)],
                         ids=["run_scenario", "effective_alpha"])
def test_a_wrongly_typed_event_object_names_its_index(event, message, replay):
    with pytest.raises(ScriptError) as err:
        replay(make_script((Snapshot(0.0, "ok"), event)))
    assert str(err.value) == f"event 1: {message}"


@pytest.mark.parametrize("field, value, what", [
    ("label", None, "NoneType"), ("label", {"a": 1}, "dict"), ("label", 5, "int"),
    ("label", True, "bool"), ("provider", None, "NoneType"), ("provider", ["lp"], "list"),
])
def test_non_string_text_fields_are_rejected(field, value, what):
    kind = "snapshot" if field == "label" else "collect_fees"
    doc = script_doc(events=[{"type": "snapshot", "t": 0}, {"type": kind, "t": 1, field: value}])
    with pytest.raises(ScriptError) as err:
        load_doc(doc)
    assert str(err.value) == f"event 1: {field}: expected a string, got {what}"


@pytest.mark.parametrize("value, what", [(None, "NoneType"), (7, "int"), ({"lp": 1}, "dict")])
def test_non_string_script_provider_is_rejected(value, what):
    with pytest.raises(ScriptError) as err:
        load_doc(script_doc(provider=value))
    assert str(err.value) == f"provider: expected a string, got {what}"


@pytest.mark.parametrize("value, what", [(["lp"], "list"), (None, "NoneType"), (7, "int")])
@pytest.mark.parametrize("replay", [run_scenario, lambda script: measure_effective_alpha(script, 1.0)],
                         ids=["run_scenario", "effective_alpha"])
def test_a_script_object_with_a_non_string_provider_is_rejected(value, what, replay):
    # As load_script rejects it, not replayed with nothing to collect.
    script = dataclasses.replace(make_script((CollectFees(1.0, "lp"),)), provider=value)
    with pytest.raises(ScriptError) as err:
        replay(script)
    assert str(err.value) == f"provider: expected a string, got {what}"


def test_collecting_for_a_provider_without_shares_is_a_no_op():
    trade = {"type": "trade", "t": 0, "direction": "y2x", "amount": 5}
    doc = script_doc(events=[trade, {"type": "collect_fees", "t": 1, "provider": "other"}])
    doc["pool"]["fee_rate"] = 0.003
    doc["pool"]["fee_model"] = "collect_separately"
    final = run_scenario(load_doc(doc))[-1]
    assert final.fees_y == pytest.approx(0.015, rel=1e-12)


@pytest.mark.parametrize("label", [
    "q1,2026", 'say "hi"', "two\nlines", "cr\rhere", "crlf\r\nend", '",', "", " pad ", "plain",
])
def test_csv_labels_read_back_as_one_record(label):
    snapshots = run_scenario(make_script((Snapshot(0.0, label),)))
    text = snapshots_to_csv(snapshots)
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [11, 11, 11]
    assert rows[1][0] == label and rows[2][0] == "final"
    # The label is quoted exactly when the csv module's minimal quoting
    # (default dialect, in a row of more than one field) would.
    expected = io.StringIO()
    csv.writer(expected).writerow([label, ""])
    assert text.split("\n", 1)[1].startswith(expected.getvalue().removesuffix("\r\n"))


def _exact(reserve, *events):
    """A script on a ``reserve``/``reserve`` exact pool at exact prices."""
    reserve = Fraction(reserve)
    return ScenarioScript(reserve, reserve, Fraction(0), FeeModel.AUTO_COMPOUND, Fraction(1),
                          Fraction(1), events=events)


def test_a_snapshot_past_float_range_is_a_domain_error():
    # An exact pool past float range is rejected where it enters, as inf is:
    # its snapshots ended in a raw OverflowError.
    with pytest.raises(NonPositiveReserve, match=r"^initial reserves must be finite and positive"):
        run_scenario(_exact(10**400, Snapshot(1.0, "s")))
    # A snapshot a caller builds can still hold a value past float range; the
    # field named is the first one past it.
    snapshots = run_scenario(_exact(10**300, Trade(0.0, Direction.Y_FOR_X, Fraction(1)),
                                    Snapshot(1.0, 'say "hi"')))
    for field in ("reserve_x", "fees_y"):
        past = dataclasses.replace(snapshots[0], **{field: 10**400})
        with pytest.raises(DomainError) as err:
            snapshots_to_csv([past])
        assert str(err.value) == f"""snapshot 'say "hi"': {field} leaves float range"""


def test_a_snapshot_valued_past_float_range_is_rejected_as_pool_value_rejects_it(tmp_path):
    # The pool sits on the market rate, 1e100; p_x * x is the exact 1e400,
    # and p_y * y the float inf.  This ended in a raw OverflowError.
    ten_200, ten_100 = "1" + "0" * 200 + "/1", "1" + "0" * 100 + "/1"
    path = tmp_path / "script.json"
    path.write_text(json.dumps({"pool": {"x": ten_200, "y": ten_100},
                                "prices": {"p_x": ten_200, "p_y": 1e300},
                                "events": [{"type": "snapshot", "t": 0}]}), encoding="utf-8")
    with pytest.raises(ScriptError) as err:
        run_scenario(load_script(path))
    assert str(err.value) == ("event 0: pool value p_x * x + p_y * y must be a normal float, "
                              "got inf")
    done = subprocess.run([sys.executable, "-m", "cpamm.cli", "run-scenario", str(path)],
                          capture_output=True, text=True, env=child_env(), timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", f"error: {err.value}\n")
    with pytest.raises(InputError):
        pool_value(create_pool(Fraction(10**200), Fraction(10**100)), Fraction(10**200), 1e300)


def test_a_float_price_move_beside_exact_reserves_past_float_range_is_rejected():
    with pytest.raises(NonPositiveReserve, match=r"^initial reserves must be finite and positive"):
        run_scenario(_exact(10**400, PriceMove(0.0, 2.0, 1.0)))
    # In float range a float move joins exact reserves, and the arbitrage
    # leaves floats; an exact move onto a rational root replays exactly.
    final = run_scenario(_exact(10**150, PriceMove(0.0, 2.0, 1.0)))[-1]
    assert final.reserve_x == pytest.approx(10**150 / math.sqrt(2), rel=1e-15)
    final = run_scenario(_exact(10**300, PriceMove(0.0, Fraction(1), Fraction(4))))[-1]
    assert (final.reserve_x, final.reserve_y) == (2 * 10**300, Fraction(10**300, 2))
    # An exact leg that would leave float range is rejected.
    with pytest.raises(InputError, match=r"^event 0: exact result leaves float range$"):
        run_scenario(_exact(10**308, PriceMove(0.0, Fraction(1), Fraction(4))))


@pytest.mark.parametrize("direction", list(Direction))
def test_run_scenario_reads_a_plain_direction_string_as_its_member(direction):
    by_member = run_scenario(make_script((Trade(0.0, direction, 5.0),)))
    by_string = run_scenario(make_script((Trade(0.0, direction.value, 5.0),)))
    assert by_string == by_member
    if direction is Direction.Y_FOR_X:
        assert by_string[-1].reserve_y == 105.0
    with pytest.raises(InputError, match="unknown direction"):
        run_scenario(make_script((Trade(0.0, "y4x", 5.0),)))


# -- the windowed reader gives exactly what the whole text decodes to ----------


def two_pass_load(text):
    """The events ``load_script`` gives for a script with a valid header, by
    decoding the whole document and then parsing each entry of ``events``,
    or the error's type and message."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        return ScriptError, f"invalid JSON: {err}"
    try:
        return tuple(_event(_parse_event(index, entry))
                     for index, entry in enumerate(doc["events"]))
    except ScriptError as err:
        return ScriptError, str(err)


def _outcome(source):
    try:
        return load_script(source).events
    except CpammError as err:
        return type(err), str(err)


#: The reader's windows under test: one character, two sizes that cut
#: entries anywhere, and its own.
WINDOWS = (1, 7, 61, replay._WINDOW)


@contextlib.contextmanager
def window_of(window):
    """The reader's window set to ``window`` characters.  Every reading asks
    for one window first, so on leaving this checks that each reading under
    it asked for ``window``: a patch of a name the reader does not read
    would leave them at ``replay._WINDOW``."""
    readings, stream = [], replay._stream

    def noted(read, begin):
        asked = []
        readings.append(asked)

        def noted_read(size):
            asked.append(size)
            return read(size)

        return stream(noted_read, begin)

    with mock.patch.object(replay, "_WINDOW", window), \
            mock.patch.object(replay, "_stream", noted):
        yield
    assert readings and all(asked[0] == window for asked in readings), (window, readings)


def load_outcome(text, path):
    """The events ``load_script`` gives for ``text``, or the error's type and
    message, which must be the same from a stream and from a file at
    ``path``, at each of ``WINDOWS``."""
    path.write_bytes(text.encode())
    outcomes = []
    for window in WINDOWS:
        with window_of(window):
            outcomes += [_outcome(io.StringIO(text)), _outcome(path)]
    assert all(outcome == outcomes[0] for outcome in outcomes), text
    return outcomes[0]


@pytest.fixture(scope="module")
def script_path(tmp_path_factory):
    return tmp_path_factory.mktemp("scripts") / "script.json"


SNAPSHOT = {"type": "snapshot", "t": 0}


def test_default_labels_count_every_event_before_them():
    events = [{"type": "snapshot", "t": 0, "label": "a"},
              {"type": "trade", "t": 0, "direction": "y2x", "amount": 1},
              {"type": "snapshot", "t": 1},
              {"type": "snapshot", "t": 1, "label": "b"},
              {"type": "snapshot", "t": 2}]
    labels = [event.label for event in load_doc(script_doc(events=events)).events[2:]]
    assert labels == ["snapshot-2", "b", "snapshot-4"]


def test_a_bad_event_before_a_syntax_error_reads_as_invalid_json():
    bad = {"type": "trade", "t": 0, "direction": "y2x", "amount": "five"}
    text = json.dumps(script_doc(events=[SNAPSHOT, bad, SNAPSHOT]))[:-1]
    with pytest.raises(json.JSONDecodeError) as syntax:
        json.loads(text)
    with pytest.raises(ScriptError) as err:
        load_script(io.StringIO(text))
    assert str(err.value) == f"invalid JSON: {syntax.value}"


def nested_doc(levels, opening, closing):
    """A valid script whose unread ``note`` key nests ``levels`` deep."""
    deep = opening * levels + "1" + closing * levels
    return json.dumps(script_doc(events=[SNAPSHOT]))[:-1] + f', "note": {deep}}}'


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a": ', "}")],
                         ids=["arrays", "objects"])
def test_a_nesting_past_the_decoder_is_invalid_json(opening, closing):
    # Far past every interpreter's limit: since Python 3.12 the C decoder is
    # bounded by the C recursion limit, not sys.getrecursionlimit().
    with pytest.raises(ScriptError, match="^invalid JSON: maximum recursion depth exceeded"):
        load_script(io.StringIO(nested_doc(100_000, opening, closing)))
    shallow = load_script(io.StringIO(nested_doc(500, opening, closing)))
    assert shallow.events == (Snapshot(0.0, "snapshot-0"),)


@pytest.mark.parametrize("bad, message", [
    ({"type": "trade", "t": 0, "direction": "y2x", "amount": "five"},
     "event 2: could not convert string to float: 'five'"),
    ({"type": "trade", "t": 0, "direction": "y2x", "amount": "1/0"},
     "event 2: zero denominator in '1/0'"),
    ({"type": "teleport", "t": 0}, "event 2: unknown type 'teleport'"),
    ({"type": "snapshot", "t": -1}, "event 2: timestamp must be finite and >= 0, got -1.0"),
    ({"type": [1]}, "event 2: unknown type [1]"),
    ([SNAPSHOT], "event 2: expected a JSON object, got list"),
    ({"type": {"a": 1}}, "event 2: unknown type {'a': 1}"),
])
def test_a_bad_event_keeps_its_index_and_message(bad, message):
    events = [{"type": "snapshot", "t": 0, "label": "a"}, SNAPSHOT, bad, SNAPSHOT]
    with pytest.raises(ScriptError) as err:
        load_doc(script_doc(events=events))
    assert str(err.value) == message


@pytest.mark.parametrize("where", ["pool", "prices", "top"])
def test_an_event_type_in_the_header_is_read_as_written(where):
    events = [SNAPSHOT, {"type": "trade", "t": 1, "direction": "x2y", "amount": 2}]
    plain = load_doc(script_doc(events=events))
    doc = script_doc(events=events)
    (doc if where == "top" else doc[where]).update(SNAPSHOT)
    assert load_doc(doc) == plain
    assert plain.events[0].label == "snapshot-0"


@pytest.mark.parametrize("field, reader", [("amount", float), ("direction", Direction)])
def test_an_event_object_inside_a_trade_field_keeps_the_message(field, reader):
    # The inner object is decoded as a record first; the message must not
    # show it (a record names its handler function, address and all).
    with pytest.raises((TypeError, ValueError)) as expected:
        reader(SNAPSHOT)
    trade = {"type": "trade", "t": 0, "direction": "y2x", "amount": 1, field: SNAPSHOT}
    with pytest.raises(ScriptError) as err:
        load_doc(script_doc(events=[trade]))
    assert str(err.value) == f"event 0: {expected.value}"
    assert "0x" not in str(err.value)


def test_an_event_object_nothing_reads_is_ignored():
    events = [{"type": "trade", "t": 0, "direction": "y2x", "amount": 1,
               "note": {"type": "snapshot", "t": 0}},
              {"type": "snapshot", "t": 1}]
    plain = load_doc(script_doc(events=[dict(events[0], note=None), events[1]]))
    assert load_doc(script_doc(notes={"type": "collect_fees", "provider": "lp"},
                               events=events)) == plain
    assert plain.events[1].label == "snapshot-1"


@pytest.mark.parametrize("first, last", [([SNAPSHOT, SNAPSHOT], [SNAPSHOT]),
                                         ([SNAPSHOT], [SNAPSHOT, SNAPSHOT])])
def test_the_last_of_duplicate_events_keys_wins(first, last):
    text = json.dumps(script_doc(events=first))[:-1] + f', "events": {json.dumps(last)}}}'
    labels = [event.label for event in load_script(io.StringIO(text)).events]
    assert labels == [f"snapshot-{index}" for index in range(len(last))]


timestamps = st.one_of(st.floats(min_value=0, max_value=10), st.integers(0, 10))
numbers = st.one_of(st.floats(min_value=0.1, max_value=10), st.integers(1, 10),
                    st.sampled_from(["5", "0.25"]))
json_events = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("trade"), "t": timestamps,
         "direction": st.sampled_from(["y2x", "x2y"]), "amount": numbers},
        optional={"max_spread": st.one_of(st.none(), numbers)}),
    st.fixed_dictionaries({"type": st.just("price_move"), "t": timestamps,
                           "delta_x": numbers, "delta_y": numbers}),
    st.fixed_dictionaries({"type": st.just("collect_fees"), "t": timestamps,
                           "provider": st.sampled_from(["lp", "other"])}),
    st.fixed_dictionaries({"type": st.just("snapshot"), "t": timestamps},
                          optional={"label": st.sampled_from(["a", "b,c"])}),
)
#: A field set to a value the parse rejects, or an event-typed object.
corruptions = st.sampled_from([
    ("amount", "five"), ("amount", True), ("t", -1), ("t", "NaN"), ("type", "teleport"),
    ("direction", "up"), ("label", 5), ("provider", None), ("delta_x", None),
    ("amount", SNAPSHOT), ("direction", SNAPSHOT), ("label", SNAPSHOT), ("t", SNAPSHOT),
    ("type", SNAPSHOT),
])
#: Where an event-typed object that is no entry of ``events`` may sit.
decoys = st.sampled_from(["pool", "prices", "top", "notes", "inside"])
#: An entry of ``events`` that is no object.  A ``null`` entry beside a decoy
#: leaves ``events`` as long as the count of packed objects, so a ``None``
#: sentinel in place of each packed entry would pass it.
non_objects = st.sampled_from([None, 5, [], [SNAPSHOT], "snapshot"])


@given(events=st.lists(json_events, max_size=8),
       corrupt=st.one_of(st.none(), st.tuples(st.integers(0, 7), corruptions)),
       decoy=st.one_of(st.none(), decoys), truncate=st.booleans(),
       replaced=st.one_of(st.none(), st.tuples(st.integers(0, 7), non_objects)))
@settings(max_examples=300, deadline=None)
def test_load_script_equals_a_two_pass_parse(script_path, events, corrupt, decoy, truncate,
                                             replaced):
    events = [dict(event) for event in events]  # edited below; the drawn ones stay as drawn
    doc = script_doc(events=events)
    if corrupt is not None and events:
        index, (field, value) = corrupt
        events[index % len(events)][field] = value
    if decoy == "top":
        doc.update(SNAPSHOT)
    elif decoy in ("pool", "prices"):
        doc[decoy].update(SNAPSHOT)
    elif decoy == "notes":
        doc["notes"] = dict(SNAPSHOT)
    elif decoy == "inside" and events:
        events[0]["note"] = dict(SNAPSHOT)
    if replaced is not None and events:
        index, entry = replaced
        events[index % len(events)] = entry
    text = json.dumps(doc)
    if truncate:
        text = text[:-1]
    assert load_outcome(text, script_path) == two_pass_load(text)


def _straddling_label():
    """A script whose label of two- and four-byte characters spans the first
    edge of the default window, in characters and in bytes."""
    def text(pad):
        events = [dict(SNAPSHOT, label="a" * pad), dict(SNAPSHOT, label="é😀" * 40)]
        return json.dumps(script_doc(events=events), ensure_ascii=False)

    return text(replay._WINDOW - 41 - text(0).index("é😀"))


TRADE = {"type": "trade", "t": 0, "direction": "y2x", "amount": 1}
NESTED = dict(TRADE, note={"a": {"b": [1, {"c": 2}], "d": {}}, "e": [{"f": {}}, {}]})
EVENT_NOTE = {"type": "snapshot", "t": 0, "events": [SNAPSHOT, {"type": "snapshot"}]}
HEADER = '"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1}'
WINDOWED = {
    "labels": json.dumps(script_doc(events=[
        SNAPSHOT, dict(SNAPSHOT, label="}, {"), dict(SNAPSHOT, label="a}"),
        dict(SNAPSHOT, label='x}, {"'), SNAPSHOT])),
    "straddling label": _straddling_label(),
    "nested field": json.dumps(script_doc(events=[NESTED, SNAPSHOT, NESTED])),
    "event note": json.dumps(script_doc(note=EVENT_NOTE, events=[
        dict(TRADE, note=EVENT_NOTE), SNAPSHOT])),
    "duplicate events": "{" + f'"events": [{json.dumps(TRADE)}], {HEADER}, '
                        f'"events": [{json.dumps(SNAPSHOT)}, {json.dumps(TRADE)}]' + "}",
    "events first": "{" + f'"events": [{json.dumps(SNAPSHOT)}], {HEADER}' + "}",
    "indent": json.dumps(script_doc(events=[NESTED, SNAPSHOT]), indent=2),
    "crlf": json.dumps(script_doc(events=[NESTED, SNAPSHOT]), indent=2).replace("\n", "\r\n"),
    "empty events": json.dumps(script_doc(events=[])),
    "empty events, spaced": "{" + HEADER + ', "events": [ \r\n\t ] }',
}


@pytest.mark.parametrize("text", WINDOWED.values(), ids=WINDOWED.keys())
def test_the_windowed_reader_equals_the_whole_text(script_path, text):
    outcome = load_outcome(text, script_path)
    assert outcome == two_pass_load(text)
    assert isinstance(outcome, tuple) and all(isinstance(event, (Trade, Snapshot))
                                              for event in outcome)


@pytest.mark.parametrize("text, refusal", [
    ("{" + HEADER + ', 5: [], "events": []}', "expected a key"),
    (json.dumps(script_doc(events=[SNAPSHOT])) + ' {"events": []}', "text after the document"),
    ("{" + HEADER + ', "events": [', "events end with no cut"),
    ("{" + HEADER + ', "events": [ \n', "events end with no cut"),
    ("{" + HEADER + ', "events": [' + json.dumps(SNAPSHOT) + ", ", "events end with no cut"),
], ids=["non-string key", "text after the document", "ends after events' [",
        "ends in whitespace after events' [", "ends after an entry's comma"])
def test_a_document_the_reader_refuses_reads_as_the_whole_text(script_path, text, refusal):
    for window in WINDOWS:
        with window_of(window):
            with pytest.raises(ValueError, match=f"^{refusal}$"):
                replay._stream(replay._slicer(text), lambda doc: lambda records, first: None)
    outcome = load_outcome(text, script_path)
    assert outcome == two_pass_load(text) and outcome[0] is ScriptError


def replay_outcome(text, path, whole=False):
    """The CSV text ``run-scenario`` replays ``text`` to, or the error's type
    and message, which must be the same from a stream and from a file at
    ``path``, at each of ``WINDOWS``.  The text is decoded whole, as the
    reader does with what it refuses, exactly when ``whole`` is true."""
    path.write_bytes(text.encode())
    outcomes, decoded, loads = [], [], json.loads

    def counted(piece, *args, **kwargs):
        decoded.append(len(piece))
        return loads(piece, *args, **kwargs)

    for window in WINDOWS:
        with window_of(window), mock.patch.object(replay.json, "loads", counted):
            for source in (io.StringIO(text), path):
                try:
                    outcomes.append("".join(_run_script_file(source)))
                except CpammError as err:
                    outcomes.append((type(err), str(err)))
    assert all(outcome == outcomes[0] for outcome in outcomes), text
    assert decoded and (len(text) in decoded) is whole
    return outcomes[0]


#: Entries enough that one character, 7 and 61 are many windows.
PADDING = [dict(SNAPSHOT, t=1)] * 40
FAILING_TRADE = dict(TRADE, direction="x2y", amount=1e20)  # drains a 10/10 pool
TELEPORT = {"type": "teleport", "t": 2}


@pytest.mark.parametrize("malformed", [False, True], ids=["replay error", "malformed event"])
def test_a_malformed_event_windows_after_a_replay_error_is_reported(script_path, malformed):
    events = [FAILING_TRADE, *PADDING] + [TELEPORT] * malformed
    outcome = replay_outcome(json.dumps(script_doc(events=events)), script_path, malformed)
    if malformed:
        assert outcome == (ScriptError, "event 41: unknown type 'teleport'")
    else:
        assert outcome[0] is NonPositiveReserve and outcome[1].startswith("event 0: swap of 1e+20")


@pytest.mark.parametrize("malformed", [False, True], ids=["rate mismatch", "malformed event"])
def test_a_malformed_event_windows_after_a_header_error_is_reported(script_path, malformed):
    events = [SNAPSHOT, *PADDING] + [TELEPORT] * malformed
    doc = script_doc(prices={"p_x": 1, "p_y": 2}, events=events)
    outcome = replay_outcome(json.dumps(doc), script_path, malformed)
    if malformed:
        assert outcome == (ScriptError, "event 41: unknown type 'teleport'")
    else:
        assert outcome == (ScriptError, "pool rate 1.0 does not match market rate 2.0")


@pytest.mark.parametrize("late, fails", [
    ({"pool": {"x": 1e30, "y": 1e30}}, False),
    ({"pool": {"x": 10, "y": 10}}, True),
    ({"prices": {"p_x": 1, "p_y": 2}}, True),
    ({"provider": 5}, True),
], ids=["late pool mends", "late pool fails", "late prices fail", "late provider fails"])
def test_a_header_key_after_events_decides_the_replay(script_path, late, fails):
    # The header read before events would give the opposite outcome.  The
    # second reading is windowed too: the text is never decoded whole.
    early = {"pool": {"x": 10, "y": 10}} if not fails else {"pool": {"x": 1e30, "y": 1e30}}
    body = json.dumps(script_doc(**early, events=[FAILING_TRADE, *PADDING]))
    text = body[:-1] + ", " + json.dumps(late)[1:]
    doc = json.loads(text)  # the last of each key, as the whole text reads
    try:
        expected = snapshots_to_csv(run_scenario(load_doc(doc)))
    except CpammError as err:
        expected = type(err), str(err)
    assert (type(expected) is tuple) is fails
    assert replay_outcome(text, script_path) == expected
    assert replay_outcome(json.dumps(doc, sort_keys=True), script_path) == expected


def decoding_work(text, window):
    """The characters ``_stream`` hands to ``json.loads`` for ``text`` read
    ``window`` characters at a time, plus those its scanner reads: to the end
    of each value, and on a failure to the end of the text it was handed."""
    work = 0

    def loads(piece):
        nonlocal work
        work += len(piece)
        return json.loads(piece)

    class Decoder(json.JSONDecoder):
        def __init__(self):
            super().__init__()
            scan = self.scan_once

            def scan_once(held, at):
                nonlocal work
                try:
                    value, end = scan(held, at)
                except (ValueError, StopIteration):
                    work += len(held) - at
                    raise
                work += end - at
                return value, end

            self.scan_once = scan_once

    counting = SimpleNamespace(loads=loads, JSONDecoder=Decoder,
                               JSONDecodeError=json.JSONDecodeError)
    with mock.patch.object(replay, "json", counting), window_of(window):
        try:
            replay._stream(replay._slicer(text), lambda doc: lambda records, first: None)
        except replay._NOT_STREAMED:
            pass
    assert work > 0  # the counting json module was the one read
    return work


def noted_script(events, braces, **dump):
    """A valid script of ``events`` snapshots whose unread ``note`` each hold
    ``braces`` empty objects, every one a place where a window may be cut.
    ``dump`` goes to ``json.dumps``."""
    return json.dumps(script_doc(events=[dict(SNAPSHOT, note=[{}] * braces)] * events), **dump)


@pytest.mark.parametrize("text, window", [
    pytest.param(noted_script(1, 20_000), replay._WINDOW, id="one 80 KB entry"),
    pytest.param(noted_script(1, 40_000), replay._WINDOW, id="one 160 KB entry"),
    pytest.param(noted_script(1, 40_000, indent=2), replay._WINDOW,
                 id="one 400 KB entry, indented"),
    pytest.param(noted_script(300, 200), replay._WINDOW, id="200 braces an event"),
    *(pytest.param(text, window, id=f"{name}, window {window}")
      for name, text in WINDOWED.items() for window in WINDOWS),
])
def test_the_windowed_reader_decodes_a_small_multiple_of_the_file(text, window):
    # Stepping back one cut at a time after each failed decode did 6,700
    # times the 80 KB entry's length.
    assert decoding_work(text, window) <= 4 * len(text)


def test_a_byte_that_is_not_utf8_past_the_first_window_reads_as_the_whole_file(tmp_path):
    events = [dict(SNAPSHOT, label="a" * 100)] * 1000
    data = json.dumps(script_doc(events=events)).encode()
    at = len(data) - 200  # inside the last label, past the first window
    path = tmp_path / "script.json"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    with pytest.raises(ScriptError) as err:
        load_script(path)
    assert str(err.value) == f"cannot read script: {whole.value}"
    assert f"in position {at}:" in str(err.value) and at > replay._WINDOW


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("bad", [False, True])
def test_a_file_that_cannot_be_read_twice_is_read_whole(tmp_path, bad):
    events = [dict(SNAPSHOT, label="a" * 100)] * 1000 + [dict(TRADE, amount="five" if bad else 1)]
    text = json.dumps(script_doc(events=events))
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    outcome = _outcome(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert outcome == two_pass_load(text)


def write_replay_script(tmp_path, events=20_000, snapshots=True, **dump):
    """A script file of ``events`` events, generated like the benchmark's
    replay scripts; without ``snapshots`` each snapshot is a fee collection,
    so the final snapshot is the only one.  ``dump`` goes to ``json.dumps``."""
    rng = random.Random(20)
    script = []
    for index in range(events):
        t, pick = (index + 1) / events, rng.random()
        if pick < 0.80:
            event = {"type": "trade", "t": t, "direction": rng.choice(("y2x", "x2y")),
                     "amount": 100 * rng.lognormvariate(0, 1.5)}
            if rng.random() < 0.30:
                event["max_spread"] = rng.uniform(1e-4, 2e-3)
        elif pick < 0.95:
            event = {"type": "price_move", "t": t, "delta_x": math.exp(rng.gauss(0, 0.01)),
                     "delta_y": math.exp(rng.gauss(0, 0.01))}
        elif pick < 0.98 or not snapshots:
            event = {"type": "collect_fees", "t": t, "provider": "lp"}
        else:
            event = {"type": "snapshot", "t": t, "label": f"s{index}"}
        script.append(event)
    path = tmp_path / f"script-{events}-{snapshots}-{sorted(dump)}.json"
    path.write_text(json.dumps(script_doc(events=script), **dump), encoding="utf-8")
    return path


class Counted:
    """A consumer for ``_read_script`` that counts the records it is handed."""

    def __init__(self, header):
        self.events = 0

    def run(self, records, first_index):
        assert first_index == self.events
        self.events += len(records)


def replay_peak(path):
    """The ``tracemalloc`` peak of replaying the script file at ``path``."""
    tracemalloc.start()
    try:
        _run_script_file(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loading_holds_the_text_and_one_record_per_event(tmp_path):
    path = write_replay_script(tmp_path)
    tracemalloc.start()
    try:
        script = load_script(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(script.events) == 20_000
    # The records and one event object each, about 1.73 times the file;
    # decoding every event to a dict first peaked at 4.8 times, and holding
    # the text twice while it was read at 2.0.
    assert peak <= 2.0 * path.stat().st_size


def test_reading_events_with_nested_notes_holds_a_window(tmp_path):
    rng = random.Random(21)
    events = [dict(TRADE, t=index, note=[{"k": index}] * rng.randint(0, 12))
              for index in range(30_000)]
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script_doc(events=events)), encoding="utf-8")
    tracemalloc.start()
    try:
        counted = _read_script(path, Counted)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counted.events == 30_000
    # One window's decoded notes.  Most windows end inside a note, so a
    # reader that read on after a failed decode, without taking the entries
    # held, held 7.7 times the file.
    assert peak <= 0.75 * path.stat().st_size, peak / path.stat().st_size


@pytest.mark.parametrize("dump", [{}, {"sort_keys": True}], ids=["compact", "sort_keys"])
def test_replaying_a_file_holds_a_window(tmp_path, dump):
    # With sort_keys, events come before the header: a first pass checks
    # them, and a second replays.
    path = write_replay_script(tmp_path, **dump)
    # A window of text and its decoded entries set the peak, about 0.37
    # times the file either way.  Packed records took it to 0.58, reading
    # the whole text as bytes and as str to 2.00, and records of a tuple and
    # two or three floats each to 2.4-2.6.
    assert replay_peak(path) <= 0.75 * path.stat().st_size


def test_replay_memory_does_not_grow_with_the_script(tmp_path):
    # Only the final snapshot is kept, so nothing held grows with the
    # script: the two peaks are within 1%.  Records packed at 25 bytes each
    # took the peak at 80k events to 2.6 times the peak at 20k.  Snapshots
    # do grow it: each is held once, as its CSV row (112 bytes a snapshot
    # on alternating trades and snapshots, against 721 when kept as objects
    # and rendered at the end), and `run-scenario` on the benchmark's
    # 100k-event script, with 2,006 rows, peaks at about 15.9 MB RSS.
    small, large = (replay_peak(write_replay_script(tmp_path, events, snapshots=False))
                    for events in (20_000, 80_000))
    assert large <= 1.25 * small, large / small
