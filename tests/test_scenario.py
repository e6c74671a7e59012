"""Scenario replay: events, snapshots, script files, effective alpha."""

import dataclasses
import io
import json
import math
from types import SimpleNamespace

import pytest

from cpamm import (
    CollectFees,
    Direction,
    EmptyWindow,
    FeeModel,
    NonPositiveAmount,
    PriceMove,
    PriceScenario,
    ScenarioScript,
    ScriptError,
    Snapshot,
    Trade,
    impermanent_loss,
    load_script,
    measure_effective_alpha,
    run_scenario,
    snapshots_to_csv,
)


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


def test_max_spread_caps_scripted_trade():
    script = make_script(
        (Trade(t=0.0, direction=Direction.Y_FOR_X, amount_in=1e9, max_spread=0.75),)
    )
    final = run_scenario(script)[-1]
    # cap is y * (1/sqrt(0.25) - 1) = 100, so y doubles
    assert final.reserve_y == pytest.approx(200.0, rel=1e-12)


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


def test_effective_alpha_zero_without_trades():
    assert measure_effective_alpha(make_script(()), window=1.0) == 0.0


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
