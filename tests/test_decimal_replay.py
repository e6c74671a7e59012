"""A second route for the replay: scripts replayed in 50-digit ``decimal``
arithmetic written from the model's formulas, not from the kernel's.

A trade takes its fee, is capped where its spread cap binds, and keeps the
product ``k = x * y``; a price move leaves the pool at the fee-free
arbitrage's end state, ``x = sqrt(k r)`` and ``y = sqrt(k / r)`` for the
market rate ``r = p_y / p_x``; a collection pays the provider the side
ledger; a snapshot marks both portfolios to market.
"""

import decimal
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import bench_inputs
from cpamm import load_script, run_scenario

_CONTEXT = decimal.Context(prec=50)
#: Fields of a snapshot held to the reference, with ``lambda_realized`` apart.
_FIELDS = ("reserve_x", "reserve_y", "fees_x", "fees_y", "lp_value_pooled", "lp_value_held",
           "p_x", "p_y")


def _decimal(value) -> Decimal:
    """A number of a script, its JSON value or its ``a/b`` text, as a Decimal."""
    if isinstance(value, str):
        value = Fraction(value)
    if isinstance(value, Fraction):
        return _CONTEXT.divide(Decimal(value.numerator), Decimal(value.denominator))
    return Decimal(value)  # exact for a float or an int


def _reference(doc: dict) -> list:
    """Each snapshot of ``doc``, the final one last, as a dict of ``_FIELDS``
    and ``lambda_realized``, in 50-digit arithmetic."""
    pool, prices = doc["pool"], doc["prices"]
    with decimal.localcontext(_CONTEXT):
        x0 = x = _decimal(pool["x"])
        y0 = y = _decimal(pool["y"])
        phi = _decimal(pool.get("fee_rate", 0))
        compound = pool.get("fee_model", "auto_compound") == "auto_compound"
        p_x, p_y = _decimal(prices["p_x"]), _decimal(prices["p_y"])
        fees = {"x": Decimal(0), "y": Decimal(0)}
        snapshots = []

        def snapshot():
            pooled, held = p_x * x + p_y * y, p_x * x0 + p_y * y0
            snapshots.append({"reserve_x": x, "reserve_y": y, "fees_x": fees["x"],
                              "fees_y": fees["y"], "lp_value_pooled": pooled,
                              "lp_value_held": held, "lambda_realized": pooled / held - 1,
                              "p_x": p_x, "p_y": p_y})

        for event in doc["events"]:
            kind = event["type"]
            if kind == "trade":
                sells_y = event["direction"] == "y2x"
                reserve_in, reserve_out = (y, x) if sells_y else (x, y)
                gross = _decimal(event["amount"])
                net = gross * (1 - phi)
                if event.get("max_spread") is not None:
                    sigma = _decimal(event["max_spread"])
                    root = 1 / (1 - sigma).sqrt() if sells_y else (1 + sigma).sqrt()
                    limit = reserve_in * (root - 1)
                    if net > limit:
                        net, gross = limit, limit / (1 - phi)
                grown = reserve_in + net
                shrunk = reserve_in * reserve_out / grown
                fee = gross - net
                side = "y" if sells_y else "x"
                if compound:
                    grown += fee
                else:
                    fees[side] += fee
                x, y = (shrunk, grown) if sells_y else (grown, shrunk)
            elif kind == "price_move":
                p_x *= _decimal(event["delta_x"])
                p_y *= _decimal(event["delta_y"])
                k, rate = x * y, p_y / p_x
                x, y = (k * rate).sqrt(), (k / rate).sqrt()
            elif kind == "collect_fees":
                if event["provider"] == doc.get("provider", "lp"):
                    fees = {"x": Decimal(0), "y": Decimal(0)}
            else:
                snapshot()
        snapshot()
    return snapshots


def _replayed(doc: dict) -> list:
    return run_scenario(load_script(io.StringIO(json.dumps(doc))))


def _errors(doc: dict) -> tuple:
    """The largest relative error of the float replay over ``_FIELDS``, and
    the largest absolute error of its ``lambda_realized``."""
    relative = absolute = 0.0
    reference = _reference(doc)
    replayed = _replayed(doc)
    assert len(replayed) == len(reference)
    for snap, want in zip(replayed, reference):
        for field in _FIELDS:
            got, exact = Decimal(getattr(snap, field)), want[field]
            relative = max(relative, 0.0 if got == exact else float(abs(got - exact) / exact))
        absolute = max(absolute, float(abs(Decimal(snap.lambda_realized)
                                           - want["lambda_realized"])))
    return relative, absolute


@pytest.mark.parametrize("fee_model", ["collect_separately", "auto_compound"])
@pytest.mark.parametrize("seed", [7, 11])
def test_the_float_replay_tracks_a_50_digit_reference(seed, fee_model):
    # 5k events of the benchmark's replay script: about 4k trades, 30% of
    # them capped, 750 price moves, 150 collections and 100 snapshots.
    doc = bench_inputs().replay_script(seed, 5_000)
    doc["pool"]["fee_model"] = fee_model
    relative, absolute = _errors(doc)
    assert relative <= 1e-12
    assert absolute <= 1e-12


def _exact_script(fee_model: str) -> dict:
    """Exact trades on a pool of 100 X and 400 Y, whose spread caps have
    rational roots (``1 - 19/100`` and ``1 + 21/100`` are squares), some of
    them binding, with collections and snapshots between."""
    trades = [("y2x", "7/2", None), ("x2y", "13/3", "21/100"), ("y2x", "150/1", "19/100"),
              ("x2y", "5/4", None), ("x2y", "90/1", "21/100"), ("y2x", "2/7", None)]
    events = []
    for index, (direction, amount, cap) in enumerate(trades):
        events.append({"type": "trade", "t": index, "direction": direction, "amount": amount,
                       **({"max_spread": cap} if cap else {})})
        events.append({"type": "collect_fees", "t": index, "provider": "lp"} if index % 3 == 2
                      else {"type": "snapshot", "t": index, "label": f"s{index}"})
    return {"pool": {"x": "100/1", "y": "400/1", "fee_rate": "3/1000", "fee_model": fee_model},
            "prices": {"p_x": "4/1", "p_y": "1/1"}, "provider": "lp", "events": events}


@pytest.mark.parametrize("fee_model", ["collect_separately", "auto_compound"])
def test_an_exact_replay_agrees_with_the_reference_to_its_50_digits(fee_model):
    doc = _exact_script(fee_model)
    reference = _reference(doc)
    replayed = _replayed(doc)
    assert len(replayed) == len(reference) == 5
    for snap, want in zip(replayed, reference):
        for field in (*_FIELDS, "lambda_realized"):
            got = getattr(snap, field)
            assert isinstance(got, (int, Fraction)), field
            error = abs(_decimal(Fraction(got)) - want[field])
            # lambda is a difference of values near 1, so its bound is absolute.
            scale = 1 if field == "lambda_realized" else abs(want[field])
            assert error <= scale * Decimal("1e-48"), (snap.label, field)
