"""Declarative scenario replay against a pool.

A :class:`ScenarioScript` describes an initial pool that sits on the market
rate, plus a time-ordered list of events: trades, market price moves, fee
collections, and snapshot requests.  After every price move an idealized
arbitrageur (fee-free, instant, unlimited inventory) trades the pool back
onto the market rate, so the pool rate tracks ``p_y / p_x`` throughout.

Snapshots value the provider's pooled position against simply holding the
initial deposit at current prices; ``lambda_realized`` is the relative gap
between the two.  For scripts with price moves only, it matches the
closed-form impermanent loss for the cumulative deltas.

Scripts load from JSON files; the schema is documented in the README and in
:func:`load_script`.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import List, Optional, Sequence, Union

from .errors import CpammError, EmptyWindow, ScriptError, non_negative, positive
from .pool import (
    Direction,
    FeeModel,
    Numeric,
    PoolState,
    SideLedger,
    _arbitrage,
    _settle,
    _swap,
    create_pool,
    liquidity_of,
    pool_value,
    require_market_rate,
)


@dataclass(frozen=True, slots=True)
class Trade:
    t: float
    direction: Direction
    amount_in: Numeric
    max_spread: Optional[Numeric] = None


@dataclass(frozen=True, slots=True)
class PriceMove:
    """Multiply current market prices by ``(delta_x, delta_y)``."""

    t: float
    delta_x: float
    delta_y: float


@dataclass(frozen=True, slots=True)
class CollectFees:
    """Withdraw the provider's share of the side ledger to their wallet."""

    t: float
    provider: str


@dataclass(frozen=True, slots=True)
class Snapshot:
    t: float
    label: str


Event = Union[Trade, PriceMove, CollectFees, Snapshot]

_Y_FOR_X = Direction.Y_FOR_X


@dataclass(frozen=True, slots=True)
class ScenarioScript:
    pool_x: Numeric
    pool_y: Numeric
    fee_rate: Numeric
    fee_model: FeeModel
    p_x0: Numeric
    p_y0: Numeric
    events: Sequence[Event] = ()
    provider: str = "lp"


@dataclass(frozen=True, slots=True)
class PortfolioSnapshot:
    label: str
    t: float
    reserve_x: Numeric
    reserve_y: Numeric
    fees_x: Numeric
    fees_y: Numeric
    lp_value_pooled: Numeric
    lp_value_held: Numeric
    lambda_realized: Numeric
    p_x: Numeric
    p_y: Numeric


class _Replay:
    """Mutable replay state shared by run_scenario and the alpha probe.

    The state a swap touches is kept as plain numbers: the reserves ``x``
    and ``y``, the side ledger ``fees_x`` and ``fees_y``, the prices ``p_x``
    and ``p_y`` and the totals ``collected_x`` and ``collected_y``.  Trades
    and arbitrage legs run on the pool module's plain-number kernel, so no
    value object is built per event.  ``start`` is the opening pool; a
    ``PoolState`` for the current one is built only where it is read (the
    ``pool`` property): at a snapshot and at the end of a run.  Scripts have
    one provider and no deposits, so the share ledger stays ``start``'s.
    """

    def __init__(self, script: ScenarioScript):
        positive(ScriptError, "initial prices", script.p_x0, script.p_y0)
        self.script = script
        self.start = start = create_pool(
            script.pool_x,
            script.pool_y,
            fee_rate=script.fee_rate,
            fee_model=script.fee_model,
            provider=script.provider,
        )
        require_market_rate(ScriptError, start, script.p_y0 / script.p_x0)
        self.x = start.reserve_x
        self.y = start.reserve_y
        self.fees_x = start.side_ledger.fees_x
        self.fees_y = start.side_ledger.fees_y
        self.phi = start.fee_rate
        self.compound = start.fee_model is FeeModel.AUTO_COMPOUND
        self.p_x = script.p_x0
        self.p_y = script.p_y0
        self.t = 0.0
        self.collected_x: Numeric = 0
        self.collected_y: Numeric = 0
        self.snapshots: List[PortfolioSnapshot] = []

    @property
    def pool(self) -> PoolState:
        start = self.start
        return PoolState(
            self.x, self.y, start.fee_rate, start.fee_model,
            start.total_shares, start.share_ledger, SideLedger(self.fees_x, self.fees_y),
        )

    def _trade(self, event: Trade) -> None:
        if event.direction is _Y_FOR_X:
            gross, net, out, _ = _swap(
                self.y, self.x, self.phi, event.amount_in, event.max_spread, True
            )
            self.y, self.fees_y = _settle(self.y, self.fees_y, gross, gross - net, self.compound)
            self.x = self.x - out
        else:
            gross, net, out, _ = _swap(
                self.x, self.y, self.phi, event.amount_in, event.max_spread, False
            )
            self.x, self.fees_x = _settle(self.x, self.fees_x, gross, gross - net, self.compound)
            self.y = self.y - out

    def _move_prices(self, event: PriceMove) -> None:
        self.p_x = p_x = self.p_x * event.delta_x
        self.p_y = p_y = self.p_y * event.delta_y
        # A delta outside (0, inf), or a product that leaves float range, fails here.
        positive(ScriptError, "prices after the move", p_x, p_y)
        self.x, self.y = _arbitrage(self.x, self.y, p_y / p_x)

    def _collect(self, event: CollectFees) -> None:
        share = self.start.share_ledger.get(event.provider, 0) / self.start.total_shares
        take_x = self.fees_x * share
        take_y = self.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        self.fees_x = self.fees_x - take_x
        self.fees_y = self.fees_y - take_y

    def _snapshot(self, event: Snapshot) -> None:
        self.snapshots.append(self.take_snapshot(event.label))

    def take_snapshot(self, label: str) -> PortfolioSnapshot:
        pool = self.pool
        pooled = pool_value(pool, self.p_x, self.p_y)
        held = pool_value(self.start, self.p_x, self.p_y)
        positive(ScriptError, "pooled and held values", pooled, held)
        return PortfolioSnapshot(
            label=label,
            t=self.t,
            reserve_x=pool.reserve_x,
            reserve_y=pool.reserve_y,
            fees_x=pool.side_ledger.fees_x,
            fees_y=pool.side_ledger.fees_y,
            lp_value_pooled=pooled,
            lp_value_held=held,
            lambda_realized=(pooled - held) / held,
            p_x=self.p_x,
            p_y=self.p_y,
        )

    def run(self) -> "_Replay":
        handlers = {
            Trade: self._trade,
            PriceMove: self._move_prices,
            CollectFees: self._collect,
            Snapshot: self._snapshot,
        }
        for index, event in enumerate(self.script.events):
            t = event.t
            # A chained comparison, so a NaN timestamp fails it too.
            if not self.t <= t < math.inf:
                raise ScriptError(
                    f"event {index}: timestamp {t} must be finite and not before {self.t}"
                )
            self.t = t
            try:
                handler = handlers.get(event.__class__) or _subclass_handler(handlers, event)
                handler(event)
            except CpammError as err:
                raise type(err)(f"event {index}: {err}") from err
        return self


def _subclass_handler(handlers: dict, event):
    """The handler of an event whose class derives from an event type."""
    for kind, handler in handlers.items():
        if isinstance(event, kind):
            return handler
    raise ScriptError(f"unknown event type {type(event).__name__}")


def run_scenario(script: ScenarioScript) -> List[PortfolioSnapshot]:
    """Apply every event in order; returns all snapshots plus a final one."""
    replay = _Replay(script).run()
    replay.snapshots.append(replay.take_snapshot("final"))
    return replay.snapshots


def measure_effective_alpha(script: ScenarioScript, window: float) -> float:
    """Aggregate fee accrual of a replay, as liquidity growth per year.

    Auto-compounding pools grow their reserves, so the measure is the
    relative liquidity growth over the window.  Collect-separately pools
    leave liquidity flat; there the ledger (plus anything already collected)
    is valued at final prices and converted to its liquidity equivalent
    ``value / (2 sqrt(p_x p_y))`` before normalizing.
    """
    positive(EmptyWindow, "window", window)
    replay = _Replay(script).run()
    start_liquidity = liquidity_of(replay.start)
    if script.fee_model is FeeModel.AUTO_COMPOUND:
        growth = liquidity_of(replay.pool) / start_liquidity - 1
        return growth / window
    fees_value = replay.p_x * (replay.fees_x + replay.collected_x) + replay.p_y * (
        replay.fees_y + replay.collected_y
    )
    liquidity_equiv = fees_value / (2 * (replay.p_x * replay.p_y) ** 0.5)
    return liquidity_equiv / (start_liquidity * window)


# -- script files ---------------------------------------------------------

_EVENT_KINDS = {"trade", "price_move", "collect_fees", "snapshot"}
_DIRECTIONS = {member.value: member for member in Direction}


def _number(value) -> float:
    """A numeric script field: whatever ``float`` reads, except a JSON boolean."""
    if value.__class__ is bool:
        raise TypeError(f"expected a number, got {str(value).lower()}")
    return float(value)


def _json_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ScriptError(f"{what}: expected a JSON object, got {type(value).__name__}")
    return value


def _parse_event(index: int, raw: dict) -> Event:
    if not isinstance(raw, dict):
        _json_object(f"event {index}", raw)  # raises; the name is built only on failure
    kind = raw.get("type")
    if kind not in _EVENT_KINDS:
        raise ScriptError(f"event {index}: unknown type {kind!r}")
    try:
        t = _number(raw.get("t", 0.0))
        non_negative(ValueError, "timestamp", t)
        if kind == "trade":
            direction = raw["direction"]
            try:
                direction = _DIRECTIONS[direction]
            except (KeyError, TypeError):
                direction = Direction(direction)  # raises the enum's own error
            spread = raw.get("max_spread")
            amount = _number(raw["amount"])
            return Trade(t, direction, amount, None if spread is None else _number(spread))
        if kind == "price_move":
            return PriceMove(t, _number(raw["delta_x"]), _number(raw["delta_y"]))
        if kind == "collect_fees":
            return CollectFees(t, str(raw["provider"]))
        label = raw["label"] if "label" in raw else f"snapshot-{index}"
        return Snapshot(t, str(label))
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScriptError(f"event {index}: {err}") from err


def load_script(source: Union[str, os.PathLike, io.TextIOBase]) -> ScenarioScript:
    """Load a scenario from a JSON file (path or open text stream).

    Expected shape::

        {
          "pool":   {"x": 100, "y": 100, "fee_rate": 0.003,
                     "fee_model": "collect_separately"},
          "prices": {"p_x": 1.0, "p_y": 1.0},
          "provider": "lp",
          "events": [
            {"type": "trade", "t": 0.1, "direction": "y2x",
             "amount": 5, "max_spread": 0.5},
            {"type": "price_move", "t": 0.5, "delta_x": 1, "delta_y": 4},
            {"type": "collect_fees", "t": 0.9, "provider": "lp"},
            {"type": "snapshot", "t": 1.0, "label": "year-end"}
          ]
        }

    ``fee_model`` is ``auto_compound`` or ``collect_separately``; trade
    directions are ``y2x`` / ``x2y``; ``max_spread`` may be omitted or null
    for uncapped trades.  Timestamps are in years, must be finite and
    non-negative and must not decrease.  Every numeric field is read as a
    float; a JSON boolean is not a number.
    """
    if isinstance(source, io.TextIOBase):
        raw = source.read()
    else:
        try:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
        except OSError as err:
            raise ScriptError(f"cannot read script: {err}") from err
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ScriptError(f"invalid JSON: {err}") from err
    try:
        pool = _json_object("pool", doc["pool"])
        prices = _json_object("prices", doc["prices"])
        fee_model = FeeModel(pool.get("fee_model", "auto_compound"))
        entries = doc.get("events", [])
        if not isinstance(entries, list):
            raise ScriptError(f"events: expected a JSON array, got {type(entries).__name__}")
        events = tuple(_parse_event(i, entry) for i, entry in enumerate(entries))
        return ScenarioScript(
            pool_x=_number(pool["x"]),
            pool_y=_number(pool["y"]),
            fee_rate=_number(pool.get("fee_rate", 0.0)),
            fee_model=fee_model,
            p_x0=_number(prices["p_x"]),
            p_y0=_number(prices["p_y"]),
            events=events,
            provider=str(doc.get("provider", "lp")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, ScriptError):
            raise
        raise ScriptError(f"malformed script: {err}") from err


def snapshots_to_csv(snapshots: Sequence[PortfolioSnapshot]) -> str:
    """Render snapshots as a CSV table: one column per snapshot field, the
    label first and every other field as a float ``repr``."""
    names = [field.name for field in fields(PortfolioSnapshot)]
    numbers = attrgetter(*names[1:])  # every field after the label
    lines = [",".join(names)]
    for snap in snapshots:
        lines.append(snap.label + "," + ",".join(repr(float(v)) for v in numbers(snap)))
    return "\n".join(lines) + "\n"
