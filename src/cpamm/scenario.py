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
    arbitrage_to_rate,
    create_pool,
    execute_swap,
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

    ``start`` is the opening pool, ``pool`` the current one.
    """

    def __init__(self, script: ScenarioScript):
        positive(ScriptError, "initial prices", script.p_x0, script.p_y0)
        self.script = script
        self.start = self.pool = create_pool(
            script.pool_x,
            script.pool_y,
            fee_rate=script.fee_rate,
            fee_model=script.fee_model,
            provider=script.provider,
        )
        require_market_rate(ScriptError, self.pool, script.p_y0 / script.p_x0)
        self.p_x = script.p_x0
        self.p_y = script.p_y0
        self.t = 0.0
        self.collected_x: Numeric = 0
        self.collected_y: Numeric = 0
        self.snapshots: List[PortfolioSnapshot] = []

    def apply(self, index: int, event: Event) -> None:
        # A chained comparison, so a NaN timestamp fails it too.
        if not self.t <= event.t < math.inf:
            raise ScriptError(
                f"event {index}: timestamp {event.t} must be finite and not before {self.t}"
            )
        self.t = event.t
        try:
            if isinstance(event, Trade):
                self.pool, _ = execute_swap(
                    self.pool, event.direction, event.amount_in, event.max_spread
                )
            elif isinstance(event, PriceMove):
                self._move_prices(event)
            elif isinstance(event, CollectFees):
                self._collect(event.provider)
            elif isinstance(event, Snapshot):
                self.snapshots.append(self.take_snapshot(event.label))
            else:
                raise ScriptError(f"unknown event type {type(event).__name__}")
        except CpammError as err:
            raise type(err)(f"event {index}: {err}") from err

    def _move_prices(self, event: PriceMove) -> None:
        self.p_x = self.p_x * event.delta_x
        self.p_y = self.p_y * event.delta_y
        # A delta outside (0, inf), or a product that leaves float range, fails here.
        positive(ScriptError, "prices after the move", self.p_x, self.p_y)
        self.pool = arbitrage_to_rate(self.pool, self.p_y / self.p_x)

    def _collect(self, provider: str) -> None:
        share = self.pool.share_ledger.get(provider, 0) / self.pool.total_shares
        ledger = self.pool.side_ledger
        take_x = ledger.fees_x * share
        take_y = ledger.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        pool = self.pool
        self.pool = PoolState(
            pool.reserve_x, pool.reserve_y, pool.fee_rate, pool.fee_model,
            pool.total_shares, pool.share_ledger,
            SideLedger(ledger.fees_x - take_x, ledger.fees_y - take_y),
        )

    def take_snapshot(self, label: str) -> PortfolioSnapshot:
        pooled = pool_value(self.pool, self.p_x, self.p_y)
        held = pool_value(self.start, self.p_x, self.p_y)
        positive(ScriptError, "pooled and held values", pooled, held)
        return PortfolioSnapshot(
            label=label,
            t=self.t,
            reserve_x=self.pool.reserve_x,
            reserve_y=self.pool.reserve_y,
            fees_x=self.pool.side_ledger.fees_x,
            fees_y=self.pool.side_ledger.fees_y,
            lp_value_pooled=pooled,
            lp_value_held=held,
            lambda_realized=(pooled - held) / held,
            p_x=self.p_x,
            p_y=self.p_y,
        )

    def run(self) -> "_Replay":
        for index, event in enumerate(self.script.events):
            self.apply(index, event)
        return self


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
    ledger = replay.pool.side_ledger
    fees_value = replay.p_x * (ledger.fees_x + replay.collected_x) + replay.p_y * (
        ledger.fees_y + replay.collected_y
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
