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

The replay reads events as records, not as event objects.  A record is a
plain tuple ``(handler, t, *fields)``: the ``_Replay`` method that applies
the event, then the event's dataclass fields in declaration order, so a
trade is ``(_Replay._trade, t, direction, amount_in, max_spread)``.  The
JSON parser builds records directly, and ``_EVENTS`` (event type ->
handler and field getter) converts between records and the public frozen
event types: :func:`load_script` builds event objects from records, and
:func:`run_scenario` and :func:`measure_effective_alpha` turn the objects
they are given back into records.  ``cpamm run-scenario`` replays the
records of a file without building an event object.
"""

from __future__ import annotations

import io
import json
import math
import os
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import CpammError, EmptyWindow, ScriptError, non_negative, positive
from .pool import (
    Direction,
    FeeModel,
    Numeric,
    _arbitrage,
    _geometric_mean,
    _member,
    _swap,
    create_pool,
    require_market_rate,
)


@dataclass(frozen=True, slots=True)
class Trade:
    """Swap ``amount_in`` in ``direction``, capped by ``max_spread`` if given."""

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
    """Record the pool and both portfolios under ``label``."""

    t: float
    label: str


Event = Union[Trade, PriceMove, CollectFees, Snapshot]

_Y_FOR_X = Direction.Y_FOR_X
_INF = math.inf


@dataclass(frozen=True, slots=True)
class ScenarioScript:
    """The opening pool and prices, and the events to replay on it."""

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
    """Pool, fees, prices and both portfolio values at one snapshot."""

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
    and arbitrage legs run on the pool module's plain-number kernel, and
    snapshots and the alpha probe read the numbers directly, so no
    ``PoolState`` is built after ``start``, the opening pool.  Scripts have
    one provider and no deposits, so the share ledger stays ``start``'s.

    :meth:`run` reads records (see the module docstring): each handler
    takes the whole record and unpacks the fields it needs, so a record
    costs one tuple and the dispatch one call.
    """

    def __init__(self, script: ScenarioScript):
        positive(ScriptError, "initial prices", script.p_x0, script.p_y0)
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

    def _trade(self, record: tuple) -> None:
        _, _, direction, amount, cap = record
        if direction is _Y_FOR_X:
            self.y, self.x, self.fees_y, _, _, _, _ = _swap(
                self.y, self.x, self.fees_y, self.phi, amount, cap, True, self.compound
            )
        else:
            self.x, self.y, self.fees_x, _, _, _, _ = _swap(
                self.x, self.y, self.fees_x, self.phi, amount, cap, False, self.compound
            )

    def _move_prices(self, record: tuple) -> None:
        _, _, delta_x, delta_y = record
        self.p_x = p_x = self.p_x * delta_x
        self.p_y = p_y = self.p_y * delta_y
        # A delta outside (0, inf), or a product that leaves float range, fails
        # here; the comparison is inline and the helper only raises.
        if not (0 < p_x < _INF and 0 < p_y < _INF):
            positive(ScriptError, "prices after the move", p_x, p_y)
        self.x, self.y = _arbitrage(self.x, self.y, p_y / p_x)

    def _collect(self, record: tuple) -> None:
        share = self.start.share_ledger.get(record[2], 0) / self.start.total_shares
        take_x = self.fees_x * share
        take_y = self.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        self.fees_x = self.fees_x - take_x
        self.fees_y = self.fees_y - take_y

    def _snapshot(self, record: tuple) -> None:
        self.snapshots.append(self.take_snapshot(record[2]))

    def _unknown(self, record: tuple) -> None:
        """The handler of an object that is no event: ``(_unknown, t, object)``."""
        raise ScriptError(f"unknown event type {type(record[2]).__name__}")

    def take_snapshot(self, label: str) -> PortfolioSnapshot:
        # pool_value's expression without its price check: the prices were
        # checked when the replay started and at every move.
        pooled = self.p_x * self.x + self.p_y * self.y
        held = self.p_x * self.start.reserve_x + self.p_y * self.start.reserve_y
        positive(ScriptError, "pooled and held values", pooled, held)
        return PortfolioSnapshot(
            label=label,
            t=self.t,
            reserve_x=self.x,
            reserve_y=self.y,
            fees_x=self.fees_x,
            fees_y=self.fees_y,
            lp_value_pooled=pooled,
            lp_value_held=held,
            lambda_realized=(pooled - held) / held,
            p_x=self.p_x,
            p_y=self.p_y,
        )

    def run(self, records: Iterable[tuple]) -> "_Replay":
        now = self.t
        for index, record in enumerate(records):
            t = record[1]
            # A chained comparison, so a NaN timestamp fails it too.
            if not now <= t < _INF:
                raise ScriptError(
                    f"event {index}: timestamp {t} must be finite and not before {now}"
                )
            self.t = now = t
            try:
                record[0](self, record)
            except CpammError as err:
                raise type(err)(f"event {index}: {err}") from err
        return self


#: Each event type -> the ``_Replay`` handler its records name, and a getter
#: of its fields in declaration order (``t`` first), which a record carries
#: after the handler.
_EVENTS = {
    kind: (handler, attrgetter(*(field.name for field in fields(kind))))
    for kind, handler in (
        (Trade, _Replay._trade),
        (PriceMove, _Replay._move_prices),
        (CollectFees, _Replay._collect),
        (Snapshot, _Replay._snapshot),
    )
}
_KINDS = {handler: kind for kind, (handler, _) in _EVENTS.items()}


def _trade_fields(trade: Trade) -> tuple:
    """A trade's fields, its direction as the ``Direction`` member that the
    replay picks the side by (a plain ``"y2x"`` equals it but is not it)."""
    direction = _member(Direction, trade.direction, "direction")
    return trade.t, direction, trade.amount_in, trade.max_spread


_EVENTS[Trade] = (_Replay._trade, _trade_fields)


def _record(event) -> tuple:
    """The replay record of an event object; an event subclass replays as its
    base type, and any other object fails when the replay reaches it."""
    entry = _EVENTS.get(event.__class__)
    if entry is None:
        entry = next((e for kind, e in _EVENTS.items() if isinstance(event, kind)), None)
        if entry is None:
            return _Replay._unknown, event.t, event
    handler, values = entry
    return (handler, *values(event))


def _event(record: tuple) -> Event:
    """The public event object of a record."""
    return _KINDS[record[0]](*record[1:])


def _replay(script: ScenarioScript, records: Iterable[tuple]) -> List[PortfolioSnapshot]:
    replay = _Replay(script).run(records)
    replay.snapshots.append(replay.take_snapshot("final"))
    return replay.snapshots


def run_scenario(script: ScenarioScript) -> List[PortfolioSnapshot]:
    """Apply every event in order; returns all snapshots plus a final one."""
    return _replay(script, map(_record, script.events))


def measure_effective_alpha(script: ScenarioScript, window: float) -> float:
    """Aggregate fee accrual of a replay, as liquidity growth per year.

    Auto-compounding pools grow their reserves, so the measure is the
    relative liquidity growth over the window.  Collect-separately pools
    leave liquidity flat; there the ledger (plus anything already collected)
    is valued at final prices and converted to its liquidity equivalent
    ``value / (2 sqrt(p_x p_y))`` before normalizing.
    """
    positive(EmptyWindow, "window", window)
    replay = _Replay(script).run(map(_record, script.events))
    start_liquidity = _geometric_mean(replay.start.reserve_x, replay.start.reserve_y)
    if replay.compound:
        growth = _geometric_mean(replay.x, replay.y) / start_liquidity - 1
        return growth / window
    fees_value = replay.p_x * (replay.fees_x + replay.collected_x) + replay.p_y * (
        replay.fees_y + replay.collected_y
    )
    liquidity_equiv = fees_value / (2 * _geometric_mean(replay.p_x, replay.p_y))
    return liquidity_equiv / (start_liquidity * window)


# -- script files ---------------------------------------------------------

_EVENT_KINDS = {"trade", "price_move", "collect_fees", "snapshot"}
_DIRECTIONS = {member.value: member for member in Direction}


def _number(value) -> float:
    """A numeric script field: whatever ``float`` reads, except a JSON boolean."""
    if value.__class__ is bool:
        raise TypeError(f"expected a number, got {str(value).lower()}")
    return float(value)


def _string(what: str, value) -> str:
    """A text script field: a JSON string, never coerced."""
    if not isinstance(value, str):
        raise ScriptError(f"{what}: expected a string, got {type(value).__name__}")
    return value


def _json_object(what: str, value) -> dict:
    if not isinstance(value, dict):
        raise ScriptError(f"{what}: expected a JSON object, got {type(value).__name__}")
    return value


def _parse_event(index: int, raw: dict) -> tuple:
    """The replay record of one JSON event, with every field checked.

    A JSON float is already what ``_number`` would return, so only other
    values go through it.
    """
    if not isinstance(raw, dict):
        _json_object(f"event {index}", raw)  # raises; the name is built only on failure
    kind = raw.get("type")
    if kind not in _EVENT_KINDS:
        raise ScriptError(f"event {index}: unknown type {kind!r}")
    try:
        t = raw.get("t", 0.0)
        if t.__class__ is not float:
            t = _number(t)
        if not 0 <= t < _INF:
            non_negative(ValueError, "timestamp", t)
        if kind == "trade":
            direction = raw["direction"]
            try:
                direction = _DIRECTIONS[direction]
            except (KeyError, TypeError):
                direction = Direction(direction)  # raises the enum's own error
            spread = raw.get("max_spread")
            amount = raw["amount"]
            if amount.__class__ is not float:
                amount = _number(amount)
            if spread is not None and spread.__class__ is not float:
                spread = _number(spread)
            return _Replay._trade, t, direction, amount, spread
        if kind == "price_move":
            delta_x = raw["delta_x"]
            if delta_x.__class__ is not float:
                delta_x = _number(delta_x)
            delta_y = raw["delta_y"]
            if delta_y.__class__ is not float:
                delta_y = _number(delta_y)
            return _Replay._move_prices, t, delta_x, delta_y
        if kind == "collect_fees":
            return _Replay._collect, t, _string("provider", raw["provider"])
        label = _string("label", raw["label"]) if "label" in raw else f"snapshot-{index}"
        return _Replay._snapshot, t, label
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScriptError(f"event {index}: {err}") from err


def _read_script(
    source: Union[str, os.PathLike, io.TextIOBase]
) -> Tuple[ScenarioScript, List[tuple]]:
    """A script file's header (a script with no events) and its events as
    replay records, all checked before anything replays."""
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
        records = []
        append = records.append
        for index, entry in enumerate(entries):
            append(_parse_event(index, entry))
            entries[index] = None  # drop each raw event once its record exists
        header = ScenarioScript(
            pool_x=_number(pool["x"]),
            pool_y=_number(pool["y"]),
            fee_rate=_number(pool.get("fee_rate", 0.0)),
            fee_model=fee_model,
            p_x0=_number(prices["p_x"]),
            p_y0=_number(prices["p_y"]),
            provider=_string("provider", doc.get("provider", "lp")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, ScriptError):
            raise
        raise ScriptError(f"malformed script: {err}") from err
    return header, records


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
    float; a JSON boolean is not a number.  Providers and labels must be
    JSON strings.
    """
    header, records = _read_script(source)
    return replace(header, events=tuple(map(_event, records)))


def _run_script_file(source: Union[str, os.PathLike, io.TextIOBase]) -> List[PortfolioSnapshot]:
    """``run_scenario(load_script(source))``, replaying the file's records
    without building an event object.  The whole file is checked first, so
    a malformed event is reported before any replay error."""
    return _replay(*_read_script(source))


def snapshots_to_csv(snapshots: Sequence[PortfolioSnapshot]) -> str:
    """Render snapshots as a CSV table: one column per snapshot field, the
    label first and every other field as a float ``repr``.

    A label holding a comma, a double quote or a line break is quoted as in
    RFC 4180 (the ``csv`` module's minimal quoting), so every row reads back
    as one record of the header's width.
    """
    names = [field.name for field in fields(PortfolioSnapshot)]
    numbers = attrgetter(*names[1:])  # every field after the label
    lines = [",".join(names)]
    for snap in snapshots:
        label = snap.label
        if "," in label or '"' in label or "\n" in label or "\r" in label:
            label = '"' + label.replace('"', '""') + '"'
        lines.append(label + "," + ",".join(repr(float(v)) for v in numbers(snap)))
    return "\n".join(lines) + "\n"
