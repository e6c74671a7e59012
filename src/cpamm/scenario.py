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

The replay reads events as records, not as event objects.  A record is
``(kind, t, a, b)``: a small integer ``kind``, the timestamp and two
fields.  A trade's kind carries its direction and whether it has a spread
cap (the ``_SELLS_X`` and ``_CAPPED`` bits of kinds 0 to 3), ``a`` is its
amount and ``b`` its cap; a price move (kind 4) holds ``delta_x`` and
``delta_y``; a fee collection (5) and a snapshot (6) hold the provider or
label in ``a``.  Unused fields are 0.0.  Two plain conversions build
records, each one branch per event kind that checks every field:
``_parse_event`` for a JSON event, as soon as the decoder finishes it (so a
script is never held as dicts, and ``_read_script`` holds its records
packed), and ``_record`` for a public event object, as the replay reaches
it in :func:`run_scenario` and :func:`measure_effective_alpha`.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import dataclass, fields, replace
from itertools import count
from numbers import Real
from operator import attrgetter
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .errors import CpammError, EmptyWindow, ScriptError, non_negative, positive
from .pool import (
    Direction,
    FeeModel,
    Numeric,
    _arbitrage,
    _bounded,
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
_X_FOR_Y = Direction.X_FOR_Y
_INF = math.inf

#: Record kinds (see the module docstring): a trade is 0 to 3, its two bits
#: flagging a cap and the side sold.
_CAPPED, _SELLS_X, _MOVE, _COLLECT, _SNAPSHOT = 1, 2, 4, 5, 6
#: The trade kind of each direction, uncapped; a ``str`` value looks up too.
_TRADE_KINDS = {_Y_FOR_X: 0, _X_FOR_Y: _SELLS_X}


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

    :meth:`run` reads records (see the module docstring) and hands each to
    the handler of its kind with its fields, so the dispatch is one call.
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

    def _trade(self, kind: int, amount: Numeric, cap: Numeric) -> None:
        self.x, self.y, self.fees_x, self.fees_y, _, _, _, _ = _swap(
            self.x, self.y, self.fees_x, self.fees_y, self.phi, amount,
            cap if kind & _CAPPED else None, not kind & _SELLS_X, self.compound,
        )
        if self.x.__class__ is not float:  # an exact replay: bound its size
            _bounded(self.x, self.y, self.fees_x, self.fees_y)

    def _move_prices(self, kind: int, delta_x: Numeric, delta_y: Numeric) -> None:
        self.p_x = p_x = self.p_x * delta_x
        self.p_y = p_y = self.p_y * delta_y
        # A delta outside (0, inf), or a product that leaves float range, fails
        # here; the comparison is inline and the helper only raises.
        if not (0 < p_x < _INF and 0 < p_y < _INF):
            positive(ScriptError, "prices after the move", p_x, p_y)
        self.x, self.y = _arbitrage(self.x, self.y, p_y / p_x)

    def _collect(self, kind: int, provider: str, _) -> None:
        share = self.start.share_ledger.get(provider, 0) / self.start.total_shares
        take_x = self.fees_x * share
        take_y = self.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        self.fees_x = self.fees_x - take_x
        self.fees_y = self.fees_y - take_y

    def _snapshot(self, kind: int, label: str, _) -> None:
        self.snapshots.append(self.take_snapshot(label))

    #: The handler of each record kind.
    _handlers = (_trade, _trade, _trade, _trade, _move_prices, _collect, _snapshot)

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
        handlers = self._handlers
        now = self.t
        for index, (kind, t, a, b) in enumerate(records):
            # A chained comparison, so a NaN timestamp fails it too.
            if not now <= t < _INF:
                raise ScriptError(
                    f"event {index}: timestamp {t} must be finite and not before {now}"
                )
            self.t = now = t
            try:
                handlers[kind](self, kind, a, b)
            except CpammError as err:
                raise type(err)(f"event {index}: {err}") from err
        return self


def _real(what: str, value) -> None:
    """Reject a numeric field of an event object that is no number.  An
    exact number replays as it is, and a boolean is not a number, as in a
    script."""
    if value.__class__ is float:
        return
    if value.__class__ is bool or not isinstance(value, Real):
        raise ScriptError(f"{what}: expected a number, got {type(value).__name__}")


def _record(index: int, event) -> tuple:
    """The replay record of the event object at ``index``, with every field
    checked: numbers by ``_real``, text by ``_string``, and the direction
    coerced to its ``Direction`` member (a plain ``"y2x"`` equals it but is
    not it).

    One ``isinstance`` branch per kind, in ``_parse_event``'s order, so an
    event subclass replays as its base type.  Records are built as the
    replay reaches each event, so any other object fails only there.
    """
    try:
        if isinstance(event, Trade):
            amount, spread = event.amount_in, event.max_spread
            _real("amount_in", amount)
            if spread is not None:
                _real("max_spread", spread)
            kind = _TRADE_KINDS[_member(Direction, event.direction, "direction")]
            if spread is None:
                record = kind, event.t, amount, 0.0
            else:
                record = kind | _CAPPED, event.t, amount, spread
        elif isinstance(event, PriceMove):
            _real("delta_x", event.delta_x)
            _real("delta_y", event.delta_y)
            record = _MOVE, event.t, event.delta_x, event.delta_y
        elif isinstance(event, CollectFees):
            record = _COLLECT, event.t, _string("provider", event.provider), 0.0
        elif isinstance(event, Snapshot):
            record = _SNAPSHOT, event.t, _string("label", event.label), 0.0
        else:
            raise ScriptError(f"unknown event type {type(event).__name__}")
        _real("timestamp", record[1])
        return record
    except CpammError as err:
        raise type(err)(f"event {index}: {err}") from err


def _event(record: tuple) -> Event:
    """The public event object of a record."""
    kind, t, a, b = record
    if kind < _MOVE:
        direction = _X_FOR_Y if kind & _SELLS_X else _Y_FOR_X
        return Trade(t, direction, a, b if kind & _CAPPED else None)
    if kind == _MOVE:
        return PriceMove(t, a, b)
    return CollectFees(t, a) if kind == _COLLECT else Snapshot(t, a)


def _replay(script: ScenarioScript, records: Iterable[tuple]) -> List[PortfolioSnapshot]:
    replay = _Replay(script).run(records)
    replay.snapshots.append(replay.take_snapshot("final"))
    return replay.snapshots


def run_scenario(script: ScenarioScript) -> List[PortfolioSnapshot]:
    """Apply every event in order; returns all snapshots plus a final one."""
    return _replay(script, map(_record, count(), script.events))


def measure_effective_alpha(script: ScenarioScript, window: float) -> float:
    """Aggregate fee accrual of a replay, as liquidity growth per year.

    Auto-compounding pools grow their reserves, so the measure is the
    relative liquidity growth over the window.  Collect-separately pools
    leave liquidity flat; there the ledger (plus anything already collected)
    is valued at final prices and converted to its liquidity equivalent
    ``value / (2 sqrt(p_x p_y))`` before normalizing.
    """
    positive(EmptyWindow, "window", window)
    replay = _Replay(script).run(map(_record, count(), script.events))
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
                kind = _TRADE_KINDS[direction]
            except (KeyError, TypeError):
                kind = _TRADE_KINDS[Direction(direction)]  # raises the enum's own error
            spread = raw.get("max_spread")
            amount = raw["amount"]
            if amount.__class__ is not float:
                amount = _number(amount)
            if spread is None:
                return kind, t, amount, 0.0
            if spread.__class__ is not float:
                spread = _number(spread)
            return kind | _CAPPED, t, amount, spread
        if kind == "price_move":
            delta_x = raw["delta_x"]
            if delta_x.__class__ is not float:
                delta_x = _number(delta_x)
            delta_y = raw["delta_y"]
            if delta_y.__class__ is not float:
                delta_y = _number(delta_y)
            return _MOVE, t, delta_x, delta_y
        if kind == "collect_fees":
            return _COLLECT, t, _string("provider", raw["provider"]), 0.0
        label = _string("label", raw["label"]) if "label" in raw else f"snapshot-{index}"
        return _SNAPSHOT, t, label, 0.0
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScriptError(f"event {index}: {err}") from err


#: What the decoder leaves in place of an event it packed.  Not ``None``,
#: which a JSON ``null`` entry of ``events`` decodes to.
_PACKED = object()


def _read_script(
    source: Union[str, os.PathLike, io.TextIOBase]
) -> Tuple[ScenarioScript, Iterator[tuple]]:
    """A script file's header (a script with no events) and its events'
    records, all checked before anything replays.

    Each record is held packed in 25 bytes of one ``bytearray`` (floats
    round-trip exactly), its provider or label as an index into ``texts``,
    and is unpacked as it is read.
    """
    try:
        if isinstance(source, io.TextIOBase):
            raw = source.read()
        else:
            with open(source, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ScriptError(f"cannot read script: {err}") from err
    layout = struct.Struct("<Bddd")
    packed = bytearray()
    texts: List[str] = []
    pack, extend = layout.pack, packed.extend

    def add(kind: int, t: float, a, b: float) -> None:
        """Pack a record; its provider or label goes to ``texts``."""
        if kind >= _COLLECT:
            texts.append(a)
            a = len(texts) - 1
        extend(pack(kind, t, a, b))

    # The decoder hands each JSON object to ``record`` as soon as it is
    # complete, so a well-formed script's events never exist as dicts.  It
    # cannot tell an event from any other object with a ``type``, nor where
    # an object sits, so its records are kept only if they are exactly the
    # entries of ``events``.  Otherwise (a bad event, or an event-typed
    # object anywhere else) the text is decoded again as it is, and parsed
    # below.  A nesting deeper than the decoder's recursion is invalid JSON.
    made = 0

    def record(obj: dict):
        nonlocal made
        try:
            parsed = _parse_event(made, obj)
        except Exception:  # not an event, or a bad one: left for the parse below
            return obj
        add(*parsed)
        made += 1
        return _PACKED

    try:
        doc = json.loads(raw, object_hook=record)
        entries = doc.get("events") if doc.__class__ is dict else None
        kept = entries.__class__ is list and len(entries) == made == entries.count(_PACKED)
        if not kept:
            doc = entries = None  # released before the second decode
            doc = json.loads(raw)
    # A ValueError is a JSONDecodeError or an integer past the digit limit.
    except (ValueError, RecursionError) as err:
        raise ScriptError(f"invalid JSON: {err}") from err
    del raw
    try:
        pool = _json_object("pool", doc["pool"])
        prices = _json_object("prices", doc["prices"])
        fee_model = FeeModel(pool.get("fee_model", "auto_compound"))
        entries = doc.get("events", [])
        if not isinstance(entries, list):
            raise ScriptError(f"events: expected a JSON array, got {type(entries).__name__}")
        if not kept:
            packed.clear()
            texts.clear()
            for index, entry in enumerate(entries):
                add(*_parse_event(index, entry))
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
    records = ((kind, t, texts[int(a)] if kind >= _COLLECT else a, b)
               for kind, t, a, b in layout.iter_unpack(packed))
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
    as they are read, without building an event object.  The whole file is
    checked first, so a malformed event is reported before any replay
    error."""
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
