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
``(apply, t, a, b)``: the ``_Replay`` method that applies the event, the
timestamp and the two fields the method takes.  A trade names ``_sell_y``
or ``_sell_x`` by the side it sells, ``a`` is its amount and ``b`` its
spread cap, None for none; a price move names ``_move_prices`` and holds
``delta_x`` and ``delta_y``; a fee collection (``_collect``) and a snapshot
(``_snapshot``) hold the provider or label in ``a`` and None in ``b``.  Two
plain conversions build records, each one branch per event kind that
checks every field:
``_parse_event`` for a JSON event, and ``_record`` for a public event
object, as the replay reaches it in :func:`run_scenario` and
:func:`measure_effective_alpha`.

A script file is read a window of text at a time, and each window's records
are replayed as soon as they are decoded, so neither the text, nor its
events as dicts, nor its records are ever held whole.  A header or replay
error stops the replay but not the reading: it is raised only once the whole
text is read, so a malformed event later in the file is reported first.  A
header key read after ``events`` (as ``sort_keys`` writes them) means a
second reading replays with the final header.  A text the window reader does
not accept is decoded whole, and that decides every result and message.

The replay that ``run-scenario`` runs holds its output once, as CSV text:
each snapshot becomes its row (``_csv_row``, which ``snapshots_to_csv``
uses too) when it is taken, and rows are joined into chunks of
``_CHUNK_ROWS`` as they come.  A snapshot then costs about its row's text,
112 bytes on a script of alternating trades and snapshots, against 721 when
the snapshot objects were kept and rendered at the end; on the benchmark's
100k-event script the command peaks at about 17.8 MB RSS, against 19.2.
"""

from __future__ import annotations

import io
import json
import os
import re
from contextlib import nullcontext, suppress
from dataclasses import dataclass, fields, replace
from itertools import count
from numbers import Real
from operator import is_not
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import (CpammError, DomainError, EmptyWindow, ScriptError, non_negative, number,
                     positive)
from .pool import (
    Direction,
    FeeModel,
    Numeric,
    _FLOAT_MAX,
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
_X_FOR_Y = Direction.X_FOR_Y


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

    :meth:`run` reads records (see the module docstring) and calls each
    one's method with its two fields, so the dispatch is one call.
    """

    def __init__(self, script: ScenarioScript, snapshots=None):
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
        #: Where snapshots go: a list, or ``_Rows`` to keep each as its CSV row.
        self.snapshots = [] if snapshots is None else snapshots

    def _sell_y(self, amount: Numeric, cap: Optional[Numeric]) -> None:
        self.x, self.y, self.fees_x, self.fees_y, _, _, _, _ = _swap(
            self.x, self.y, self.fees_x, self.fees_y, self.phi, amount, cap, True, self.compound
        )

    def _sell_x(self, amount: Numeric, cap: Optional[Numeric]) -> None:
        self.x, self.y, self.fees_x, self.fees_y, _, _, _, _ = _swap(
            self.x, self.y, self.fees_x, self.fees_y, self.phi, amount, cap, False, self.compound
        )

    def _move_prices(self, delta_x: Numeric, delta_y: Numeric) -> None:
        self.p_x = p_x = self.p_x * delta_x
        self.p_y = p_y = self.p_y * delta_y
        # A delta out of range, or a product that leaves float range, fails
        # here; the comparison is inline and the helper only raises.
        if not (0 < p_x <= _FLOAT_MAX and 0 < p_y <= _FLOAT_MAX):
            positive(ScriptError, "prices after the move", p_x, p_y)
        self.x, self.y = _arbitrage(self.x, self.y, p_y / p_x)

    def _collect(self, provider: str, _) -> None:
        share = self.start.share_ledger.get(provider, 0) / self.start.total_shares
        take_x = self.fees_x * share
        take_y = self.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        self.fees_x = self.fees_x - take_x
        self.fees_y = self.fees_y - take_y

    def _snapshot(self, label: str, _) -> None:
        self.snapshots.append(self.take_snapshot(label))

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

    def run(self, records: Iterable[tuple], first_index: int = 0) -> "_Replay":
        """Replay ``records``, the first of them event ``first_index``, from
        where the replay stands."""
        now = self.t
        for index, (apply, t, a, b) in enumerate(records, first_index):
            # A chained comparison, so a NaN timestamp fails it too.
            if not now <= t <= _FLOAT_MAX:
                raise ScriptError(
                    f"event {index}: timestamp {t} must be finite and not before {now}"
                )
            self.t = now = t
            try:
                apply(self, a, b)
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
            if _member(Direction, event.direction, "direction") is _Y_FOR_X:
                record = _Replay._sell_y, event.t, amount, spread
            else:
                record = _Replay._sell_x, event.t, amount, spread
        elif isinstance(event, PriceMove):
            _real("delta_x", event.delta_x)
            _real("delta_y", event.delta_y)
            record = _Replay._move_prices, event.t, event.delta_x, event.delta_y
        elif isinstance(event, CollectFees):
            record = _Replay._collect, event.t, _string("provider", event.provider), None
        elif isinstance(event, Snapshot):
            record = _Replay._snapshot, event.t, _string("label", event.label), None
        else:
            raise ScriptError(f"unknown event type {type(event).__name__}")
        _real("timestamp", record[1])
        return record
    except CpammError as err:
        raise type(err)(f"event {index}: {err}") from err


def _event(record: tuple) -> Event:
    """The public event object of a record."""
    apply, t, a, b = record
    if apply is _Replay._sell_y:
        return Trade(t, _Y_FOR_X, a, b)
    if apply is _Replay._sell_x:
        return Trade(t, _X_FOR_Y, a, b)
    if apply is _Replay._move_prices:
        return PriceMove(t, a, b)
    return CollectFees(t, a) if apply is _Replay._collect else Snapshot(t, a)


def _snapshots(replay: _Replay):
    """A finished replay's snapshots, the final one appended."""
    replay.snapshots.append(replay.take_snapshot("final"))
    return replay.snapshots


def run_scenario(script: ScenarioScript) -> List[PortfolioSnapshot]:
    """Apply every event in order; returns all snapshots plus a final one."""
    return _snapshots(_Replay(script).run(map(_record, count(), script.events)))


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

#: A tuple, so a ``type`` that is no hashable value is an unknown type too.
_EVENT_KINDS = ("trade", "price_move", "collect_fees", "snapshot")


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

    A JSON float is already what ``number`` would return, so only other
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
            t = number(t)
        if not 0 <= t <= _FLOAT_MAX:
            non_negative(ValueError, "timestamp", t)
        if kind == "trade":
            direction = raw["direction"]
            if direction != "y2x" and direction != "x2y":
                direction = Direction(direction)  # raises the enum's own error
            spread = raw.get("max_spread")
            amount = raw["amount"]
            if amount.__class__ is not float:
                amount = number(amount)
            if spread is not None and spread.__class__ is not float:
                spread = number(spread)
            if direction == "y2x":
                return _Replay._sell_y, t, amount, spread
            return _Replay._sell_x, t, amount, spread
        if kind == "price_move":
            delta_x = raw["delta_x"]
            if delta_x.__class__ is not float:
                delta_x = number(delta_x)
            delta_y = raw["delta_y"]
            if delta_y.__class__ is not float:
                delta_y = number(delta_y)
            return _Replay._move_prices, t, delta_x, delta_y
        if kind == "collect_fees":
            return _Replay._collect, t, _string("provider", raw["provider"]), None
        label = _string("label", raw["label"]) if "label" in raw else f"snapshot-{index}"
        return _Replay._snapshot, t, label, None
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ScriptError(f"event {index}: {err}") from err


#: Characters of script text read and decoded at a time: 64 KiB of ASCII.
_WINDOW = 1 << 16
_SPACE = re.compile(r"[ \t\n\r]*")  # JSON's whitespace
#: What follows an entry of ``events`` that a window may end with: a comma
#: and the next object, or the array's end, which is left to read.
_AFTER_ENTRY = re.compile(r"[ \t\n\r]*(?:,(?=[ \t\n\r]*\{)|(?=\]))")
#: What ``_stream`` raises for a text it does not accept exactly.
_NOT_STREAMED = (ValueError, TypeError, RecursionError, StopIteration, CpammError)


def _stream(read, begin) -> dict:
    """A script's top-level object but ``events``, decoded from ``read(size)``
    about one window at a time.

    When ``events`` begins, ``begin(doc)`` is called with the keys read so
    far and returns ``take``; each window's entries then go to
    ``take(records, first_index)`` as one list of records.  ``scan_once``
    reads the keys and the other values.  ``events`` is decoded by one
    ``json.loads`` per window, cut at the last ``}`` that ``_AFTER_ENTRY``
    follows.  A cut inside a string or a nested value does not decode, so
    the whole entries held are scanned one at a time, and more text is read:
    no text is decoded more than a few times over.
    """
    scan = json.JSONDecoder().scan_once
    buf, at, index, doc, records_to = "", 0, 0, {}, None

    def fill() -> bool:
        """Read on, at least as much as is held; False at the end."""
        nonlocal buf, at
        more = read(max(_WINDOW, len(buf) - at))
        buf, at = buf[at:] + more, 0
        return more != ""

    def peek() -> str:  # the next character past whitespace, "" at the end
        nonlocal at
        while True:
            at = _SPACE.match(buf, at).end()
            if at < len(buf) or not fill():
                return buf[at:at + 1]

    def take(char: str) -> None:
        nonlocal at
        if peek() != char:
            raise ValueError(f"expected {char!r}")
        at += 1

    def value():
        """The value at ``at``, once three characters are read past it: a
        number cut short (``1.5e-`` of ``1.5e-3``) goes on for two at most."""
        nonlocal at
        peek()
        while True:
            try:
                obj, end = scan(buf, at)
                if end < len(buf) - 2:
                    at = end
                    return obj
            except (ValueError, StopIteration):
                pass
            if not fill():
                obj, at = scan(buf, at)  # as the whole text has it, or its error
                return obj

    take("{")
    while True:
        if peek() != '"':
            raise ValueError("expected a key")
        key = value()
        take(":")
        if key != "events":
            doc[key] = value()
        elif records_to or peek() != "[":
            raise ValueError("events is no array, or comes twice")
        else:
            at, records_to = at + 1, begin(doc)
            while peek() != "]":
                batch, end = None, len(buf)
                while (cut := buf.rfind("}", at, end)) >= 0:
                    if after := _AFTER_ENTRY.match(buf, cut + 1):
                        with suppress(json.JSONDecodeError):  # a cut inside a value fails
                            batch, at = json.loads("[" + buf[at:cut + 1] + "]"), after.end()
                        break
                    end = cut
                if batch is None:  # the whole entries held go one at a time, then more text
                    batch = []
                    with suppress(ValueError, StopIteration):
                        while not buf.startswith("]", at):
                            entry, end = scan(buf, _SPACE.match(buf, at).end())
                            if not (after := _AFTER_ENTRY.match(buf, end)):
                                break
                            batch.append(entry)
                            at = after.end()
                    if not buf.startswith("]", at) and not fill():
                        raise ValueError("events end with no cut")
                records_to(list(map(_parse_event, range(index, index + len(batch)), batch)),
                           index)
                index += len(batch)
            at += 1  # the array's end
        if peek() != ",":
            break
        at += 1
    take("}")
    if peek():
        raise ValueError("text after the document")
    return doc


def _slicer(text: str):
    """``read(size)`` over a text already held."""
    offset = 0

    def read(size: int) -> str:
        nonlocal offset
        offset += size
        return text[offset - size:offset]

    return read


#: The top-level keys a script's header is read from.
_HEADER_KEYS = ("pool", "prices", "provider")


def _header_values(doc: dict) -> list:
    """The decoded objects of the header keys; a key read again is a new
    object, and a key not read is ``_HEADER_KEYS`` itself."""
    return [doc.get(key, _HEADER_KEYS) for key in _HEADER_KEYS]


def _header(doc: dict) -> Tuple[ScenarioScript, list]:
    """A decoded script's header (a script with no events) and the records
    of its ``events``, which a streamed document has none of: the sections,
    the fee model, the events and then the numbers, in that order."""
    try:
        pool = _json_object("pool", doc["pool"])
        prices = _json_object("prices", doc["prices"])
        fee_model = FeeModel(pool.get("fee_model", "auto_compound"))
        entries = doc.get("events", [])
        if not isinstance(entries, list):
            raise ScriptError(f"events: expected a JSON array, got {type(entries).__name__}")
        records = []
        for index, entry in enumerate(entries):
            records.append(_parse_event(index, entry))
            entries[index] = None  # drop each raw event once its record exists
        header = ScenarioScript(
            pool_x=number(pool["x"]),
            pool_y=number(pool["y"]),
            fee_rate=number(pool["fee_rate"]) if "fee_rate" in pool else 0,
            fee_model=fee_model,
            p_x0=number(prices["p_x"]),
            p_y0=number(prices["p_y"]),
            provider=_string("provider", doc.get("provider", "lp")),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        if isinstance(err, ScriptError):
            raise
        raise ScriptError(f"malformed script: {err}") from err
    return header, records


def _streamed(reader, start):
    """A script that ``_stream`` reads from ``reader()``: the consumer
    ``start(header)`` and the first error building or running it, which is
    raised only once the whole text is accepted (a malformed event later in
    it is reported instead).  Each window's records go to the consumer's
    ``run(records, first_index)`` as they are decoded.

    The header is built when ``events`` begins.  If there are no ``events``,
    it is built from the whole document.  If a header key is read after
    ``events``, this reading counts only as a check of the events: the
    header is built again from the whole document, and a second ``reader()``
    reading replays with it.
    """
    seen = consumer = failure = None

    def begin(doc: dict):
        nonlocal seen, consumer, failure
        seen, failure = _header_values(doc), None
        try:
            consumer = start(_header(doc)[0])
        # Deferred, not dropped: raised once the whole text is accepted, as the
        # replay of checked records would raise it.
        except Exception as err:
            failure = err
        return take

    def take(records: list, first_index: int) -> None:
        nonlocal failure
        if failure is None:  # an error stops the replay, not the reading
            try:
                consumer.run(records, first_index)
            except Exception as err:
                failure = err

    doc = _stream(reader(), begin)
    if seen is None:  # no events: nothing to replay
        begin(doc)
    elif any(map(is_not, _header_values(doc), seen)):  # a header key came late
        begin(doc)
        if failure is None:
            _stream(reader(), lambda _: take)
    return consumer, failure


def _read_script(source: Union[str, os.PathLike, io.TextIOBase], start):
    """Read a script file (path or open text stream) into the consumer that
    ``start(header)`` builds, handing its ``run(records, first_index)`` each
    window's records; returns the consumer.

    A path is decoded a window at a time (``_streamed``), so neither its
    text nor its records are ever held whole; a stream, or a file that
    cannot be read twice, is read whole first.  What ``_stream`` does not
    accept is decoded from the whole text, which then decides every result
    and error message: the header and every record are checked before any
    replays.
    """
    text = streamed = None
    try:
        with (nullcontext(source) if isinstance(source, io.TextIOBase)
              else open(source, "r", encoding="utf-8")) as handle:
            if handle is source or not handle.seekable():
                text = handle.read()

            def reader():  # ``read(size)`` from the text's start
                if text is not None:
                    return _slicer(text)
                handle.seek(0)
                return handle.read

            try:
                streamed = _streamed(reader, start)
            except _NOT_STREAMED:
                if text is None:
                    handle.seek(0)
                    text = handle.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ScriptError(f"cannot read script: {err}") from err
    if streamed is not None:
        consumer, failure = streamed
        if failure is not None:
            raise failure
        return consumer
    try:
        doc = json.loads(text)
    # A ValueError is a JSONDecodeError or an integer past the digit limit.
    except (ValueError, RecursionError) as err:
        raise ScriptError(f"invalid JSON: {err}") from err
    text = None
    header, records = _header(doc)
    consumer = start(header)
    consumer.run(records, 0)
    return consumer


class _Loaded:
    """What :func:`load_script` reads a script into: its header and events."""

    def __init__(self, header: ScenarioScript):
        self.header = header
        self.events: List[Event] = []

    def run(self, records: list, first_index: int) -> None:
        self.events += map(_event, records)


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
    non-negative and must not decrease.  Every numeric field is read as the
    CLI reads its flags (``errors.number``): a float, unless it is a string
    ``a/b``, an exact fraction.  An absent ``fee_rate`` is the int 0, so a
    script of fractions replays exactly.  A JSON boolean is not a number.
    Providers and labels must be JSON strings.
    """
    loaded = _read_script(source, _Loaded)
    return replace(loaded.header, events=tuple(loaded.events))


_COLUMNS = tuple(field.name for field in fields(PortfolioSnapshot))
_CSV_HEADER = ",".join(_COLUMNS) + "\n"
#: Rows joined at a time, as ``figures._CHUNK_LINES`` joins a figure's.
_CHUNK_ROWS = 1024


def _csv_row(snap: PortfolioSnapshot) -> str:
    """One snapshot's CSV line, its line break included: the label, quoted
    as in RFC 4180 (the ``csv`` module's minimal quoting) if it holds a
    comma, a double quote or a line break, then every other field as a float
    ``repr``.  An exact field past float range raises ``DomainError``."""
    label = snap.label
    if "," in label or '"' in label or "\n" in label or "\r" in label:
        label = '"' + label.replace('"', '""') + '"'
    cells = [label]
    for name in _COLUMNS[1:]:
        try:
            cells.append(repr(float(getattr(snap, name))))
        except OverflowError:
            raise DomainError(f"snapshot {snap.label!r}: {name} leaves float range") from None
    return ",".join(cells) + "\n"


class _Rows:
    """Snapshots kept as CSV text: ``append`` renders each to its row, and
    every ``_CHUNK_ROWS`` rows are joined into one of ``chunks`` (after the
    header line) as they fill; ``rows`` holds the rest."""

    def __init__(self):
        self.chunks = [_CSV_HEADER]
        self.rows: List[str] = []

    def append(self, snap: PortfolioSnapshot) -> None:
        self.rows.append(_csv_row(snap))
        if len(self.rows) == _CHUNK_ROWS:
            self.chunks.append("".join(self.rows))
            self.rows = []


def _run_script_file(source: Union[str, os.PathLike, io.TextIOBase]) -> List[str]:
    """``snapshots_to_csv(run_scenario(load_script(source)))`` in pieces that
    concatenate to it, each snapshot kept only as its row: the header line,
    then up to ``_CHUNK_ROWS`` rows each.  A malformed event anywhere in the
    file is reported before any replay error, and any error before a piece
    is returned."""
    rows = _snapshots(_read_script(source, lambda header: _Replay(header, _Rows())))
    return [*rows.chunks, "".join(rows.rows)]


def snapshots_to_csv(snapshots: Sequence[PortfolioSnapshot]) -> str:
    """Render snapshots as a CSV table: a header naming every snapshot
    field, then one row per snapshot as ``_csv_row`` renders it."""
    return _CSV_HEADER + "".join(map(_csv_row, snapshots))
