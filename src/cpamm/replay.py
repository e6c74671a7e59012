"""The script reader and the replay that ``cpamm run-scenario`` runs.

This is the engine under :mod:`cpamm.scenario`, built only on the pool's
plain-number kernel (:mod:`cpamm.kernel`), whose formulas it calls rather
than copies: a script's header is a tuple of plain values, the replay keeps
its state as numbers, and a snapshot is a tuple of values, which
:mod:`cpamm.scenario` turns into its public types and ``run-scenario`` into
a CSV row.  So the command loads neither ``dataclasses`` nor ``fractions``,
unless a script writes an exact ``a/b`` number.

The replay reads events as records, not as event objects.  A record is
``(apply, t, a, b)``: the ``_Replay`` method that applies the event, the
timestamp and the two fields the method takes.  A trade names ``_sell_y``
or ``_sell_x`` by the side it sells, ``a`` is its amount and ``b`` its
spread cap, None for none; a price move names ``_move_prices`` and holds
``delta_x`` and ``delta_y``; a fee collection (``_collect``) and a snapshot
(``_snapshot``) hold the provider or label in ``a`` and None in ``b``.
``_parse_event`` builds the record of a JSON event, one branch per event
kind that checks every field.

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
the snapshot objects were kept and rendered at the end.
"""

import io
import json
import os
import re
from contextlib import nullcontext, suppress
from operator import is_not

from .errors import CpammError, DomainError, ScriptError, non_negative, number, positive
from .kernel import (
    _FLOAT_MAX,
    Direction,
    FeeModel,
    _arbitrage,
    _bounded,
    _opening,
    _require_rate,
    _swap,
    _value,
)

#: The fields of a snapshot, in order: the CSV columns and the fields of
#: ``scenario.PortfolioSnapshot``.
_COLUMNS = ("label", "t", "reserve_x", "reserve_y", "fees_x", "fees_y", "lp_value_pooled",
            "lp_value_held", "lambda_realized", "p_x", "p_y")


class _Replay:
    """Mutable replay state shared by ``run-scenario``, run_scenario and the
    alpha probe.

    ``header`` holds the opening values a script's header gives, the
    fields of ``scenario.ScenarioScript`` but ``events``, in order:
    ``(pool_x, pool_y, fee_rate, fee_model, p_x0, p_y0, provider)``.  The state is kept as
    plain numbers: the opening reserves ``x0`` and ``y0`` and the provider's
    ``shares``, the reserves ``x`` and ``y``, the side ledger ``fees_x`` and
    ``fees_y``, the prices ``p_x`` and ``p_y`` and the totals
    ``collected_x`` and ``collected_y``.  Trades, arbitrage legs and the
    values of a snapshot run on the kernel: ``_swap``, ``_arbitrage`` and
    ``_value``, the rule of ``pool.pool_value``, so a snapshot value outside
    the normal float range raises ``ScriptError``.  Snapshots are tuples of
    values in ``_COLUMNS`` order.
    Scripts have one provider and no deposits, so the provider's shares are
    the pool's.

    :meth:`run` reads records (see the module docstring) and calls each
    one's method with its two fields, so the dispatch is one call.
    """

    def __init__(self, header: tuple, snapshots=None):
        pool_x, pool_y, fee_rate, fee_model, p_x0, p_y0, provider = header
        positive(ScriptError, "initial prices", p_x0, p_y0)
        fee_model, self.shares = _opening(pool_x, pool_y, fee_rate, fee_model)
        _require_rate(ScriptError, pool_x, pool_y, p_y0 / p_x0)
        self.x0 = self.x = pool_x
        self.y0 = self.y = pool_y
        self.provider = provider
        self.fees_x = self.fees_y = 0
        self.phi = fee_rate
        self.compound = fee_model is FeeModel.AUTO_COMPOUND
        self.p_x = p_x0
        self.p_y = p_y0
        self.t = 0.0
        self.collected_x = self.collected_y = 0
        #: Where snapshots go: a list, or ``_Rows`` to keep each as its CSV row.
        self.snapshots = [] if snapshots is None else snapshots

    def _sell_y(self, amount, cap) -> None:
        self.x, self.y, self.fees_x, self.fees_y, _, _, _, _ = _swap(
            self.x, self.y, self.fees_x, self.fees_y, self.phi, amount, cap, True, self.compound
        )

    def _sell_x(self, amount, cap) -> None:
        self.x, self.y, self.fees_x, self.fees_y, _, _, _, _ = _swap(
            self.x, self.y, self.fees_x, self.fees_y, self.phi, amount, cap, False, self.compound
        )

    def _move_prices(self, delta_x, delta_y) -> None:
        self.p_x = p_x = self.p_x * delta_x
        self.p_y = p_y = self.p_y * delta_y
        # A delta out of range, or a product that leaves float range, fails
        # here; the comparison is inline and the helper only raises.
        if not (0 < p_x <= _FLOAT_MAX and 0 < p_y <= _FLOAT_MAX):
            positive(ScriptError, "prices after the move", p_x, p_y)
        # Exact prices grow with every exact move, so they are held to the
        # size of the pool's values; floats skip the check, as in _swap.
        if p_x.__class__ is not float or p_y.__class__ is not float:
            _bounded(p_x, p_y)
        self.x, self.y = _arbitrage(self.x, self.y, p_y / p_x)

    def _collect(self, provider: str, _) -> None:
        share = (self.shares if provider == self.provider else 0) / self.shares
        take_x = self.fees_x * share
        take_y = self.fees_y * share
        self.collected_x = self.collected_x + take_x
        self.collected_y = self.collected_y + take_y
        self.fees_x = self.fees_x - take_x
        self.fees_y = self.fees_y - take_y

    def _snapshot(self, label: str, _) -> None:
        self.snapshots.append(self.take_snapshot(label))

    def take_snapshot(self, label: str) -> tuple:
        pooled = _value(self.x, self.y, self.p_x, self.p_y, ScriptError)
        held = _value(self.x0, self.y0, self.p_x, self.p_y, ScriptError)
        return (label, self.t, self.x, self.y, self.fees_x, self.fees_y, pooled, held,
                (pooled - held) / held, self.p_x, self.p_y)

    def run(self, records, first_index: int = 0) -> "_Replay":
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


def _snapshots(replay: _Replay):
    """A finished replay's snapshots, the final one appended."""
    replay.snapshots.append(replay.take_snapshot("final"))
    return replay.snapshots


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


def _header(doc: dict) -> tuple:
    """A decoded script's header, ``(pool_x, pool_y, fee_rate, fee_model,
    p_x0, p_y0, provider)``, and the records of its ``events``, which a
    streamed document has none of: the sections, the fee model, the events
    and then the numbers, in that order."""
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
        header = (
            number(pool["x"]),
            number(pool["y"]),
            number(pool["fee_rate"]) if "fee_rate" in pool else 0,
            fee_model,
            number(prices["p_x"]),
            number(prices["p_y"]),
            _string("provider", doc.get("provider", "lp")),
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


def _read_script(source: str | os.PathLike | io.TextIOBase, start):
    """Read a script file (a path or an open text stream) into the consumer
    that ``start(header)`` builds from the header values ``_header`` gives,
    handing its ``run(records, first_index)`` each window's records; returns
    the consumer.

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


_CSV_HEADER = ",".join(_COLUMNS) + "\n"
#: Rows joined at a time, as ``curves._CHUNK_LINES`` joins a figure's.
_CHUNK_ROWS = 1024


def _csv_row(snap: tuple) -> str:
    """One snapshot's CSV line, its line break included: the label, quoted
    as in RFC 4180 (the ``csv`` module's minimal quoting) if it holds a
    comma, a double quote or a line break, then every other value as a
    float ``repr``.  An exact value past float range raises ``DomainError``."""
    label = snap[0]
    if "," in label or '"' in label or "\n" in label or "\r" in label:
        label = '"' + label.replace('"', '""') + '"'
    cells = [label]
    try:
        for value in snap[1:]:
            cells.append(repr(float(value)))
    except OverflowError:
        raise DomainError(
            f"snapshot {snap[0]!r}: {_COLUMNS[len(cells)]} leaves float range"
        ) from None
    return ",".join(cells) + "\n"


class _Rows:
    """Snapshots kept as CSV text: ``append`` renders each to its row, and
    every ``_CHUNK_ROWS`` rows are joined into one of ``chunks`` (after the
    header line) as they fill; ``rows`` holds the rest."""

    def __init__(self):
        self.chunks = [_CSV_HEADER]
        self.rows = []

    def append(self, snap: tuple) -> None:
        self.rows.append(_csv_row(snap))
        if len(self.rows) == _CHUNK_ROWS:
            self.chunks.append("".join(self.rows))
            self.rows = []


def _run_script_file(source: str | os.PathLike | io.TextIOBase) -> list[str]:
    """``snapshots_to_csv(run_scenario(load_script(source)))`` in pieces that
    concatenate to it, each snapshot kept only as its row: the header line,
    then up to ``_CHUNK_ROWS`` rows each.  A malformed event anywhere in the
    file is reported before any replay error, and any error before a piece
    is returned."""
    rows = _snapshots(_read_script(source, lambda header: _Replay(header, _Rows())))
    return [*rows.chunks, "".join(rows.rows)]
