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

This module holds the public types and thin functions over the replay
engine, :mod:`cpamm.replay`, which reads scripts and replays them on plain
numbers and plain tuples, never on these types.  ``_record`` turns a public
event object into the engine's replay record, as the replay reaches it in
:func:`run_scenario` and :func:`measure_effective_alpha`, and ``_event``
turns a record back into its event object for :func:`load_script`.
:func:`run_scenario` builds a :class:`PortfolioSnapshot` from each
snapshot's values, and :func:`load_script` a :class:`ScenarioScript` from
the header's.  ``cpamm run-scenario`` runs the engine alone: each snapshot
becomes its CSV row as it is taken, and the command loads neither
``dataclasses`` nor ``fractions`` (for a script with no ``a/b`` number), so
on the benchmark's 100k-event script it peaks at about 15.9 MB RSS, against
17.8 with this module loaded.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from itertools import count
from numbers import Real
from operator import attrgetter
from typing import List, Optional, Sequence, Union

from .errors import CpammError, EmptyWindow, ScriptError, positive
from .kernel import _geometric_mean, _member, _value
from .pool import Direction, FeeModel, Numeric
from .replay import _COLUMNS, _CSV_HEADER, _Replay, _csv_row, _read_script, _snapshots, _string


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
    """Withdraw the whole side ledger if ``provider`` is the script's, who
    owns every share; any other name withdraws nothing."""

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
    """Pool, fees, prices and both portfolio values at one snapshot: the
    values the replay engine gives a snapshot, named by ``replay._COLUMNS``."""

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


def _replay(script: ScenarioScript) -> _Replay:
    """The finished replay of ``script``: its header values, then its events."""
    header = (script.pool_x, script.pool_y, script.fee_rate, script.fee_model,
              script.p_x0, script.p_y0, _string("provider", script.provider))
    return _Replay(header).run(map(_record, count(), script.events))


def run_scenario(script: ScenarioScript) -> List[PortfolioSnapshot]:
    """Apply every event in order; returns all snapshots plus a final one."""
    return [PortfolioSnapshot(*values) for values in _snapshots(_replay(script))]


def measure_effective_alpha(script: ScenarioScript, window: float) -> float:
    """Aggregate fee accrual of a replay, as liquidity growth per year.

    Auto-compounding pools grow their reserves, so the measure is the
    relative liquidity growth over the window.  Collect-separately pools
    leave liquidity flat; there the ledger (plus anything already collected)
    is valued at final prices and converted to its liquidity equivalent
    ``value / (2 sqrt(p_x p_y))`` before normalizing.  The fees are valued
    at the prices divided by ``sqrt(p_x p_y)``, which alpha does not depend
    on, so that tiny or huge prices keep the value in float range.
    """
    positive(EmptyWindow, "window", window)
    replay = _replay(script)
    start_liquidity = _geometric_mean(replay.x0, replay.y0)
    if replay.compound:
        growth = _geometric_mean(replay.x, replay.y) / start_liquidity - 1
        return growth / window
    price = _geometric_mean(replay.p_x, replay.p_y)
    fees_value = _value(replay.fees_x + replay.collected_x, replay.fees_y + replay.collected_y,
                        replay.p_x / price, replay.p_y / price, ScriptError)
    return fees_value / 2 / (start_liquidity * window)


class _Loaded:
    """What :func:`load_script` reads a script into: its header values and
    its events."""

    def __init__(self, header: tuple):
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
    pool_x, pool_y, fee_rate, fee_model, p_x0, p_y0, provider = loaded.header
    return ScenarioScript(pool_x, pool_y, fee_rate, fee_model, p_x0, p_y0,
                          tuple(loaded.events), provider)


#: A snapshot's values in ``_COLUMNS`` order, which are its fields.
_values = attrgetter(*_COLUMNS)


def snapshots_to_csv(snapshots: Sequence[PortfolioSnapshot]) -> str:
    """Render snapshots as a CSV table: a header naming every snapshot
    field, then one row per snapshot as ``_csv_row`` renders its values."""
    return _CSV_HEADER + "".join(map(_csv_row, map(_values, snapshots)))
