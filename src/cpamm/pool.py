"""Constant-product pool engine.

A pool holds reserves ``x`` and ``y`` of two tokens and quotes trades so that
the product ``x * y`` (equivalently the liquidity ``L = sqrt(x * y)``) is
unchanged by a fee-free swap.  The pool exchange rate is ``r = x / y``: the
amount of X an infinitesimal trade receives per unit of Y.

Traders may cap the spread of a trade, the relative rate change
``|r' - r| / r`` it causes.  A cap ``sigma`` limits the net input to

* selling Y for X: ``q = y * (1 / sqrt(1 - sigma) - 1)``, ``sigma in [0, 1)``
* selling X for Y: ``q = x * (sqrt(1 + sigma) - 1)``,     ``sigma >= 0``

``max_spread=None`` means no cap.  Anything a capped trade does not consume
stays with the trader.

Fees: the fee ``phi`` is charged on the gross input, and only the net amount
``gross * (1 - phi)`` enters the curve.  Under ``FeeModel.AUTO_COMPOUND`` the
fee is then added to the input-side reserve (it grows the pool's liquidity);
under ``FeeModel.COLLECT_SEPARATELY`` it accrues in a side ledger outside
the reserves.

All operations are value-level: they never mutate a ``PoolState``, they
return a new one.  The value types are frozen, slotted dataclasses, and every
operation builds its result with a direct constructor call: on the swap path
that is about twice as fast as the generic copy-with-changes helper of the
``dataclasses`` module.

The value-level API is built on one plain-number kernel, :mod:`cpamm.kernel`:
``_swap`` prices, guards and settles a trade and ``_execute`` adds its
receipt, ``_arbitrage`` is its fee-free leg onto a market rate, ``_opening``
and ``_rate`` hold the checks of :func:`create_pool` and :func:`rate_of`,
``_value`` is :func:`pool_value` and ``_half_over`` the halving of
:func:`reserves_from_value`, and ``_deposit`` and ``_withdraw`` hold the share
rules of :func:`add_liquidity` and :func:`remove_liquidity`.  They take and
return the pool's own bare numbers, ``x`` before ``y`` whatever the
direction, and tuples.  This module holds the value types and the functions
that wrap the kernel in them.  The kernel loads neither ``dataclasses`` nor
``fractions``, and the replay that ``run-scenario`` runs and the ``quote``,
``swap`` and ``pool-info`` commands run on it alone, so none of them loads
this module.

Arithmetic is duck-typed, so a pool built from ``fractions.Fraction`` values
runs the swap path exactly (the swap equations are rational); square roots
fall back to floats unless the operand is a perfect rational square.  A
float fee, amount, spread cap, price or deposit joins exact reserves as a
float would (the results are floats).  Exact values are held to float range
as floats are (see :mod:`cpamm.errors`), and they grow with every trade, so
:func:`execute_swap`, :func:`add_liquidity` and :func:`remove_liquidity`
reject a result past the largest float or whose numerator or denominator
passes ``MAX_EXACT_BITS``; so do :func:`create_pool` for its inputs, and
:func:`rate_of` and :func:`pool_value` for the values they report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, Union

from .errors import (
    InactivePool,
    InvalidRate,
    NonPositiveInput,
    NonPositiveReserve,
    non_negative,
    positive,
)
from .kernel import (  # the two limits unused here: public as pool.<name>
    MAX_EXACT_BITS,
    RATE_MATCH_TOL,
    Direction,
    FeeModel,
    _arbitrage,
    _arbitrage_trade,
    _deposit,
    _execute,
    _geometric_mean,
    _half_over,
    _member,
    _opening,
    _rate,
    _spread_cap,
    _sqrt,
    _value,
    _withdraw,
)

Numeric = Union[float, Fraction]


@dataclass(frozen=True, slots=True)
class SideLedger:
    """Fees accrued outside the reserves (collect-separately pools only)."""

    fees_x: Numeric = 0
    fees_y: Numeric = 0


@dataclass(frozen=True, slots=True)
class PoolState:
    """Reserves, fee terms, the share ledger and fees held outside the reserves."""

    reserve_x: Numeric
    reserve_y: Numeric
    fee_rate: Numeric
    fee_model: FeeModel
    total_shares: Numeric
    share_ledger: Mapping[str, Numeric]
    side_ledger: SideLedger = field(default_factory=SideLedger)

    @property
    def active(self) -> bool:
        return self.reserve_x > 0 and self.reserve_y > 0


@dataclass(frozen=True, slots=True)
class SwapQuote:
    """Result of pricing one trade.

    ``capped_in`` is the gross amount actually taken from the trader (fee
    included); it equals ``requested_in`` unless a spread cap binds.
    ``realized_rate`` is ``amount_out / capped_in``, the effective rate after
    fees.  ``spread_applied`` is the relative rate move the trade causes,
    always <= the requested cap.  A cap of zero degenerates to an empty
    trade; its realized rate is the spot rate (the zero-size limit).
    """

    direction: Direction
    requested_in: Numeric
    capped_in: Numeric
    amount_out: Numeric
    realized_rate: Numeric
    spread_applied: Numeric
    fee_paid: Numeric


#: A receipt is the quote the executed trade settled at, field for field.
SwapReceipt = SwapQuote


@dataclass(frozen=True, slots=True)
class LpPosition:
    """A provider's shares and what they deposited for them."""

    provider: str
    shares: Numeric
    deposited_x: Numeric = 0
    deposited_y: Numeric = 0


def _require_active(pool: PoolState) -> None:
    if not pool.active:
        raise InactivePool("pool has no reserves; create a new pool")


def create_pool(
    x0: Numeric,
    y0: Numeric,
    fee_rate: Numeric = 0,
    fee_model: FeeModel = FeeModel.AUTO_COMPOUND,
    provider: str = "lp",
) -> PoolState:
    """Initialize a pool; ``provider`` receives ``sqrt(x0 * y0)`` shares.  A
    float product or rate outside the normal range raises ``NonPositiveReserve``;
    an exact reserve or fee past ``MAX_EXACT_BITS`` raises ``InputError``."""
    fee_model, shares = _opening(x0, y0, fee_rate, fee_model)
    return PoolState(
        reserve_x=x0,
        reserve_y=y0,
        fee_rate=fee_rate,
        fee_model=fee_model,
        total_shares=shares,
        share_ledger=MappingProxyType({provider: shares}),
    )


def liquidity_of(pool: PoolState) -> Numeric:
    """Geometric mean of the reserves, ``sqrt(x * y)``."""
    _require_active(pool)
    return _geometric_mean(pool.reserve_x, pool.reserve_y)


def rate_of(pool: PoolState) -> Numeric:
    """Pool exchange rate ``r = x / y`` (X received per unit of Y, spot); a
    rate outside the range of ``errors.normal`` raises ``InvalidRate``, and
    an exact one past ``MAX_EXACT_BITS`` raises ``InputError``."""
    _require_active(pool)
    return _rate(pool.reserve_x, pool.reserve_y)


def pool_value(pool: PoolState, p_x: Numeric, p_y: Numeric) -> Numeric:
    """Mark the reserves to market: ``p_x * x + p_y * y``.  An empty pool is
    worth 0; any other value outside the range of ``errors.normal``, or
    exact past ``MAX_EXACT_BITS``, raises ``InputError``."""
    return _value(pool.reserve_x, pool.reserve_y, p_x, p_y)


def reserves_from_rate_liquidity(rate: Numeric, liquidity: Numeric) -> Tuple[Numeric, Numeric]:
    """Invert (x, y) -> (r, L): ``x = L * sqrt(r)``, ``y = L / sqrt(r)``."""
    positive(InvalidRate, "rate", rate)
    non_negative(NonPositiveInput, "liquidity", liquidity)
    root = _sqrt(rate)
    x, y = liquidity * root, liquidity / root
    if liquidity:  # zero liquidity is an empty pool; any other must fit a float
        positive(NonPositiveReserve, "reserves L * sqrt(r) and L / sqrt(r)", x, y)
    return x, y


def reserves_from_value(
    value: Numeric, p_x: Numeric, p_y: Numeric
) -> Tuple[Numeric, Numeric, Numeric]:
    """Reserves and liquidity of a pool worth ``value`` at market prices.

    Assumes the pool rate equals the market rate, so each side holds half
    the value: ``x = V / (2 p_x)``, ``y = V / (2 p_y)``,
    ``L = V / (2 sqrt(p_x p_y))``.
    """
    positive(NonPositiveInput, "value and prices", value, p_x, p_y)
    x = _half_over(value, p_x)
    y = _half_over(value, p_y)
    positive(NonPositiveReserve, "reserves V / (2 p_x) and V / (2 p_y)", x, y)
    liquidity = _half_over(value, _geometric_mean(p_x, p_y))
    return x, y, liquidity


def max_input_for_spread(pool: PoolState, direction: Direction, sigma: Numeric) -> Numeric:
    """Largest net input whose execution moves the pool rate by exactly ``sigma``.

    This is the amount that enters the curve; with a fee ``phi`` the trader
    is charged up to ``q / (1 - phi)`` gross for it.
    """
    _require_active(pool)
    y_for_x = _member(Direction, direction, "direction") is Direction.Y_FOR_X
    return _spread_cap(pool.reserve_y if y_for_x else pool.reserve_x, sigma, y_for_x)


def quote(
    pool: PoolState,
    direction: Direction,
    amount_in: Numeric,
    max_spread: Optional[Numeric] = None,
) -> SwapQuote:
    """Price a trade of ``amount_in`` input tokens without executing it: the
    receipt :func:`execute_swap` would give for the same arguments."""
    return execute_swap(pool, direction, amount_in, max_spread)[1]


def execute_swap(
    pool: PoolState,
    direction: Direction,
    amount_in: Numeric,
    max_spread: Optional[Numeric] = None,
) -> Tuple[PoolState, SwapReceipt]:
    """Execute a trade and return the post-trade pool plus its receipt.

    The output for a net input ``a`` is ``out * a / (in + a)`` where ``in``
    and ``out`` are the input- and output-side reserves, which keeps the
    reserve product constant.  The output-side reserve is never drained: the
    output is strictly below it for any finite input in exact arithmetic, and
    a float trade so large that the output rounds up to (or overflows past)
    the whole reserve raises ``NonPositiveReserve``.

    With no fee the reserve product is preserved (bit for bit on rational
    inputs); an auto-compounded fee strictly grows it, a separately collected
    fee leaves it on the net amounts and credits the side ledger.
    """
    _require_active(pool)
    direction = _member(Direction, direction, "direction")
    ledger = pool.side_ledger
    (new_x, new_y, fees_x, fees_y), receipt = _execute(
        pool.reserve_x, pool.reserve_y, ledger.fees_x, ledger.fees_y, pool.fee_rate,
        pool.fee_model, direction, amount_in, max_spread,
    )
    if fees_x is not ledger.fees_x or fees_y is not ledger.fees_y:
        ledger = SideLedger(fees_x, fees_y)
    new_pool = PoolState(
        new_x, new_y, pool.fee_rate, pool.fee_model,
        pool.total_shares, pool.share_ledger, ledger,
    )
    return new_pool, SwapReceipt(*receipt)


def add_liquidity(
    pool: PoolState, provider: str, dx: Numeric, dy: Numeric
) -> Tuple[PoolState, LpPosition]:
    """Deposit ``(dx, dy)`` at the pool ratio; mints proportional shares.

    The deposit must not move the rate: ``dx / dy`` has to match
    ``reserve_x / reserve_y`` within ``RATE_MATCH_TOL`` relative.
    """
    _require_active(pool)
    ledger = dict(pool.share_ledger)
    x, y, total, ledger[provider], minted = _deposit(
        pool.reserve_x, pool.reserve_y, pool.total_shares, ledger.get(provider, 0), dx, dy
    )
    new_pool = PoolState(x, y, pool.fee_rate, pool.fee_model, total, MappingProxyType(ledger),
                         pool.side_ledger)
    return new_pool, LpPosition(provider=provider, shares=minted, deposited_x=dx, deposited_y=dy)


def remove_liquidity(
    pool: PoolState, provider: str, shares: Numeric
) -> Tuple[PoolState, Tuple[Numeric, Numeric]]:
    """Burn ``shares`` and withdraw the proportional slice of both reserves.

    Withdrawing everything empties the pool; that state is terminal.
    """
    _require_active(pool)
    ledger = dict(pool.share_ledger)
    x, y, total, remaining, dx, dy = _withdraw(pool.reserve_x, pool.reserve_y, pool.total_shares,
                                               ledger.get(provider, 0), shares, provider)
    if remaining > 0:
        ledger[provider] = remaining
    else:
        del ledger[provider]
    new_pool = PoolState(x, y, pool.fee_rate, pool.fee_model, total, MappingProxyType(ledger),
                         pool.side_ledger)
    return new_pool, (dx, dy)


def arbitrage_input_for_rate(
    pool: PoolState, target_rate: Numeric
) -> Optional[Tuple[Direction, Numeric]]:
    """Trade that moves the pool rate to ``target_rate``, in closed form.

    After a Y-for-X swap the rate obeys ``r' = r * (y / y')**2``, so the
    input sizes solve directly: sell ``y * (sqrt(r / r') - 1)`` of Y to lower
    the rate, or ``x * (sqrt(r' / r) - 1)`` of X to raise it.  Returns None
    when the pool already sits on the target (within float precision).
    The amounts are net curve inputs; execute them fee-free.  An amount past
    float range raises ``InvalidRate``, as :func:`arbitrage_to_rate` does.
    """
    _require_active(pool)
    trade = _arbitrage_trade(pool.reserve_x, pool.reserve_y, target_rate)
    if trade is None:
        return None
    y_for_x, amount = trade
    return (Direction.Y_FOR_X if y_for_x else Direction.X_FOR_Y), amount


def arbitrage_to_rate(pool: PoolState, target_rate: Numeric) -> PoolState:
    """Drag the pool onto ``target_rate`` with one fee-free arbitrage trade.

    The trade is sized as by :func:`arbitrage_input_for_rate` and executed
    with the fee zeroed, so it charges nothing and leaves the side ledger
    alone; the returned pool carries the original fee rate.  A pool already
    on the target comes back unchanged.  A target so far from the pool rate
    that the float trade cannot be executed raises ``InvalidRate``.
    """
    _require_active(pool)
    x, y = _arbitrage(pool.reserve_x, pool.reserve_y, target_rate)
    if x is pool.reserve_x and y is pool.reserve_y:  # no trade was needed
        return pool
    return PoolState(
        x, y, pool.fee_rate, pool.fee_model,
        pool.total_shares, pool.share_ledger, pool.side_ledger,
    )
