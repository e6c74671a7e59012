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

The value-level API is built on one plain-number kernel: ``_swap`` prices,
guards and settles a trade, and ``_arbitrage`` is its fee-free leg onto a
market rate.  They take and return the pool's own bare numbers, ``x``
before ``y`` whatever the direction, so a replay keeps its state as plain
numbers, never oriented, and builds value objects only where they are read.

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

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from numbers import Rational
from types import MappingProxyType
from typing import Mapping, Optional, Tuple, Union

from .errors import (
    InactivePool,
    InputError,
    InsufficientShares,
    InvalidFee,
    InvalidRate,
    NonPositiveAmount,
    NonPositiveInput,
    NonPositivePrice,
    NonPositiveReserve,
    RateMismatch,
    SpreadOutOfRange,
    float_geometric_mean,
    non_negative,
    normal,
    positive,
    shown,
)

Numeric = Union[float, Fraction]

#: Relative tolerance wherever a ratio must match a rate: a deposit against
#: the pool ratio, or a pool rate against the market rate.
RATE_MATCH_TOL = 1e-9

#: Most bits the numerator or the denominator of an exact value may take in
#: a pool or receipt: about 3,900 decimal digits, inside the 4,300 that
#: Python turns an int into text by default.  Alternating exact swaps grow
#: the sizes by about half again each; from a 100/100 pool at fee 3/1000,
#: unit swaps reach the limit at the 14th.
MAX_EXACT_BITS = 13_000

_INF = math.inf
_FLOAT_MAX = sys.float_info.max
#: The largest float as an int, which an exact value compares with cheaply.
_EXACT_MAX = int(_FLOAT_MAX)


class Direction(str, Enum):
    """Which token the trader pays in."""

    Y_FOR_X = "y2x"  # trader sells Y, receives X; pool rate falls
    X_FOR_Y = "x2y"  # trader sells X, receives Y; pool rate rises


class FeeModel(str, Enum):
    AUTO_COMPOUND = "auto_compound"
    COLLECT_SEPARATELY = "collect_separately"


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


def _sqrt(value: Numeric) -> Numeric:
    """Square root, exact when ``value`` is a perfect rational square, else
    the float root of ``value``'s float: inf past float range, as that is."""
    # The class test first: isinstance against the Fraction ABC is slow.
    if value.__class__ is not float and isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        root_num, root_den = math.isqrt(num), math.isqrt(den)
        if root_num * root_num == num and root_den * root_den == den:
            return Fraction(root_num, root_den)
    try:
        return math.sqrt(value)
    except OverflowError:  # an exact value whose float would be inf
        return _INF


def _geometric_mean(a: Numeric, b: Numeric) -> Numeric:
    """``sqrt(a * b)``: exact where ``_sqrt`` is, and by the float rule of
    ``float_geometric_mean`` wherever the product is a float or an exact one
    past float range, whose factors are in it."""
    product = a * b
    if product.__class__ is float:
        return float_geometric_mean(a, b)
    root = _sqrt(product)
    return float_geometric_mean(float(a), float(b)) if root == _INF else root


def _member(enum, value, what: str):
    """``value`` as a member of ``enum``: a plain ``"y2x"`` equals the
    member but is not it, and sides and fee models are picked by identity."""
    if value.__class__ is enum:
        return value
    try:
        return enum(value)
    except ValueError:
        use = " or ".join(repr(member.value) for member in enum)
        raise InputError(f"unknown {what} {value!r}; use {use}") from None


def _bounded(*values: Numeric) -> None:
    """Raise ``InputError`` if an exact value has a numerator or a denominator
    of more than ``MAX_EXACT_BITS`` bits, or is past the largest float; floats
    are not looked at."""
    for value in values:
        if value.__class__ is not float and isinstance(value, Rational):
            num, den = value.numerator, value.denominator
            bits = max(num.bit_length(), den.bit_length())
            if bits > MAX_EXACT_BITS:
                raise InputError(
                    f"exact result needs {bits} bits, more than the {MAX_EXACT_BITS}-bit "
                    "limit on a numerator or denominator; use floats"
                )
            if num > _EXACT_MAX * den:
                raise InputError("exact result leaves float range")


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
    positive(NonPositiveReserve, "initial reserves", x0, y0)
    non_negative(InvalidFee, "fee rate", fee_rate, below=1)
    _bounded(x0, y0, fee_rate)
    fee_model = _member(FeeModel, fee_model, "fee model")
    product = x0 * y0
    # A float product outside the normal range has lost bits that its root
    # keeps, and a rate outside it cannot be reported.
    if isinstance(product, float):
        normal(NonPositiveReserve, "initial reserve product x0 * y0", product)
        normal(NonPositiveReserve, "initial reserve ratio x0 / y0", x0 / y0)
        normal(NonPositiveReserve, "initial reserve ratio y0 / x0", y0 / x0)
    shares = _geometric_mean(x0, y0)
    positive(NonPositiveReserve, "initial liquidity sqrt(x0 * y0)", shares)
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
    rate = normal(InvalidRate, "pool rate x / y", pool.reserve_x / pool.reserve_y)
    _bounded(rate)
    return rate


def require_market_rate(error, pool: PoolState, market_rate: Numeric) -> None:
    """Raise ``error`` unless the pool rate is within ``RATE_MATCH_TOL`` of
    ``market_rate``, relative; a NaN, zero or infinite rate never matches."""
    pool_rate = rate_of(pool)
    if not abs(pool_rate - market_rate) <= RATE_MATCH_TOL * market_rate < math.inf:
        raise error(
            f"pool rate {shown(pool_rate)} does not match market rate {shown(market_rate)}"
        )


def pool_value(pool: PoolState, p_x: Numeric, p_y: Numeric) -> Numeric:
    """Mark the reserves to market: ``p_x * x + p_y * y``.  An empty pool is
    worth 0; any other value outside the range of ``errors.normal``, or
    exact past ``MAX_EXACT_BITS``, raises ``InputError``."""
    positive(NonPositivePrice, "prices", p_x, p_y)
    try:
        value = p_x * pool.reserve_x + p_y * pool.reserve_y
    except OverflowError:  # an exact term past float range meets a float one
        value = _INF  # what the float sum gives
    if pool.active:
        _bounded(normal(InputError, "pool value p_x * x + p_y * y", value))
    return value


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
    x = value / (2 * p_x)
    y = value / (2 * p_y)
    positive(NonPositiveReserve, "reserves V / (2 p_x) and V / (2 p_y)", x, y)
    liquidity = value / (2 * _geometric_mean(p_x, p_y))
    return x, y, liquidity


def _spread_cap(reserve_in: Numeric, sigma: Numeric, y_for_x: bool) -> Numeric:
    """Largest net input that moves the rate by ``sigma`` (the cap formulas
    above), on the input-side reserve."""
    # The comparisons run inline and the helper only raises: this runs per
    # trade, where a helper call costs about three inline comparisons.
    if y_for_x:
        if not 0 <= sigma < 1:
            non_negative(SpreadOutOfRange, "Y-for-X spread", sigma, below=1)
        return reserve_in * (1 / _sqrt(1 - sigma) - 1)
    if not 0 <= sigma <= _FLOAT_MAX:
        non_negative(SpreadOutOfRange, "X-for-Y spread", sigma)
    return reserve_in * (_sqrt(1 + sigma) - 1)


def _swap(
    x: Numeric,
    y: Numeric,
    fees_x: Numeric,
    fees_y: Numeric,
    phi: Numeric,
    amount: Numeric,
    cap: Optional[Numeric],
    y_for_x: bool,
    compound: bool,
) -> Tuple[Numeric, Numeric, Numeric, Numeric, Numeric, Numeric, Numeric, Numeric]:
    """The swap kernel: prices, guards and settles a trade of ``amount`` paid in.

    Takes and returns the pool's own numbers, ``(x, y, fees_x, fees_y, gross,
    fee, out, squared)``: both reserves and both side-ledger balances after
    the trade, what the trader pays, its fee, the output, and the factor the
    rate moves by, ``(reserve_in / (reserve_in + net))**2``.  ``y_for_x``
    picks the input side and the cap formula.  ``net = gross - fee`` enters
    the curve once the fee and the spread cap ``cap`` (None for none) apply;
    the cap is sized after the amount guard, so a trade with a bad amount and
    a bad cap is rejected for its amount.  The fee joins the input reserve
    when ``compound`` is true and the input side's balance otherwise; a
    balance not credited comes back as the same object.  The reserve takes
    ``gross - fee``, which with the fee adds up to ``gross`` exactly, in
    floats too.  An exact ``net`` gives exact reserves and balances, which
    ``_bounded`` checks; a float one gives floats and balances passed in.
    """
    if not 0 < amount <= _FLOAT_MAX:  # inline, as in _spread_cap
        positive(NonPositiveAmount, "trade amount", amount)
    reserve_in, reserve_out = (y, x) if y_for_x else (x, y)
    net = amount * (1 - phi)
    gross = amount
    if cap is not None:
        limit = _spread_cap(reserve_in, cap, y_for_x)
        if net > limit:
            net = limit
            gross = limit / (1 - phi)
    grown = reserve_in + net
    try:
        out = reserve_out * net / grown
        ratio = reserve_in / grown
    except OverflowError:  # an exact sum past float range against a float reserve
        out = ratio = 0.0  # what the float sum, inf, gives
    left = reserve_out - out
    squared = ratio * ratio
    # Only float arithmetic fails this: the output rounds (or overflows) to
    # the whole reserve, a tiny exact reserve's float is 0, or the input
    # dwarfs its reserve so far that the rate move underflows.  Written as a
    # negation so a NaN fails it too.
    if not (left > 0 and squared > 0):
        raise NonPositiveReserve(
            f"swap of {shown(amount)} would drain the output reserve {shown(reserve_out)}: "
            "the output rounds to the whole reserve"
        )
    fee = gross - net
    settled = reserve_in + (gross - fee)
    if fee:
        if compound:
            settled = balance = settled + fee
        elif y_for_x:
            fees_y = balance = fees_y + fee
        else:
            fees_x = balance = fees_x + fee
        if not balance <= _FLOAT_MAX:  # inf, or an exact balance past it
            raise InputError(f"swap of {shown(amount)} credits its fee past float range")
    x, y = (left, settled) if y_for_x else (settled, left)
    if net.__class__ is not float:  # only an exact net input gives exact results
        _bounded(x, y, fees_x, fees_y)
    return x, y, fees_x, fees_y, gross, fee, out, squared


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
    y_for_x = direction is Direction.Y_FOR_X
    x, y, ledger = pool.reserve_x, pool.reserve_y, pool.side_ledger
    new_x, new_y, fees_x, fees_y, gross, fee, out, squared = _swap(
        x, y, ledger.fees_x, ledger.fees_y, pool.fee_rate, amount_in, max_spread, y_for_x,
        pool.fee_model is FeeModel.AUTO_COMPOUND,
    )
    if fees_x is not ledger.fees_x or fees_y is not ledger.fees_y:
        ledger = SideLedger(fees_x, fees_y)
    spread_applied = 1 - squared if y_for_x else 1 / squared - 1
    # A zero-size trade (cap of 0) realizes its limit, the spot rate.
    realized_rate = out / gross if gross > 0 else (x / y if y_for_x else y / x)
    _bounded(new_x, new_y, ledger.fees_x, ledger.fees_y, gross, out, realized_rate,
             spread_applied, fee)
    receipt = SwapReceipt(direction, amount_in, gross, out, realized_rate, spread_applied, fee)
    new_pool = PoolState(
        new_x, new_y, pool.fee_rate, pool.fee_model,
        pool.total_shares, pool.share_ledger, ledger,
    )
    return new_pool, receipt


def add_liquidity(
    pool: PoolState, provider: str, dx: Numeric, dy: Numeric
) -> Tuple[PoolState, LpPosition]:
    """Deposit ``(dx, dy)`` at the pool ratio; mints proportional shares.

    The deposit must not move the rate: ``dx / dy`` has to match
    ``reserve_x / reserve_y`` within ``RATE_MATCH_TOL`` relative.
    """
    _require_active(pool)
    positive(NonPositiveAmount, "deposit amounts", dx, dy)
    growth_x = dx / pool.reserve_x
    growth_y = dy / pool.reserve_y
    minted = pool.total_shares * growth_x
    new_x, new_y, total = pool.reserve_x + dx, pool.reserve_y + dy, pool.total_shares + minted
    # A result past the largest float is rejected (a float one is inf).
    # Checked before the ratio, which would reject growths that overflow on
    # both sides (NaN) as a mismatch.
    non_negative(InputError, "deposit growths, reserves and total shares after it",
                 growth_x, growth_y, new_x, new_y, total)
    if not abs(growth_x - growth_y) <= RATE_MATCH_TOL * max(growth_x, growth_y):
        raise RateMismatch(
            f"deposit ratio {shown(dx)}/{shown(dy)} does not match pool ratio "
            f"{shown(pool.reserve_x)}/{shown(pool.reserve_y)}"
        )
    # A deposit that small next to the pool rounds away: its tokens would
    # vanish, or its shares would be minted while the pool stays as it was.
    positive(NonPositiveAmount, "shares minted by the deposit", minted)
    if new_x == pool.reserve_x or new_y == pool.reserve_y or total == pool.total_shares:
        raise NonPositiveAmount(
            f"deposit ({shown(dx)}, {shown(dy)}) rounds away next to the reserves "
            f"({shown(pool.reserve_x)}, {shown(pool.reserve_y)}) and "
            f"{shown(pool.total_shares)} shares"
        )
    ledger = dict(pool.share_ledger)
    ledger[provider] = ledger.get(provider, 0) + minted
    new_pool = PoolState(
        new_x, new_y, pool.fee_rate, pool.fee_model,
        total, MappingProxyType(ledger), pool.side_ledger,
    )
    _bounded(new_pool.reserve_x, new_pool.reserve_y, new_pool.total_shares, minted,
             ledger[provider])
    return new_pool, LpPosition(provider=provider, shares=minted, deposited_x=dx, deposited_y=dy)


def remove_liquidity(
    pool: PoolState, provider: str, shares: Numeric
) -> Tuple[PoolState, Tuple[Numeric, Numeric]]:
    """Burn ``shares`` and withdraw the proportional slice of both reserves.

    Withdrawing everything empties the pool; that state is terminal.
    """
    _require_active(pool)
    positive(NonPositiveAmount, "share amount", shares)
    owned = pool.share_ledger.get(provider, 0)
    if shares > owned:
        raise InsufficientShares(
            f"{provider} owns {shown(owned)} shares, asked to burn {shown(shares)}"
        )
    fraction = shares / pool.total_shares
    dx = pool.reserve_x * fraction
    dy = pool.reserve_y * fraction
    ledger = dict(pool.share_ledger)
    remaining = owned - shares
    if remaining > 0:
        ledger[provider] = remaining
    else:
        del ledger[provider]
    new_pool = PoolState(
        pool.reserve_x - dx, pool.reserve_y - dy, pool.fee_rate, pool.fee_model,
        pool.total_shares - shares, MappingProxyType(ledger), pool.side_ledger,
    )
    _bounded(new_pool.reserve_x, new_pool.reserve_y, new_pool.total_shares, remaining, dx, dy)
    return new_pool, (dx, dy)


def _arbitrage_trade(
    x: Numeric, y: Numeric, target_rate: Numeric
) -> Optional[Tuple[bool, Numeric]]:
    """``(y_for_x, net input)`` that moves the rate ``x / y`` to
    ``target_rate``, or None when it already sits there."""
    if not 0 < target_rate <= _FLOAT_MAX:  # inline, as in _spread_cap
        positive(InvalidRate, "target rate", target_rate)
    current = x / y
    y_for_x = target_rate < current
    try:
        root = _sqrt(current / target_rate if y_for_x else target_rate / current)
    except OverflowError:  # an exact rate past float range meets a float target
        raise _out_of_reach(x, y, target_rate) from None
    # On the target the root is 1, so the amount is 0.
    amount = (y if y_for_x else x) * (root - 1)
    return (y_for_x, amount) if amount > 0 else None


def _out_of_reach(x: Numeric, y: Numeric, target_rate: Numeric) -> InvalidRate:
    return InvalidRate(
        f"target rate {shown(target_rate)} is out of float reach of pool rate {shown(x / y)}"
    )


def _arbitrage(x: Numeric, y: Numeric, target_rate: Numeric) -> Tuple[Numeric, Numeric]:
    """Reserves after the fee-free arbitrage trade onto ``target_rate``."""
    trade = _arbitrage_trade(x, y, target_rate)
    if trade is None:
        return x, y
    y_for_x, amount = trade
    try:
        return _swap(x, y, 0, 0, 0, amount, None, y_for_x, True)[:2]
    except (NonPositiveAmount, NonPositiveReserve) as err:
        raise _out_of_reach(x, y, target_rate) from err


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
    if not amount <= _FLOAT_MAX:  # inf, or an exact amount no trade can take
        raise _out_of_reach(pool.reserve_x, pool.reserve_y, target_rate)
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
