"""Plain-number kernel of the pool engine.

``_swap`` prices, guards and settles a trade, and ``_arbitrage`` is its
fee-free leg onto a market rate.  They take and return the pool's own bare
numbers, ``x`` before ``y`` whatever the direction, so a replay keeps its
state as plain numbers, never oriented.  ``_opening`` and ``_rate`` are the
checks of :func:`cpamm.pool.create_pool` and :func:`cpamm.pool.rate_of` on
bare numbers, ``_execute`` is the swap with its receipt of
:func:`cpamm.pool.execute_swap`, ``_value`` is :func:`cpamm.pool.pool_value`,
and ``_deposit`` and ``_withdraw`` are the share rules of
:func:`cpamm.pool.add_liquidity` and :func:`cpamm.pool.remove_liquidity`.
:mod:`cpamm.pool` wraps all of them in its value types; :mod:`cpamm.replay`
runs a script on them directly (its snapshots are valued by ``_value``), and
the ``quote``, ``swap`` and ``pool-info`` commands run on them alone.

The numbers are floats, ints or ``fractions.Fraction``s (``pool.Numeric``).
This module imports neither ``dataclasses`` nor ``fractions``: ``_sqrt``
loads ``fractions``, and ``_bounded`` ``numbers``, only when a value that is
neither a float nor an int reaches it, so a float replay loads neither.
"""

import math
import sys
from enum import Enum

from .errors import (
    InputError,
    InsufficientShares,
    InvalidFee,
    InvalidRate,
    NonPositiveAmount,
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


def _sqrt(value):
    """Square root, exact when ``value`` is a perfect rational square, else
    the float root of ``value``'s float: inf past float range, as that is."""
    # The class tests first: isinstance against the Fraction ABC is slow, and
    # only a value that is neither a float nor an int may be a Fraction.
    if value.__class__ is not float and value.__class__ is not int:
        from fractions import Fraction

        if isinstance(value, Fraction):
            num, den = value.numerator, value.denominator
            root_num, root_den = math.isqrt(num), math.isqrt(den)
            if root_num * root_num == num and root_den * root_den == den:
                return Fraction(root_num, root_den)
    try:
        return math.sqrt(value)
    except OverflowError:  # an exact value whose float would be inf
        return _INF


def _geometric_mean(a, b):
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


def _bounded(*values) -> None:
    """Raise ``InputError`` if an exact value has a numerator or a denominator
    of more than ``MAX_EXACT_BITS`` bits, or is past the largest float; floats
    are not looked at."""
    for value in values:
        cls = value.__class__
        if cls is float:
            continue
        if cls is not int:  # a bool, a Fraction, or no exact number at all
            from numbers import Rational

            if not isinstance(value, Rational):
                continue
        num, den = value.numerator, value.denominator
        bits = max(num.bit_length(), den.bit_length())
        if bits > MAX_EXACT_BITS:
            raise InputError(
                f"exact result needs {bits} bits, more than the {MAX_EXACT_BITS}-bit "
                "limit on a numerator or denominator; use floats"
            )
        if num > _EXACT_MAX * den:
            raise InputError("exact result leaves float range")


def _opening(x0, y0, fee_rate, fee_model) -> tuple:
    """``(fee_model, shares)`` of a new pool on reserves ``x0`` and ``y0``:
    the fee model as a ``FeeModel`` member and the ``sqrt(x0 * y0)`` shares
    its provider receives.  A float product or rate outside the normal
    range raises ``NonPositiveReserve``; an exact reserve or fee past
    ``MAX_EXACT_BITS`` raises ``InputError``."""
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
    return fee_model, shares


def _rate(x, y):
    """The rate ``x / y`` of reserves that are both positive; a rate outside
    the range of ``errors.normal`` raises ``InvalidRate``, and an exact one
    past ``MAX_EXACT_BITS`` raises ``InputError``."""
    rate = normal(InvalidRate, "pool rate x / y", x / y)
    _bounded(rate)
    return rate


def _require_rate(error, x, y, market_rate) -> None:
    """Raise ``error`` unless the rate of positive reserves ``x`` and ``y``
    is within ``RATE_MATCH_TOL`` of ``market_rate``, relative; a NaN, zero or
    infinite rate never matches."""
    pool_rate = _rate(x, y)
    if not abs(pool_rate - market_rate) <= RATE_MATCH_TOL * market_rate < math.inf:
        raise error(
            f"pool rate {shown(pool_rate)} does not match market rate {shown(market_rate)}"
        )


def _spread_cap(reserve_in, sigma, y_for_x: bool):
    """Largest net input that moves the rate by ``sigma`` (the cap formulas
    of :mod:`cpamm.pool`), on the input-side reserve."""
    # The comparisons run inline and the helper only raises: this runs per
    # trade, where a helper call costs about three inline comparisons.
    if y_for_x:
        if not 0 <= sigma < 1:
            non_negative(SpreadOutOfRange, "Y-for-X spread", sigma, below=1)
        return reserve_in * (1 / _sqrt(1 - sigma) - 1)
    if not 0 <= sigma <= _FLOAT_MAX:
        non_negative(SpreadOutOfRange, "X-for-Y spread", sigma)
    return reserve_in * (_sqrt(1 + sigma) - 1)


def _swap(x, y, fees_x, fees_y, phi, amount, cap, y_for_x: bool, compound: bool) -> tuple:
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


#: The fields of a receipt, ``pool.SwapQuote``'s, in the order ``_execute`` gives them.
_RECEIPT_FIELDS = ("direction", "requested_in", "capped_in", "amount_out", "realized_rate",
                   "spread_applied", "fee_paid")


def _execute(x, y, fees_x, fees_y, fee_rate, fee_model, direction, amount, cap) -> tuple:
    """``((x, y, fees_x, fees_y), receipt)`` after a trade of ``amount`` paid
    in the ``Direction`` member ``direction``, on a pool of the ``FeeModel``
    member ``fee_model``: ``_swap``'s new state, and the receipt's values in
    ``_RECEIPT_FIELDS`` order, each exact one held to ``MAX_EXACT_BITS``."""
    y_for_x = direction is Direction.Y_FOR_X
    new_x, new_y, fees_x, fees_y, gross, fee, out, squared = _swap(
        x, y, fees_x, fees_y, fee_rate, amount, cap, y_for_x, fee_model is FeeModel.AUTO_COMPOUND
    )
    spread_applied = 1 - squared if y_for_x else 1 / squared - 1
    # A zero-size trade (cap of 0) realizes its limit, the spot rate.
    realized_rate = out / gross if gross > 0 else (x / y if y_for_x else y / x)
    _bounded(new_x, new_y, fees_x, fees_y, gross, out, realized_rate, spread_applied, fee)
    receipt = direction, amount, gross, out, realized_rate, spread_applied, fee
    return (new_x, new_y, fees_x, fees_y), receipt


def _value(x, y, p_x, p_y, error=InputError):
    """The reserves ``x`` and ``y`` marked to market, ``p_x * x + p_y * y``.
    An empty pool is worth 0; any other value outside the range of
    ``errors.normal`` raises ``error``, and an exact one past
    ``MAX_EXACT_BITS`` raises ``InputError``."""
    positive(NonPositivePrice, "prices", p_x, p_y)
    try:
        value = p_x * x + p_y * y
    except OverflowError:  # an exact term past float range meets a float one
        value = _INF  # what the float sum gives
    if x > 0 and y > 0:
        _bounded(normal(error, "pool value p_x * x + p_y * y", value))
    return value


def _half_over(value, price):
    """``value / (2 * price)``; ``value`` is halved first where ``2 * price``
    passes the largest float, which a float or exact ``value`` meets as inf
    or as an ``OverflowError``."""
    return value / (2 * price) if price <= _FLOAT_MAX / 2 else value / 2 / price


def _deposit(x, y, total, owned, dx, dy) -> tuple:
    """``(x, y, total, owned, minted)`` after a deposit of ``(dx, dy)`` into
    reserves ``x`` and ``y`` of ``total`` shares, by a provider who owns
    ``owned`` of them: ``dx / dy`` must match ``x / y`` within
    ``RATE_MATCH_TOL`` relative, and the deposit mints ``total * dx / x``."""
    positive(NonPositiveAmount, "deposit amounts", dx, dy)
    growth_x, growth_y = dx / x, dy / y
    minted = total * growth_x
    new_x, new_y, new_total = x + dx, y + dy, total + minted
    # A result past the largest float is rejected (a float one is inf).
    # Checked before the ratio, which would reject growths that overflow on
    # both sides (NaN) as a mismatch.
    non_negative(InputError, "deposit growths, reserves and total shares after it",
                 growth_x, growth_y, new_x, new_y, new_total)
    if not abs(growth_x - growth_y) <= RATE_MATCH_TOL * max(growth_x, growth_y):
        raise RateMismatch(
            f"deposit ratio {shown(dx)}/{shown(dy)} does not match pool ratio "
            f"{shown(x)}/{shown(y)}"
        )
    # A deposit that small next to the pool rounds away: its tokens would
    # vanish, or its shares would be minted while the pool stays as it was.
    positive(NonPositiveAmount, "shares minted by the deposit", minted)
    if new_x == x or new_y == y or new_total == total:
        raise NonPositiveAmount(
            f"deposit ({shown(dx)}, {shown(dy)}) rounds away next to the reserves "
            f"({shown(x)}, {shown(y)}) and {shown(total)} shares"
        )
    owned = owned + minted
    _bounded(new_x, new_y, new_total, minted, owned)
    return new_x, new_y, new_total, owned, minted


def _withdraw(x, y, total, owned, shares, provider: str) -> tuple:
    """``(x, y, total, owned, dx, dy)`` after ``provider``, who owns ``owned``
    of the ``total`` shares, burns ``shares`` of them for their slice
    ``(dx, dy)`` of the reserves ``x`` and ``y``."""
    positive(NonPositiveAmount, "share amount", shares)
    if shares > owned:
        raise InsufficientShares(
            f"{provider} owns {shown(owned)} shares, asked to burn {shown(shares)}"
        )
    fraction = shares / total
    dx, dy = x * fraction, y * fraction
    x, y, total, owned = x - dx, y - dy, total - shares, owned - shares
    _bounded(x, y, total, owned, dx, dy)
    return x, y, total, owned, dx, dy


def _arbitrage_trade(x, y, target_rate):
    """``(y_for_x, net input)`` that moves the rate ``x / y`` to
    ``target_rate``, or None when it already sits there.  An input past float
    range raises ``InvalidRate``: no trade can take it."""
    if not 0 < target_rate <= _FLOAT_MAX:  # inline, as in _spread_cap
        positive(InvalidRate, "target rate", target_rate)
    current = x / y
    y_for_x = target_rate < current
    try:
        root = _sqrt(current / target_rate if y_for_x else target_rate / current)
    except (OverflowError, ZeroDivisionError):  # an exact rate past float range, or 0 as a float
        raise _out_of_reach(x, y, target_rate) from None
    amount = (y if y_for_x else x) * (root - 1)
    if amount > _FLOAT_MAX:  # inf, or an exact amount past it
        raise _out_of_reach(x, y, target_rate)
    # On the target the root is 1, so the amount is 0.
    return (y_for_x, amount) if amount > 0 else None


def _out_of_reach(x, y, target_rate) -> InvalidRate:
    return InvalidRate(
        f"target rate {shown(target_rate)} is out of float reach of pool rate {shown(x / y)}"
    )


def _arbitrage(x, y, target_rate) -> tuple:
    """Reserves after the fee-free arbitrage trade onto ``target_rate``."""
    trade = _arbitrage_trade(x, y, target_rate)
    if trade is None:
        return x, y
    y_for_x, amount = trade
    try:
        return _swap(x, y, 0, 0, 0, amount, None, y_for_x, True)[:2]
    except NonPositiveReserve as err:
        raise _out_of_reach(x, y, target_rate) from err
