"""Closed-form liquidity-provider analytics.

Everything here is driven by the relative price changes ``delta_x = p_x'/p_x``
and ``delta_y = p_y'/p_y`` of the two pooled tokens, and is normalized to an
initial portfolio value of 1, so the numbers are scale-free:

* held (not invested):        ``(delta_x + delta_y) / 2``
* pooled, no fees:            ``sqrt(delta_x * delta_y)``
* impermanent loss:           ``2 sqrt(delta_x delta_y)/(delta_x + delta_y) - 1``
* pooled, fees auto-compounded at liquidity growth ``alpha`` per year:
      ``sqrt(delta_x delta_y) * (1 + alpha t)``
* pooled, fees collected outside the pool:
      ``sqrt(delta_x delta_y) + alpha t (delta_x + delta_y) / 2``

The collected model dominates the compounded one for every price path
(AM-GM on the fee term), with equality only when the deltas agree or no
fees accrue.  ``il_brute_force`` checks the loss formula mechanically by
replaying the arbitrage trade on an actual pool and valuing both portfolios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .errors import (
    InvalidFee,
    NonPositiveAmount,
    NonPositiveDelta,
    NonPositiveInput,
    NonPositivePrice,
    NonPositiveReserve,
    RateMismatch,
    non_negative,
    positive,
)
from .pool import PoolState, arbitrage_to_rate, pool_value, require_market_rate


@dataclass(frozen=True)
class PriceScenario:
    """Market prices and their relative moves for both tokens."""

    delta_x: float
    delta_y: float
    p_x0: float = 1.0
    p_y0: float = 1.0

    def __post_init__(self) -> None:
        positive(NonPositiveDelta, "price changes", self.delta_x, self.delta_y)
        positive(NonPositivePrice, "prices", self.p_x0, self.p_y0)

    @property
    def p_x_final(self) -> float:
        return self.delta_x * self.p_x0

    @property
    def p_y_final(self) -> float:
        return self.delta_y * self.p_y0


@dataclass(frozen=True)
class IlReport:
    """Pooled vs held portfolio values (initial value = 1) and the loss.

    ``relative_loss`` is ``(v_pooled - v_held) / v_held``, in (-1, 0].
    """

    v_pooled: float
    v_held: float
    relative_loss: float


@dataclass(frozen=True)
class GrowthParams:
    """Fee accrual as fractional liquidity growth per year, over ``t`` years."""

    alpha: float
    t: float

    def __post_init__(self) -> None:
        non_negative(NonPositiveInput, "growth rate and time", self.alpha, self.t)


def _il(dx: float, dy: float) -> Tuple[float, float, float]:
    """``(v_pooled, v_held, relative_loss)`` for price changes ``dx`` and ``dy``."""
    loss = 2 * math.sqrt(dx * dy) / (dx + dy) - 1
    # Normalize to initial portfolio value 1: x0 * p_x0 = 1/2.
    x_value0 = 0.5
    # sqrt(dy) / sqrt(dx), not sqrt(dy / dx): the ratio may leave float range.
    v_pooled = dx * (math.sqrt(dy) / math.sqrt(dx)) * 2 * x_value0
    v_held = (dx + dy) * x_value0
    return v_pooled, v_held, loss


def impermanent_loss(scenario: PriceScenario) -> IlReport:
    """Loss of a pooled portfolio relative to holding, from the closed form.

    The report's values are rebuilt through the underlying pool mechanics
    (the post-arbitrage X reserve is ``sqrt(delta_y/delta_x)`` times the
    initial one) rather than from the loss formula, so the two stay mutually
    checkable.
    """
    return IlReport(*_il(scenario.delta_x, scenario.delta_y))


def il_brute_force(scenario: PriceScenario, pool: PoolState) -> IlReport:
    """Measure impermanent loss by replaying the arbitrage on a real pool.

    The pool must start on the market rate (``x/y = p_y0/p_x0``).  Prices
    move, a fee-free arbitrage trade drags the pool rate to the new market
    rate, and both portfolios are valued at the new prices.  Values are
    normalized by the pool's initial value so the report is comparable to
    :func:`impermanent_loss`.
    """
    require_market_rate(RateMismatch, pool, scenario.p_y0 / scenario.p_x0)
    p_x1, p_y1 = scenario.p_x_final, scenario.p_y_final
    arbitraged = arbitrage_to_rate(pool, p_y1 / p_x1)
    v0 = pool_value(pool, scenario.p_x0, scenario.p_y0)
    v_pooled = pool_value(arbitraged, p_x1, p_y1) / v0
    v_held = pool_value(pool, p_x1, p_y1) / v0
    loss = (v_pooled - v_held) / v_held
    return IlReport(v_pooled=v_pooled, v_held=v_held, relative_loss=loss)


def split_limit_output(
    reserve_x: float, reserve_y: float, amount_in: float, fee_rate: float
) -> float:
    """X paid out for ``amount_in`` of Y split into ever more parts on an
    auto-compounding pool: ``x0 (1 - (y0 / (y0 + G))**(1 - phi))``.

    Each part's fee joins the Y reserve before the next part, so in the
    limit ``reserve_x * reserve_y**(1 - phi)`` stays constant.
    """
    positive(NonPositiveReserve, "reserves", reserve_x, reserve_y)
    positive(NonPositiveAmount, "trade amount", amount_in)
    non_negative(InvalidFee, "fee rate", fee_rate, below=1)
    return reserve_x * (1 - (reserve_y / (reserve_y + amount_in)) ** (1 - fee_rate))


def _held(dx: float, dy: float) -> float:
    return (dx + dy) / 2


def _compounded(dx: float, dy: float, growth: float) -> float:
    """Compounded evolution at price changes ``dx``, ``dy`` and ``alpha * t``."""
    return math.sqrt(dx * dy) * (1 + growth)


def _collected(dx: float, dy: float, growth: float) -> float:
    """Collected evolution at price changes ``dx``, ``dy`` and ``alpha * t``."""
    return math.sqrt(dx * dy) + growth * (dx + dy) / 2


def hold_value_relative(scenario: PriceScenario) -> float:
    """Value of the un-invested portfolio relative to its initial value."""
    return _held(scenario.delta_x, scenario.delta_y)


def relative_evolution_compounded(scenario: PriceScenario, growth: GrowthParams) -> float:
    """Pooled portfolio evolution when fees are reinjected into the reserves."""
    return _compounded(scenario.delta_x, scenario.delta_y, growth.alpha * growth.t)


def relative_evolution_collected(scenario: PriceScenario, growth: GrowthParams) -> float:
    """Pooled portfolio evolution when fees accrue outside the pool.

    The fee stream is worth its share of the held portfolio, so it scales
    with ``(delta_x + delta_y) / 2`` instead of suffering the loss.
    """
    return _collected(scenario.delta_x, scenario.delta_y, growth.alpha * growth.t)
