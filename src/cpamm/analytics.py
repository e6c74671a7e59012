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

This module holds the public types and thin functions over the engine
:mod:`cpamm.curves`, which computes every value here on plain floats and
holds the checks of :class:`PriceScenario` and :class:`GrowthParams`; the
``il`` and ``evolve`` commands run the engine alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pool as _pool
from .curves import (
    _PRICE0,
    _check_growth,
    _check_prices,
    _evolution,
    _held,
    _il,
    _il_replay,
)
from .errors import InvalidFee, NonPositiveAmount, NonPositiveReserve, non_negative, positive


@dataclass(frozen=True)
class PriceScenario:
    """Market prices and their relative moves for both tokens."""

    delta_x: float
    delta_y: float
    p_x0: float = _PRICE0
    p_y0: float = _PRICE0

    def __post_init__(self) -> None:
        _check_prices(self.delta_x, self.delta_y, self.p_x0, self.p_y0)

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
        _check_growth(self.alpha, self.t)


def impermanent_loss(scenario: PriceScenario) -> IlReport:
    """Loss of a pooled portfolio relative to holding, from the closed form.

    ``v_pooled`` is the root ``sqrt(delta_x delta_y)`` that the loss divides
    by ``v_held``; :func:`il_brute_force` is the second route, through the
    pool's own mechanics.
    """
    return IlReport(*_il(scenario.delta_x, scenario.delta_y))


def il_brute_force(scenario: PriceScenario, pool: _pool.PoolState) -> IlReport:
    """Measure impermanent loss by replaying the arbitrage on a real pool.

    The pool must start on the market rate (``x/y = p_y0/p_x0``).  Prices
    move, a fee-free arbitrage trade drags the pool rate to the new market
    rate, and both portfolios are valued at the new prices.  Values are
    normalized by the pool's initial value so the report is comparable to
    :func:`impermanent_loss`.
    """
    _pool._require_active(pool)
    return IlReport(*_il_replay(pool.reserve_x, pool.reserve_y, scenario.delta_x,
                                scenario.delta_y, scenario.p_x0, scenario.p_y0))


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


def hold_value_relative(scenario: PriceScenario) -> float:
    """Value of the un-invested portfolio relative to its initial value."""
    return _held(scenario.delta_x, scenario.delta_y)


def relative_evolution_compounded(scenario: PriceScenario, growth: GrowthParams) -> float:
    """Pooled portfolio evolution when fees are reinjected into the reserves."""
    g = growth.alpha * growth.t
    return _evolution(scenario.delta_x, scenario.delta_y, g, g)[1]


def relative_evolution_collected(scenario: PriceScenario, growth: GrowthParams) -> float:
    """Pooled portfolio evolution when fees accrue outside the pool.

    The fee stream is worth its share of the held portfolio, so it scales
    with ``(delta_x + delta_y) / 2`` instead of suffering the loss.
    """
    g = growth.alpha * growth.t
    return _evolution(scenario.delta_x, scenario.delta_y, g, g)[2]
