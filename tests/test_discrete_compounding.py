"""The paper's compounding result replayed on the engine's own trades.

The ODE of ``cpamm.compounding`` models fees as a continuous flow of
``alpha * L0`` of liquidity a year, split among providers by their share of
the pool.  Here the same flow is made of real trades on ``kernel._swap``, on a
collect-separately pool of two providers: compounders ("c") and holdouts
("nc").  At each period's end the side ledger is split by shares;
compounders deposit their part with ``add_liquidity`` and holdouts keep
theirs.  With every provider settling at the same instants, the pro rata
split of the current ledger is exact, so the replay must converge to
``roi_pair`` as the periods shrink.

Then prices move: a fee-free ``kernel._arbitrage`` puts the pool back on a
geometric Brownian motion at each move, and each population's value is
compared with holding what it deposited.  Compounders' reinvested fees sit in
the pool and bear the arbitrage loss; holdouts' collected fees bear none.
"""

import math
import random
import statistics
from dataclasses import replace

import pytest

from cpamm import FeeModel, RoiParams, add_liquidity, create_pool, roi_pair
from cpamm.kernel import _arbitrage, _swap

#: The pool's fee rate and its initial liquidity (and each reserve).
PHI, L0 = 0.003, 1000.0
#: The paper's population split and fee rate.
FRAC, ALPHA = 0.99, 0.2


def _round_trips(x, y, fees_x, fees_y, accrued):
    """Two round trips on ``kernel._swap``, one selling Y first and one X first,
    that pay fees worth ``accrued`` of liquidity.

    Each trip's second leg pays in exactly what the first took out, net of
    its fee, so the reserves come back to ``(x, y)``.  Trips of size ``s``
    times the input reserve, one from each side, pay fees ``s * (1 + 1/(1 +
    s * (1 - PHI))) * PHI`` times each reserve: at the pool ratio, worth that
    times ``sqrt(x * y)`` of liquidity.  ``s`` solves that for ``accrued``.
    """
    k = 1 - PHI
    c = accrued / (PHI * math.sqrt(x * y))
    s = (c * k - 2 + math.sqrt((2 - c * k) ** 2 + 4 * k * c)) / (2 * k)
    for y_for_x in (True, False):
        amount = s * (y if y_for_x else x)
        x, y, fees_x, fees_y, _, _, out, _ = _swap(
            x, y, fees_x, fees_y, PHI, amount, None, y_for_x, False)
        x, y, fees_x, fees_y, *_ = _swap(
            x, y, fees_x, fees_y, PHI, out / k, None, not y_for_x, False)
    return x, y, fees_x, fees_y


def replay(periods, alpha=ALPHA, sigma=0.0, moves_per_period=1, rng=None):
    """One year in ``periods`` settlements: ``(rho_c, rho_nc, residual)``.

    Each ROI is the population's value over what it deposited, both at the
    final prices; at ``sigma`` 0 the prices stay at 1 and each ROI is the
    ODE's.  Otherwise the price of X (in Y) follows a geometric Brownian
    motion of volatility ``sigma``, moving ``moves_per_period`` times a
    period, and each ROI is over holding the deposit instead.

    Compounders deposit the part of their fees that matches the pool ratio
    and carry the rest to the next period.  ``residual`` is what they still
    carry at the end, over their value.  Fees paid between two moves are at
    the pool ratio, so with prices fixed the residual is rounding alone.
    """
    pool = create_pool(FRAC * L0, FRAC * L0, PHI, FeeModel.COLLECT_SEPARATELY, provider="c")
    pool, _ = add_liquidity(pool, "nc", (1 - FRAC) * L0, (1 - FRAC) * L0)
    x, y = pool.reserve_x, pool.reserve_y
    moves = periods * moves_per_period
    dt = 1.0 / moves
    drift, scale = -sigma * sigma * dt / 2, sigma * math.sqrt(dt)
    price = 1.0
    fees_x = fees_y = carry_x = carry_y = held_x = held_y = 0.0
    for move in range(1, moves + 1):
        if sigma:
            price *= math.exp(drift + scale * rng.gauss(0.0, 1.0))
            x, y = _arbitrage(x, y, 1.0 / price)
        x, y, fees_x, fees_y = _round_trips(x, y, fees_x, fees_y, alpha * L0 * dt)
        if move % moves_per_period:
            continue
        part_nc = pool.share_ledger["nc"] / pool.total_shares
        held_x += fees_x * part_nc
        held_y += fees_y * part_nc
        carry_x += fees_x - fees_x * part_nc
        carry_y += fees_y - fees_y * part_nc
        fees_x = fees_y = 0.0
        dx = min(carry_x, carry_y * x / y)
        dy = dx * y / x
        pool, _ = add_liquidity(replace(pool, reserve_x=x, reserve_y=y), "c", dx, dy)
        carry_x -= dx
        carry_y -= dy
        x, y = pool.reserve_x, pool.reserve_y
    value = price * x + y
    carried = price * carry_x + carry_y
    value_c = value * pool.share_ledger["c"] / pool.total_shares + carried
    value_nc = value * pool.share_ledger["nc"] / pool.total_shares + price * held_x + held_y
    held = price + 1.0  # one of each token, as deposited
    return value_c / (FRAC * L0 * held), value_nc / ((1 - FRAC) * L0 * held), carried / value_c


def test_the_replay_converges_to_the_ode_at_first_order():
    ode_c, ode_nc = roi_pair(RoiParams(FRAC, ALPHA, horizon=1.0), 1.0)
    gaps = {}
    for periods, bound in ((100, 2e-4), (1000, 2e-5)):
        rho_c, rho_nc, residual = replay(periods)
        gaps[periods] = abs(rho_nc - ode_nc) / ode_nc
        assert gaps[periods] <= bound, (periods, rho_nc, ode_nc)
        assert abs(rho_c - ode_c) / ode_c <= bound, (periods, rho_c, ode_c)
        assert abs(residual) <= 1e-12
    # Ten times the periods, a tenth of the gap: the split is first order.
    assert 8 <= gaps[100] / gaps[1000] <= 12, gaps


#: Paths per volatility and moves per period (100 periods a year), fixed
#: before the first run.
PATHS, MOVES_PER_PERIOD, SEED = 50, 10, 13


def _edge(sigma):
    """Mean over ``PATHS`` of compounders' less holdouts' value over holding,
    and its standard error."""
    rng = random.Random(SEED)
    edges = []
    for _ in range(PATHS):
        rho_c, rho_nc, _ = replay(100, ALPHA, sigma, MOVES_PER_PERIOD, rng)
        edges.append(rho_c - rho_nc)
    return statistics.fmean(edges), statistics.stdev(edges) / math.sqrt(PATHS)


@pytest.mark.parametrize("sigma, leads", [(0.0, True), (2.0, False)])
def test_compounders_lead_on_a_still_price_and_trail_on_a_volatile_one(sigma, leads):
    mean, error = _edge(sigma)
    message = f"sigma {sigma}: compounders' edge {mean:+.4f} +- {error:.4f}"
    if leads:
        assert mean - 3 * error > 0, message
    else:
        assert mean + 3 * error < 0, message
