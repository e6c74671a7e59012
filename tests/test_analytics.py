"""Impermanent loss and fee-model evolution, closed form vs pool replay."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpamm import (
    Direction,
    FeeModel,
    GrowthParams,
    InvalidFee,
    NonPositiveAmount,
    NonPositiveDelta,
    NonPositiveInput,
    NonPositivePrice,
    NonPositiveReserve,
    PriceScenario,
    RateMismatch,
    create_pool,
    execute_swap,
    hold_value_relative,
    il_brute_force,
    impermanent_loss,
    relative_evolution_collected,
    relative_evolution_compounded,
)
from cpamm.analytics import split_limit_output

deltas = st.floats(min_value=0.1, max_value=10.0)


def test_loss_hand_values():
    assert impermanent_loss(PriceScenario(1.0, 4.0)).relative_loss == pytest.approx(-0.2)
    report = impermanent_loss(PriceScenario(1.0, 3.0))
    assert report.relative_loss == pytest.approx(math.sqrt(3) / 2 - 1, rel=1e-15)
    assert report.relative_loss == pytest.approx(-0.1339745962155614, rel=1e-12)


def test_no_price_change_no_loss():
    report = impermanent_loss(PriceScenario(1.0, 1.0))
    assert report.relative_loss == 0.0
    assert report.v_pooled == report.v_held == 1.0


def test_portfolio_values():
    report = impermanent_loss(PriceScenario(1.0, 4.0))
    assert report.v_pooled == pytest.approx(2.0, rel=1e-15)  # sqrt(4)
    assert report.v_held == pytest.approx(2.5, rel=1e-15)  # (1 + 4) / 2


def test_scenario_validation():
    with pytest.raises(NonPositiveDelta):
        PriceScenario(0.0, 1.0)
    with pytest.raises(NonPositiveDelta):
        PriceScenario(1.0, -2.0)
    with pytest.raises(NonPositivePrice):
        PriceScenario(1.0, 1.0, p_x0=0.0)


@given(dx=deltas, dy=deltas)
@settings(max_examples=300)
def test_loss_is_never_positive(dx, dy):
    assert impermanent_loss(PriceScenario(dx, dy)).relative_loss <= 0.0


wide_deltas = st.floats(min_value=1e-300, max_value=1e300)


@given(dx=wide_deltas, dy=wide_deltas, data=st.data())
@settings(max_examples=300)
def test_loss_across_the_float_range(dx, dy, data):
    # dx * dy leaves float range for much of this domain; sqrt(dx * dy) never does.
    loss = impermanent_loss(PriceScenario(dx, dy)).relative_loss
    assert -1 <= loss <= 0
    assert impermanent_loss(PriceScenario(dx, dx)).relative_loss == 0
    low = math.ceil(math.log2(1e-300) - math.log2(min(dx, dy)))
    high = math.floor(math.log2(1e300) - math.log2(max(dx, dy)))
    power = data.draw(st.integers(low, high))
    scaled = PriceScenario(math.ldexp(dx, power), math.ldexp(dy, power))
    assert impermanent_loss(scaled).relative_loss == loss


def _exact_shifts(x):
    """The least and the greatest ``k`` for which ``x * 2**k`` is a float,
    exactly: its lowest and highest set bits stay in float range."""
    num, den = x.as_integer_ratio()
    lowest = (num & -num).bit_length() - den.bit_length()
    return -1074 - lowest, 1024 - math.frexp(x)[1]


#: Positive floats of every magnitude, subnormal ones as often as the rest.
any_deltas = st.one_of(st.floats(min_value=5e-324, max_value=sys.float_info.max),
                       st.floats(min_value=5e-324, max_value=1e-300))


@given(dx=any_deltas, dy=any_deltas, data=st.data())
@settings(max_examples=300)
def test_scaling_both_deltas_by_a_power_of_two_leaves_the_loss(dx, dy, data):
    # The loss depends only on dy / dx, which an exact scaling keeps, subnormal
    # deltas included.
    (low_x, high_x), (low_y, high_y) = _exact_shifts(dx), _exact_shifts(dy)
    power = data.draw(st.integers(max(low_x, low_y), min(high_x, high_y)))
    scaled = PriceScenario(math.ldexp(dx, power), math.ldexp(dy, power))
    loss = impermanent_loss(PriceScenario(dx, dy)).relative_loss
    assert impermanent_loss(scaled).relative_loss == loss


def test_the_loss_at_subnormal_deltas_is_the_loss_at_their_ratio():
    # 5e-324 and 1e-323 are 2**-1074 and 2**-1073: the ratio 2.  The loss
    # was -0.5, from a sum and a root that had lost their bits.
    subnormal = impermanent_loss(PriceScenario(5e-324, 1e-323))
    assert subnormal.relative_loss == impermanent_loss(PriceScenario(1.0, 2.0)).relative_loss
    assert subnormal.relative_loss == -0.05719095841793653


@given(dx=deltas, dy=deltas)
@settings(max_examples=200)
def test_loss_is_symmetric(dx, dy):
    a = impermanent_loss(PriceScenario(dx, dy)).relative_loss
    b = impermanent_loss(PriceScenario(dy, dx)).relative_loss
    assert a == b


@given(d=deltas, scale=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=200)
def test_loss_depends_only_on_delta_ratio(d, scale):
    # scaling both prices equally is not a relative price change
    a = impermanent_loss(PriceScenario(1.0, d)).relative_loss
    b = impermanent_loss(PriceScenario(scale, scale * d)).relative_loss
    assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("dx, dy", [(5e-324, 1e6), (1e6, 5e-324), (1e-300, 1e300)])
def test_pooled_value_survives_a_price_ratio_beyond_float_range(dx, dy):
    # dy / dx overflows (or underflows); the pooled value sqrt(dx dy) does not.
    report = impermanent_loss(PriceScenario(dx, dy))
    assert report.v_pooled == pytest.approx(math.sqrt(dx * dy), rel=1e-12, abs=0)
    assert report.v_held == (dx + dy) / 2


def test_brute_force_hand_value():
    # (100, 100) pool, Y price x4: arbitrage moves reserves to (200, 50),
    # pooled 400 vs held 500 at the new prices
    pool = create_pool(100.0, 100.0)
    report = il_brute_force(PriceScenario(1.0, 4.0), pool)
    assert report.v_pooled == pytest.approx(2.0, rel=1e-12)
    assert report.v_held == pytest.approx(2.5, rel=1e-12)
    assert report.relative_loss == pytest.approx(-0.2, rel=1e-12)


def test_brute_force_replays_reserve_law():
    # the post-arbitrage X reserve is sqrt(delta_y / delta_x) times x0
    pool = create_pool(100.0, 100.0)
    scenario = PriceScenario(1.0, 4.0)
    free = create_pool(100.0, 100.0)
    from cpamm import Direction, arbitrage_input_for_rate, execute_swap

    trade = arbitrage_input_for_rate(free, 4.0)
    free, _ = execute_swap(free, trade[0], trade[1])
    assert free.reserve_x == pytest.approx(math.sqrt(4.0) * 100.0, rel=1e-12)
    report = il_brute_force(scenario, pool)
    assert report.relative_loss == pytest.approx(
        impermanent_loss(scenario).relative_loss, rel=1e-12
    )


def test_brute_force_requires_pool_on_market_rate():
    pool = create_pool(100.0, 50.0)
    with pytest.raises(RateMismatch):
        il_brute_force(PriceScenario(1.0, 2.0), pool)


@given(dx=deltas, dy=deltas)
@settings(max_examples=100)
def test_brute_force_matches_closed_form(dx, dy):
    report_c = impermanent_loss(PriceScenario(dx, dy))
    report_b = il_brute_force(PriceScenario(dx, dy), create_pool(100.0, 100.0))
    assert report_b.relative_loss == pytest.approx(
        report_c.relative_loss, rel=1e-9, abs=1e-12
    )


def test_evolution_hand_values():
    scenario = PriceScenario(1.0, 4.0)
    growth = GrowthParams(alpha=0.2, t=1.0)
    assert hold_value_relative(scenario) == 2.5
    assert relative_evolution_compounded(scenario, growth) == pytest.approx(2.4)
    assert relative_evolution_collected(scenario, growth) == pytest.approx(2.5)


def test_evolution_reduces_to_plain_loss_without_fees():
    scenario = PriceScenario(1.0, 3.0)
    growth = GrowthParams(alpha=0.0, t=5.0)
    pooled = impermanent_loss(scenario).v_pooled
    assert relative_evolution_compounded(scenario, growth) == pooled
    assert relative_evolution_collected(scenario, growth) == pooled


@given(
    dx=deltas,
    dy=deltas,
    alpha=st.floats(min_value=0.0, max_value=1.0),
    t=st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=300)
def test_collecting_never_trails_compounding(dx, dy, alpha, t):
    # AM >= GM: the separately collected fees keep their full held value
    scenario = PriceScenario(dx, dy)
    growth = GrowthParams(alpha=alpha, t=t)
    d1 = relative_evolution_compounded(scenario, growth)
    d2 = relative_evolution_collected(scenario, growth)
    # one ulp of slack: when dx and dy are nearly equal the true gap can be
    # smaller than the rounding of either expression
    assert d2 >= d1 - 1e-15 * d1


def test_collecting_equality_cases():
    growth = GrowthParams(alpha=0.2, t=1.0)
    even = PriceScenario(2.0, 2.0)
    assert relative_evolution_collected(even, growth) == relative_evolution_compounded(
        even, growth
    )
    skew = PriceScenario(1.0, 4.0)
    zero_t = GrowthParams(alpha=0.2, t=0.0)
    assert relative_evolution_collected(skew, zero_t) == relative_evolution_compounded(
        skew, zero_t
    )
    assert relative_evolution_collected(skew, growth) > relative_evolution_compounded(
        skew, growth
    )


def test_growth_params_validation():
    with pytest.raises(NonPositiveInput):
        GrowthParams(alpha=-0.1, t=1.0)
    with pytest.raises(NonPositiveInput):
        GrowthParams(alpha=0.2, t=-1.0)


# -- splitting a trade under fees ---------------------------------------------

def _split_output(pool, amount, parts):
    """X received for ``amount`` of Y paid in ``parts`` equal swaps."""
    total = 0
    for _ in range(parts):
        pool, receipt = execute_swap(pool, Direction.Y_FOR_X, amount / parts)
        total += receipt.amount_out
    return total


@pytest.mark.parametrize("parts", [2, 10, 30])
def test_splitting_is_neutral_when_fees_are_collected_separately(parts):
    # Route 1: the curve sees only net amounts, which telescope exactly.
    pool = create_pool(
        Fraction(1000), Fraction(1000), Fraction(3, 1000), FeeModel.COLLECT_SEPARATELY
    )
    assert _split_output(pool, Fraction(100), parts) == _split_output(pool, Fraction(100), 1)


def test_auto_compound_splits_approach_the_closed_form_limit():
    # Route 2: each fee joins the Y reserve before the next part, so the
    # trader's output falls with k towards the limit, at O(1/k).
    pool = create_pool(1000.0, 1000.0, 0.003, FeeModel.AUTO_COMPOUND)
    limit = split_limit_output(1000.0, 1000.0, 100.0, 0.003)
    single = _split_output(pool, 100.0, 1)
    gaps = [(_split_output(pool, 100.0, k) - limit) / limit for k in (10, 100, 1000, 10000)]
    assert single > limit * (1 + 1e-4)
    assert gaps[0] == pytest.approx(1.36e-5, rel=0.01)
    assert all(gap > 0 for gap in gaps)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 9 < coarse / fine < 11


def test_split_limit_is_the_single_swap_without_fees():
    pool = create_pool(1000.0, 1000.0)
    assert split_limit_output(1000.0, 1000.0, 100.0, 0.0) == pytest.approx(
        _split_output(pool, 100.0, 1), rel=1e-15
    )


def test_split_limit_validation():
    with pytest.raises(NonPositiveReserve):
        split_limit_output(0.0, 1.0, 1.0, 0.0)
    with pytest.raises(NonPositiveAmount):
        split_limit_output(1.0, 1.0, math.nan, 0.0)
    with pytest.raises(InvalidFee):
        split_limit_output(1.0, 1.0, 1.0, 1.0)
