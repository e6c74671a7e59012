"""Engine-level tests: swaps, spread caps, fees, shares."""

import dataclasses
import math
import random
import re
import statistics
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpamm import (
    Direction,
    FeeModel,
    InactivePool,
    InputError,
    InsufficientShares,
    InvalidFee,
    InvalidRate,
    NonPositiveAmount,
    NonPositiveReserve,
    RateMismatch,
    SpreadOutOfRange,
    add_liquidity,
    arbitrage_input_for_rate,
    create_pool,
    execute_swap,
    liquidity_of,
    max_input_for_spread,
    pool_value,
    quote,
    rate_of,
    remove_liquidity,
    reserves_from_rate_liquidity,
    reserves_from_value,
)
import cpamm.pool
from cpamm import analytics
from cpamm.kernel import _swap
from cpamm.pool import (
    RATE_MATCH_TOL,
    SideLedger,
    _arbitrage,
    arbitrage_to_rate,
)

# strategies shared by the property tests
reserves = st.floats(min_value=1.0, max_value=1e9, allow_nan=False)
amounts = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
directions = st.sampled_from(list(Direction))


def test_create_pool_mints_geometric_mean_shares():
    pool = create_pool(Fraction(4), Fraction(9))
    assert pool.total_shares == 6
    assert pool.share_ledger["lp"] == 6
    assert liquidity_of(pool) == 6


def test_create_pool_keeps_every_bit_of_its_shares():
    # A float product below the normal range would lose bits (1e-160 squared
    # minted 9.99994433575849e-161); a normal one or an exact one keeps them.
    assert create_pool(100.0, 100.0).total_shares == 100.0
    assert create_pool(2.0**-511, 2.0**-511).total_shares == 2.0**-511
    with pytest.raises(NonPositiveReserve, match="normal float, got 1.1125369292536007e-308"):
        create_pool(2.0**-512, 2.0**-511)
    tiny = Fraction(1, 10**200)
    assert create_pool(tiny, tiny).total_shares == tiny


def test_create_pool_rejects_bad_inputs():
    with pytest.raises(NonPositiveReserve):
        create_pool(0, 100)
    with pytest.raises(NonPositiveReserve):
        create_pool(100, -1)
    with pytest.raises(InvalidFee):
        create_pool(100, 100, fee_rate=1)
    with pytest.raises(InvalidFee):
        create_pool(100, 100, fee_rate=-0.1)


def test_swap_hand_value():
    # 5 Y into a (100, 100) pool: out = 100*5/105
    pool = create_pool(100.0, 100.0)
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, 5.0)
    assert receipt.amount_out == pytest.approx(100.0 * 5 / 105, rel=1e-15)
    assert new_pool.reserve_y == 105.0
    assert receipt.realized_rate == pytest.approx(100.0 / 105, rel=1e-15)
    # original pool untouched
    assert pool.reserve_y == 100.0


def test_swap_exact_on_rational_pool():
    pool = create_pool(Fraction(3), Fraction(7))
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, Fraction(2))
    assert receipt.amount_out == Fraction(2, 3)
    assert new_pool.reserve_x * new_pool.reserve_y == 21


def test_realized_rate_formula():
    # Y-for-X: realized rate is x / (y + n), independent of the output
    pool = create_pool(Fraction(100), Fraction(100))
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, Fraction(25))
    assert receipt.realized_rate == Fraction(100, 125)


def test_quote_matches_execution():
    pool = create_pool(100.0, 200.0, fee_rate=0.003)
    q = quote(pool, Direction.X_FOR_Y, 7.0)
    _, receipt = execute_swap(pool, Direction.X_FOR_Y, 7.0)
    assert q == receipt


def test_zero_or_negative_amount_rejected():
    pool = create_pool(100.0, 100.0)
    for bad in (0, -1, -0.5):
        with pytest.raises(NonPositiveAmount):
            quote(pool, Direction.Y_FOR_X, bad)


def test_auto_compound_fee_grows_product():
    pool = create_pool(Fraction(100), Fraction(100), fee_rate=Fraction(3, 1000))
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, Fraction(100))
    assert receipt.fee_paid == Fraction(3, 10)
    assert new_pool.reserve_x * new_pool.reserve_y > 10000
    assert new_pool.side_ledger.fees_y == 0


def test_collect_separately_preserves_product_and_credits_ledger():
    pool = create_pool(
        Fraction(100),
        Fraction(100),
        fee_rate=Fraction(3, 1000),
        fee_model=FeeModel.COLLECT_SEPARATELY,
    )
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, Fraction(100))
    assert receipt.fee_paid == Fraction(3, 10)
    assert new_pool.side_ledger.fees_y == Fraction(3, 10)
    assert new_pool.reserve_x * new_pool.reserve_y == 10000


def test_fee_is_charged_on_gross_input():
    pool = create_pool(Fraction(100), Fraction(100), fee_rate=Fraction(1, 100))
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, Fraction(50))
    net = Fraction(50) * Fraction(99, 100)
    assert receipt.fee_paid == Fraction(50) - net
    assert receipt.amount_out == Fraction(100) * net / (100 + net)


@pytest.mark.parametrize(
    "direction,sigma,expected",
    [
        (Direction.Y_FOR_X, Fraction(3, 4), Fraction(100)),  # 1/sqrt(1/4) - 1 = 1
        (Direction.X_FOR_Y, Fraction(3), Fraction(100)),  # sqrt(4) - 1 = 1
    ],
)
def test_max_input_for_spread_hand_values(direction, sigma, expected):
    pool = create_pool(Fraction(100), Fraction(100))
    assert max_input_for_spread(pool, direction, sigma) == expected


def test_spread_cap_is_hit_exactly():
    pool = create_pool(Fraction(100), Fraction(100))
    cap = max_input_for_spread(pool, Direction.Y_FOR_X, Fraction(3, 4))
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, cap)
    assert receipt.spread_applied == Fraction(3, 4)


def test_oversized_trade_is_capped_not_rejected():
    pool = create_pool(Fraction(100), Fraction(100))
    _, receipt = execute_swap(
        pool, Direction.Y_FOR_X, Fraction(10**6), max_spread=Fraction(3, 4)
    )
    assert receipt.requested_in == 10**6
    assert receipt.capped_in == 100
    assert receipt.spread_applied == Fraction(3, 4)
    # the capped trade is exactly the trade of the cap itself
    _, direct = execute_swap(pool, Direction.Y_FOR_X, Fraction(100))
    assert receipt.amount_out == direct.amount_out


def test_spread_validation():
    pool = create_pool(100.0, 100.0)
    with pytest.raises(SpreadOutOfRange):
        quote(pool, Direction.Y_FOR_X, 1.0, max_spread=1.0)  # needs sigma < 1
    with pytest.raises(SpreadOutOfRange):
        quote(pool, Direction.Y_FOR_X, 1.0, max_spread=-0.1)
    with pytest.raises(SpreadOutOfRange):
        quote(pool, Direction.X_FOR_Y, 1.0, max_spread=-0.5)
    # X-for-Y has no upper limit
    quote(pool, Direction.X_FOR_Y, 1.0, max_spread=50.0)


def test_zero_spread_cap_gives_zero_size_quote():
    pool = create_pool(100.0, 100.0)
    q = quote(pool, Direction.Y_FOR_X, 10.0, max_spread=0.0)
    assert q.capped_in == 0
    assert q.amount_out == 0
    assert q.realized_rate == 1.0  # spot rate of the untouched pool


@given(
    x=reserves,
    y=reserves,
    fraction=st.floats(min_value=1e-6, max_value=0.5),
    direction=directions,
)
@settings(max_examples=200)
def test_float_swap_preserves_product_to_roundoff(x, y, fraction, direction):
    # trade sizes up to half the input reserve; draining trades cancel
    # catastrophically in any float implementation and are out of scope
    pool = create_pool(x, y)
    amount = fraction * (y if direction is Direction.Y_FOR_X else x)
    before = pool.reserve_x * pool.reserve_y
    new_pool, _ = execute_swap(pool, direction, amount)
    after = new_pool.reserve_x * new_pool.reserve_y
    assert after == pytest.approx(before, rel=1e-12)


@given(
    x=st.integers(min_value=1, max_value=10**6),
    y=st.integers(min_value=1, max_value=10**6),
    num=st.integers(min_value=1, max_value=10**6),
    den=st.integers(min_value=1, max_value=1000),
    direction=directions,
)
@settings(max_examples=200)
def test_rational_swap_preserves_product_exactly(x, y, num, den, direction):
    pool = create_pool(Fraction(x), Fraction(y))
    new_pool, _ = execute_swap(pool, direction, Fraction(num, den))
    assert new_pool.reserve_x * new_pool.reserve_y == x * y


@given(
    x=reserves,
    y=reserves,
    amount=amounts,
)
@settings(max_examples=200)
def test_rate_update_law(x, y, amount):
    # after selling Y the rate satisfies r' = r * (y / y')^2
    pool = create_pool(x, y)
    new_pool, _ = execute_swap(pool, Direction.Y_FOR_X, amount)
    expected = rate_of(pool) * (y / new_pool.reserve_y) ** 2
    assert rate_of(new_pool) == pytest.approx(expected, rel=1e-9)


@given(
    x=reserves,
    y=reserves,
    amount=st.floats(min_value=1e-3, max_value=1e12),
    sigma=st.floats(min_value=1e-6, max_value=0.99),
)
@settings(max_examples=200)
def test_spread_never_exceeds_cap(x, y, amount, sigma):
    pool = create_pool(x, y)
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, amount, max_spread=sigma)
    assert receipt.spread_applied <= sigma + 1e-12
    assert receipt.capped_in <= amount


def test_output_reserve_never_drained():
    pool = create_pool(100.0, 100.0)
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, 1e18)
    assert receipt.amount_out < 100.0


def test_a_swap_never_leaves_a_reserve_at_zero():
    # The exact reserve's float is 0, so the float output was 0 and the
    # reserve left behind 0.0.
    pool = create_pool(Fraction(1, 10**400), Fraction(1))
    with pytest.raises(NonPositiveReserve, match=r"^swap of 1\.0 would drain the output reserve"):
        execute_swap(pool, Direction.Y_FOR_X, 1.0)
    assert execute_swap(pool, Direction.Y_FOR_X, Fraction(1))[0].reserve_x == Fraction(1, 2 * 10**400)


def test_split_trade_equals_single_trade_exactly():
    pool = create_pool(Fraction(3), Fraction(7))
    _, whole = execute_swap(pool, Direction.Y_FOR_X, Fraction(2))
    mid, first = execute_swap(pool, Direction.Y_FOR_X, Fraction(1))
    _, second = execute_swap(mid, Direction.Y_FOR_X, Fraction(1))
    assert first.amount_out + second.amount_out == whole.amount_out
    assert first.amount_out == Fraction(3, 8)
    assert second.amount_out == Fraction(7, 24)


def test_reserves_from_rate_liquidity_round_trip():
    x, y = reserves_from_rate_liquidity(0.25, 4.0)
    assert (x, y) == (2.0, 8.0)
    pool = create_pool(x, y)
    assert rate_of(pool) == 0.25
    assert liquidity_of(pool) == pytest.approx(4.0, rel=1e-15)
    assert reserves_from_rate_liquidity(0.25, 0.0) == (0.0, 0.0)


def test_liquidity_past_the_float_product():
    # x * y overflows, but sqrt(x * y) does not.
    pool, _ = add_liquidity(create_pool(1e150, 1e150), "b", 1e155, 1e155)
    assert liquidity_of(pool) == 1.00001e155


def test_liquidity_past_the_exact_product():
    # x * y is past float range and no perfect square, but sqrt(x * y) is in
    # it: the float root of the product's float was inf.
    big = Fraction(10**300)
    pool, _ = execute_swap(create_pool(big, big, Fraction(1, 2)), Direction.X_FOR_Y, Fraction(1))
    assert liquidity_of(pool) == 1e300
    assert liquidity_of(create_pool(big, big)) == big  # a perfect square stays exact


def test_reserves_from_value():
    x, y, liquidity = reserves_from_value(400.0, 1.0, 4.0)
    assert (x, y) == (200.0, 50.0)
    assert liquidity == pytest.approx(100.0, rel=1e-15)
    # the axiom holds: both sides carry half the value
    assert 1.0 * x == 4.0 * y


def test_reserves_from_value_is_exact_on_fractions():
    # sqrt(p_x * p_y) of a perfect rational square stays a Fraction.
    got = reserves_from_value(Fraction(8), Fraction(1), Fraction(4))
    assert got == (4, 1, 2)
    assert [type(value) for value in got] == [Fraction] * 3


@pytest.mark.parametrize("price", [1e200, 1e-200])
def test_reserves_from_value_at_extreme_prices(price):
    # p_x * p_y leaves float range, but no result does: L = V / (2 * price).
    x, y, liquidity = reserves_from_value(1.0, price, price)
    at_one = reserves_from_value(1.0, 1.0, 1.0)
    assert (x * price, y * price, liquidity * price) == pytest.approx(at_one, rel=1e-12)


def test_pool_value():
    pool = create_pool(200.0, 50.0)
    assert pool_value(pool, 1.0, 4.0) == 400.0


@pytest.mark.parametrize("x0, y0", [(1e300, 1e-10), (1e-160, 1e160)])
def test_create_pool_rejects_a_rate_outside_float_range(x0, y0):
    # The product is normal; x0 / y0 is inf or 1e-320, and y0 / x0 the other way.
    for x, y in [(x0, y0), (y0, x0)]:
        with pytest.raises(NonPositiveReserve, match=r"ratio .0 / .0 must be a normal float"):
            create_pool(x, y)
    # An exact rate is exact below the normal range, and past the largest
    # float it is rejected as the float one is.
    exact = create_pool(Fraction(x0), Fraction(y0))
    if x0 > y0:
        with pytest.raises(InvalidRate, match=r"^pool rate x / y must be finite, got \d+/\d+$"):
            rate_of(exact)
    else:
        assert rate_of(exact) == Fraction(x0) / Fraction(y0)


def test_rate_of_rejects_a_swapped_rate_outside_float_range():
    pool, _ = execute_swap(create_pool(1e150, 1e-150), Direction.X_FOR_Y, 1e158)
    with pytest.raises(InvalidRate, match="pool rate x / y must be a normal float, got inf"):
        rate_of(pool)


PAST_FLOAT_RANGE = Fraction(10**400)


def assert_past_float_range_is_rejected():
    # An exact reserve past the largest float is rejected where it enters, as
    # inf is; the calls below on such a pool ended in a raw OverflowError.
    with pytest.raises(NonPositiveReserve, match=r"^initial reserves must be finite and positive"):
        create_pool(PAST_FLOAT_RANGE, 4 * PAST_FLOAT_RANGE)


@pytest.mark.parametrize("call", [
    lambda pool: create_pool(pool.reserve_x, pool.reserve_y, fee_rate=0.003),
    lambda pool: execute_swap(pool, Direction.Y_FOR_X, 5.0),
    lambda pool: quote(pool, Direction.X_FOR_Y, Fraction(5), 0.5),
    lambda pool: max_input_for_spread(pool, Direction.X_FOR_Y, 0.5),
    lambda pool: pool_value(pool, 1, 2.0),
    lambda pool: add_liquidity(pool, "b", 10.0, Fraction(40)),
], ids=["fee", "amount", "cap", "spread", "price", "deposit"])
def test_a_float_beside_exact_reserves_past_float_range_is_rejected(call):
    assert_past_float_range_is_rejected()
    # The same call runs on float reserves, and on exact ones anywhere in
    # float range.
    call(create_pool(100.0, 400.0))
    call(create_pool(Fraction(100), Fraction(400)))
    call(create_pool(Fraction(10**300), Fraction(4 * 10**300)))


@pytest.mark.parametrize("call", [
    lambda pool: arbitrage_to_rate(pool, 2.0),
    lambda pool: arbitrage_input_for_rate(pool, 2.0),
    lambda pool: analytics.il_brute_force(analytics.PriceScenario(1.0, 4.0), pool),
    lambda pool: arbitrage_to_rate(pool, Fraction(2)),
    lambda pool: arbitrage_input_for_rate(pool, Fraction(1, 2)),
], ids=["float", "float input", "il", "irrational", "irrational input"])
def test_arbitrage_on_exact_reserves_past_float_range_raises_a_typed_error(call):
    assert_past_float_range_is_rejected()
    # The same call runs on float reserves, and on exact ones whose float
    # product with the float amount of a float target or an irrational root
    # is in float range.
    call(create_pool(100.0, 100.0))
    call(create_pool(Fraction(100), Fraction(100)))
    call(create_pool(Fraction(10**150), Fraction(10**150)))


def test_arbitrage_past_float_range_onto_a_rational_root_stays_exact():
    assert_past_float_range_is_rejected()
    pool = create_pool(Fraction(10**300), Fraction(10**300))
    moved = arbitrage_to_rate(pool, Fraction(4))
    assert (moved.reserve_x, moved.reserve_y) == (2 * 10**300, Fraction(10**300, 2))
    assert arbitrage_input_for_rate(pool, Fraction(1, 4)) == (Direction.Y_FOR_X, 10**300)
    # An exact leg whose result would pass the largest float is rejected.
    near = create_pool(Fraction(10**308), Fraction(10**308))
    with pytest.raises(InputError, match="^exact result leaves float range$"):
        arbitrage_to_rate(near, Fraction(4))
    # So is a trade onto a rate whose amount would; for floats it was inf.
    for pool, target in [(pool, Fraction(10**20)), (create_pool(1e10, 1.0), 1e-300)]:
        for call in (arbitrage_input_for_rate, arbitrage_to_rate):
            with pytest.raises(InvalidRate, match="is out of float reach of pool rate"):
                call(pool, target)


def test_an_exact_pool_takes_back_the_floats_it_returns():
    # sqrt(21) is irrational, so the pool's shares, a minted position and a
    # spread cap are floats; each goes back in as a float would.
    pool = create_pool(Fraction(3), Fraction(7))
    assert pool.total_shares.__class__ is float
    assert remove_liquidity(pool, "lp", pool.total_shares)[0].active is False
    grown, position = add_liquidity(pool, "b", Fraction(3, 10), Fraction(7, 10))
    _, (dx, dy) = remove_liquidity(grown, "b", position.shares)
    assert dx == pytest.approx(0.3, rel=1e-15) and dy == pytest.approx(0.7, rel=1e-15)
    cap = max_input_for_spread(pool, Direction.Y_FOR_X, Fraction(1, 2))
    _, receipt = execute_swap(pool, Direction.Y_FOR_X, cap)
    assert receipt.capped_in == cap and receipt.spread_applied == pytest.approx(0.5)
    report = analytics.il_brute_force(analytics.PriceScenario(1.5, 0.8, 7.0, 3.0), pool)
    assert report.relative_loss < 0


def test_ints_join_exact_reserves():
    pool = create_pool(Fraction(100), Fraction(400), fee_rate=0)
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, 100)
    assert receipt.amount_out == Fraction(20)
    assert pool_value(new_pool, 1, 1) == 580


def test_pool_value_rejects_a_value_outside_float_range():
    pool = create_pool(1e10, 1e10)
    with pytest.raises(InputError, match="pool value .* must be a normal float, got inf"):
        pool_value(pool, 1e300, 1e300)
    with pytest.raises(InputError, match=r"must be a normal float, got 1\.99997773436537e-310"):
        pool_value(pool, 1e-320, 1e-320)
    exact = create_pool(Fraction(10**10), Fraction(10**10))
    assert pool_value(exact, Fraction(10**290), 10**290) == 2 * 10**300
    with pytest.raises(InputError, match=r"^pool value .* must be finite, got 2\d{310}$"):
        pool_value(exact, Fraction(10**300), 10**300)
    empty, _ = remove_liquidity(pool, "lp", pool.total_shares)
    assert pool_value(empty, 1.0, 1.0) == 0.0


def test_add_liquidity_proportional():
    pool = create_pool(Fraction(100), Fraction(400))
    new_pool, position = add_liquidity(pool, "alice", Fraction(10), Fraction(40))
    assert position.shares == Fraction(20)  # 10% growth on 200 shares
    assert new_pool.total_shares == Fraction(220)
    assert new_pool.reserve_x == 110


def test_add_liquidity_rejects_a_deposit_that_mints_no_share():
    # 1e-200 / 1e150 underflows: the deposit would round away and mint 0 shares.
    with pytest.raises(NonPositiveAmount, match="shares minted by the deposit"):
        add_liquidity(create_pool(1e150, 1e150), "b", 1e-200, 1e-200)


def test_add_liquidity_rejects_a_deposit_that_rounds_away():
    # 1e150 + 1e130 is 1e150: the reserves and the share total would stay as
    # they were while b holds 1e130 shares.
    pool = create_pool(1e150, 1e150)
    with pytest.raises(NonPositiveAmount, match=r"^deposit \(1e\+130, 1e\+130\) rounds away"):
        add_liquidity(pool, "b", 1e130, 1e130)
    grown, position = add_liquidity(pool, "b", 1e140, 1e140)
    assert grown.reserve_x > pool.reserve_x and position.shares == 1e140


def test_an_exact_pool_whose_product_leaves_float_range_is_accepted():
    # The product 2e400 is past float range and no perfect square, so its
    # float root would be inf, though both reserves are in float range: the
    # shares are the root of the reserves' floats, as liquidity_of gives.
    pool = create_pool(Fraction(2 * 10**200), Fraction(10**200))
    assert pool.total_shares == 1.414213562373095e200 == liquidity_of(pool)
    square = create_pool(Fraction(10**300), Fraction(10**300))  # an exact root
    assert square.total_shares == 10**300


@pytest.mark.parametrize("fee_model, amounts, side", [
    # The reserve takes the net input in range, and the fee on top of it
    # leaves float range.
    (FeeModel.AUTO_COMPOUND, (1.5e308, 0.5e308), "reserve_x"),
    (FeeModel.COLLECT_SEPARATELY, (1e308, 1e308), "fees_x"),
], ids=["into the reserve", "into the side ledger"])
def test_a_fee_credited_past_float_range_is_rejected(fee_model, amounts, side):
    x0, fee = (1e294, 0.5) if fee_model is FeeModel.AUTO_COMPOUND else (1e307, 0.99)
    pool = create_pool(x0, 2.0 if side == "reserve_x" else 1.0, fee_rate=fee,
                       fee_model=fee_model)
    pool = execute_swap(pool, Direction.X_FOR_Y, amounts[0])[0]
    with pytest.raises(InputError, match=r"^swap of .* credits its fee past float range$"):
        execute_swap(pool, Direction.X_FOR_Y, amounts[1])
    assert math.isfinite(liquidity_of(pool))


def test_add_liquidity_rejects_off_rate_deposit():
    pool = create_pool(100.0, 400.0)
    with pytest.raises(RateMismatch):
        add_liquidity(pool, "alice", 10.0, 10.0)


def test_remove_liquidity_proportional():
    pool = create_pool(Fraction(100), Fraction(400))
    pool, position = add_liquidity(pool, "alice", Fraction(10), Fraction(40))
    pool, (got_x, got_y) = remove_liquidity(pool, "alice", position.shares)
    assert (got_x, got_y) == (10, 40)
    assert pool.reserve_x == 100
    assert "alice" not in pool.share_ledger


def test_partial_burn_keeps_the_rest_of_the_position():
    pool = create_pool(Fraction(100), Fraction(400))
    pool, (got_x, got_y) = remove_liquidity(pool, "lp", Fraction(50))
    assert (got_x, got_y) == (25, 100)  # a quarter of the 200 shares
    assert pool.share_ledger["lp"] == pool.total_shares == 150
    assert (pool.reserve_x, pool.reserve_y) == (75, 300)


def test_burning_more_than_owned_is_rejected():
    pool = create_pool(100.0, 100.0)
    pool, _ = add_liquidity(pool, "alice", 10.0, 10.0)
    with pytest.raises(InsufficientShares, match="alice owns"):
        remove_liquidity(pool, "alice", 11.0)
    with pytest.raises(InsufficientShares, match="bob owns 0"):
        remove_liquidity(pool, "bob", 1.0)


def test_full_withdrawal_is_terminal():
    pool = create_pool(100.0, 100.0)
    pool, _ = remove_liquidity(pool, "lp", pool.total_shares)
    assert not pool.active
    with pytest.raises(InactivePool):
        quote(pool, Direction.Y_FOR_X, 1.0)
    with pytest.raises(InactivePool):
        add_liquidity(pool, "bob", 1.0, 1.0)


def test_arbitrage_reaches_target_rate():
    pool = create_pool(100.0, 100.0)
    trade = arbitrage_input_for_rate(pool, 4.0)
    assert trade is not None
    direction, amount = trade
    new_pool, _ = execute_swap(pool, direction, amount)
    assert rate_of(new_pool) == pytest.approx(4.0, rel=1e-12)


def test_arbitrage_both_directions():
    pool = create_pool(100.0, 100.0)
    up = arbitrage_input_for_rate(pool, 4.0)
    down = arbitrage_input_for_rate(pool, 0.25)
    assert up[0] is Direction.X_FOR_Y
    assert down[0] is Direction.Y_FOR_X
    assert up[1] == pytest.approx(100.0, rel=1e-12)  # x(sqrt(4) - 1)
    assert down[1] == pytest.approx(100.0, rel=1e-12)


def test_arbitrage_noop_when_on_rate():
    pool = create_pool(100.0, 100.0)
    assert arbitrage_input_for_rate(pool, 1.0) is None


@given(
    x=reserves,
    y=reserves,
    move=st.floats(min_value=0.01, max_value=100.0),
)
@settings(max_examples=200)
def test_arbitrage_then_value_is_geometric_mean(x, y, move):
    # after arbitrage to rate p_y/p_x = target with p_x = 1, the pool value
    # is 2 sqrt(p_x p_y x' y') = 2 L sqrt(target)
    pool = create_pool(x, y)
    target = rate_of(pool) * move
    trade = arbitrage_input_for_rate(pool, target)
    if trade is not None:
        pool, _ = execute_swap(pool, trade[0], trade[1])
    value = pool_value(pool, 1.0, target)
    expected = 2 * math.sqrt(target * x * y)
    assert value == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("target", [4.0, 0.25, 1.7])
def test_arbitrage_to_rate_lands_on_target(target):
    pool = create_pool(120.0, 80.0, fee_rate=0.003)
    moved = arbitrage_to_rate(pool, target)
    assert abs(rate_of(moved) - target) <= RATE_MATCH_TOL * target
    assert moved.fee_rate == 0.003
    product = pool.reserve_x * pool.reserve_y
    assert abs(moved.reserve_x * moved.reserve_y - product) <= 1e-12 * product


def test_arbitrage_to_rate_leaves_side_ledger_untouched():
    pool = create_pool(100.0, 100.0, fee_rate=0.003, fee_model=FeeModel.COLLECT_SEPARATELY)
    pool, _ = execute_swap(pool, Direction.Y_FOR_X, 10.0)
    assert pool.side_ledger.fees_y > 0
    for target in (4.0, 0.25):
        assert arbitrage_to_rate(pool, target).side_ledger == pool.side_ledger


def test_arbitrage_to_rate_on_target_keeps_reserves():
    pool = create_pool(100.0, 400.0, fee_rate=0.01)
    moved = arbitrage_to_rate(pool, 0.25)
    assert (moved.reserve_x, moved.reserve_y, moved.fee_rate) == (100.0, 400.0, 0.01)


@pytest.mark.parametrize(
    "target, reserves",
    [
        (Fraction(4), (Fraction(200), Fraction(50))),
        (Fraction(1, 9), (Fraction(100, 3), Fraction(300))),
    ],
)
def test_arbitrage_to_rate_exact_on_fractions(target, reserves):
    pool = create_pool(Fraction(100), Fraction(100), fee_rate=Fraction(3, 1000))
    moved = arbitrage_to_rate(pool, target)
    assert (moved.reserve_x, moved.reserve_y) == reserves
    assert rate_of(moved) == target
    assert moved.fee_rate == Fraction(3, 1000)


# -- value types: frozen, slotted, built by direct constructors ------------


def test_value_types_stay_frozen_and_slotted():
    pool = create_pool(100.0, 100.0, fee_rate=0.003, fee_model=FeeModel.COLLECT_SEPARATELY)
    pool, receipt = execute_swap(pool, Direction.Y_FOR_X, 10.0)
    for value, name in [
        (pool, "reserve_x"),
        (pool.side_ledger, "fees_y"),
        (receipt, "amount_out"),
    ]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, 0.0)
        assert not hasattr(value, "__dict__")


def test_dataclasses_replace_still_works_on_pool_state():
    pool = create_pool(100.0, 400.0, fee_rate=0.003)
    changed = dataclasses.replace(pool, fee_rate=0.01)
    assert changed.fee_rate == 0.01
    assert dataclasses.replace(changed, fee_rate=0.003) == pool


def _pool_from_receipt(pool, receipt):
    """The post-trade pool as the fee rules describe it, built by ``replace``."""
    net = receipt.capped_in - receipt.fee_paid
    fee = receipt.fee_paid
    x, y = pool.reserve_x, pool.reserve_y
    fees_x, fees_y = pool.side_ledger.fees_x, pool.side_ledger.fees_y
    auto = pool.fee_model is FeeModel.AUTO_COMPOUND
    if receipt.direction is Direction.Y_FOR_X:
        x, y = x - receipt.amount_out, y + net
        if fee and auto:
            y = y + fee
        elif fee:
            fees_y = fees_y + fee
    else:
        x, y = x + net, y - receipt.amount_out
        if fee and auto:
            x = x + fee
        elif fee:
            fees_x = fees_x + fee
    ledger = SideLedger(fees_x, fees_y)
    return dataclasses.replace(pool, reserve_x=x, reserve_y=y, side_ledger=ledger)


trades = st.tuples(
    directions,
    amounts,
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.99)),
)


@given(
    x=reserves,
    y=reserves,
    fee=st.sampled_from([0.0, 0.003, 0.05]),
    model=st.sampled_from(list(FeeModel)),
    chain=st.lists(trades, min_size=1, max_size=4),
)
@settings(max_examples=200)
def test_execute_swap_matches_replace_built_from_receipt(x, y, fee, model, chain):
    pool = create_pool(x, y, fee_rate=fee, fee_model=model)
    for direction, amount, cap in chain:
        new_pool, receipt = execute_swap(pool, direction, amount, cap)
        assert new_pool == _pool_from_receipt(pool, receipt)
        assert new_pool.share_ledger is pool.share_ledger
        pool = new_pool


def test_arbitrage_to_rate_on_target_returns_equal_pool():
    pool = create_pool(100.0, 400.0, fee_rate=0.003, fee_model=FeeModel.COLLECT_SEPARATELY)
    pool, _ = execute_swap(pool, Direction.X_FOR_Y, 10.0)
    assert pool.side_ledger.fees_x > 0
    assert arbitrage_to_rate(pool, rate_of(pool)) == pool


# -- inputs that used to slip through ---------------------------------------


@pytest.mark.parametrize("operation", [quote, execute_swap])
def test_nan_spread_cap_rejected_on_x_for_y(operation):
    pool = create_pool(100.0, 100.0)
    for direction in Direction:
        with pytest.raises(SpreadOutOfRange):
            operation(pool, direction, 50.0, math.nan)


@pytest.mark.parametrize("operation", [quote, execute_swap])
@pytest.mark.parametrize("direction", list(Direction))
def test_swap_that_would_drain_a_float_reserve_is_rejected(operation, direction):
    pool = create_pool(100.0, 100.0)
    with pytest.raises(NonPositiveReserve, match="drain"):
        operation(pool, direction, 1e20)


@pytest.mark.parametrize("operation", [quote, execute_swap])
def test_swap_whose_float_output_overflows_is_rejected(operation):
    # The input side overflows to inf and so does reserve_out * net, so the
    # output is inf / inf = NaN; the drain guard must not let a NaN through.
    pool = create_pool(1e300, 10.0)
    with pytest.raises(NonPositiveReserve, match="drain"):
        operation(pool, Direction.X_FOR_Y, 1.7976931348623157e308)


@pytest.mark.parametrize("target", [1e-40, 1e40, 5e-324])
def test_arbitrage_beyond_float_reach_names_the_rates(target):
    # A price ratio this far from the pool rate needs a float arbitrage leg
    # that drains a reserve; the error names the rates, not the inner swap.
    pool = create_pool(100.0, 100.0)
    named = rf"target rate {re.escape(str(target))} .* pool rate 1\.0"
    with pytest.raises(InvalidRate, match=named):
        arbitrage_to_rate(pool, target)


# -- the plain-number kernel under the value-level API ----------------------

fraction_values = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(10**4))
float_pools = st.tuples(reserves, reserves, st.sampled_from([0.0, 0.003, 0.05, 0.7]), amounts,
                        st.one_of(st.none(), st.floats(min_value=0.0, max_value=0.99)))
fraction_caps = st.sampled_from([Fraction(0), Fraction(3, 4), Fraction(1, 100), Fraction(8, 9)])
fraction_pools = st.tuples(fraction_values, fraction_values,
                           st.sampled_from([Fraction(0), Fraction(3, 1000), Fraction(7, 10)]),
                           fraction_values, st.one_of(st.none(), fraction_caps))


@given(
    case=st.one_of(float_pools, fraction_pools),
    model=st.sampled_from(list(FeeModel)),
    direction=directions,
)
@settings(max_examples=300)
def test_kernel_equals_quote_and_execute_swap(case, model, direction):
    x, y, fee, amount, cap = case
    pool = create_pool(x, y, fee_rate=fee, fee_model=model)
    y_for_x = direction is Direction.Y_FOR_X
    compound = model is FeeModel.AUTO_COMPOUND
    try:
        new_x, new_y, fees_x, fees_y, gross, fee_paid, out, _ = _swap(
            x, y, 0, 0, fee, amount, cap, y_for_x, compound
        )
    except NonPositiveReserve:
        with pytest.raises(NonPositiveReserve):
            execute_swap(pool, direction, amount, cap)
        return
    receipt = quote(pool, direction, amount, cap)
    assert (gross, fee_paid, out) == (receipt.capped_in, receipt.fee_paid, receipt.amount_out)
    moved, executed = execute_swap(pool, direction, amount, cap)
    assert executed == receipt
    # The kernel returns the pool's orientation; the test orients it to
    # check each side: only the input side's balance takes the fee.
    sides = [(x, new_x, fees_x), (y, new_y, fees_y)]
    (reserve_in, new_in, fees_in), (reserve_out, new_out, fees_out) = (
        sides[::-1] if y_for_x else sides
    )
    assert fees_in == (0 if compound else fee_paid)
    assert fees_out == 0
    if isinstance(gross, Fraction):  # a cap with an inexact root gives floats
        # Exact settlement: the input side, reserve plus ledger, takes the
        # whole gross; the output reserve gives up exactly the output.
        assert (new_in + fees_in) - reserve_in == gross
        assert reserve_out - new_out == out
    assert (moved.reserve_x, moved.reserve_y) == (new_x, new_y)
    assert moved.side_ledger == SideLedger(fees_x, fees_y)


@given(case=st.one_of(float_pools, fraction_pools), model=st.sampled_from(list(FeeModel)))
@settings(max_examples=300)
def test_a_trade_mirrors_onto_the_swapped_pool(case, model):
    # Selling Y on (x, y) is selling X on (y, x), bit for bit, with the sides
    # swapped: a fee credited to the wrong side in one direction fails this.
    # Caps and the spread are left out; their formulas differ by direction.
    x, y, fee, amount, _ = case
    mirror = create_pool(y, x, fee, model)
    try:
        sold_y, by_y = execute_swap(create_pool(x, y, fee, model), Direction.Y_FOR_X, amount)
    except NonPositiveReserve:
        with pytest.raises(NonPositiveReserve):
            execute_swap(mirror, Direction.X_FOR_Y, amount)
        return
    sold_x, by_x = execute_swap(mirror, Direction.X_FOR_Y, amount)
    assert (sold_y.reserve_x, sold_y.reserve_y) == (sold_x.reserve_y, sold_x.reserve_x)
    assert sold_y.side_ledger == SideLedger(sold_x.side_ledger.fees_y, sold_x.side_ledger.fees_x)
    for name in ("capped_in", "fee_paid", "amount_out", "realized_rate"):
        assert getattr(by_y, name) == getattr(by_x, name), name


@given(x=reserves, y=reserves, target=st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_arbitrage_leg_equals_arbitrage_to_rate(x, y, target):
    pool = create_pool(x, y, fee_rate=0.003, fee_model=FeeModel.COLLECT_SEPARATELY)
    moved = arbitrage_to_rate(pool, target)
    assert _arbitrage(x, y, target) == (moved.reserve_x, moved.reserve_y)


# -- a direction given as its plain string value -------------------------------

@pytest.mark.parametrize("direction", list(Direction))
def test_quote_reads_a_plain_direction_string_as_its_member(direction):
    pool = create_pool(100.0, 100.0)
    by_string = quote(pool, direction.value, 5.0)
    assert by_string == quote(pool, direction, 5.0)
    assert by_string.direction is direction
    if direction is Direction.Y_FOR_X:
        assert by_string.spread_applied == pytest.approx(1 - (100 / 105) ** 2, rel=1e-12)
    with pytest.raises(InputError, match="unknown direction 'y4x'"):
        quote(pool, "y4x", 5.0)


@pytest.mark.parametrize("direction", list(Direction))
def test_execute_swap_reads_a_plain_direction_string_as_its_member(direction):
    pool = create_pool(100.0, 200.0, fee_rate=0.003, fee_model=FeeModel.COLLECT_SEPARATELY)
    assert execute_swap(pool, direction.value, 5.0) == execute_swap(pool, direction, 5.0)
    with pytest.raises(InputError):
        execute_swap(pool, "sideways", 5.0)


@pytest.mark.parametrize("direction", list(Direction))
def test_max_input_for_spread_reads_a_plain_direction_string_as_its_member(direction):
    pool = create_pool(100.0, 200.0)
    expected = max_input_for_spread(pool, direction, 0.1)
    assert max_input_for_spread(pool, direction.value, 0.1) == expected
    with pytest.raises(InputError):
        max_input_for_spread(pool, None, 0.1)


# -- a fee model given as its plain string value -------------------------------

@pytest.mark.parametrize("model", list(FeeModel))
def test_create_pool_reads_a_plain_fee_model_string_as_its_member(model):
    by_string = create_pool(100.0, 100.0, fee_rate=0.01, fee_model=model.value)
    assert by_string.fee_model is model
    assert execute_swap(by_string, Direction.Y_FOR_X, 5.0) == execute_swap(
        create_pool(100.0, 100.0, fee_rate=0.01, fee_model=model), Direction.Y_FOR_X, 5.0
    )
    with pytest.raises(InputError, match="unknown fee model 'bogus'"):
        create_pool(100.0, 100.0, fee_model="bogus")


def test_auto_compound_string_puts_the_fee_in_the_reserve():
    pool = create_pool(100.0, 100.0, fee_rate=0.01, fee_model="auto_compound")
    new_pool, receipt = execute_swap(pool, Direction.Y_FOR_X, 5.0)
    assert new_pool.side_ledger.fees_y == 0
    assert new_pool.reserve_y == 105.0
    assert receipt.fee_paid == pytest.approx(0.05, rel=1e-12)


def test_exact_swaps_stop_at_the_size_limit():
    # Alternating unit swaps grow each exact value by about half again; the
    # 14th would leave numbers str() refuses (past 4,300 digits), so it is
    # rejected, and the 13 before it settle as the constant product says.
    pool = create_pool(Fraction(100), Fraction(100), fee_rate=Fraction(3, 1000))
    x = y = Fraction(100)
    net = Fraction(997, 1000)
    for swap in range(1, 14):
        y_for_x = swap % 2 == 1
        direction = Direction.Y_FOR_X if y_for_x else Direction.X_FOR_Y
        pool, receipt = execute_swap(pool, direction, Fraction(1))
        if y_for_x:
            out = x * net / (y + net)
            x, y = x - out, y + 1
        else:
            out = y * net / (x + net)
            x, y = x + 1, y - out
        assert (pool.reserve_x, pool.reserve_y, receipt.amount_out) == (x, y, out)
        assert str(pool) and str(receipt)
    with pytest.raises(InputError, match="^exact result needs 15984 bits, more than the 13000-bit"):
        execute_swap(pool, Direction.X_FOR_Y, Fraction(1))


@pytest.mark.parametrize("change", ["add", "remove"])
def test_exact_liquidity_changes_stop_at_the_size_limit(change):
    pool = create_pool(Fraction(1), Fraction(1))
    small = Fraction(1, 2**12999)  # 13,000 bits: the largest size allowed
    huge = Fraction(1, 2**13000)
    if change == "add":
        assert add_liquidity(pool, "b", small, small)[0].reserve_x == 1 + small
        with pytest.raises(InputError, match="more than the 13000-bit limit"):
            add_liquidity(pool, "b", huge, huge)
    else:
        assert remove_liquidity(pool, "lp", small)[1] == (small, small)
        with pytest.raises(InputError, match="more than the 13000-bit limit"):
            remove_liquidity(pool, "lp", huge)


# 9,100 powers of 3: 4,342 digits, past the 4,300 that str() gives.
_TOO_LONG = Fraction(1, 3**9100)


@pytest.mark.parametrize("call, error, message", [
    (lambda: add_liquidity(create_pool(Fraction(1), Fraction(1)), "b", _TOO_LONG,
                           2 * _TOO_LONG),
     RateMismatch, "deposit ratio an exact value of 14424 bits/an exact value of 14424 bits"),
    (lambda: remove_liquidity(create_pool(Fraction(1), Fraction(1)), "lp", 1 + _TOO_LONG),
     InsufficientShares, "lp owns 1 shares, asked to burn an exact value of 14424 bits"),
    (lambda: arbitrage_to_rate(create_pool(Fraction(1), Fraction(1)), 1 / _TOO_LONG),
     InputError, "target rate must be finite and positive, got an exact value of 14424 bits"),
], ids=["deposit ratio", "shares to burn", "target rate"])
def test_an_exact_argument_too_long_to_print_is_named_by_its_size(call, error, message):
    # Its str() raised ValueError inside the message, in place of the typed error.
    with pytest.raises(error, match=f"^{message}"):
        call()


# -- the arbitrage loss of a diffusing price: sigma^2 / 8 per unit of value ----
#
# For a fee-free constant-product pool kept on a price that follows a
# geometric Brownian motion of volatility sigma, the arbitrageur's profit per
# unit of pool value and time, the loss-versus-rebalancing (LVR) of Milionis,
# Moallemi, Roughgarden & Zhang (2022), is sigma^2 / 8.

#: Paths, moves per path (over one unit of time) and seed, fixed before the
#: first run.
LVR_PATHS, LVR_MOVES, LVR_SEED = 400, 100, 2022
#: The bias of the measure, beside its sampling error: |mean - sigma^2 / 8|
#: of ``arbitrage_loss_rate(sigma, moves=1000)``, where the standard error
#: is a third of that at 100 moves.
LVR_BIAS = {0.5: 6.7e-5, 1.0: 2.9e-4}
#: Standard errors the mean may miss sigma^2 / 8 by, beside the bias.
LVR_ERRORS = 3


def arbitrage_loss_rate(sigma, moves=LVR_MOVES):
    """The mean over ``LVR_PATHS`` price paths of the arbitrageur's profit,
    at the prices it trades at, divided by the time-integral of the pool's
    value; and the mean's standard error.  The price of X (in Y) is a
    martingale, and after each move ``cpamm.pool._arbitrage`` puts the pool
    back on it."""
    rng = random.Random(LVR_SEED)
    dt = 1.0 / moves
    drift, scale = -sigma * sigma * dt / 2, sigma * math.sqrt(dt)
    ratios = []
    for _ in range(LVR_PATHS):
        x, y, price = 100.0, 100.0, 1.0
        profit = value_time = 0.0
        for _ in range(moves):
            value_time += (price * x + y) * dt  # held from this move to the next
            price *= math.exp(drift + scale * rng.gauss(0.0, 1.0))
            new_x, new_y = cpamm.pool._arbitrage(x, y, 1.0 / price)
            profit += price * (x - new_x) + (y - new_y)
            x, y = new_x, new_y
        ratios.append(profit / value_time)
    return statistics.fmean(ratios), statistics.stdev(ratios) / math.sqrt(LVR_PATHS)


def lvr_miss(sigma):
    """How far the measured loss rate falls outside its band around sigma^2 / 8."""
    mean, error = arbitrage_loss_rate(sigma)
    return abs(mean - sigma * sigma / 8) - (LVR_ERRORS * error + LVR_BIAS[sigma])


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_arbitrage_loss_is_sigma_squared_over_8(sigma):
    assert lvr_miss(sigma) <= 0


@pytest.mark.parametrize("sigma", [0.5, 1.0])
def test_an_arbitrage_past_its_target_misses_sigma_squared_over_8(sigma, monkeypatch):
    # Past the target rate by as far as the pool sat from it: the measure
    # must tell this from the arbitrage that stops on the target.
    arbitrage = cpamm.pool._arbitrage
    monkeypatch.setattr(cpamm.pool, "_arbitrage",
                        lambda x, y, rate: arbitrage(x, y, rate * rate * y / x))
    assert lvr_miss(sigma) > 0
