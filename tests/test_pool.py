"""Engine-level tests: swaps, spread caps, fees, shares."""

import dataclasses
import math
import re
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
from cpamm.pool import (
    RATE_MATCH_TOL,
    SideLedger,
    _arbitrage,
    _settle,
    _swap,
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


def test_reserves_from_value():
    x, y, liquidity = reserves_from_value(400.0, 1.0, 4.0)
    assert (x, y) == (200.0, 50.0)
    assert liquidity == pytest.approx(100.0, rel=1e-15)
    # the axiom holds: both sides carry half the value
    assert 1.0 * x == 4.0 * y


def test_pool_value():
    pool = create_pool(200.0, 50.0)
    assert pool_value(pool, 1.0, 4.0) == 400.0


def test_add_liquidity_proportional():
    pool = create_pool(Fraction(100), Fraction(400))
    new_pool, position = add_liquidity(pool, "alice", Fraction(10), Fraction(40))
    assert position.shares == Fraction(20)  # 10% growth on 200 shares
    assert new_pool.total_shares == Fraction(220)
    assert new_pool.reserve_x == 110


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
    reserve_in, reserve_out = (y, x) if y_for_x else (x, y)
    try:
        gross, net, out, _ = _swap(reserve_in, reserve_out, fee, amount, cap, y_for_x)
    except NonPositiveReserve:
        with pytest.raises(NonPositiveReserve):
            execute_swap(pool, direction, amount, cap)
        return
    receipt = quote(pool, direction, amount, cap)
    assert (gross, out) == (receipt.capped_in, receipt.amount_out)
    moved, executed = execute_swap(pool, direction, amount, cap)
    assert executed == receipt
    new_in, fees_in = _settle(reserve_in, 0, gross, gross - net, model is FeeModel.AUTO_COMPOUND)
    new_out = reserve_out - out
    if y_for_x:
        assert (moved.reserve_x, moved.reserve_y) == (new_out, new_in)
        assert moved.side_ledger == SideLedger(0, fees_in)
    else:
        assert (moved.reserve_x, moved.reserve_y) == (new_in, new_out)
        assert moved.side_ledger == SideLedger(fees_in, 0)


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
