"""Exact-oracle tests: the rational backend is the ground truth the float
engine is judged against, so it gets its own direct checks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpamm import (
    Direction,
    NonPositiveAmount,
    NonPositiveReserve,
    RationalPool,
    create_pool,
    execute_swap,
    oracle_split_sum,
    oracle_swap,
)

fractions = st.fractions(
    min_value=Fraction(1, 100), max_value=Fraction(1000), max_denominator=100
)


def test_float_inputs_give_exact_results():
    # A float is an exact binary fraction; the oracle works on that value.
    new_pool, out = oracle_swap(RationalPool(3.0, 7.0), Direction.Y_FOR_X, 2.0)
    assert out == Fraction(2, 3) and isinstance(out, Fraction)
    assert (new_pool.reserve_x, new_pool.reserve_y) == (Fraction(7, 3), Fraction(9))
    assert RationalPool(0.1, 1).reserve_x == Fraction(0.1) != Fraction(1, 10)


def test_any_positive_number_swaps_exactly():
    # The int 2**752 met the float reserve 5e-324, whose int sum overflowed.
    pool = RationalPool(5e-324, 2**272)
    new_pool, out = oracle_swap(pool, Direction.X_FOR_Y, 2**752)
    assert new_pool.product == pool.product
    assert out == Fraction(2**272 * 2**752) / (Fraction(5e-324) + 2**752)
    assert oracle_split_sum(pool, Direction.X_FOR_Y, [2**751, 2**751]) == out


def test_hand_value():
    pool = RationalPool(Fraction(3), Fraction(7))
    new_pool, out = oracle_swap(pool, Direction.Y_FOR_X, Fraction(2))
    assert out == Fraction(2, 3)
    assert new_pool.reserve_x == Fraction(7, 3)
    assert new_pool.reserve_y == 9


def test_product_preserved_exactly():
    pool = RationalPool(Fraction(3), Fraction(7))
    new_pool, _ = oracle_swap(pool, Direction.X_FOR_Y, Fraction(5, 13))
    assert new_pool.product == 21


def test_split_sum_hand_value():
    pool = RationalPool(Fraction(3), Fraction(7))
    total = oracle_split_sum(pool, Direction.Y_FOR_X, [Fraction(1), Fraction(1)])
    assert total == Fraction(3, 8) + Fraction(7, 24)
    assert total == Fraction(2, 3)


def test_validation():
    with pytest.raises(NonPositiveReserve):
        RationalPool(Fraction(0), Fraction(1))
    pool = RationalPool(Fraction(1), Fraction(1))
    with pytest.raises(NonPositiveAmount):
        oracle_swap(pool, Direction.Y_FOR_X, Fraction(0))
    with pytest.raises(NonPositiveAmount):
        oracle_split_sum(pool, Direction.Y_FOR_X, [])


@given(x=fractions, y=fractions, amount=fractions, direction=st.sampled_from(list(Direction)))
@settings(max_examples=200)
def test_oracle_agrees_with_engine_on_rational_pools(x, y, amount, direction):
    oracle_pool = RationalPool(x, y)
    engine_pool = create_pool(x, y)
    new_oracle, out = oracle_swap(oracle_pool, direction, amount)
    new_engine, receipt = execute_swap(engine_pool, direction, amount)
    assert receipt.amount_out == out
    assert new_engine.reserve_x == new_oracle.reserve_x
    assert new_engine.reserve_y == new_oracle.reserve_y


@given(
    x=fractions,
    y=fractions,
    amount=fractions,
    weights=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=12),
    direction=st.sampled_from(list(Direction)),
)
@settings(max_examples=100)
def test_split_sum_equals_single_swap(x, y, amount, weights, direction):
    # split the trade by integer weights; the sequential total telescopes
    # back to the single-swap output, exactly
    pool = RationalPool(x, y)
    total_weight = sum(weights)
    parts = [amount * Fraction(w, total_weight) for w in weights]
    assert sum(parts) == amount
    _, single = oracle_swap(pool, direction, amount)
    assert oracle_split_sum(pool, direction, parts) == single
