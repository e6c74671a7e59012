"""Every public call, on any positive number, ends in a finite result or an
``InputError``.

The numbers are ints, floats and ``Fraction``s of every magnitude, from the
least subnormal float to the largest, and just past both ends.  Each public
function of ``cpamm``, ``pool.arbitrage_to_rate`` and each public type whose
constructor checks its fields is called on them; a call may return a result,
every float in which is finite, or raise an ``InputError``, and nothing else.
"""

import dataclasses
import inspect
import io
import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cpamm
from cpamm import (
    Direction,
    FeeModel,
    FigureSpec,
    GrowthParams,
    InputError,
    PriceScenario,
    RationalPool,
    RoiParams,
    ScenarioScript,
    add_liquidity,
    create_pool,
    default_figure_spec,
    emit_figure,
    execute_swap,
    hold_value_relative,
    il_brute_force,
    impermanent_loss,
    integrate_lc,
    lc_implicit_solve,
    liquidity_of,
    load_script,
    max_input_for_spread,
    measure_effective_alpha,
    oracle_split_sum,
    oracle_swap,
    pool_value,
    quote,
    rate_of,
    relative_evolution_collected,
    relative_evolution_compounded,
    remove_liquidity,
    reserves_from_rate_liquidity,
    reserves_from_value,
    roi_pair,
    run_scenario,
    snapshots_to_csv,
)
from cpamm.pool import arbitrage_input_for_rate, arbitrage_to_rate
from cpamm.scenario import CollectFees, PriceMove, Snapshot, Trade

FLOAT_MAX = sys.float_info.max

#: Floats of every binade, from 2**-1074 up to the largest float.
floats = st.builds(math.ldexp, st.floats(0.5, 1, exclude_max=True), st.integers(-1073, 1024))
#: Ints from 1 to about 2**1033, past the largest float.
ints = st.builds(lambda m, e: m << e, st.integers(1, 2**53), st.integers(0, 980))
#: Fractions from about 1e-406 to about 1e316: past both ends of float range.
fractions = st.builds(lambda n, d, e: Fraction(n, d) * Fraction(10) ** e,
                      st.integers(1, 10**6), st.integers(1, 10**6), st.integers(-400, 310))
numbers = st.one_of(floats, ints, fractions, st.sampled_from([
    5e-324, sys.float_info.min, 1, 1.0, FLOAT_MAX, Fraction(1, 10**400), Fraction(10**309),
    Fraction(FLOAT_MAX) + Fraction(1, 10**400)]))
fees = st.just(0) | numbers
caps = st.none() | numbers
directions = st.sampled_from(Direction)
#: ``(x, y, fee_rate, fee_model)`` of a pool; a y of None is x, a pool on the rate 1.
pools = st.tuples(numbers, st.none() | numbers, fees, st.sampled_from(FeeModel))
events = st.one_of(
    st.builds(Trade, numbers, directions, numbers, caps),
    st.builds(PriceMove, numbers, numbers, numbers),
    st.builds(CollectFees, numbers, st.just("lp")),
    st.builds(Snapshot, numbers, st.just("s")),
)
#: ``ScenarioScript``'s fields.
scripts = st.tuples(numbers, numbers, fees, st.sampled_from(FeeModel), numbers, numbers,
                    st.lists(events, max_size=3).map(tuple))
#: ``(figure_id, (lo, hi, count), alpha, t, frac_compounding)``.
figures = st.tuples(st.sampled_from(cpamm.FIGURE_IDS), st.tuples(numbers, numbers, ints),
                    numbers, numbers, numbers)


def _pool(x, y, fee_rate, fee_model):
    return create_pool(x, x if y is None else y, fee_rate, fee_model)


def _json_number(value):
    """``value`` as a script writes it: ``a/b`` text where it is a ``Fraction``."""
    return f"{value.numerator}/{value.denominator}" if isinstance(value, Fraction) else value


def _script_text(pool_x, pool_y, fee_rate, fee_model, p_x, p_y, events):
    """The JSON script of ``ScenarioScript``'s fields."""
    kinds = {Trade: "trade", PriceMove: "price_move", CollectFees: "collect_fees",
             Snapshot: "snapshot"}
    names = {"amount_in": "amount"}
    written = []
    for event in events:
        entry = {"type": kinds[type(event)]}
        for field in dataclasses.fields(event):
            value = getattr(event, field.name)
            entry[names.get(field.name, field.name)] = (
                value.value if isinstance(value, Direction) else _json_number(value))
        written.append(entry)
    n = _json_number
    return json.dumps({
        "pool": {"x": n(pool_x), "y": n(pool_y), "fee_rate": n(fee_rate),
                 "fee_model": fee_model.value},
        "prices": {"p_x": n(p_x), "p_y": n(p_y)},
        "events": written,
    })


#: Each callable by name: a strategy of its arguments, and the call on them.
CALLS = {
    "PriceScenario": (st.tuples(numbers, numbers, numbers, numbers), PriceScenario),
    "GrowthParams": (st.tuples(numbers, numbers), GrowthParams),
    "impermanent_loss": (
        st.tuples(numbers, numbers), lambda dx, dy: impermanent_loss(PriceScenario(dx, dy))),
    "il_brute_force": (
        st.tuples(numbers, numbers, numbers, pools),
        lambda dx, dy, p, pool: il_brute_force(PriceScenario(dx, dy, p, p), _pool(*pool))),
    "hold_value_relative": (
        st.tuples(numbers, numbers), lambda dx, dy: hold_value_relative(PriceScenario(dx, dy))),
    "relative_evolution_compounded": (
        st.tuples(numbers, numbers, numbers, numbers),
        lambda dx, dy, alpha, t: relative_evolution_compounded(
            PriceScenario(dx, dy), GrowthParams(alpha, t))),
    "relative_evolution_collected": (
        st.tuples(numbers, numbers, numbers, numbers),
        lambda dx, dy, alpha, t: relative_evolution_collected(
            PriceScenario(dx, dy), GrowthParams(alpha, t))),
    "RoiParams": (st.tuples(numbers, numbers, numbers, numbers, numbers), RoiParams),
    "integrate_lc": (
        st.tuples(numbers, numbers, numbers, numbers, numbers),
        lambda *fields: integrate_lc(RoiParams(*fields))),
    "lc_implicit_solve": (
        st.tuples(numbers, numbers, numbers, numbers, numbers),
        lambda frac, alpha, horizon, l0, t: lc_implicit_solve(
            RoiParams(frac, alpha, horizon, l0), t)),
    "roi_pair": (
        st.tuples(numbers, numbers, numbers, numbers, numbers, numbers,
                  st.sampled_from(["implicit", "rk4"])),
        lambda frac, alpha, horizon, l0, step, t, method: roi_pair(
            RoiParams(frac, alpha, horizon, l0, step), t, method)),
    "FigureSpec": (figures, FigureSpec),
    "default_figure_spec": (
        st.tuples(st.sampled_from(cpamm.FIGURE_IDS), numbers, numbers),
        lambda figure_id, alpha, t: default_figure_spec(figure_id, alpha=alpha, t=t)),
    "emit_figure": (figures, lambda *fields: emit_figure(FigureSpec(*fields))),
    "create_pool": (pools, _pool),
    "liquidity_of": (pools, lambda *pool: liquidity_of(_pool(*pool))),
    "rate_of": (pools, lambda *pool: rate_of(_pool(*pool))),
    "pool_value": (
        st.tuples(pools, numbers, numbers),
        lambda pool, p_x, p_y: pool_value(_pool(*pool), p_x, p_y)),
    "reserves_from_rate_liquidity": (st.tuples(numbers, numbers), reserves_from_rate_liquidity),
    "reserves_from_value": (st.tuples(numbers, numbers, numbers), reserves_from_value),
    "max_input_for_spread": (
        st.tuples(pools, directions, numbers),
        lambda pool, direction, sigma: max_input_for_spread(_pool(*pool), direction, sigma)),
    "quote": (
        st.tuples(pools, directions, numbers, caps),
        lambda pool, *trade: quote(_pool(*pool), *trade)),
    "execute_swap": (
        st.tuples(pools, directions, numbers, caps),
        lambda pool, *trade: execute_swap(_pool(*pool), *trade)),
    # A dy of None deposits dx of each token, which a pool on the rate 1 takes.
    "add_liquidity": (
        st.tuples(pools, numbers, st.none() | numbers),
        lambda pool, dx, dy: add_liquidity(_pool(*pool), "b", dx, dx if dy is None else dy)),
    "remove_liquidity": (
        st.tuples(pools, numbers),
        lambda pool, shares: remove_liquidity(_pool(*pool), "lp", shares)),
    "arbitrage_input_for_rate": (
        st.tuples(pools, numbers),
        lambda pool, rate: arbitrage_input_for_rate(_pool(*pool), rate)),
    "arbitrage_to_rate": (
        st.tuples(pools, numbers), lambda pool, rate: arbitrage_to_rate(_pool(*pool), rate)),
    "RationalPool": (st.tuples(numbers, numbers), RationalPool),
    "oracle_swap": (
        st.tuples(numbers, numbers, directions, numbers),
        lambda x, y, direction, amount: oracle_swap(RationalPool(x, y), direction, amount)),
    "oracle_split_sum": (
        st.tuples(numbers, numbers, directions, st.lists(numbers, min_size=1, max_size=3)),
        lambda x, y, direction, parts: oracle_split_sum(RationalPool(x, y), direction, parts)),
    "run_scenario": (scripts, lambda *script: run_scenario(ScenarioScript(*script))),
    "measure_effective_alpha": (
        st.tuples(scripts, numbers),
        lambda script, window: measure_effective_alpha(ScenarioScript(*script), window)),
    "snapshots_to_csv": (
        scripts, lambda *script: snapshots_to_csv(run_scenario(ScenarioScript(*script)))),
    "load_script": (scripts, lambda *script: load_script(io.StringIO(_script_text(*script)))),
}


def test_every_public_function_and_checked_type_is_called():
    public = {name for name in cpamm.__all__
              if inspect.isfunction(getattr(cpamm, name))
              or hasattr(getattr(cpamm, name), "__post_init__")}
    assert set(CALLS) == public | {"arbitrage_to_rate"}


def _floats_in(value):
    """Every float in ``value``, its fields, items and CSV cells."""
    if isinstance(value, float):
        yield value
    elif isinstance(value, str):
        yield from (float(cell) for cell in re.split("[,\n]", value)
                    if cell.lstrip("-") in ("inf", "nan"))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _floats_in(item)
    elif isinstance(value, dict):
        yield from _floats_in(list(value.values()))
    elif dataclasses.is_dataclass(value):
        yield from _floats_in([getattr(value, field.name) for field in dataclasses.fields(value)])


def _ends_well(call, args):
    try:
        result = call(*args)
    except InputError:
        return
    assert all(map(math.isfinite, _floats_in(result))), result


#: Each call that still fails: where, and an example of it, which the search
#: tries first.
UNMENDED = {
    "add_liquidity": (
        "kernel._deposit: a float deposit over an exact reserve whose float is 0",
        ((Fraction(1, 10**400), None, 0, FeeModel.AUTO_COMPOUND), 0.5, None)),
    "execute_swap": (
        "kernel._swap: an exact amount whose float is 0 meets a float reserve",
        ((1.0, None, 0, FeeModel.AUTO_COMPOUND), Direction.Y_FOR_X, Fraction(1, 10**400), None)),
    "quote": (
        "kernel._swap, as execute_swap",
        ((1.0, None, 0, FeeModel.AUTO_COMPOUND), Direction.Y_FOR_X, Fraction(1, 10**400), None)),
    "max_input_for_spread": (
        "kernel._spread_cap: an input past float range is returned as inf",
        ((1e300, 1.0, 0, FeeModel.AUTO_COMPOUND), Direction.X_FOR_Y, 1e300)),
    "reserves_from_value": (
        "kernel._half_over: an exact price whose float is 0", (1.0, Fraction(1, 10**400), 1.0)),
    "reserves_from_rate_liquidity": (
        "pool.reserves_from_rate_liquidity: an exact rate whose root is 0 as a float",
        (Fraction(1, 41 * 10**322), 5e-324)),
    "integrate_lc": (
        "curves._closed_form: rho_c = 1 + alpha * t past float range is returned as inf",
        (1.0, 1e300, 1e10, 1e-300, 1e9)),
    "relative_evolution_compounded": (
        "curves._evolution: a pooled value past float range is returned as inf",
        (1.0, 4.0, 1.0, 1e308)),
    "relative_evolution_collected": (
        "curves._evolution: an exact growth past float range meets a float",
        (1, Fraction(10**300), Fraction(10**10), 1)),
    "roi_pair": (
        "curves._states: rho_c = u = e^v past float range is returned as inf",
        (5e-324, 2048.0, 5e-324, 1.0, 5e-324, 0.5, "implicit")),
    "il_brute_force": (
        "curves._il_replay: a value at the moved prices past float range is inf, and an "
        "exact moved price whose float is 0 meets a float",
        (FLOAT_MAX, FLOAT_MAX, 0.7969075657582435, (0.4375, None, 0, FeeModel.AUTO_COMPOUND))),
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=UNMENDED[name][0]))
    if name in UNMENDED else name for name in sorted(CALLS)])
def test_a_call_on_any_number_is_finite_or_an_input_error(name):
    arguments, call = CALLS[name]

    @given(args=arguments)
    @settings(max_examples=100, deadline=None)
    def holds(args):
        _ends_well(call, args)

    if name in UNMENDED:
        holds = example(args=UNMENDED[name][1])(holds)
    holds()
