"""The numeric domain boundary: one NaN-safe check family in ``cpamm.errors``."""

import dataclasses
import io
import json
import math
import sys
from fractions import Fraction

import pytest

from cpamm import (
    DomainError,
    FigureSpec,
    Direction,
    EmptyWindow,
    FeeModel,
    GrowthParams,
    InputError,
    InvalidFee,
    InvalidRate,
    InvalidStep,
    NonPositiveAmount,
    NonPositiveDelta,
    NonPositiveInput,
    NonPositivePrice,
    NonPositiveReserve,
    PriceMove,
    PriceScenario,
    RateMismatch,
    RoiParams,
    ScenarioScript,
    ScriptError,
    Snapshot,
    SpreadOutOfRange,
    Trade,
    add_liquidity,
    arbitrage_input_for_rate,
    create_pool,
    default_figure_spec,
    emit_figure,
    execute_swap,
    il_brute_force,
    impermanent_loss,
    lc_implicit_solve,
    load_script,
    max_input_for_spread,
    measure_effective_alpha,
    pool_value,
    quote,
    relative_evolution_collected,
    relative_evolution_compounded,
    remove_liquidity,
    reserves_from_rate_liquidity,
    reserves_from_value,
    roi_pair,
    run_scenario,
)
from cpamm import cli
from cpamm.errors import non_negative, positive, unit_interval
from cpamm.kernel import _arbitrage, _spread_cap, _swap
from cpamm.pool import arbitrage_to_rate
from cpamm.rational import RationalPool, oracle_swap

NAN, INF = math.nan, math.inf
HUGE = Fraction(10**400)
TINY = Fraction(1, 10**400)
# The largest float, exactly, and the least exact value past it: an exact
# value is finite when it is at most the largest float.
FLOAT_MAX = Fraction(sys.float_info.max)
PAST_MAX = FLOAT_MAX + Fraction(1, 10**400)


@pytest.mark.parametrize("value", [1e-300, 5e-324, 1.0, 1e308, TINY, Fraction(1, 3),
                                   sys.float_info.max, FLOAT_MAX,
                                   pytest.param(int(FLOAT_MAX), id="int max")])
def test_positive_accepts_finite_positive_values(value):
    positive(NonPositiveInput, "x", value)


@pytest.mark.parametrize("value", [0, 0.0, -0.0, -1.0, -HUGE, NAN, INF, -INF, HUGE, PAST_MAX,
                                   pytest.param(int(FLOAT_MAX) + 1, id="int past max")])
def test_positive_rejects_the_rest(value):
    with pytest.raises(NonPositiveInput, match=r"^x must be finite and positive, got "):
        positive(NonPositiveInput, "x", value)


@pytest.mark.parametrize("value", [0, 0.0, -0.0, 1e308, FLOAT_MAX])
def test_non_negative_accepts_zero_and_up(value):
    non_negative(NonPositiveInput, "x", value)


@pytest.mark.parametrize("value", [-1e-300, -HUGE, NAN, INF, -INF, HUGE, PAST_MAX])
def test_non_negative_rejects_the_rest(value):
    with pytest.raises(NonPositiveInput, match=r"^x must be finite and >= 0, got "):
        non_negative(NonPositiveInput, "x", value)


def test_non_negative_upper_bound_is_exclusive():
    non_negative(InvalidFee, "fee", Fraction(999, 1000), below=1)
    for value in (1, 1.5, NAN):
        with pytest.raises(InvalidFee, match=r"must be in \[0, 1\)"):
            non_negative(InvalidFee, "fee", value, below=1)


def test_unit_interval_is_closed():
    for value in (0, 0.5, 1, Fraction(1)):
        unit_interval(DomainError, "frac", value)
    for value in (-1e-300, 1 + 1e-15, NAN, INF):
        with pytest.raises(DomainError, match=r"must be in \[0, 1\]"):
            unit_interval(DomainError, "frac", value)


def test_every_value_is_checked_and_all_are_reported():
    with pytest.raises(NonPositiveReserve, match=r"got \(1, nan\)$"):
        positive(NonPositiveReserve, "reserves", 1, NAN)


def _replay(**fields):
    script = dict(pool_x=100.0, pool_y=100.0, fee_rate=0.0,
                  fee_model=FeeModel.AUTO_COMPOUND, p_x0=1.0, p_y0=1.0, events=())
    script.update(fields)
    return run_scenario(ScenarioScript(**script))


POOL = create_pool(100.0, 100.0)


def _big_pool():
    return create_pool(HUGE, HUGE)


F_MAX = int(sys.float_info.max)


def _huge(px, py, events=(), fee_rate=0, fee_model=FeeModel.AUTO_COMPOUND):
    return ScenarioScript(HUGE, HUGE, fee_rate, fee_model, px, py, events)


# Out-of-domain calls at every layer; each must raise its own InputError
# subclass rather than return NaN or inf or raise an untyped exception.
REJECTED = {
    "create_pool nan": (NonPositiveReserve, lambda: create_pool(NAN, 1)),
    "create_pool nan fee": (InvalidFee, lambda: create_pool(1, 1, fee_rate=NAN)),
    "create_pool liquidity overflow": (NonPositiveReserve, lambda: create_pool(1e200, 1e200)),
    "create_pool liquidity underflow": (NonPositiveReserve, lambda: create_pool(1e-200, 1e-200)),
    "create_pool subnormal product": (NonPositiveReserve, lambda: create_pool(1e-160, 1e-160)),
    "quote inf": (NonPositiveAmount, lambda: quote(POOL, Direction.Y_FOR_X, INF)),
    "quote nan": (NonPositiveAmount, lambda: quote(POOL, Direction.X_FOR_Y, NAN)),
    "pool_value nan": (NonPositivePrice, lambda: pool_value(POOL, NAN, 1)),
    "pool_value inf": (NonPositivePrice, lambda: pool_value(POOL, 1, INF)),
    "reserves_from_rate_liquidity nan rate": (
        InvalidRate, lambda: reserves_from_rate_liquidity(NAN, 1.0)),
    "reserves_from_rate_liquidity inf liquidity": (
        NonPositiveInput, lambda: reserves_from_rate_liquidity(1.0, INF)),
    "reserves_from_rate_liquidity reserve overflow": (
        NonPositiveReserve, lambda: reserves_from_rate_liquidity(1e300, 1e200)),
    "reserves_from_rate_liquidity reserve underflow": (
        NonPositiveReserve, lambda: reserves_from_rate_liquidity(1e-300, 1e-200)),
    "reserves_from_value nan": (NonPositiveInput, lambda: reserves_from_value(NAN, 1, 1)),
    "reserves_from_value reserve overflow": (
        NonPositiveReserve, lambda: reserves_from_value(1e300, 1e-10, 1.0)),
    # A 1:2 deposit whose growths both overflow: inf - inf is NaN.
    "add_liquidity growth overflow": (
        InputError, lambda: add_liquidity(create_pool(1e-10, 1e-10), "b", 1e300, 2e300)),
    "add_liquidity one growth overflow": (
        InputError, lambda: add_liquidity(create_pool(1e10, 1e-10), "b", 1e10, 1e300)),
    "add_liquidity reserve overflow": (
        InputError, lambda: add_liquidity(create_pool(1e308, 1e-10), "b", 1e308, 1e-10)),
    "PriceScenario nan": (NonPositiveDelta, lambda: PriceScenario(NAN, 1)),
    "PriceScenario inf price": (NonPositivePrice, lambda: PriceScenario(1, 1, p_x0=INF)),
    "GrowthParams nan": (NonPositiveInput, lambda: GrowthParams(NAN, 1)),
    "GrowthParams inf": (NonPositiveInput, lambda: GrowthParams(0.2, INF)),
    "RoiParams nan step": (
        InvalidStep, lambda: RoiParams(frac_compounding=0.5, alpha=0.2, horizon=1, step=NAN)),
    "RoiParams nan alpha": (
        NonPositiveInput, lambda: RoiParams(frac_compounding=0.5, alpha=NAN, horizon=1)),
    "RoiParams nan frac": (
        NonPositiveInput, lambda: RoiParams(frac_compounding=NAN, alpha=0.2, horizon=1)),
    "figure nan alpha": (DomainError, lambda: default_figure_spec("il_one_coin", alpha=NAN)),
    "figure inf grid end": (
        DomainError, lambda: default_figure_spec("il_one_coin", domain_grid=(0.0, INF, 3))),
    "figure inf time axis": (
        DomainError, lambda: default_figure_spec("roi_comparison", domain_grid=(0.0, INF, 3))),
    "RationalPool nan": (NonPositiveReserve, lambda: RationalPool(Fraction(1), NAN)),
    "oracle_swap inf": (
        NonPositiveAmount,
        lambda: oracle_swap(RationalPool(Fraction(1), Fraction(1)), Direction.Y_FOR_X, INF)),
    "measure_effective_alpha nan": (
        EmptyWindow,
        lambda: measure_effective_alpha(
            ScenarioScript(100.0, 100.0, 0.0, FeeModel.AUTO_COMPOUND, 1.0, 1.0), NAN)),
    "script zero price": (ScriptError, lambda: _replay(p_x0=0.0)),
    "script market rate overflow": (ScriptError, lambda: _replay(p_x0=1e-300, p_y0=1e300)),
    "il_brute_force market rate overflow": (
        RateMismatch,
        lambda: il_brute_force(PriceScenario(1, 1, p_x0=1e-300, p_y0=1e300), POOL)),
    "script nan price": (ScriptError, lambda: _replay(p_y0=NAN)),
    "script zero reserve": (NonPositiveReserve, lambda: _replay(pool_y=0.0)),
    "script nan price move": (
        ScriptError, lambda: _replay(events=(PriceMove(0.0, NAN, 1.0),))),
    "script price underflow": (
        ScriptError,
        lambda: _replay(p_x0=1e-300, p_y0=1e-300, events=(PriceMove(0.0, 1e-100, 1.0),))),
    "script held value underflow": (
        ScriptError,
        lambda: _replay(pool_x=1e-30, pool_y=1e-30, p_x0=1e-300, p_y0=1e-300,
                        events=(Snapshot(0.0, "s"),))),
    # A snapshot is valued by pool_value's rule, which rejects a subnormal
    # value: about 2e-320 was printed.
    "script subnormal snapshot value": (
        ScriptError, lambda: _replay(p_x0=1e-322, p_y0=1e-322, events=(Snapshot(0.0, "s"),))),
    # Exact values past the largest float are rejected as inf is; each of
    # these ended in a raw OverflowError.
    "reserves_from_rate_liquidity exact liquidity past float range": (
        NonPositiveInput, lambda: reserves_from_rate_liquidity(2.0, HUGE)),
    "reserves_from_value exact value past float range": (
        NonPositiveInput, lambda: reserves_from_value(HUGE, 1.0, 1.0)),
    "remove_liquidity exact pool past float range": (
        NonPositiveReserve, lambda: remove_liquidity(_big_pool(), "lp", 1.0)),
    "execute_swap int cap exact pool past float range": (
        NonPositiveReserve,
        lambda: execute_swap(_big_pool(), Direction.Y_FOR_X, Fraction(1), 0)),
    "max_input_for_spread exact pool past float range": (
        NonPositiveReserve,
        lambda: max_input_for_spread(_big_pool(), Direction.Y_FOR_X, Fraction(1, 2))),
    "execute_swap exact amount past float range": (
        NonPositiveAmount,
        lambda: execute_swap(create_pool(100.0, 100.0, 0.003), Direction.Y_FOR_X, HUGE)),
    "pool_value exact price past float range": (
        NonPositivePrice, lambda: pool_value(POOL, HUGE, 1.0)),
    "add_liquidity exact deposit past float range": (
        NonPositiveAmount, lambda: add_liquidity(POOL, "b", HUGE, HUGE)),
    "script exact pool past float range": (NonPositiveReserve, lambda: run_scenario(_huge(1.0, 1.0))),
    "script exact pool past float range float trade": (
        NonPositiveReserve,
        lambda: run_scenario(_huge(1, 1, (Trade(0.0, Direction.X_FOR_Y, 1.0),)))),
    "script exact pool past float range float cap": (
        NonPositiveReserve,
        lambda: run_scenario(_huge(1, 1, (Trade(0.0, Direction.X_FOR_Y, 1, 0.01),)))),
    "measure_effective_alpha exact pool past float range": (
        NonPositiveReserve,
        lambda: measure_effective_alpha(
            _huge(1, 1, (Trade(0.0, Direction.X_FOR_Y, Fraction(1)),), Fraction(1, 2),
                  FeeModel.COLLECT_SEPARATELY), 1.0)),
    "roi_pair int alpha past float range": (
        NonPositiveInput, lambda: roi_pair(RoiParams(0.5, 10**400, 1.0), 1.0)),
    # The float of the exact closed form L_c(0) + alpha L0 t is past float
    # range; the int 2 * 10**308 was returned.
    "lc_implicit_solve exact closed form past float range": (
        NonPositiveInput, lambda: lc_implicit_solve(RoiParams(1, 1, 1, 10**308), 1)),
    # The growth alpha * t is past float range, where every evolution is inf.
    "GrowthParams growth past float range": (NonPositiveInput, lambda: GrowthParams(1e300, 1e10)),
    # The exact growth 10**310 of a deposit met the float share total
    # sqrt(3e-20), and ended in a raw OverflowError.
    "add_liquidity exact growth past float range": (
        InputError,
        lambda: add_liquidity(create_pool(Fraction(1, 10**10), Fraction(3, 10**10)), "b",
                              Fraction(10**300), Fraction(3 * 10**300))),
    "script exact timestamp past float range": (
        ScriptError, lambda: _replay(events=(Snapshot(HUGE, "s"),))),
    # An exact rate past float range, from reserves in it, met a float.
    "script exact pool rate past float range": (
        InvalidRate,
        lambda: run_scenario(ScenarioScript(Fraction(10**300), Fraction(1, 10**10), 0,
                                            FeeModel.AUTO_COMPOUND, 1e-300, 1.0))),
    "il_brute_force exact pool rate past float range": (
        InvalidRate,
        lambda: il_brute_force(PriceScenario(1.0, 2.0, 1e-300, 1.0),
                               create_pool(Fraction(10**300), Fraction(1, 10**10)))),
    # An exact sum past float range met a float reserve, in a swap and in a
    # replay whose trades grow the exact reserve.
    "execute_swap exact sum past float range beside a float reserve": (
        NonPositiveReserve,
        lambda: execute_swap(create_pool(1.0, Fraction(10**300)), Direction.Y_FOR_X, F_MAX)),
    "script exact sum past float range beside a float reserve": (
        NonPositiveReserve,
        lambda: run_scenario(ScenarioScript(
            1.0, Fraction(10**300), 0, FeeModel.AUTO_COMPOUND, Fraction(10**300), 1,
            (Trade(0.0, Direction.Y_FOR_X, F_MAX // 2), Trade(0.0, Direction.Y_FOR_X, F_MAX // 2))))),
    # The fee takes the exact reserve past float range after the sum.
    "script exact reserve past float range beside a float reserve": (
        InputError,
        lambda: run_scenario(ScenarioScript(
            2.0, Fraction(F_MAX // 4), Fraction(1, 2), FeeModel.AUTO_COMPOUND,
            Fraction(F_MAX // 4), 2, (Trade(0.0, Direction.Y_FOR_X, F_MAX),)))),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_out_of_domain_input_raises_its_typed_error(name):
    error, call = REJECTED[name]
    assert issubclass(error, InputError)
    with pytest.raises(error):
        call()


# -- inputs each in range whose result is not ---------------------------------
#
# The minimal repros of calls that ended in a raw exception, or returned a
# result past float range.  Each must end in an InputError or return finite
# values.

@pytest.mark.parametrize("call", [
    # p_y * y is past float range and meets the float 7.0.
    lambda: pool_value(create_pool(7.0, Fraction(10**300)), 1, Fraction(10**9)),
    "pool-info --x 7 --y 1{} --p-y 1000000000/1".format("0" * 300 + "/1"),
    # The fee rate alpha * L0 = 10**615 is exact; the accrual at horizon
    # 1e-308 is past float range, and at horizon 0 it is exactly 0.
    lambda: RoiParams(0.5, 10**308, 1e-308, 10**307),
    lambda: RoiParams(0.5, 10**308, 0, 10**307),
    # The exact pool rate is 1e309.
    lambda: arbitrage_to_rate(create_pool(Fraction(10**9), Fraction(1, 10**300)), 1.0),
    lambda: arbitrage_input_for_rate(create_pool(Fraction(10**9), Fraction(1, 10**300)), 1.0),
    # The exact pool rate is 7e-450, which is 0 as a float.
    lambda: arbitrage_to_rate(create_pool(Fraction(7, 10**300), Fraction(10**150)), 0.5),
    lambda: arbitrage_input_for_rate(create_pool(Fraction(7, 10**300), Fraction(10**150)), 0.5),
    # No fees accrue, and the holdout liquidity underflows to 0.
    lambda: roi_pair(RoiParams(0.99, 5e-324, 7.0, 5e-324), 1e200),
    # Float alpha and t of 1e200 give the same DomainError.
    lambda: emit_figure(FigureSpec("fee_model_comparison", (-99, 1e16, 3),
                                   alpha=Fraction(10**200), t=Fraction(10**200))),
], ids=["pool_value", "pool-info", "RoiParams", "RoiParams at horizon 0", "arbitrage_to_rate",
        "arbitrage_input_for_rate", "arbitrage_to_rate onto a rate of 0",
        "arbitrage_input_for_rate onto a rate of 0", "roi_pair", "emit_figure"])
def test_a_result_past_float_range_is_an_input_error(capsys, call):
    if isinstance(call, str):
        assert cli.main(call.split()) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    else:
        with pytest.raises(InputError):
            call()


@pytest.mark.parametrize("call", [
    lambda: dataclasses.astuple(impermanent_loss(
        PriceScenario(sys.float_info.max, sys.float_info.max))),
    lambda: [relative_evolution_collected(
        PriceScenario(sys.float_info.max, 1e300), GrowthParams(1e-308, 5e-324))],
    # alpha * t is past float range, and so was the compounded value.
    lambda: [relative_evolution_compounded(PriceScenario(2.0, 2.0), GrowthParams(1e300, 1e10))],
], ids=["impermanent_loss", "relative_evolution_collected", "relative_evolution_compounded"])
def test_a_result_is_finite_or_an_input_error(call):
    # Each input is in range; what is returned must be too.
    try:
        values = call()
    except InputError:
        return
    assert all(math.isfinite(value) for value in values), values


@pytest.mark.parametrize("value, p_x, p_y", [
    # 2 * p_x is past float range, and was met as an OverflowError.
    (1e9, Fraction(10**308), Fraction(3, 1000)),
    # ... and as inf, which gave a reserve of 0.
    (1e9, 1.7e308, 0.003),
    (1e9, Fraction(10**308), Fraction(10**308)),
])
def test_reserves_past_a_doubled_price_are_in_range(value, p_x, p_y):
    # The true reserves are in float range: about 5e-300 and 1.67e11.
    half = Fraction(value) / 2
    root = Fraction(math.sqrt(p_x)) * Fraction(math.sqrt(p_y))  # each within an ulp
    want = (half / Fraction(p_x), half / Fraction(p_y), half / root)
    got = reserves_from_value(value, p_x, p_y)
    assert got == pytest.approx([float(w) for w in want], rel=1e-15)
    assert all(isinstance(v, float) for v in got)


def test_no_fees_accrued_leave_the_compounders_where_they_started():
    # roi_pair's case above: alpha * L0 * t underflows to 0, so no fees
    # accrue, and L_c(0) / 2 + L_nc / 2 underflows to 0 too.
    params = RoiParams(0.99, 5e-324, 7.0, 5e-324)
    assert lc_implicit_solve(params, 1e200) == params.l_c0


# -- guards written inline on the per-event path ------------------------------
#
# The replay's per-event guards run their chained comparison inline and call
# the helper only when it fails.  Each must decide exactly as the helper
# alone would: the same values rejected, with the same error and message.

EDGE_VALUES = [NAN, INF, -INF, 0, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -1.0, 0.5, 1, 1.0, 1e308, -1e308, HUGE, -HUGE, TINY, -TINY, Fraction(1, 3),
               FLOAT_MAX, PAST_MAX]


def _outcome(call):
    try:
        call()
    except Exception as err:  # noqa: BLE001 - the outcome is what is compared
        return type(err), str(err)
    return None


def _script_file(**event):
    doc = {"pool": {"x": 10, "y": 10}, "prices": {"p_x": 1, "p_y": 1},
           "events": [{"type": "snapshot", **event}]}
    return io.StringIO(json.dumps(doc))


def _one(*values):
    """The script's unit price: exact when a value is a Fraction."""
    return Fraction(1) if any(isinstance(v, Fraction) for v in values) else 1.0


def _move(delta_x, delta_y):
    one = _one(delta_x, delta_y)
    return run_scenario(ScenarioScript(100 * one, 100 * one, 0, FeeModel.AUTO_COMPOUND, one,
                                       one, (PriceMove(0.0, delta_x, delta_y),)))


def _reserve(value):
    return Fraction(100) if isinstance(value, Fraction) else 100.0


# guard -> (call with the value, the helper call it stands for, message prefix)
INLINE_GUARDS = {
    "trade amount": (
        lambda v: _swap(_reserve(v), _reserve(v), 0, 0, 0, v, None, True, True),
        lambda v: positive(NonPositiveAmount, "trade amount", v), ""),
    "Y-for-X spread": (
        lambda v: _spread_cap(_reserve(v), v, True),
        lambda v: non_negative(SpreadOutOfRange, "Y-for-X spread", v, below=1), ""),
    "X-for-Y spread": (
        lambda v: _spread_cap(_reserve(v), v, False),
        lambda v: non_negative(SpreadOutOfRange, "X-for-Y spread", v), ""),
    "arbitrage target rate": (
        lambda v: _arbitrage(_reserve(v), _reserve(v), v),
        lambda v: positive(InvalidRate, "target rate", v), ""),
    "prices after the move of x": (
        lambda v: _move(v, 1),
        lambda v: positive(ScriptError, "prices after the move", _one(v) * v, _one(v)),
        "event 0: "),
    "prices after the move of y": (
        lambda v: _move(1, v),
        lambda v: positive(ScriptError, "prices after the move", _one(v), _one(v) * v),
        "event 0: "),
}


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
@pytest.mark.parametrize("guard", sorted(INLINE_GUARDS))
def test_inline_guards_decide_as_their_helper(guard, value):
    guarded, helper, prefix = INLINE_GUARDS[guard]
    expected = _outcome(lambda: helper(value))
    got = _outcome(lambda: guarded(value))
    if expected is None:
        # Accepted by the guard: whatever happens next is not its error.
        assert got is None or not got[1].startswith(prefix + guard.split(" of ")[0]), got
    else:
        assert got == (expected[0], prefix + expected[1])


@pytest.mark.parametrize("t", [NAN, INF, -INF, 0, 0.0, -0.0, 5e-324, -5e-324, -1, 1e308,
                               "nan", "-inf", "-0", "1e-320"], ids=repr)
def test_parsed_timestamp_guard_decides_as_its_helper(t):
    expected = _outcome(lambda: non_negative(ValueError, "timestamp", float(t)))
    got = _outcome(lambda: load_script(_script_file(t=t)))
    assert got == (None if expected is None else (ScriptError, f"event 0: {expected[1]}"))
