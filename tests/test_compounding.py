"""Compounding-vs-collecting growth model: integrator, implicit root, ROI."""

import decimal
import math
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpamm import (
    InvalidStep,
    NoConvergence,
    NonPositiveInput,
    RoiParams,
    integrate_lc,
    lc_implicit_solve,
    roi_pair,
)
from cpamm.compounding import MAX_RK4_STEPS, ROOT_REL_TOL
from cpamm.curves import _time_grid

DEFAULT = RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0)

fracs = st.floats(min_value=0.01, max_value=0.99)
alphas = st.floats(min_value=0.01, max_value=1.0)
times = st.floats(min_value=0.0, max_value=3.0)


def test_params_validation():
    with pytest.raises(NonPositiveInput):
        RoiParams(frac_compounding=1.5, alpha=0.2, horizon=1.0)
    with pytest.raises(NonPositiveInput):
        RoiParams(frac_compounding=0.5, alpha=-0.1, horizon=1.0)
    with pytest.raises(NonPositiveInput):
        RoiParams(frac_compounding=0.5, alpha=0.2, horizon=-1.0)
    with pytest.raises(NonPositiveInput):
        RoiParams(frac_compounding=0.5, alpha=0.2, horizon=1.0, l_total0=0.0)
    with pytest.raises(InvalidStep):
        RoiParams(frac_compounding=0.5, alpha=0.2, horizon=1.0, step=0.0)


def test_params_reject_a_bracket_beyond_float_range():
    # alpha * L0 * horizon overflows: the root's bracket would end at inf.
    with pytest.raises(NonPositiveInput, match="fees accrued"):
        RoiParams(frac_compounding=0.5, alpha=1e300, horizon=1e10)
    # L_c(0) = frac * L0 underflows to 0 for a positive frac.
    with pytest.raises(NonPositiveInput, match="compounding liquidity"):
        RoiParams(frac_compounding=1e-300, alpha=1.0, horizon=3.0, l_total0=1e-100)


def test_root_whose_ratio_to_the_start_overflows():
    # L_c / L_c(0) passes the largest float long before the root near 1e308.
    params = RoiParams(frac_compounding=1e-300, alpha=1e300, horizon=1e8)
    l_c = lc_implicit_solve(params, 1e8)
    residual = l_c - params.l_c0 + params.l_nc * (math.log(l_c) - math.log(params.l_c0)) - 1e308
    assert abs(residual) <= ROOT_REL_TOL * l_c
    assert roi_pair(params, 1e8)[0] == math.inf
    # A root below the overflow: rho_nc is the holdouts' diluted fee share.
    small = RoiParams(frac_compounding=1e-300, alpha=1e10, horizon=1.0)
    rho_c, rho_nc = roi_pair(small, 1.0)
    assert rho_c == math.inf
    # rho_nc = 1 + ln(rho_c); the root's own tolerance bounds the error.
    assert rho_nc == pytest.approx(1 + math.log(1e10) - math.log(1e-300), abs=ROOT_REL_TOL * 1e10)


def test_population_split():
    params = RoiParams(frac_compounding=0.25, alpha=0.2, horizon=1.0, l_total0=4.0)
    assert params.l_c0 == 1.0
    assert params.l_nc == 3.0


def test_reference_point():
    # frac 0.99, alpha 0.2, t 1: the well-known pair of ROIs
    rho_c, rho_nc = roi_pair(DEFAULT, 1.0)
    assert rho_c == pytest.approx(1.2001770796737183, rel=1e-9)
    assert rho_nc == pytest.approx(1.1824691123018916, rel=1e-9)


def test_trajectory_shape():
    traj = integrate_lc(DEFAULT)
    assert traj.samples[0].t == 0.0
    assert traj.final.t == 1.0
    assert traj.samples[0].l_c == DEFAULT.l_c0
    assert traj.samples[0].rho_c == 1.0
    assert traj.samples[0].rho_nc == 1.0


def test_horizon_not_multiple_of_step_still_ends_on_horizon():
    params = RoiParams(frac_compounding=0.5, alpha=0.2, horizon=0.35, step=0.1)
    traj = integrate_lc(params)
    assert traj.final.t == 0.35


def test_zero_horizon():
    params = RoiParams(frac_compounding=0.5, alpha=0.2, horizon=0.0)
    traj = integrate_lc(params)
    assert len(traj.samples) == 1
    assert traj.final.rho_c == 1.0


def test_rk4_matches_implicit_solution():
    implicit = lc_implicit_solve(DEFAULT, 1.0)
    rk4 = integrate_lc(DEFAULT).final.l_c
    assert rk4 == pytest.approx(implicit, rel=1e-10)


def test_implicit_equation_residual_is_tiny():
    params = DEFAULT
    l_c = lc_implicit_solve(params, 1.0)
    residual = (
        l_c
        - params.l_c0
        + params.l_nc * math.log(l_c / params.l_c0)
        - params.alpha * params.l_total0 * 1.0
    )
    assert abs(residual) < 1e-10


@given(frac=fracs, alpha=alphas, t=times)
@settings(max_examples=50, deadline=None)
def test_rk4_and_implicit_agree(frac, alpha, t):
    params = RoiParams(frac_compounding=frac, alpha=alpha, horizon=t, step=1e-2)
    via_rk4 = roi_pair(params, t, method="rk4")
    via_root = roi_pair(params, t, method="implicit")
    assert via_rk4[0] == pytest.approx(via_root[0], rel=1e-7)
    assert via_rk4[1] == pytest.approx(via_root[1], rel=1e-7)


@given(frac=fracs, alpha=alphas)
@settings(max_examples=100, deadline=None)
def test_compounders_always_win(frac, alpha):
    params = RoiParams(frac_compounding=frac, alpha=alpha, horizon=1.0)
    rho_c, rho_nc = roi_pair(params, 1.0)
    assert rho_c >= rho_nc >= 1.0


def test_trajectory_is_monotone():
    traj = integrate_lc(RoiParams(frac_compounding=0.5, alpha=0.2, horizon=1.0, step=1e-2))
    for earlier, later in zip(traj.samples, traj.samples[1:]):
        assert later.l_c >= earlier.l_c
        assert later.rho_c >= earlier.rho_c
        assert later.fees_nc >= earlier.fees_nc


def test_fee_conservation_along_trajectory():
    # compounders' captured growth plus the holdouts' ledger equals total
    # fees generated at rate alpha * l_total0
    params = RoiParams(frac_compounding=0.75, alpha=0.4, horizon=2.0, step=1e-2)
    for sample in integrate_lc(params).samples:
        total = params.alpha * params.l_total0 * sample.t
        captured = (sample.l_c - params.l_c0) + sample.fees_nc
        assert captured == pytest.approx(total, rel=1e-10, abs=1e-12)


def test_all_compounding_limit():
    # frac = 1: fees just refill the pool linearly; holdout ROI follows
    # the 1 + ln(1 + alpha t) limit
    params = RoiParams(frac_compounding=1.0, alpha=0.2, horizon=1.0)
    rho_c, rho_nc = roi_pair(params, 1.0, method="rk4")
    assert rho_c == pytest.approx(1.2, rel=1e-12)
    assert rho_nc == pytest.approx(1 + math.log(1.2), rel=1e-12)


def test_no_compounding_limit():
    # frac = 0: a vanishing compounder grows exponentially, holdouts
    # collect plain linear fees
    params = RoiParams(frac_compounding=0.0, alpha=0.2, horizon=1.0)
    rho_c, rho_nc = roi_pair(params, 1.0, method="rk4")
    assert rho_c == pytest.approx(math.exp(0.2), rel=1e-12)
    assert rho_nc == pytest.approx(1.2, rel=1e-12)


def test_zero_alpha_is_flat():
    params = RoiParams(frac_compounding=0.5, alpha=0.0, horizon=2.0)
    rho_c, rho_nc = roi_pair(params, 2.0, method="rk4")
    assert (rho_c, rho_nc) == (1.0, 1.0)


def test_compounding_roi_decreases_with_participation():
    # more compounders dilute each other
    rhos = []
    for frac in (0.01, 0.5, 0.99):
        params = RoiParams(frac_compounding=frac, alpha=0.2, horizon=1.0)
        rhos.append(roi_pair(params, 1.0)[0])
    assert rhos[0] > rhos[1] > rhos[2]
    assert math.exp(0.2) > rhos[0]
    assert rhos[2] > 1.2


def test_implicit_solver_rejects_zero_compounders():
    params = RoiParams(frac_compounding=0.0, alpha=0.2, horizon=1.0)
    with pytest.raises(NonPositiveInput):
        lc_implicit_solve(params, 1.0)


def test_a_root_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr("cpamm.curves._ROOT_MAX_ITER", 1)
    with pytest.raises(NoConvergence, match="^Newton's method took 1 steps without settling$"):
        roi_pair(DEFAULT, 1.0)


@pytest.mark.parametrize("l_total0", [1.0, 1e-5, 7.3, 1e100])
@pytest.mark.parametrize("alpha", [0.2, 3.0])
def test_everyone_compounding_follows_the_linear_closed_form(alpha, l_total0):
    # L_c = L_c(0) + alpha L0 t exactly, and rho_c = 1 + alpha t.
    params = RoiParams(frac_compounding=1.0, alpha=alpha, horizon=1.1, l_total0=l_total0)
    want = params.l_c0 + alpha * l_total0 * 1.1
    assert lc_implicit_solve(params, 1.1) == want
    assert integrate_lc(params).final.l_c == want
    assert roi_pair(params, 1.1)[0] == 1 + alpha * 1.1


def test_everyone_compounding_keeps_a_finite_liquidity_where_alpha_t_overflows():
    # alpha t = 1e310 leaves float range; alpha L0 t = 1e10 does not.
    params = RoiParams(frac_compounding=1.0, alpha=1e300, horizon=1e10, l_total0=1e-300, step=1e9)
    assert lc_implicit_solve(params, 1e10) == 1e10
    samples = integrate_lc(params).samples
    assert samples[-1].l_c == 1e10
    assert [s.l_c for s in samples] == [1e-300 + 1e300 * 1e-300 * s.t for s in samples]


@pytest.mark.parametrize("frac, alpha, horizon, l_total0, step", [
    (1, 2, 1, 3, Fraction(1, 2)), (0, 2, 1, 3, 1), (Fraction(1, 2), 0, 1, 3, 1),
    (1, Fraction(3, 4), Fraction(7, 2), 5, Fraction(1, 4)), (0, 0, 0, Fraction(1, 7), 1),
])
def test_the_closed_form_of_exact_inputs_is_the_float_inputs_one(frac, alpha, horizon, l_total0,
                                                                   step):
    # Exact inputs gave ints and fractions: l_c=9 and rho_c=3 for the first
    # case, rho_nc = Fraction(1) for the last.  Each result here is exactly
    # a float, so the float inputs give the same.
    exact = RoiParams(frac, alpha, horizon, l_total0, step)
    floats = RoiParams(*map(float, (frac, alpha, horizon, l_total0, step)))
    final = integrate_lc(exact).final
    assert {type(v) for v in (final.l_c, final.rho_c, final.rho_nc, final.fees_nc)} == {float}
    assert final == replace(integrate_lc(floats).final, t=final.t)
    assert roi_pair(exact, horizon) == roi_pair(floats, float(horizon))
    if frac:
        solved = lc_implicit_solve(exact, horizon)
        assert type(solved) is float and solved == lc_implicit_solve(floats, float(horizon))


def test_the_closed_form_of_exact_inputs_is_rounded_once():
    # L_c(0) + alpha L0 t = 5 + 35/6, rounded to the nearest float; the same
    # sum on floats rounds at each step and lands one ulp below it.
    params = RoiParams(1, Fraction(1, 3), Fraction(7, 2), 5)
    assert lc_implicit_solve(params, params.horizon) == float(5 + Fraction(35, 6))
    assert integrate_lc(params).final.l_c == float(5 + Fraction(35, 6))


@pytest.mark.parametrize("frac", [1e-3, 0.5, 1.0])
def test_without_fees_the_compounders_keep_their_liquidity(frac):
    params = RoiParams(frac_compounding=frac, alpha=0.0, horizon=1.0, l_total0=7.3)
    assert lc_implicit_solve(params, 1.0) == params.l_c0
    assert integrate_lc(params).final.l_c == params.l_c0


#: Populations whose L_nc = (1 - frac) * L0 rounds to 0 though frac < 1.  In
#: the second, L_c(0) / 2 + L_nc / 2 was 0 too, and Newton's step divided by it.
UNDERFLOWED_HOLDOUTS = [
    RoiParams(frac_compounding=1 - 1e-15, alpha=1e300, horizon=1.0, l_total0=1e-310),
    RoiParams(frac_compounding=0.99, alpha=1.0, horizon=5e-324, l_total0=5e-324),
]


@pytest.mark.parametrize("params", UNDERFLOWED_HOLDOUTS, ids=["1e-310", "5e-324"])
def test_implicit_solver_with_an_underflowed_holdout_liquidity(params):
    # The root is L_c0 + alpha L0 t.
    assert params.l_nc == 0
    expected = params.l_c0 + params.alpha * params.l_total0
    assert lc_implicit_solve(params, 1.0) == pytest.approx(expected, rel=1e-12, abs=0)


def test_implicit_solver_near_the_top_of_float_range():
    # The bracket [L_c0, L_c0 + alpha L0 t] sums past the largest float here;
    # the equation is scale-free, so the ROI matches the unit-liquidity one.
    huge = RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0, l_total0=1e308)
    unit = RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0)
    for got, want in zip(roi_pair(huge, 1.0), roi_pair(unit, 1.0)):
        assert got == pytest.approx(want, rel=1e-12, abs=0)
    assert roi_pair(huge, 0.0) == (1.0, 1.0)


@pytest.mark.parametrize("params", [
    RoiParams(frac_compounding=1 - 1e-15, alpha=0.2, horizon=1.0, l_total0=1e-310),
    UNDERFLOWED_HOLDOUTS[1],
], ids=["1e-310", "5e-324"])
def test_roi_with_an_underflowed_holdout_liquidity_is_rejected(params):
    # L_nc rounds to 0 though frac < 1, so the holdouts' ROI has no denominator.
    with pytest.raises(NonPositiveInput, match="^holdout liquidity underflows to 0$"):
        roi_pair(params, 1.0)


@pytest.mark.parametrize(
    "solve", [lc_implicit_solve, roi_pair, lambda params, t: roi_pair(params, t, "rk4")]
)
@pytest.mark.parametrize("params, t", [
    (RoiParams(frac_compounding=0.5, alpha=1e300, horizon=1.0), 1e10),
    # Exact fees of 10**309 are past float range as the float 1e309 is.
    (RoiParams(frac_compounding=0.5, alpha=10**300, horizon=1, l_total0=10**8), 10),
], ids=["float", "exact"])
def test_a_time_past_the_horizon_whose_fees_overflow_is_rejected(solve, params, t):
    # RoiParams bounds alpha * L0 * horizon; a later t can still overflow it.
    with pytest.raises(NonPositiveInput, match="fees accrued"):
        solve(params, t)


@pytest.mark.parametrize("params", [
    DEFAULT,
    RoiParams(frac_compounding=1.0, alpha=0.2, horizon=1.0),
    RoiParams(frac_compounding=0.0, alpha=0.2, horizon=1.0),
    RoiParams(frac_compounding=0.5, alpha=0.0, horizon=1.0),
], ids=["mixed", "everyone compounding", "no one compounding", "no fees"])
def test_roi_pair_rejects_unknown_method(params):
    # The closed forms are a route too: the method is checked before any is taken.
    with pytest.raises(NonPositiveInput, match="^unknown method 'euler'"):
        roi_pair(params, 1.0, method="euler")


@pytest.mark.parametrize("method", ["implicit", "rk4"])
@pytest.mark.parametrize("eps", [1e-6, 1e-9])
def test_a_nearly_one_kind_population_lands_on_the_closed_form_limit(eps, method):
    # Either side of the seam between the ODE's routes and its closed forms.
    # The gaps are first order in eps: 0.012 to 0.022 eps at alpha t = 0.2.
    alpha, t = 0.2, 1.0
    for end, near, want in [
        (1.0, 1 - eps, (1 + alpha * t, 1 + math.log(1 + alpha * t))),
        (0.0, eps, (math.exp(alpha * t), 1 + alpha * t)),
    ]:
        at_end = roi_pair(RoiParams(frac_compounding=end, alpha=alpha, horizon=t), t, method)
        assert at_end == pytest.approx(want, rel=1e-15, abs=0)
        got = roi_pair(RoiParams(frac_compounding=near, alpha=alpha, horizon=t), t, method)
        assert got == pytest.approx(want, rel=0.03 * eps, abs=0)


@pytest.mark.parametrize("frac", [0.0, 0.5, 0.99, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.2])
@pytest.mark.parametrize("step, t", [(1e-2, 1.0), (0.3, 1.0), (2.5, 1.0), (7e-4, 1.3)])
def test_roi_pair_rk4_is_the_final_trajectory_point(frac, alpha, step, t):
    params = RoiParams(frac_compounding=frac, alpha=alpha, horizon=5.0, step=step)
    final = integrate_lc(replace(params, horizon=t)).final
    assert roi_pair(params, t, method="rk4") == (final.rho_c, final.rho_nc)


@pytest.mark.parametrize("frac", [1e-300, 1e-60, 1e-12])
def test_tiny_compounding_population_root_matches_rk4(frac):
    # The linear bracket [L_c0, L_c0 + alpha L0 t] spans up to 300 decades here.
    params = RoiParams(frac_compounding=frac, alpha=0.2, horizon=1.0)
    via_root = roi_pair(params, 1.0, method="implicit")
    via_rk4 = roi_pair(params, 1.0, method="rk4")
    assert via_root == pytest.approx(via_rk4, rel=1e-8)


def test_the_root_of_exact_parameters_is_solved_on_their_floats():
    # The exact ratio target / L_c(0) = 10**309 met math.log1p and overflowed.
    exact = lc_implicit_solve(RoiParams(Fraction(1, 10**307), 100, 1, 1), 1)
    assert exact == lc_implicit_solve(RoiParams(1e-307, 100.0, 1.0, 1.0), 1.0)
    assert math.isfinite(exact)


def test_an_rk4_state_past_float_range_is_rejected():
    # u = L_c / L_c(0) passed the largest float, and every field was nan.
    with pytest.raises(NonPositiveInput, match="RK4's state leaves float range by t = 1"):
        integrate_lc(RoiParams(5e-324, 1000, 1))
    with pytest.raises(NonPositiveInput, match="RK4's state leaves float range"):
        roi_pair(RoiParams(5e-324, 1000, 1), 1, "rk4")


def test_rk4_keeps_rho_c_for_a_subnormal_compounding_population():
    # L_c(0) = 1e-318 holds a few bits, so RK4 integrates in units of it.
    params = RoiParams(1e-318, 0.2, 1.0)
    assert roi_pair(params, 1.0, method="rk4")[0] == pytest.approx(math.exp(0.2), rel=1e-12)
    assert integrate_lc(params).final.rho_c == pytest.approx(math.exp(0.2), rel=1e-12)


@pytest.mark.parametrize("run", [integrate_lc, lambda params: roi_pair(params, 1.0, "rk4")])
@pytest.mark.parametrize("frac, alpha", [(0.5, 0.2), (1.0, 0.2), (0.0, 0.2), (0.5, 0.0)])
def test_rk4_step_count_is_bounded(run, frac, alpha):
    # The closed forms sample the same grid, so the bound holds for every population.
    params = RoiParams(frac_compounding=frac, alpha=alpha, horizon=1.0, step=1e-9)
    started = time.perf_counter()
    with pytest.raises(InvalidStep, match=str(MAX_RK4_STEPS)):
        run(params)
    assert time.perf_counter() - started < 1.0



# -- the solvers against references written with per-point closures ----------

def _outcome(solve, *args):
    """The result of ``solve(*args)``, or the type of the error it raises."""
    try:
        return solve(*args)
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return type(err)


def _reference_root(params, t):
    """Bisection with a ``gap`` closure per step, as the solver was first written."""
    l_c0, l_nc = params.l_c0, params.l_nc
    target = params.alpha * params.l_total0 * t

    def gap(l_c):
        return l_c - l_c0 + l_nc * math.log(l_c / l_c0) - target

    lo, hi = l_c0, l_c0 + target
    if math.log2(hi / lo) - math.log2(ROOT_REL_TOL) > 200:
        try:
            hi = min(hi, l_c0 * math.exp(target / l_nc))
        except (OverflowError, ZeroDivisionError):
            pass
    for _ in range(200):
        total = lo + hi
        mid = 0.5 * total if total < math.inf else 0.5 * lo + 0.5 * hi
        if hi - lo <= ROOT_REL_TOL * hi:
            return mid
        if gap(mid) < 0:
            lo = mid
        else:
            hi = mid
    raise NoConvergence("reference bisection did not converge")


def _exact_gap(params, t, l_c):
    """The implicit equation's left side minus its right at ``l_c``, to 50 digits."""
    with decimal.localcontext() as context:
        context.prec = 50
        l_c, l_c0 = decimal.Decimal(l_c), decimal.Decimal(params.l_c0)
        target = decimal.Decimal(params.alpha * params.l_total0 * t)
        return l_c - l_c0 + decimal.Decimal(params.l_nc) * (l_c / l_c0).ln() - target


def _decimal_roi(params, t):
    """``(rho_c, rho_nc)`` from a 50-digit bisection in ``v = ln(L_c / L_c(0))``
    of ``L_c(0) (e^v - 1) + L_nc v = alpha L0 t``, on the params' float values."""
    with decimal.localcontext() as context:
        context.prec = 50
        l_c0, l_nc = decimal.Decimal(params.l_c0), decimal.Decimal(params.l_nc)
        target = decimal.Decimal(params.alpha * params.l_total0 * t)
        lo, hi = decimal.Decimal(0), (1 + target / l_c0).ln()
        for _ in range(170):  # 2**-170 < 1e-51 of the first width
            mid = (lo + hi) / 2
            if l_c0 * (mid.exp() - 1) + l_nc * mid < target:
                lo = mid
            else:
                hi = mid
        return lo.exp(), 1 + lo


@pytest.mark.parametrize(
    "params",
    [
        DEFAULT,
        RoiParams(frac_compounding=1e-60, alpha=0.2, horizon=1.0),
        RoiParams(frac_compounding=2e-49, alpha=0.2, horizon=1.0),
        RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0, l_total0=1e308),
        RoiParams(frac_compounding=1e-318, alpha=0.2, horizon=1.0),
    ],
)
def test_implicit_roi_matches_a_50_digit_bisection(params):
    exact = _decimal_roi(params, 1.0)
    for got, want in zip(roi_pair(params, 1.0), exact):
        assert abs(decimal.Decimal(got) - want) <= want * decimal.Decimal("1e-15")


def test_the_root_is_scaled_where_its_fees_reach_the_largest_float():
    # L_nc * v passed the largest float on the first Newton step, and the
    # root ended in NoConvergence, an internal error.  h is homogeneous in
    # (L_c(0), L_nc, target), so the root of the scaled equation is v.
    params, t = RoiParams(1e-16, 1e-300, 5e-324, 1.7976931348623157e308), 1e300
    for got, want in zip(roi_pair(params, t), _decimal_roi(params, t)):
        assert abs(decimal.Decimal(got) - want) <= want * decimal.Decimal("1e-15")


def _reference_rk4(params, horizon):
    """``[(t, L_c / L_c(0), F_nc)]`` by RK4 on ``u = L_c / L_c(0)`` with a
    ``slopes`` closure per stage."""
    rate = params.alpha * params.l_total0
    l_c0, l_nc = params.l_c0, params.l_nc

    def slopes(u):
        r = rate / (l_c0 * u + l_nc)
        return r * u, r * l_nc

    times = _time_grid(horizon, params.step)
    u, fees_nc = 1.0, 0.0
    prev = next(times)
    points = [(prev, u, fees_nc)]
    for t in times:
        h = t - prev
        k1, j1 = slopes(u)
        k2, j2 = slopes(u + 0.5 * h * k1)
        k3, j3 = slopes(u + 0.5 * h * k2)
        k4, j4 = slopes(u + h * k3)
        u += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        fees_nc += h / 6 * (j1 + 2 * j2 + 2 * j3 + j4)
        points.append((t, u, fees_nc))
        prev = t
    return points


@given(
    frac=st.floats(min_value=1e-300, max_value=0.999999),
    alpha=st.floats(min_value=1e-6, max_value=50.0),
    t=times,
    l_total0=st.floats(min_value=1e-100, max_value=1e100),
)
@example(frac=1e-60, alpha=0.2, t=1.0, l_total0=1.0)  # capped bracket
@example(frac=0.99, alpha=0.2, t=1.0, l_total0=1e308)  # overflowing midpoint
@example(frac=0.5, alpha=0.2, t=0.0, l_total0=1.0)
@example(frac=2e-49, alpha=0.2, t=1.0, l_total0=1.0)  # the reference runs out of halvings
@settings(max_examples=300, deadline=None)
def test_implicit_root_matches_the_closure_bisection(frac, alpha, t, l_total0):
    if frac * l_total0 == 0:  # an L_c(0) that underflows to 0 is rejected up front
        with pytest.raises(NonPositiveInput):
            RoiParams(frac_compounding=frac, alpha=alpha, horizon=3.0, l_total0=l_total0)
        return
    params = RoiParams(frac_compounding=frac, alpha=alpha, horizon=3.0, l_total0=l_total0)
    got = _outcome(lc_implicit_solve, params, t)
    want = _outcome(_reference_root, params, t)
    if want is NoConvergence:
        # The equation changes sign within 4 ulps of the solver's root.
        assert math.isfinite(got)
        ulps = 4 * math.ulp(got)
        below = _exact_gap(params, t, max(got - ulps, params.l_c0))
        assert below <= 0 <= _exact_gap(params, t, got + ulps)
    elif isinstance(want, float):
        # Within the reference's own width; a subnormal root, to 4 of its ulps.
        assert got == pytest.approx(want, rel=ROOT_REL_TOL, abs=4 * math.ulp(want))
    else:
        assert got == want  # the same rejection


@given(
    frac=st.floats(min_value=1e-12, max_value=0.999),
    alpha=alphas,
    horizon=times,
    step=st.floats(min_value=1e-3, max_value=1.0),
    l_total0=st.floats(min_value=1e-6, max_value=1e6),
)
@example(frac=0.99, alpha=0.2, horizon=1.0, step=1e-3, l_total0=1.0)
@example(frac=0.5, alpha=0.2, horizon=1.2345, step=0.01, l_total0=1.0)
@example(frac=0.5, alpha=0.2, horizon=0.0, step=0.01, l_total0=1.0)
@settings(max_examples=200, deadline=None)
def test_rk4_matches_the_closure_integrator(frac, alpha, horizon, step, l_total0):
    params = RoiParams(frac, alpha, horizon=horizon, l_total0=l_total0, step=step)
    points = _reference_rk4(params, horizon)
    samples = integrate_lc(params).samples
    assert [(s.t, s.rho_c, s.fees_nc) for s in samples] == points
    for sample in samples:
        assert sample.l_c == params.l_c0 * sample.rho_c
        assert sample.rho_nc == 1 + sample.fees_nc / params.l_nc
    _, rho_c, fees_nc = points[-1]
    expected = (rho_c, 1 + fees_nc / params.l_nc)
    assert roi_pair(params, horizon, method="rk4") == expected
