"""Mixed-population compounding dynamics.

A pool with initial liquidity ``L0`` accrues fees at rate ``alpha * L0`` per
year.  Providers owning ``L_c`` of the liquidity continuously reinvest their
fee share, the rest (``L_nc``, constant) let fees pile up outside the pool.
Each instant the compounders capture the fraction ``L_c / (L_c + L_nc)`` of
the fee flow, so

    dL_c/dt = alpha * L0 * L_c / (L_c + L_nc).

Two independent solution paths are provided and cross-checked in tests:

* :func:`integrate_lc`, fixed-step RK4 on ``(L_c, F_nc)`` where ``F_nc`` is
  the fee flow to non-compounders, integrated alongside so fee conservation
  ``(L_c - L_c(0)) + F_nc = alpha * L0 * t`` is a measured property rather
  than a bookkeeping identity;
* :func:`lc_implicit_solve`, Newton's method in ``v = ln(L_c / L_c(0))`` on
  the separated-variables form ``L_c - L_c(0) + L_nc * v = alpha * L0 * t``,
  which gives ``F_nc = L_nc * v``: both ROIs exact to a few ulps.

Returns on investment: ``rho_c = L_c(t)/L_c(0)`` for compounders and
``rho_nc = 1 + F_nc/L_nc`` for the rest.  The all-of-one-kind populations
bypass the ODE: with everyone compounding, liquidity grows linearly and
``rho_c = 1 + alpha t``; with no one compounding, ``rho_nc = 1 + alpha t``.
The ROI of the vanishing population is reported as its analytic limit
(``rho_nc -> 1 + ln(1 + alpha t)`` and ``rho_c -> exp(alpha t)``), the
return a marginally small participant of that kind would see.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from .errors import (
    InvalidStep,
    NoConvergence,
    NonPositiveInput,
    non_negative,
    positive,
    unit_interval,
)

#: The implicit root stops after a Newton step below this fraction of its ``v``.
ROOT_REL_TOL = 1e-12
_ROOT_MAX_ITER = 200
_LOG_MAX = 709.782712893384  # ln of the largest float
#: Most RK4 steps one integration may take: a few seconds of work.
MAX_RK4_STEPS = 10**6


@dataclass(frozen=True)
class RoiParams:
    """Population split, fee accrual rate, and integration controls."""

    frac_compounding: float
    alpha: float
    horizon: float
    l_total0: float = 1.0
    step: float = 1e-3

    def __post_init__(self) -> None:
        unit_interval(NonPositiveInput, "compounding fraction", self.frac_compounding)
        non_negative(NonPositiveInput, "growth rate and horizon", self.alpha, self.horizon)
        positive(NonPositiveInput, "initial liquidity", self.l_total0)
        positive(InvalidStep, "integration step", self.step)
        # The root lies in [L_c(0), L_c(0) + alpha L0 t]: both must be positive floats.
        accrued = self.alpha * self.l_total0 * self.horizon
        non_negative(NonPositiveInput, "fees accrued alpha * L0 * horizon", accrued)
        if self.frac_compounding > 0:
            positive(NonPositiveInput, "compounding liquidity frac * L0", self.l_c0)

    @property
    def l_c0(self) -> float:
        return self.frac_compounding * self.l_total0

    @property
    def l_nc(self) -> float:
        return (1 - self.frac_compounding) * self.l_total0


@dataclass(frozen=True)
class RoiSample:
    """Time, compounders' liquidity, both ROIs and the holdouts' fees."""

    t: float
    l_c: float
    rho_c: float
    rho_nc: float
    fees_nc: float


@dataclass(frozen=True)
class RoiTrajectory:
    """Every sample of one integration, from ``t = 0`` to the horizon."""

    samples: Tuple[RoiSample, ...]

    @property
    def final(self) -> RoiSample:
        return self.samples[-1]


def _rho(
    frac: float, alpha: float, l_c0: float, l_nc: float, t: float, l_c: float, fees_nc: float
) -> Tuple[float, float]:
    """``(rho_c, rho_nc)`` at ``t`` from the state ``(L_c, F_nc)``.

    A vanishing population reports its analytic limit: a lone compounder
    grows against a fixed pool, a lone holdout earns the diluting fee share.
    """
    growth = alpha * t
    try:
        rho_c = math.exp(growth) if frac == 0 else l_c / l_c0
    except OverflowError as err:
        raise NonPositiveInput(f"exp(alpha * t) overflows at alpha * t = {growth}") from err
    if frac == 1:
        rho_nc = 1 + math.log(1 + growth)
    elif l_nc == 0:
        raise NonPositiveInput("holdout liquidity underflows to 0")
    else:
        rho_nc = 1 + fees_nc / l_nc
    return rho_c, rho_nc


def _is_linear(params: RoiParams) -> bool:
    return params.frac_compounding in (0, 1) or params.alpha == 0


def _closed_form(params: RoiParams, t: float) -> Tuple[float, float]:
    """``(L_c, F_nc)`` at ``t`` for the populations whose ODE is linear."""
    if params.frac_compounding == 1:
        return params.l_c0 + params.alpha * params.l_total0 * t, 0.0
    if params.frac_compounding == 0 and params.alpha != 0:
        return params.l_c0, params.alpha * params.l_total0 * t
    return params.l_c0, 0.0


def _time_grid(horizon: float, step: float) -> Iterator[float]:
    if horizon / step > MAX_RK4_STEPS:
        raise InvalidStep(f"{horizon} / {step} is more than {MAX_RK4_STEPS} RK4 steps")
    if horizon == 0:
        yield 0.0
        return
    whole = int(horizon / step)
    for i in range(whole):
        yield i * step
    if whole * step < horizon - 1e-12 * horizon:
        yield whole * step
    yield horizon


def _trajectory(params: RoiParams, horizon: float) -> Iterator[Tuple[float, float, float]]:
    """Yield ``(t, L_c, F_nc)`` at every grid point from 0 to ``horizon``,
    by RK4 with the params' step or by the closed form when the ODE is linear.
    """
    times = _time_grid(horizon, params.step)
    if _is_linear(params):
        for t in times:
            yield (t, *_closed_form(params, t))
        return

    rate = params.alpha * params.l_total0
    l_nc = params.l_nc
    l_c = params.l_c0
    fees_nc = 0.0
    prev = next(times)
    yield prev, l_c, fees_nc
    # RK4 on (L_c, F_nc) with slopes rate * share and rate * (1 - share),
    # where share = L_c / (L_c + L_nc) at each stage.
    for t in times:
        h = t - prev
        half = 0.5 * h
        share = l_c / (l_c + l_nc)
        k1, j1 = rate * share, rate * (1 - share)
        stage = l_c + half * k1
        share = stage / (stage + l_nc)
        k2, j2 = rate * share, rate * (1 - share)
        stage = l_c + half * k2
        share = stage / (stage + l_nc)
        k3, j3 = rate * share, rate * (1 - share)
        stage = l_c + h * k3
        share = stage / (stage + l_nc)
        k4, j4 = rate * share, rate * (1 - share)
        sixth = h / 6
        l_c += sixth * (k1 + 2 * k2 + 2 * k3 + k4)
        fees_nc += sixth * (j1 + 2 * j2 + 2 * j3 + j4)
        yield t, l_c, fees_nc
        prev = t


def integrate_lc(params: RoiParams) -> RoiTrajectory:
    """Integrate the compounding ODE with fixed-step RK4 over the horizon.

    Every step is recorded.  The final sample lands exactly on the horizon
    (the last step is shortened if needed).
    """
    fixed = params.frac_compounding, params.alpha, params.l_c0, params.l_nc
    return RoiTrajectory(
        samples=tuple(
            RoiSample(t, l_c, *_rho(*fixed, t, l_c, fees_nc), fees_nc)
            for t, l_c, fees_nc in _trajectory(params, params.horizon)
        )
    )


def _root(l_c0: float, l_nc: float, target: float) -> Tuple[float, float]:
    """``(L_c, v)`` for ``v = ln(L_c / L_c(0))`` solving ``h(v) = L_c(0) (e^v - 1)
    + L_nc v - target = 0`` by Newton's method (see :func:`lc_implicit_solve`).

    ``h`` is increasing and convex, and ``h >= 0`` where either growing term alone
    reaches the target: from there the iterates fall onto the root.
    """
    ratio = target / l_c0
    v = math.log1p(ratio) if ratio < math.inf else math.log(target) - math.log(l_c0)
    v = min(v, target / l_nc) if l_nc else v
    expm1, half_total, step = math.expm1, 0.5 * l_c0 + 0.5 * l_nc, math.inf
    for _ in range(_ROOT_MAX_ITER):
        try:
            grown = l_c0 * expm1(v)
        except OverflowError:  # e^v leaves float range, L_c need not
            grown = math.exp(min(math.log(l_c0) + v, _LOG_MAX)) - l_c0
        if step <= ROOT_REL_TOL * v:
            return l_c0 + grown, v
        # h / h', both halved so that L_c + L_nc may pass the largest float.
        step = 0.5 * (grown - target + l_nc * v) / (0.5 * grown + half_total)
        v -= step
    raise NoConvergence(f"Newton's method took {_ROOT_MAX_ITER} steps without settling")


def lc_implicit_solve(params: RoiParams, t: float) -> float:
    """Compounders' liquidity at ``t`` from the separated-variables equation.

    The left-hand side is strictly increasing in ``L_c``, so the root is
    unique.  Requires a non-empty compounding population and fees
    ``alpha L0 t`` within float range.
    """
    if params.frac_compounding == 0:
        raise NonPositiveInput("no compounding population; the equation degenerates")
    non_negative(NonPositiveInput, "time", t)
    target = params.alpha * params.l_total0 * t
    non_negative(NonPositiveInput, "fees accrued alpha * L0 * t", target)
    if _is_linear(params):
        return _closed_form(params, t)[0]
    return _root(params.l_c0, params.l_nc, target)[0]


def _roi_series(
    params: RoiParams, times: Iterable[float], method: str = "implicit"
) -> Iterator[Tuple[float, float]]:
    """``(rho_c, rho_nc)`` at each of ``times`` (each finite and >= 0), by
    ``method``, on plain numbers read from ``params`` once."""
    frac, alpha = params.frac_compounding, params.alpha
    l_c0, l_nc = params.l_c0, params.l_nc
    rate = alpha * params.l_total0
    linear = _is_linear(params)
    for t in times:
        if not rate * t < math.inf:  # a t past the horizon can overflow the fees
            non_negative(NonPositiveInput, "fees accrued alpha * L0 * t", rate * t)
        if linear:
            l_c, fees_nc = _closed_form(params, t)
        elif method == "implicit":
            l_c, v = _root(l_c0, l_nc, rate * t)
            fees_nc = l_nc * v
        elif method == "rk4":
            _, l_c, fees_nc = deque(_trajectory(params, t), maxlen=1)[0]
        else:
            raise NonPositiveInput(f"unknown method {method!r}; use 'implicit' or 'rk4'")
        yield _rho(frac, alpha, l_c0, l_nc, t, l_c, fees_nc)


def roi_pair(params: RoiParams, t: float, method: str = "implicit") -> Tuple[float, float]:
    """Both populations' ROI at time ``t``.

    ``method`` picks the solution path for ``L_c``: ``"implicit"`` (default)
    solves the implicit equation, ``"rk4"`` integrates to ``t`` with the
    params' step.  The two agree to well below 1e-8 relative.
    """
    non_negative(NonPositiveInput, "time", t)
    return next(_roi_series(params, (t,), method))
