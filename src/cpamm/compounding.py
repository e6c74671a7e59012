"""Mixed-population compounding dynamics.

A pool with initial liquidity ``L0`` accrues fees at rate ``alpha * L0`` per
year.  Providers owning ``L_c`` of the liquidity continuously reinvest their
fee share, the rest (``L_nc``, constant) let fees pile up outside the pool.
Each instant the compounders capture the fraction ``L_c / (L_c + L_nc)`` of
the fee flow, so

    dL_c/dt = alpha * L0 * L_c / (L_c + L_nc).

Two independent solution paths are provided and cross-checked in tests:

* :func:`integrate_lc`, fixed-step RK4 on ``(L_c / L_c(0), F_nc)`` where
  ``F_nc`` is the fee flow to non-compounders, integrated alongside so fee
  conservation ``(L_c - L_c(0)) + F_nc = alpha * L0 * t`` is a measured
  property rather than a bookkeeping identity;
* :func:`lc_implicit_solve`, Newton's method in ``v = ln(L_c / L_c(0))`` on
  the separated-variables form ``L_c - L_c(0) + L_nc * v = alpha * L0 * t``,
  which gives ``F_nc = L_nc * v``: both ROIs exact to a few ulps.

Every route reports the state ``(L_c, u, F_nc)``, where
``u = L_c / L_c(0)``.  RK4 gives ``L_c`` as ``L_c(0) * u``; the root and
the closed forms below give it by fee conservation, which stays finite
where ``u`` overflows.  Returns on investment: ``rho_c = u`` for
compounders and ``rho_nc = 1 + F_nc/L_nc`` for the rest.  The
all-of-one-kind populations bypass the ODE: with everyone compounding,
liquidity grows linearly and ``rho_c = 1 + alpha t``; with no one
compounding, ``rho_nc = 1 + alpha t``.
The ROI of the vanishing population is reported as its analytic limit
(``rho_nc -> 1 + ln(1 + alpha t)`` and ``rho_c -> exp(alpha t)``), the
return a marginally small participant of that kind would see.

This module holds the public types and thin functions over the engine
:mod:`cpamm.curves`, which solves the ODE on plain floats and holds the
checks of :class:`RoiParams`: each function here reads the states that
``curves._states``, the one place that picks a route, yields.  The ``roi``
command runs the engine alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .curves import (  # MAX_RK4_STEPS and ROOT_REL_TOL: public as compounding.<name>
    MAX_RK4_STEPS,
    ROOT_REL_TOL,
    _L_TOTAL0,
    _STEP,
    _rho,
    _roi_pair,
    _roi_params,
    _states,
)
from .errors import NonPositiveInput, non_negative


@dataclass(frozen=True)
class RoiParams:
    """Population split, fee accrual rate, and integration controls."""

    frac_compounding: float
    alpha: float
    horizon: float
    l_total0: float = _L_TOTAL0
    step: float = _STEP

    def __post_init__(self) -> None:
        _roi_params(self.frac_compounding, self.alpha, self.horizon, self.l_total0, self.step)

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


def _solver(params: RoiParams) -> tuple:
    """The engine's ``p = (frac_compounding, alpha, l_total0, step)`` of ``params``."""
    return params.frac_compounding, params.alpha, params.l_total0, params.step


def integrate_lc(params: RoiParams) -> RoiTrajectory:
    """Integrate the compounding ODE with fixed-step RK4 over the horizon.

    Every step is recorded.  The final sample lands exactly on the horizon
    (the last step is shortened if needed).  Where the ODE is linear the
    samples come from the closed form on the same grid.
    """
    frac, alpha, l_nc = params.frac_compounding, params.alpha, params.l_nc
    return RoiTrajectory(
        samples=tuple(
            RoiSample(t, l_c, *_rho(frac, alpha, l_nc, t, u, fees_nc), fees_nc)
            for t, l_c, u, fees_nc in _states(_solver(params), (params.horizon,), "rk4")
        )
    )


def lc_implicit_solve(params: RoiParams, t: float) -> float:
    """Compounders' liquidity at ``t`` from the separated-variables equation.

    The left-hand side is strictly increasing in ``L_c``, so the root is
    unique.  Requires a non-empty compounding population and fees
    ``alpha L0 t`` within float range.
    """
    if params.frac_compounding == 0:
        raise NonPositiveInput("no compounding population; the equation degenerates")
    non_negative(NonPositiveInput, "time", t)
    return next(_states(_solver(params), (t,)))[1]


def roi_pair(params: RoiParams, t: float, method: str = "implicit") -> Tuple[float, float]:
    """Both populations' ROI at time ``t``.

    ``method`` picks the solution path for ``L_c``: ``"implicit"`` (default)
    solves the implicit equation, ``"rk4"`` integrates to ``t`` with the
    params' step.  The two agree to well below 1e-8 relative.
    """
    return _roi_pair(_solver(params), t, method)
