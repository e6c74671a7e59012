"""Plain-number engine of the analytics, the compounding model and the figures.

Three layers wrap it: :mod:`cpamm.analytics` (``_il``, ``_held``,
``_compounded``, ``_collected``, and ``_il_replay``, the numeric core of
``il_brute_force``), :mod:`cpamm.compounding` (``_states``, the one place
that picks how the ODE is solved, ``_rho`` and ``_roi_pair``) and
:mod:`cpamm.figures` (``_FIGURES``, its row functions, ``_check_rows`` and
``_figure_chunks``).  ``_check_prices``, ``_check_growth``, ``_roi_params``
and ``_figure_spec`` are the checks of ``PriceScenario``, ``GrowthParams``,
``RoiParams`` and ``FigureSpec``, whose ``__post_init__`` calls them.

Everything here takes and returns floats and tuples, never those public
types.  The ODE's solvers take the tuple ``p = (frac_compounding, alpha,
l_total0, step)`` that ``_roi_params`` returns, and a figure's row functions
read their spec's fields by name, from a ``FigureSpec`` or from the plain
namespace ``_figure_spec`` returns.  The ``il``, ``evolve``, ``roi`` and
``emit-figure`` commands run this module alone: it loads neither
``dataclasses`` nor ``fractions``, nor the pool, whose kernel
``_il_replay`` imports when it runs.
"""

import math
import sys
from bisect import bisect_left
from collections import deque
from itertools import islice
from types import SimpleNamespace

from .errors import (
    DomainError,
    InputError,
    InternalError,
    InvalidStep,
    NoConvergence,
    NonPositiveDelta,
    NonPositiveInput,
    NonPositivePrice,
    RateMismatch,
    float_geometric_mean,
    non_negative,
    positive,
    unit_interval,
)

# -- analytics -----------------------------------------------------------------

#: Opening price of each token where a ``PriceScenario`` names none.
_PRICE0 = 1.0


def _check_prices(delta_x, delta_y, p_x0=_PRICE0, p_y0=_PRICE0) -> None:
    """``PriceScenario``'s checks, on its fields and their defaults."""
    positive(NonPositiveDelta, "price changes", delta_x, delta_y)
    positive(NonPositivePrice, "prices", p_x0, p_y0)


def _check_growth(alpha, t) -> None:
    """``GrowthParams``' check."""
    non_negative(NonPositiveInput, "growth rate and time", alpha, t)


def _il(dx: float, dy: float) -> tuple:
    """``(v_pooled, v_held, relative_loss)`` for price changes ``dx`` and ``dy``."""
    # Normalized to an initial portfolio value of 1, half of it in each token.
    v_held = _held(dx, dy)
    # At most 0 by AM-GM; rounding the sum down can leave one ulp above it.
    loss = min(float_geometric_mean(dx, dy) / v_held - 1, 0.0)
    # sqrt(dy) / sqrt(dx), not sqrt(dy / dx): the ratio may leave float range.
    v_pooled = dx * (math.sqrt(dy) / math.sqrt(dx))
    return v_pooled, v_held, loss


def _il_replay(x, y, delta_x, delta_y, p_x0=_PRICE0, p_y0=_PRICE0) -> tuple:
    """``(v_pooled, v_held, relative_loss)`` measured on an active pool of
    reserves ``x`` and ``y``: it must sit on the market rate ``p_y0 / p_x0``,
    a fee-free arbitrage drags it onto the moved rate, and both portfolios
    are valued at the moved prices, relative to the pool's opening value."""
    from .kernel import _arbitrage, _require_rate, _value

    _require_rate(RateMismatch, x, y, p_y0 / p_x0)
    p_x1, p_y1 = delta_x * p_x0, delta_y * p_y0
    new_x, new_y = _arbitrage(x, y, p_y1 / p_x1)
    v0 = _value(x, y, p_x0, p_y0)
    v_pooled = _value(new_x, new_y, p_x1, p_y1) / v0
    v_held = _value(x, y, p_x1, p_y1) / v0
    return v_pooled, v_held, (v_pooled - v_held) / v_held


def _held(dx: float, dy: float) -> float:
    """``(dx + dy) / 2``, halved first only where the sum passes the largest
    float: halving a subnormal ``dx`` first would drop its last bit."""
    total = dx + dy
    return total / 2 if total <= _FLOAT_MAX else dx / 2 + dy / 2


def _compounded(dx: float, dy: float, growth: float) -> float:
    """Compounded evolution at price changes ``dx``, ``dy`` and ``alpha * t``."""
    return float_geometric_mean(dx, dy) * (1 + growth)


def _collected(dx: float, dy: float, growth: float) -> float:
    """Collected evolution at price changes ``dx``, ``dy`` and ``alpha * t``."""
    return float_geometric_mean(dx, dy) + growth * _held(dx, dy)


# -- compounding ---------------------------------------------------------------

#: The implicit root stops after a Newton step below this fraction of its ``v``.
ROOT_REL_TOL = 1e-12
_ROOT_MAX_ITER = 200
_FLOAT_MAX = sys.float_info.max
_LOG_MAX = 709.782712893384  # ln of the largest float
#: Most RK4 steps one integration may take: a few seconds of work.
MAX_RK4_STEPS = 10**6
#: ``RoiParams``' default initial liquidity and RK4 step.
_L_TOTAL0 = 1.0
_STEP = 1e-3


def _roi_params(frac_compounding, alpha, horizon, l_total0=_L_TOTAL0, step=_STEP) -> tuple:
    """``RoiParams``' checks, on its fields and their defaults; returns the
    solvers' ``p = (frac_compounding, alpha, l_total0, step)``."""
    unit_interval(NonPositiveInput, "compounding fraction", frac_compounding)
    non_negative(NonPositiveInput, "growth rate and horizon", alpha, horizon)
    positive(NonPositiveInput, "initial liquidity", l_total0)
    positive(InvalidStep, "integration step", step)
    # The root lies in [L_c(0), L_c(0) + alpha L0 t]: both must be positive
    # floats, and every solver scales the fee rate alpha L0 by a time.
    rate = alpha * l_total0
    try:
        accrued = rate * horizon
    except OverflowError:  # an exact rate past float range meets a float horizon
        accrued = math.inf
    non_negative(NonPositiveInput, "fees accrued alpha * L0 * horizon", accrued)
    non_negative(NonPositiveInput, "fee rate alpha * L0", rate)
    if frac_compounding > 0:
        positive(NonPositiveInput, "compounding liquidity frac * L0", frac_compounding * l_total0)
    return frac_compounding, alpha, l_total0, step


def _rho(frac: float, alpha: float, l_nc: float, t: float, u: float, fees_nc: float) -> tuple:
    """``(rho_c, rho_nc)`` at ``t`` from the state ``(u, F_nc)`` that every
    route reports, where ``u = L_c / L_c(0)`` is ``rho_c`` itself.

    A vanishing population reports its analytic limit: a lone compounder
    grows against a fixed pool, a lone holdout earns the diluting fee share.
    """
    growth = alpha * t
    try:
        rho_c = math.exp(growth) if frac == 0 else u
    except OverflowError as err:
        raise NonPositiveInput(f"exp(alpha * t) overflows at alpha * t = {growth}") from err
    if frac == 1:
        rho_nc = 1 + math.log(1 + growth)
    elif l_nc == 0:
        raise NonPositiveInput("holdout liquidity underflows to 0")
    else:
        rho_nc = 1 + fees_nc / l_nc
    return rho_c, rho_nc


def _closed_form(p: tuple, t: float) -> tuple:
    """``(L_c, u, F_nc)`` at ``t`` for the populations whose ODE is linear:
    the compounders take every fee, or ``L_c`` stays at ``L_c(0)``.  ``L_c``
    is by fee conservation: ``L_c(0) * u`` would overflow where ``alpha t``
    does and ``alpha L0 t`` does not."""
    frac, alpha, l_total0, _ = p
    fees = alpha * l_total0 * t
    if frac == 1:
        return frac * l_total0 + fees, 1 + alpha * t, 0.0
    return frac * l_total0, 1.0, fees


def _time_grid(horizon: float, step: float):
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


def _rk4(rate: float, l_c0: float, l_nc: float, times):
    """Yield the state at each of ``times``, a grid from 0, by RK4 on
    ``(u, F_nc)``: ``u`` rather than ``L_c``, which would keep only the few
    bits of a subnormal ``L_c(0)``.  The ODE must not be linear."""
    u = 1.0
    fees_nc = 0.0
    prev = next(times)
    yield prev, l_c0 * u, u, fees_nc
    # RK4 on (u, F_nc) with slopes r * u and r * L_nc, where
    # r = rate / (L_c(0) * u + L_nc) at each stage.
    for t in times:
        h = t - prev
        half = 0.5 * h
        r = rate / (l_c0 * u + l_nc)
        k1, j1 = r * u, r * l_nc
        stage = u + half * k1
        r = rate / (l_c0 * stage + l_nc)
        k2, j2 = r * stage, r * l_nc
        stage = u + half * k2
        r = rate / (l_c0 * stage + l_nc)
        k3, j3 = r * stage, r * l_nc
        stage = u + h * k3
        r = rate / (l_c0 * stage + l_nc)
        k4, j4 = r * stage, r * l_nc
        sixth = h / 6
        u += sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        fees_nc += sixth * (j1 + 2.0 * j2 + 2.0 * j3 + j4)
        yield t, l_c0 * u, u, fees_nc
        prev = t


def _root(l_c0: float, l_nc: float, target: float) -> tuple:
    """``(L_c, v)`` for ``v = ln(L_c / L_c(0))`` solving ``h(v) = L_c(0) (e^v - 1)
    + L_nc v - target = 0`` by Newton's method (see
    :func:`cpamm.compounding.lc_implicit_solve`).

    ``h`` is increasing and convex, and ``h >= 0`` where either growing term alone
    reaches the target: from there the iterates fall onto the root.  With no
    fees accrued the root is ``v = 0`` itself, which Newton's method cannot
    reach where ``L_c(0) / 2 + L_nc / 2`` underflows to 0.
    """
    if not target:
        return l_c0, 0.0
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


def _states(p: tuple, times, method: str = "implicit"):
    """Yield the state ``(t, L_c, u, F_nc)`` on the way to each of ``times``
    (each >= 0) by ``method``, where ``u = L_c / L_c(0)``.

    This is the one place that picks a route.  ``"implicit"`` yields the
    state at each time, by the root; ``"rk4"`` yields it at every point of
    the step grid from 0 to each time.  Where the ODE is linear both take
    the closed form at those points.
    """
    if method not in ("implicit", "rk4"):
        raise NonPositiveInput(f"unknown method {method!r}; use 'implicit' or 'rk4'")
    frac, alpha, l_total0, step = p
    l_c0, l_nc = frac * l_total0, (1 - frac) * l_total0
    rate = alpha * l_total0
    linear = frac in (0, 1) or alpha == 0
    for t in times:
        fees = rate * t
        if not fees <= _FLOAT_MAX:  # a t past the horizon can overflow the fees
            non_negative(NonPositiveInput, "fees accrued alpha * L0 * t", fees)
        if linear:
            grid = _time_grid(t, step) if method == "rk4" else (t,)
            yield from ((s, *_closed_form(p, s)) for s in grid)
        elif method == "rk4":
            yield from _rk4(rate, l_c0, l_nc, _time_grid(t, step))
        else:
            # u = e^v: L_c / L_c(0) would keep only the few bits of a subnormal
            # L_c(0).  Past float range it is inf, which every caller rejects
            # as it rejects an infinite ratio.
            l_c, v = _root(l_c0, l_nc, fees)
            yield t, l_c, math.exp(v) if v <= _LOG_MAX else math.inf, l_nc * v


def _roi_pair(p: tuple, t: float, method: str = "implicit") -> tuple:
    """Both populations' ROI at time ``t`` (see :func:`cpamm.compounding.roi_pair`)."""
    non_negative(NonPositiveInput, "time", t)
    frac, alpha, l_total0, _ = p
    _, _, u, fees_nc = deque(_states(p, (t,), method), maxlen=1)[0]
    return _rho(frac, alpha, (1 - frac) * l_total0, t, u, fees_nc)


# -- figures -------------------------------------------------------------------

#: Most grid points one figure may have.  In process a figure this long
#: takes 3 to 6 s, by figure and host load (2-vCPU VM, Python 3.11).
MAX_FIGURE_ROWS = 10**6

#: Rows joined, checked and written at a time: about 76 kB of four-column
#: rows, the most of a figure ever held.
_CHUNK_LINES = 1024

#: ``FigureSpec``'s default model parameters: the paper's.
_FIGURE_ALPHA = 0.2
_FIGURE_T = 1.0
_FIGURE_FRAC_COMPOUNDING = 0.99
_ROI_COMPOUNDING_PCT = 20.02
_ROI_NOT_COMPOUNDING_PCT = 18.2


def _item(value):
    """The Python number a NumPy scalar holds (its repr is a float's), else ``value``."""
    return value.item() if hasattr(value, "dtype") else value


def _figure_spec(figure_id, domain_grid, alpha=_FIGURE_ALPHA, t=_FIGURE_T,
                 frac_compounding=_FIGURE_FRAC_COMPOUNDING,
                 roi_compounding_pct=_ROI_COMPOUNDING_PCT,
                 roi_not_compounding_pct=_ROI_NOT_COMPOUNDING_PCT) -> SimpleNamespace:
    """``FigureSpec``'s checks, on its fields and their defaults; returns the
    fields as a namespace, each NumPy scalar as its Python number."""
    if figure_id not in _FIGURES:
        raise DomainError(f"unknown figure id {figure_id!r}")
    lo, hi, count = grid = tuple(map(_item, domain_grid))
    spec = SimpleNamespace(
        figure_id=figure_id, domain_grid=grid, alpha=_item(alpha), t=_item(t),
        frac_compounding=_item(frac_compounding), roi_compounding_pct=_item(roi_compounding_pct),
        roi_not_compounding_pct=_item(roi_not_compounding_pct),
    )
    if count < 2:
        raise DomainError(f"need at least 2 grid points, got {count}")
    if not lo < hi:
        raise DomainError(f"empty grid range [{lo}, {hi}]")
    if figure_id == "roi_comparison":
        non_negative(DomainError, "time axis ends", lo, hi)
    else:
        # Rows move prices by 1 + p / 100 (_price_rows); an exact end past float range is inf.
        lo, hi = (p if abs(p) <= sys.float_info.max else float("inf") for p in (lo, hi))
        positive(DomainError, "grid price factors 1 + p/100", 1 + lo / 100, 1 + hi / 100)
    rois = (spec.roi_compounding_pct, spec.roi_not_compounding_pct)
    non_negative(DomainError, "alpha, t and the ROI percentages", spec.alpha, spec.t, *rois)
    unit_interval(DomainError, "frac_compounding", spec.frac_compounding)
    if count > MAX_FIGURE_ROWS:
        raise DomainError(f"{count} grid points is more than {MAX_FIGURE_ROWS}")
    return spec


def _grid(spec, start: int = 0):
    """The grid points from index ``start`` on, the last exactly ``hi`` and the largest."""
    lo, hi, count = spec.domain_grid
    step = (hi - lo) / (count - 1)
    for i in range(start, count - 1):
        yield lo + i * step
    yield hi


def _price_rows(points):
    """``(pct, delta_y)`` per grid point, ``delta_x`` being 1.

    ``_figure_spec`` keeps both grid ends' price factors in (0, inf) and the
    grid is monotone, so every ``delta_y`` is in range too.
    """
    return ((pct, 1.0 + pct / 100.0) for pct in map(float, points))


def _il_rows(spec, points):
    il = _il
    return (f"{pct!r},{il(1.0, dy)[2] * 100.0!r}" for pct, dy in _price_rows(points))


def _portfolio_rows(spec, points):
    il = _il
    return (
        f"{pct!r},{v_held * 100.0!r},{v_pooled * 100.0!r}"
        for pct, dy in _price_rows(points)
        for v_pooled, v_held, _ in [il(1.0, dy)]
    )


def _fee_model_rows(points, growth_c: float, growth_nc: float):
    """Held, compounded and collected lines; ``growth_c`` and ``growth_nc``
    are the ``alpha * t`` of the last two curves."""
    held, compounded, collected = _held, _compounded, _collected
    return (
        f"{pct!r},{held(1.0, dy) * 100.0!r},{compounded(1.0, dy, growth_c) * 100.0!r},"
        f"{collected(1.0, dy, growth_nc) * 100.0!r}"
        for pct, dy in _price_rows(points)
    )


def _fee_model_comparison_rows(spec, points):
    growth = spec.alpha * spec.t
    return _fee_model_rows(points, growth, growth)


def _roi_rows(spec, points):
    p = frac, alpha, l_total0, _ = _roi_params(
        spec.frac_compounding, spec.alpha, spec.domain_grid[1])
    l_nc, rho = (1 - frac) * l_total0, _rho
    return (
        f"{float(t)!r},{(rho_c - 1.0) * 100.0!r},{(rho_nc - 1.0) * 100.0!r}"
        for t, _, u, fees_nc in _states(p, points)
        for rho_c, rho_nc in [rho(frac, alpha, l_nc, t, u, fees_nc)]
    )


def _corrected_rows(spec, points):
    # The fee-model comparison with alpha * t replaced by the one-year ROIs.
    growth_c, growth_nc = spec.roi_compounding_pct / 100, spec.roi_not_compounding_pct / 100
    return _fee_model_rows(points, growth_c, growth_nc)


#: Each figure id with its stock grid, its header and its row function,
#: which renders the given grid points as CSV lines, in display order.
_FIGURES = {
    "il_one_coin": ((-99.0, 200.0, 300), "price_change_pct,il_pct", _il_rows),
    "portfolio_one_coin": (
        (-99.0, 200.0, 300),
        "price_change_pct,not_investing,providing_liquidity",
        _portfolio_rows,
    ),
    "fee_model_comparison": (
        (-99.0, 300.0, 400),
        "price_change_pct,not_investing,uniswap_v2,beaker",
        _fee_model_comparison_rows,
    ),
    "roi_comparison": ((0.0, 1.0, 101), "time,compounding,not_compounding", _roi_rows),
    "corrected_fee_model_comparison": (
        (-99.0, 150.0, 250),
        "price_change_pct,not_investing,compounding,not_compounding",
        _corrected_rows,
    ),
}


def _check_rows(spec, rows) -> None:
    """Raise what streaming the figure would raise at its first failing row,
    rendering about ``2 * log2(count)`` rows, each alone.

    ``probe`` ranks a row 0 if it is whole, 1 if a cell is not finite or an
    exact value leaves float range on the way (``ArithmeticError``), and 2
    if it raises its own ``InputError``.  The rank never falls as the grid
    point grows, so a whole last row passes the figure, and otherwise
    bisection finds the first failing row:

    * ``held``, ``compounded``, ``collected``, ``v_held`` and ``v_pooled``
      never decrease as ``1 + pct/100`` grows: each is built from sums,
      products, quotients and roots of non-negative values with
      non-negative constants, and IEEE rounding is monotone.  The same holds
      for every intermediate value, so none overflows before the last row's.
    * ``il_pct`` always lies in [-100, 0].
    * ``rho_c``, ``rho_nc`` and ``exp(alpha * t)``, which raises past float
      range, increase with ``t``; the implicit root's rounding wobble, about
      1e-15 relative, could only matter that close to the largest float.
    * ``hi`` is the largest grid point.  For ``i <= count - 2``, ``lo +
      i*step <= hi`` while ``count <= MAX_FIGURE_ROWS``: ``hi - lo``,
      ``step`` and ``i*step`` each round by at most 2**-53 relative, and
      ``(1 + 2**-53)**3 < 1 + 1/(count - 2)``.  Int ends round no more
      than floats, and with ``Fraction`` ends the arithmetic is exact.

    The stream renders a whole chunk before it scans it, so a row in the
    first failing row's chunk that raises its own error comes first.
    """
    def probe(i: int):
        x = next(_grid(spec, i))
        try:
            line = next(rows(spec, (x,)))
        except InputError as err:
            return 2, err
        except ArithmeticError:
            line = "n"
        error = DomainError(f"{spec.figure_id} leaves float range at x = {x}")
        return (1, error) if "n" in line else (0, None)

    last = spec.domain_grid[2] - 1
    if probe(last)[0]:
        first = bisect_left(range(last), 1, key=lambda i: probe(i)[0])
        end = min((first // _CHUNK_LINES + 1) * _CHUNK_LINES - 1, last)
        raising = first + bisect_left(range(first, end + 1), 2, key=lambda i: probe(i)[0])
        raise probe(raising if raising <= end else first)[1]


def _figure_chunks(spec):
    """The figure's CSV text in pieces that concatenate to it, made as they
    are asked for: the header line, then up to ``_CHUNK_LINES`` rows each.

    ``_check_rows`` runs before the header is given, so a caller that writes
    the pieces writes all of the figure or none of it.  A chunk that fails
    once the checks have passed raises ``InternalError``.
    """
    _, header, rows = _FIGURES[spec.figure_id]
    _check_rows(spec, rows)
    yield header + "\n"
    lines = rows(spec, _grid(spec))
    try:
        while block := list(islice(lines, _CHUNK_LINES)):
            block.append("")
            chunk = "\n".join(block)
            if "n" in chunk:  # of all float reprs only "inf" and "nan" hold an "n"
                raise DomainError("a row holds inf or nan")
            yield chunk
    except InputError as err:
        raise InternalError(f"{spec.figure_id} failed after its checks passed: {err}") from err
