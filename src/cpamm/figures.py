"""Deterministic CSV emitters for the five analysis figures.

Each figure is a table with one header row and one row per grid point, fed
by the same analytics and simulation code the rest of the package uses.
Output is plain CSV so plotting stays external.  Each figure's row function
renders grid points into CSV lines as it computes them, every number by
``repr``, so repeated runs are bit-identical.  A figure is checked before
its first byte and then streamed: its last row bounds every other, and only
when that row fails does a bisection find the first row that does.

Figure ids and their series:

====================================  ==============================================
``il_one_coin``                       impermanent loss (percent) vs price change
``portfolio_one_coin``                pooled vs held portfolio value (percent)
``fee_model_comparison``              held / auto-compound / collect-separately
``roi_comparison``                    ROI over time for both compounding choices
``corrected_fee_model_comparison``    fee-model comparison with simulated ROIs
====================================  ==============================================

The x-axis for all price figures is the relative price change of coin Y in
percent; a row at ``p`` means the price ratio moved by a factor
``1 + p / 100``.  The ROI figure's x-axis is time in years.

The corrected comparison scales its curves by headline ROI percentages that
default to the one-year, 99 percent participation simulation results rounded
to displayed precision (20.02 and 18.2).  Pass exact simulator output to
``roi_compounding_pct`` / ``roi_not_compounding_pct`` when rounding matters.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice, tee
from typing import Callable, Iterable, Iterator, List, Tuple

from . import analytics, compounding
from .errors import DomainError, InputError, InternalError, non_negative, positive, unit_interval

#: Most grid points one figure may have.  In process a figure this long
#: takes 3 to 6 s, by figure and host load (2-vCPU VM, Python 3.11).
MAX_FIGURE_ROWS = 10**6

#: Rows joined, checked and written at a time: about 76 kB of four-column
#: rows, the most of a figure ever held.
_CHUNK_LINES = 1024


def _item(value):
    """The Python number a NumPy scalar holds (its repr is a float's), else ``value``."""
    return value.item() if hasattr(value, "dtype") else value


@dataclass(frozen=True)
class FigureSpec:
    """One figure: its id, grid ``(lo, hi, count)`` and model parameters."""

    figure_id: str
    domain_grid: Tuple[float, float, int]
    alpha: float = 0.2
    t: float = 1.0
    frac_compounding: float = 0.99
    roi_compounding_pct: float = 20.02
    roi_not_compounding_pct: float = 18.2

    def __post_init__(self) -> None:
        if self.figure_id not in _FIGURES:
            raise DomainError(f"unknown figure id {self.figure_id!r}")
        lo, hi, count = grid = tuple(map(_item, self.domain_grid))
        object.__setattr__(self, "domain_grid", grid)
        for name in ("alpha", "t", "frac_compounding", "roi_compounding_pct",
                     "roi_not_compounding_pct"):
            object.__setattr__(self, name, _item(getattr(self, name)))
        if count < 2:
            raise DomainError(f"need at least 2 grid points, got {count}")
        if not lo < hi:
            raise DomainError(f"empty grid range [{lo}, {hi}]")
        if self.figure_id == "roi_comparison":
            non_negative(DomainError, "time axis ends", lo, hi)
        else:
            # Rows move prices by 1 + p / 100 (_price_rows); an exact end past float range is inf.
            lo, hi = (p if abs(p) <= sys.float_info.max else float("inf") for p in (lo, hi))
            positive(DomainError, "grid price factors 1 + p/100", 1 + lo / 100, 1 + hi / 100)
        rois = (self.roi_compounding_pct, self.roi_not_compounding_pct)
        non_negative(DomainError, "alpha, t and the ROI percentages", self.alpha, self.t, *rois)
        unit_interval(DomainError, "frac_compounding", self.frac_compounding)
        if count > MAX_FIGURE_ROWS:
            raise DomainError(f"{count} grid points is more than {MAX_FIGURE_ROWS}")

    def grid_points(self) -> List[float]:
        return list(_grid(self))


def _grid(spec: FigureSpec, start: int = 0) -> Iterator[float]:
    """The grid points from index ``start`` on, the last exactly ``hi`` and the largest."""
    lo, hi, count = spec.domain_grid
    step = (hi - lo) / (count - 1)
    for i in range(start, count - 1):
        yield lo + i * step
    yield hi


def default_figure_spec(figure_id: str, **overrides) -> FigureSpec:
    """Spec with the stock grid for ``figure_id``; kwargs override fields.
    ``FigureSpec`` rejects an unknown id before it reads the grid."""
    overrides.setdefault("domain_grid", _FIGURES.get(figure_id, (None,))[0])
    return FigureSpec(figure_id=figure_id, **overrides)


def _price_rows(points: Iterable) -> Iterator[Tuple[float, float]]:
    """``(pct, delta_y)`` per grid point, ``delta_x`` being 1.

    ``FigureSpec`` keeps both grid ends' price factors in (0, inf) and the
    grid is monotone, so every ``delta_y`` is in range too.
    """
    return ((pct, 1.0 + pct / 100.0) for pct in map(float, points))


def _il_rows(spec: FigureSpec, points: Iterable) -> Iterator[str]:
    il = analytics._il
    return (f"{pct!r},{il(1.0, dy)[2] * 100.0!r}" for pct, dy in _price_rows(points))


def _portfolio_rows(spec: FigureSpec, points: Iterable) -> Iterator[str]:
    il = analytics._il
    return (
        f"{pct!r},{v_held * 100.0!r},{v_pooled * 100.0!r}"
        for pct, dy in _price_rows(points)
        for v_pooled, v_held, _ in [il(1.0, dy)]
    )


def _fee_model_rows(points: Iterable, growth_c: float, growth_nc: float) -> Iterator[str]:
    """Held, compounded and collected lines; ``growth_c`` and ``growth_nc``
    are the ``alpha * t`` of the last two curves."""
    held, compounded, collected = analytics._held, analytics._compounded, analytics._collected
    return (
        f"{pct!r},{held(1.0, dy) * 100.0!r},{compounded(1.0, dy, growth_c) * 100.0!r},"
        f"{collected(1.0, dy, growth_nc) * 100.0!r}"
        for pct, dy in _price_rows(points)
    )


def _fee_model_comparison_rows(spec: FigureSpec, points: Iterable) -> Iterator[str]:
    growth = spec.alpha * spec.t
    return _fee_model_rows(points, growth, growth)


def _roi_rows(spec: FigureSpec, points: Iterable) -> Iterator[str]:
    params = compounding.RoiParams(spec.frac_compounding, spec.alpha, horizon=spec.domain_grid[1])
    times, solved = tee(points)  # zip keeps the two in step: tee holds one point
    return (
        f"{t!r},{(rho_c - 1.0) * 100.0!r},{(rho_nc - 1.0) * 100.0!r}"
        for t, (rho_c, rho_nc) in zip(map(float, times), compounding._roi_series(params, solved))
    )


def _corrected_rows(spec: FigureSpec, points: Iterable) -> Iterator[str]:
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
FIGURE_IDS = tuple(_FIGURES)


def _check_rows(spec: FigureSpec, rows: Callable[..., Iterator[str]]) -> None:
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


def _figure_chunks(spec: FigureSpec) -> Iterator[str]:
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


def emit_figure(spec: FigureSpec) -> str:
    """Render the figure described by ``spec`` as a CSV string: the chunks
    of ``_figure_chunks`` joined.

    A value beyond float range raises ``DomainError`` instead, so no figure
    ever holds ``inf`` or ``nan``.
    """
    return "".join(_figure_chunks(spec))
