"""Deterministic CSV emitters for the five analysis figures.

Each figure is a table with one header row and one row per grid point, fed
by the same analytics and simulation code the rest of the package uses.
Output is plain CSV so plotting stays external.  Each emitter renders its
rows into CSV lines as it computes them, every number by ``repr``, so
repeated runs are bit-identical.

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

from dataclasses import dataclass
from itertools import islice, tee
from typing import Iterator, List, Tuple

from . import analytics, compounding
from .errors import DomainError, non_negative, positive, unit_interval

#: Most grid points one figure may have: well under a second of work.
MAX_FIGURE_ROWS = 10**6

#: Rows joined and checked at a time: about 76 kB of four-column rows, so
#: the whole figure is never held twice.
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
            # A row at p percent moves the price by 1 + p / 100, as in _price_rows.
            positive(DomainError, "grid price factors 1 + p/100", 1 + lo / 100, 1 + hi / 100)
        rois = (self.roi_compounding_pct, self.roi_not_compounding_pct)
        non_negative(DomainError, "alpha, t and the ROI percentages", self.alpha, self.t, *rois)
        unit_interval(DomainError, "frac_compounding", self.frac_compounding)
        if count > MAX_FIGURE_ROWS:
            raise DomainError(f"{count} grid points is more than {MAX_FIGURE_ROWS}")

    def grid_points(self) -> List[float]:
        return list(_grid(self))


def _grid(spec: FigureSpec) -> Iterator[float]:
    """The grid points one at a time, the last exactly ``hi``."""
    lo, hi, count = spec.domain_grid
    step = (hi - lo) / (count - 1)
    for i in range(count - 1):
        yield lo + i * step
    yield hi


def default_figure_spec(figure_id: str, **overrides) -> FigureSpec:
    """Spec with the stock grid for ``figure_id``; kwargs override fields."""
    if figure_id not in _FIGURES:
        raise DomainError(f"unknown figure id {figure_id!r}")
    overrides.setdefault("domain_grid", _FIGURES[figure_id][0])
    return FigureSpec(figure_id=figure_id, **overrides)


def _price_rows(spec: FigureSpec):
    """``(pct, delta_y)`` per grid point, ``delta_x`` being 1.

    ``FigureSpec`` keeps both grid ends' price factors in (0, inf) and the
    grid is monotone, so every ``delta_y`` is in range too.
    """
    return ((pct, 1.0 + pct / 100.0) for pct in map(float, _grid(spec)))


def _emit_il_one_coin(spec: FigureSpec) -> Tuple[str, Iterator[str]]:
    il = analytics._il
    lines = (f"{pct!r},{il(1.0, dy)[2] * 100.0!r}" for pct, dy in _price_rows(spec))
    return "price_change_pct,il_pct", lines


def _emit_portfolio_one_coin(spec: FigureSpec) -> Tuple[str, Iterator[str]]:
    il = analytics._il
    lines = (
        f"{pct!r},{v_held * 100.0!r},{v_pooled * 100.0!r}"
        for pct, dy in _price_rows(spec)
        for v_pooled, v_held, _ in [il(1.0, dy)]
    )
    return "price_change_pct,not_investing,providing_liquidity", lines


def _fee_model_rows(spec: FigureSpec, growth_c: float, growth_nc: float) -> Iterator[str]:
    """Held, compounded and collected lines; ``growth_c`` and ``growth_nc``
    are the ``alpha * t`` of the last two curves."""
    held, compounded, collected = analytics._held, analytics._compounded, analytics._collected
    return (
        f"{pct!r},{held(1.0, dy) * 100.0!r},{compounded(1.0, dy, growth_c) * 100.0!r},"
        f"{collected(1.0, dy, growth_nc) * 100.0!r}"
        for pct, dy in _price_rows(spec)
    )


def _emit_fee_model_comparison(spec: FigureSpec) -> Tuple[str, Iterator[str]]:
    growth = spec.alpha * spec.t
    return "price_change_pct,not_investing,uniswap_v2,beaker", _fee_model_rows(spec, growth, growth)


def _emit_roi_comparison(spec: FigureSpec) -> Tuple[str, Iterator[str]]:
    params = compounding.RoiParams(spec.frac_compounding, spec.alpha, horizon=spec.domain_grid[1])
    times, solved = tee(_grid(spec))  # zip keeps the two in step: tee holds one point
    lines = (
        f"{t!r},{(rho_c - 1.0) * 100.0!r},{(rho_nc - 1.0) * 100.0!r}"
        for t, (rho_c, rho_nc) in zip(map(float, times), compounding._roi_series(params, solved))
    )
    return "time,compounding,not_compounding", lines


def _emit_corrected_comparison(spec: FigureSpec) -> Tuple[str, Iterator[str]]:
    # The fee-model comparison with alpha * t replaced by the one-year ROIs.
    growth_c, growth_nc = spec.roi_compounding_pct / 100, spec.roi_not_compounding_pct / 100
    header = "price_change_pct,not_investing,compounding,not_compounding"
    return header, _fee_model_rows(spec, growth_c, growth_nc)


#: Each figure id with its stock grid and its emitter, in display order.
_FIGURES = {
    "il_one_coin": ((-99.0, 200.0, 300), _emit_il_one_coin),
    "portfolio_one_coin": ((-99.0, 200.0, 300), _emit_portfolio_one_coin),
    "fee_model_comparison": ((-99.0, 300.0, 400), _emit_fee_model_comparison),
    "roi_comparison": ((0.0, 1.0, 101), _emit_roi_comparison),
    "corrected_fee_model_comparison": ((-99.0, 150.0, 250), _emit_corrected_comparison),
}
FIGURE_IDS = tuple(_FIGURES)


def _figure_chunks(spec: FigureSpec) -> List[str]:
    """The figure's CSV text in pieces that concatenate to it: the header
    line, then up to ``_CHUNK_LINES`` rows each.  Every row is checked
    before the list is returned, so a caller that writes the pieces writes
    all of the figure or none of it."""
    header, lines = _FIGURES[spec.figure_id][1](spec)
    chunks = [header + "\n"]
    done = 0
    while block := list(islice(lines, _CHUNK_LINES)):
        block.append("")
        chunk = "\n".join(block)
        # Of all float reprs only "inf" and "nan" hold an "n".
        bad = chunk.find("n")
        if bad >= 0:
            row = done + chunk.count("\n", 0, bad)
            raise DomainError(f"{spec.figure_id} leaves float range at x = {spec.grid_points()[row]}")
        chunks.append(chunk)
        done += len(block) - 1
    return chunks


def emit_figure(spec: FigureSpec) -> str:
    """Render the figure described by ``spec`` as a CSV string.

    A value beyond float range raises ``DomainError`` instead, so no figure
    ever holds ``inf`` or ``nan``.
    """
    return "".join(_figure_chunks(spec))
