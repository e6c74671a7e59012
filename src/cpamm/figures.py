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

This module holds :class:`FigureSpec` and thin functions over the engine
:mod:`cpamm.curves`, which holds the figure registry, the row functions,
the checks of :class:`FigureSpec` and the streaming emitter; the
``emit-figure`` command runs the engine alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import List, Tuple

from .curves import (  # MAX_FIGURE_ROWS: public as figures.MAX_FIGURE_ROWS
    MAX_FIGURE_ROWS,
    _FIGURES,
    _FIGURE_ALPHA,
    _FIGURE_FRAC_COMPOUNDING,
    _FIGURE_T,
    _ROI_COMPOUNDING_PCT,
    _ROI_NOT_COMPOUNDING_PCT,
    _figure_chunks,
    _figure_spec,
    _grid,
)


@dataclass(frozen=True)
class FigureSpec:
    """One figure: its id, grid ``(lo, hi, count)`` and model parameters."""

    figure_id: str
    domain_grid: Tuple[float, float, int]
    alpha: float = _FIGURE_ALPHA
    t: float = _FIGURE_T
    frac_compounding: float = _FIGURE_FRAC_COMPOUNDING
    roi_compounding_pct: float = _ROI_COMPOUNDING_PCT
    roi_not_compounding_pct: float = _ROI_NOT_COMPOUNDING_PCT

    def __post_init__(self) -> None:
        checked = _figure_spec(*(getattr(self, field.name) for field in fields(self)))
        for name, value in vars(checked).items():
            object.__setattr__(self, name, value)

    def grid_points(self) -> List[float]:
        return list(_grid(self))


def default_figure_spec(figure_id: str, **overrides) -> FigureSpec:
    """Spec with the stock grid for ``figure_id``; kwargs override fields.
    ``FigureSpec`` rejects an unknown id before it reads the grid."""
    overrides.setdefault("domain_grid", _FIGURES.get(figure_id, (None,))[0])
    return FigureSpec(figure_id=figure_id, **overrides)


FIGURE_IDS = tuple(_FIGURES)


def emit_figure(spec: FigureSpec) -> str:
    """Render the figure described by ``spec`` as a CSV string: the chunks
    of ``_figure_chunks`` joined.

    A value beyond float range raises ``DomainError`` instead, so no figure
    ever holds ``inf`` or ``nan``.
    """
    return "".join(_figure_chunks(spec))
