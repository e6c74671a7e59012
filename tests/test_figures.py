"""Figure emitters: closed-form agreement, determinism, domain checks."""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpamm import (
    DomainError,
    FIGURE_IDS,
    FigureSpec,
    GrowthParams,
    PriceScenario,
    RoiParams,
    default_figure_spec,
    emit_figure,
    figures,
    hold_value_relative,
    impermanent_loss,
    relative_evolution_collected,
    relative_evolution_compounded,
    roi_pair,
)
from cpamm.curves import _CHUNK_LINES
from cpamm.figures import MAX_FIGURE_ROWS


def rows_of(csv_text):
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows


def test_default_specs_cover_all_figures():
    for figure_id in FIGURE_IDS:
        text = emit_figure(default_figure_spec(figure_id))
        header, rows = rows_of(text)
        assert len(rows) == default_figure_spec(figure_id).domain_grid[2]
        assert len(header) >= 2


def test_spec_validation():
    with pytest.raises(DomainError):
        FigureSpec(figure_id="nope", domain_grid=(0.0, 1.0, 10))
    with pytest.raises(DomainError):
        FigureSpec(figure_id="il_one_coin", domain_grid=(0.0, 1.0, 1))
    with pytest.raises(DomainError):
        FigureSpec(figure_id="il_one_coin", domain_grid=(-100.0, 1.0, 10))
    with pytest.raises(DomainError):
        FigureSpec(figure_id="il_one_coin", domain_grid=(5.0, 1.0, 10))
    with pytest.raises(DomainError):
        FigureSpec(figure_id="roi_comparison", domain_grid=(-1.0, 1.0, 10))
    with pytest.raises(DomainError):
        FigureSpec(figure_id="il_one_coin", domain_grid=(0.0, 1.0, 10), alpha=-1.0)
    with pytest.raises(DomainError):
        FigureSpec(
            figure_id="roi_comparison", domain_grid=(0.0, 1.0, 10), frac_compounding=2.0
        )
    with pytest.raises(DomainError):
        default_figure_spec("nope")


def test_grid_points_hit_endpoints():
    spec = FigureSpec(figure_id="il_one_coin", domain_grid=(-50.0, 200.0, 6))
    points = spec.grid_points()
    assert points[0] == -50.0
    assert points[-1] == 200.0
    assert len(points) == 6


def test_il_curve_matches_formula():
    spec = FigureSpec(figure_id="il_one_coin", domain_grid=(-50.0, 200.0, 26))
    header, rows = rows_of(emit_figure(spec))
    assert header == ["price_change_pct", "il_pct"]
    for pct, il_pct in rows:
        delta = 1 + pct / 100
        expected = (2 * math.sqrt(delta) / (1 + delta) - 1) * 100
        assert il_pct == pytest.approx(expected, rel=1e-9, abs=1e-12)
    # the marquee point: +200% price change loses about 13.4%
    assert rows[-1][0] == 200.0
    assert rows[-1][1] == pytest.approx(-13.397459621556141, rel=1e-9)
    assert rows[-1][1] == pytest.approx(-13.40, abs=0.005)


def test_portfolio_curves_match_formulas():
    spec = FigureSpec(figure_id="portfolio_one_coin", domain_grid=(-99.0, 200.0, 300))
    header, rows = rows_of(emit_figure(spec))
    assert header == ["price_change_pct", "not_investing", "providing_liquidity"]
    for pct, hold, pooled in rows:
        delta = 1 + pct / 100
        assert hold == pytest.approx(50 * (1 + delta), rel=1e-9)
        assert pooled == pytest.approx(100 * math.sqrt(delta), rel=1e-9)
        assert hold >= pooled


def test_fee_model_curves_match_formulas():
    spec = FigureSpec(figure_id="fee_model_comparison", domain_grid=(-99.0, 300.0, 400))
    header, rows = rows_of(emit_figure(spec))
    assert header == ["price_change_pct", "not_investing", "uniswap_v2", "beaker"]
    for pct, hold, uniswap, beaker in rows:
        delta = 1 + pct / 100
        assert hold == pytest.approx(50 * (1 + delta), rel=1e-9)
        assert uniswap == pytest.approx(120 * math.sqrt(delta), rel=1e-9)
        assert beaker == pytest.approx(
            100 * math.sqrt(delta) + 20 * (delta + 1) / 2, rel=1e-9
        )
        assert beaker >= uniswap * (1 - 1e-12)


def test_fee_model_figure_at_zero_change():
    spec = FigureSpec(figure_id="fee_model_comparison", domain_grid=(-99.0, 300.0, 400))
    _, rows = rows_of(emit_figure(spec))
    at_zero = [row for row in rows if row[0] == 0.0]
    assert len(at_zero) == 1
    _, hold, uniswap, beaker = at_zero[0]
    assert hold == pytest.approx(100.0, rel=1e-12)
    assert uniswap == pytest.approx(120.0, rel=1e-12)
    assert beaker == pytest.approx(120.0, rel=1e-12)


def test_roi_curves_match_solver():
    spec = FigureSpec(figure_id="roi_comparison", domain_grid=(0.0, 1.0, 11))
    header, rows = rows_of(emit_figure(spec))
    assert header == ["time", "compounding", "not_compounding"]
    params = RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0)
    assert rows[0] == [0.0, 0.0, 0.0]
    for t, comp, not_comp in rows:
        rho_c, rho_nc = roi_pair(params, t)
        assert comp == pytest.approx((rho_c - 1) * 100, rel=1e-9, abs=1e-12)
        assert not_comp == pytest.approx((rho_nc - 1) * 100, rel=1e-9, abs=1e-12)
        assert comp >= not_comp
    assert rows[-1][1] == pytest.approx(20.017707967377206, rel=1e-8)
    assert rows[-1][2] == pytest.approx(18.246911230189164, rel=1e-8)


def test_corrected_curves_match_formulas():
    spec = FigureSpec(
        figure_id="corrected_fee_model_comparison", domain_grid=(-99.0, 150.0, 250)
    )
    header, rows = rows_of(emit_figure(spec))
    assert header == ["price_change_pct", "not_investing", "compounding", "not_compounding"]
    for pct, hold, comp, not_comp in rows:
        delta = 1 + pct / 100
        assert hold == pytest.approx(50 * (1 + delta), rel=1e-9)
        assert comp == pytest.approx(120.02 * math.sqrt(delta), rel=1e-9)
        assert not_comp == pytest.approx(
            100 * math.sqrt(delta) + 18.2 * (delta + 1) / 2, rel=1e-9
        )
    at_zero = [row for row in rows if row[0] == 0.0][0]
    assert at_zero[2] == pytest.approx(120.02, rel=1e-12)
    assert at_zero[3] == pytest.approx(118.2, rel=1e-12)


def test_corrected_figure_accepts_simulated_rois():
    # feed the exact simulator output instead of the rounded headline values
    params = RoiParams(frac_compounding=0.99, alpha=0.2, horizon=1.0)
    rho_c, rho_nc = roi_pair(params, 1.0)
    spec = FigureSpec(
        figure_id="corrected_fee_model_comparison",
        domain_grid=(0.0, 100.0, 2),
        roi_compounding_pct=(rho_c - 1) * 100,
        roi_not_compounding_pct=(rho_nc - 1) * 100,
    )
    _, rows = rows_of(emit_figure(spec))
    assert rows[0][2] == pytest.approx(100 * rho_c, rel=1e-12)
    # headline constants stay within the rounding of the simulated values
    assert abs((rho_c - 1) * 100 - 20.02) < 0.01
    assert abs((rho_nc - 1) * 100 - 18.2) < 0.05


def test_emission_is_bit_identical():
    for figure_id in FIGURE_IDS:
        spec = default_figure_spec(figure_id)
        assert emit_figure(spec) == emit_figure(spec)


@pytest.mark.parametrize("field", ["roi_compounding_pct", "roi_not_compounding_pct"])
def test_negative_roi_pct_rejected(field):
    with pytest.raises(DomainError):
        default_figure_spec("corrected_fee_model_comparison", **{field: -1.0})


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_row_count_is_bounded(figure_id):
    lo, hi, _ = default_figure_spec(figure_id).domain_grid
    default_figure_spec(figure_id, domain_grid=(lo, hi, MAX_FIGURE_ROWS))
    with pytest.raises(DomainError, match=f"more than {MAX_FIGURE_ROWS}"):
        default_figure_spec(figure_id, domain_grid=(lo, hi, MAX_FIGURE_ROWS + 1))


# -- the emitters against the public per-point functions ---------------------

_HEADERS = {
    "il_one_coin": "price_change_pct,il_pct",
    "portfolio_one_coin": "price_change_pct,not_investing,providing_liquidity",
    "fee_model_comparison": "price_change_pct,not_investing,uniswap_v2,beaker",
    "roi_comparison": "time,compounding,not_compounding",
    "corrected_fee_model_comparison":
        "price_change_pct,not_investing,compounding,not_compounding",
}


def _fee_model_row(scenario, growth_c, growth_nc):
    return [
        hold_value_relative(scenario) * 100.0,
        relative_evolution_compounded(scenario, growth_c) * 100.0,
        relative_evolution_collected(scenario, growth_nc) * 100.0,
    ]


def _reference_row(spec, x):
    """One figure row from the public value-object API, point by point."""
    if spec.figure_id == "roi_comparison":
        params = RoiParams(spec.frac_compounding, spec.alpha, horizon=spec.domain_grid[1])
        rho_c, rho_nc = roi_pair(params, x)
        return [x, (rho_c - 1.0) * 100.0, (rho_nc - 1.0) * 100.0]
    scenario = PriceScenario(1.0, 1 + x / 100)
    if spec.figure_id == "il_one_coin":
        return [x, impermanent_loss(scenario).relative_loss * 100.0]
    if spec.figure_id == "portfolio_one_coin":
        report = impermanent_loss(scenario)
        return [x, report.v_held * 100.0, report.v_pooled * 100.0]
    if spec.figure_id == "fee_model_comparison":
        growth = GrowthParams(spec.alpha, spec.t)
        return [x, *_fee_model_row(scenario, growth, growth)]
    return [x, *_fee_model_row(
        scenario,
        GrowthParams(spec.roi_compounding_pct / 100, 1),
        GrowthParams(spec.roi_not_compounding_pct / 100, 1),
    )]


def _reference_csv(spec):
    lines = [_HEADERS[spec.figure_id]]
    for x in spec.grid_points():
        lines.append(",".join(repr(float(v)) for v in _reference_row(spec, x)))
    return "\n".join(lines) + "\n"


_PRICE_FIGURES = [f for f in FIGURE_IDS if f != "roi_comparison"]


@pytest.mark.parametrize(
    "figure_id, overrides",
    [(figure_id, {}) for figure_id in FIGURE_IDS]
    + [(f, {"domain_grid": (-50, 200, 11)}) for f in _PRICE_FIGURES]
    + [(f, {"domain_grid": (-99.5, 150.25, 17)}) for f in _PRICE_FIGURES]
    + [
        ("fee_model_comparison", {"alpha": 0.35, "t": 2.5}),
        ("fee_model_comparison", {"alpha": 3, "t": 2}),
        ("fee_model_comparison", {"alpha": 0.0}),
        ("corrected_fee_model_comparison",
         {"roi_compounding_pct": 31.7, "roi_not_compounding_pct": 0}),
        ("roi_comparison", {"domain_grid": (0, 3, 13)}),
        ("roi_comparison", {"domain_grid": (0.25, 2.75, 9), "alpha": 0.45, "t": 9.0}),
        ("roi_comparison", {"alpha": 0}),
        ("roi_comparison", {"frac_compounding": 0}),
        ("roi_comparison", {"frac_compounding": 0.0, "alpha": 3}),
        ("roi_comparison", {"frac_compounding": 1}),
        ("roi_comparison", {"frac_compounding": 1.0, "alpha": 0.7}),
        ("roi_comparison", {"frac_compounding": 0.5}),
        ("roi_comparison", {"frac_compounding": 1e-60, "alpha": 2}),
    ],
)
def test_emitters_match_the_public_per_point_functions(figure_id, overrides):
    spec = default_figure_spec(figure_id, **overrides)
    assert emit_figure(spec) == _reference_csv(spec)


def test_int_grid_end_prints_as_a_float():
    lines = emit_figure(FigureSpec("il_one_coin", (0, 1, 2))).split("\n")
    assert lines[2].startswith("1.0,")


# -- rendering: exact grid ends, the text scan, the rejection message ---------

@pytest.mark.parametrize(
    "spec, text",
    [
        (FigureSpec("il_one_coin", (0, 1, 2)),
         "price_change_pct,il_pct\n0.0,0.0\n1.0,-0.0012376007871628403\n"),
        (FigureSpec("portfolio_one_coin", (-50, 100, 4)),
         "price_change_pct,not_investing,providing_liquidity\n-50.0,75.0,70.71067811865476\n"
         "0.0,100.0,100.0\n50.0,125.0,122.4744871391589\n100.0,150.0,141.4213562373095\n"),
        (FigureSpec("fee_model_comparison", (Fraction(-1, 3), Fraction(2, 3), 4),
                    alpha=Fraction(1, 5), t=Fraction(3, 2)),
         "price_change_pct,not_investing,uniswap_v2,beaker\n"
         "-0.3333333333333333,99.83333333333333,129.78315247622345,129.7831942124796\n"
         "0.0,100.0,130.0,130.0\n"
         "0.3333333333333333,100.16666666666667,130.21648641141158,130.2165280087781\n"
         "0.6666666666666666,100.33333333333334,130.43261350853422,130.43277962194938\n"),
        (FigureSpec("roi_comparison", (0, Fraction(1, 3), 3), alpha=Fraction(1, 5),
                    frac_compounding=0),
         "time,compounding,not_compounding\n0.0,0.0,0.0\n"
         "0.16666666666666666,3.3895113513574104,3.3333333333333437\n"
         "0.3333333333333333,6.893910574724638,6.666666666666665\n"),
        (FigureSpec("roi_comparison", (0, 2, 3), alpha=1, frac_compounding=1),
         "time,compounding,not_compounding\n0.0,0.0,0.0\n1.0,100.0,69.31471805599455\n"
         "2.0,200.0,109.861228866811\n"),
    ],
)
def test_int_and_fraction_grid_ends_render_as_floats(spec, text):
    assert emit_figure(spec) == text


def test_numpy_scalars_render_as_the_numbers_they_hold():
    np = pytest.importorskip("numpy")
    for figure_id in FIGURE_IDS:
        lo, hi, count = default_figure_spec(figure_id).domain_grid
        plain = default_figure_spec(
            figure_id, alpha=0.3, t=1.5, frac_compounding=0.9, roi_compounding_pct=21
        )
        wrapped = default_figure_spec(
            figure_id,
            domain_grid=(np.float64(lo), np.float64(hi), np.int64(count)),
            alpha=np.float64(0.3),
            t=np.float64(1.5),
            frac_compounding=np.float64(0.9),
            roi_compounding_pct=np.int64(21),
        )
        assert emit_figure(wrapped) == emit_figure(plain)


@given(st.floats())
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(5e-324)
def test_only_non_finite_float_reprs_hold_an_n(x):
    # emit_figure finds a non-finite cell by this one scan of the text.
    assert ("n" in repr(x)) == (not math.isfinite(x))


@pytest.mark.parametrize(
    "figure_id, overrides, x",
    [
        ("fee_model_comparison", {"alpha": 1.7e306}, "12.0"),
        ("fee_model_comparison", {"t": 8.5e306}, "12.0"),
        ("fee_model_comparison", {"alpha": 1e300, "t": 1e8}, "-99.0"),
        ("fee_model_comparison", {"alpha": 5e302, "domain_grid": (-50, 10**6, 3)}, "1000000"),
        ("fee_model_comparison",
         {"alpha": 1e306, "domain_grid": (Fraction(-50), Fraction(10**6, 3), 5)}, "499775/6"),
        ("corrected_fee_model_comparison", {"roi_compounding_pct": 1.7e308}, "12.0"),
        ("corrected_fee_model_comparison",
         {"roi_not_compounding_pct": 1.7e308, "domain_grid": (-50, 10**6, 5)}, "249962.5"),
        ("roi_comparison", {"alpha": 1e308}, "0.02"),
        ("roi_comparison", {"alpha": 1e308, "frac_compounding": 0.5}, "0.01"),
        ("roi_comparison", {"alpha": 1e308, "frac_compounding": 1}, "0.02"),
        # Exact alpha * t past float range fails every row, as float 1e200 does.
        ("fee_model_comparison", {"alpha": Fraction(10**200), "t": Fraction(10**200)}, "-99.0"),
        # An exact grid end past float range: the spec rejects it as it does inf.
        ("il_one_coin", {"domain_grid": (0, 10**309, 2)}, None),
        ("il_one_coin", {"domain_grid": (0, Fraction(10**309), 2)}, None),
    ],
)
def test_rejection_names_the_first_non_finite_row(figure_id, overrides, x):
    if x is None:
        with pytest.raises(DomainError, match=r"^grid price factors 1 \+ p/100 .*, inf\)$"):
            default_figure_spec(figure_id, **overrides)
        return
    with pytest.raises(DomainError) as info:
        emit_figure(default_figure_spec(figure_id, **overrides))
    assert str(info.value) == f"{figure_id} leaves float range at x = {x}"


# -- streaming: the last row bounds the rest, and the grid ends at its maximum --

def _scanned_whole(spec):
    """The figure as the emitter built it before it streamed: every row
    rendered, ``_CHUNK_LINES`` at a time, and each chunk scanned for an
    ``n`` before the next is rendered.  The text, or the error type and
    message."""
    _, header, rows = figures._FIGURES[spec.figure_id]
    points = spec.grid_points()
    text = [header + "\n"]
    try:
        lines = rows(spec, points)
        for start in range(0, len(points), _CHUNK_LINES):
            block = list(islice(lines, _CHUNK_LINES))
            for offset, line in enumerate(block):
                if "n" in line:
                    x = points[start + offset]
                    raise DomainError(f"{spec.figure_id} leaves float range at x = {x}")
            text.extend(line + "\n" for line in block)
    except Exception as err:
        return type(err), str(err)
    return "".join(text)


def _emitted(spec):
    try:
        return emit_figure(spec)
    except Exception as err:
        return type(err), str(err)


def _grid_ends(lo, hi):
    """Grid ends in ``[lo, hi]``, the first the smaller, as floats, ints or fractions."""
    def end(kind):
        if kind == "int":
            return st.integers(math.ceil(lo), math.floor(hi))
        if kind == "fraction":
            return st.fractions(Fraction(str(lo)), Fraction(str(hi)), max_denominator=1000)
        return st.floats(lo, hi)

    return (
        st.sampled_from(["float", "int", "fraction"])
        .flatmap(lambda kind: st.tuples(end(kind), end(kind)))
        .filter(lambda ends: ends[0] != ends[1])
        .map(sorted)
    )


#: ``alpha``, ``t`` and the ROI percentages: 0, or log-uniform up to 1e308,
#: and as often just under it, where a figure's last rows leave float range.
_SCALES = st.one_of(
    st.just(0.0),
    st.floats(-12, 308).map(lambda e: 10.0**e),
    st.floats(298, 308.25).map(lambda e: 10.0**e),
)


@st.composite
def _specs(draw, figure_id):
    lo, hi = draw(_grid_ends(0, 1e3) if figure_id == "roi_comparison"
                  else _grid_ends(-99.9, 1e6))
    spec = FigureSpec(
        figure_id,
        (lo, hi, draw(st.integers(2, 5000))),
        alpha=draw(_SCALES),
        t=draw(_SCALES),
        frac_compounding=draw(st.floats(0, 1)),
        roi_compounding_pct=draw(_SCALES),
        roi_not_compounding_pct=draw(_SCALES),
    )
    # Half the ROI grids grow by alpha * hi near 710 with no compounders: their
    # last rows hold inf from alpha * t = 705.2 and raise from 709.8, often
    # both in one chunk, where the raising row's error comes first.
    if figure_id == "roi_comparison" and draw(st.booleans()):
        spec = replace(spec, alpha=draw(st.floats(700, 720)) / hi, frac_compounding=0.0)
    return spec


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_the_last_row_bound_agrees_with_the_whole_scan(figure_id, data):
    # The same text, or the same error type and message, as scanning every
    # row before the first is kept.
    spec = data.draw(_specs(figure_id))
    assert _emitted(spec) == _scanned_whole(spec)


@pytest.mark.parametrize("grid, error", [((0, 1000, 5000), "NonPositiveInput"),
                                         ((0, 762.2, 1100), "DomainError")])
def test_a_row_that_raises_comes_first_only_within_its_chunk(grid, error):
    # Growth alpha * t = t: rows from t = 705.2 on hold inf, and rows from
    # t = 709.8 on raise.  On the first grid both start in the fourth chunk,
    # and the whole scan raises the later row's own error; on the second the
    # first inf row is in the first chunk and the first raising row in the
    # second.
    spec = FigureSpec("roi_comparison", grid, alpha=1, frac_compounding=0)
    emitted = _emitted(spec)
    assert emitted == _scanned_whole(spec)
    assert emitted[0].__name__ == error


def _counting_rows(monkeypatch, figure_id):
    """Count every row the figure's row function renders from now on."""
    grid, header, rows = figures._FIGURES[figure_id]
    rendered = []

    def counted(spec, points):
        for line in rows(spec, points):
            rendered.append(line)
            yield line

    monkeypatch.setitem(figures._FIGURES, figure_id, (grid, header, counted))
    return rendered


def test_the_first_failing_row_is_found_by_bisection(monkeypatch):
    rendered = _counting_rows(monkeypatch, "fee_model_comparison")
    spec = FigureSpec("fee_model_comparison", (-50, 1e6, MAX_FIGURE_ROWS), alpha=5e302)
    with pytest.raises(DomainError) as info:
        emit_figure(spec)
    assert str(info.value) == "fee_model_comparison leaves float range at x = 718877.6634776635"
    assert len(rendered) <= 2 * math.ceil(math.log2(MAX_FIGURE_ROWS)) + 2


@pytest.mark.parametrize("figure_id", FIGURE_IDS)
def test_a_whole_figure_renders_its_last_row_once_more(monkeypatch, figure_id):
    rendered = _counting_rows(monkeypatch, figure_id)
    spec = default_figure_spec(figure_id)
    emit_figure(spec)
    assert len(rendered) == spec.domain_grid[2] + 1


@settings(max_examples=40, deadline=None)
@given(
    ends=st.tuples(st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
    .filter(lambda ends: ends[0] != ends[1]).map(sorted),
    count=st.integers(2, MAX_FIGURE_ROWS),
)
def test_the_grid_ends_at_its_largest_point(ends, count):
    spec = SimpleNamespace(domain_grid=(*ends, count))
    assert max(figures._grid(spec)) == ends[1]
