"""Output checks.  Each returns ``None`` when the output is right, else what is wrong.

A failed check counts the operation into ``failed_frac`` exactly as a wrong
exit code does.
"""

from __future__ import annotations

import math

REPLAY_HEADER = ("label,t,reserve_x,reserve_y,fees_x,fees_y,"
                 "lp_value_pooled,lp_value_held,lambda_realized,p_x,p_y")
FIGURE_HEADERS = {
    "il_one_coin": "price_change_pct,il_pct",
    "portfolio_one_coin": "price_change_pct,not_investing,providing_liquidity",
    "fee_model_comparison": "price_change_pct,not_investing,uniswap_v2,beaker",
    "roi_comparison": "time,compounding,not_compounding",
    "corrected_fee_model_comparison": "price_change_pct,not_investing,compounding,not_compounding",
}


def exit_status(code: int, err: str, expect: int):
    """Exit code as expected; a rejected input says ``error:`` and never shows a traceback."""
    if "Traceback" in err:
        return f"traceback on stderr (exit {code})"
    if code != expect:
        return f"exit {code}, expected {expect}: {err.strip()[:200]}"
    if expect == 1 and not err.startswith("error:"):
        return f"rejected input without 'error:' on stderr: {err.strip()[:200]}"
    if expect == 0 and err:
        return f"stderr on success: {err.strip()[:200]}"
    return None


def _rows(text: str, header: str):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def replay_csv(text: str, script: dict):
    """One row per snapshot plus the final row, finite values, positive
    reserves, and ``lp_value_pooled == p_x*x + p_y*y`` within 1e-12 relative."""
    try:
        rows = _rows(text, REPLAY_HEADER)
        expected = [e["label"] for e in script["events"] if e["type"] == "snapshot"] + ["final"]
        if [row[0] for row in rows] != expected:
            return f"{len(rows)} snapshot rows, expected {len(expected)}"
        for row in rows:
            _, x, y, _, _, pooled, _, _, p_x, p_y = values = [float(v) for v in row[1:]]
            if not all(math.isfinite(v) for v in values):
                return f"non-finite value in row {row[0]}"
            if not (x > 0 and y > 0):
                return f"non-positive reserve in row {row[0]}"
            marked = p_x * x + p_y * y
            if abs(pooled - marked) > 1e-12 * abs(marked):
                return f"lp_value_pooled {pooled} != p_x*x + p_y*y = {marked} in row {row[0]}"
    except (ValueError, IndexError) as err:
        return f"unreadable scenario CSV: {err}"
    return None


def figure_csv(text: str, figure_id: str, grid: tuple):
    """Row count and x axis match the grid, values are finite; the loss at +200% is -13.40%."""
    lo, hi, count = grid
    try:
        rows = [[float(v) for v in row] for row in _rows(text, FIGURE_HEADERS[figure_id])]
    except (ValueError, IndexError) as err:
        return f"unreadable {figure_id} CSV: {err}"
    if len(rows) != count:
        return f"{figure_id}: {len(rows)} rows, expected {count}"
    step = (hi - lo) / (count - 1)
    for i, row in enumerate(rows):
        expected_x = hi if i == count - 1 else lo + i * step
        if row[0] != expected_x:
            return f"{figure_id}: row {i} at x={row[0]}, expected {expected_x}"
        if not all(math.isfinite(v) for v in row):
            return f"{figure_id}: non-finite value in row {i}"
    if figure_id == "il_one_coin" and hi == 200.0 and round(rows[-1][1], 2) != -13.40:
        return f"il_one_coin: loss at +200% is {rows[-1][1]}, expected -13.40"
    return None


def key_values(text: str) -> dict:
    return dict(line.split("=", 1) for line in text.splitlines())


def roi_pair(rk4_text: str, implicit_text: str):
    """rho_c is the paper's 1.2002 (+/- 1e-4) and RK4 agrees with the implicit root within 1e-8."""
    try:
        rk4, implicit = key_values(rk4_text), key_values(implicit_text)
        pairs = [(float(rk4[k]), float(implicit[k])) for k in ("rho_c", "rho_nc")]
    except (ValueError, KeyError) as err:
        return f"unreadable roi output: {err}"
    if abs(pairs[0][1] - 1.2002) > 1e-4:
        return f"rho_c {pairs[0][1]}, expected about 1.2002"
    for a, b in pairs:
        if abs(a - b) > 1e-8 * abs(b):
            return f"rk4 {a} and implicit {b} disagree beyond 1e-8"
    return None


def one_shot(out: str, head: str):
    """A successful one-shot call prints what its command prints first."""
    if not out.startswith(head) or not out.endswith("\n"):
        return f"output does not start with {head!r}: {out[:80]!r}"
    return None
