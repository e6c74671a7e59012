"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed and the sizes, so two runs with
one seed hand the program the same bytes.  ``digest`` fingerprints each
input for the result record, so later runs can show they compared like
with like.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass

#: Full-size inputs; ``TINY`` shrinks every one for the smoke test.
FULL = {"replay_events": 100_000, "figure_rows": 20_000, "rk4_steps": 100_000, "calls": 4_000}
TINY = {"replay_events": 200, "figure_rows": 50, "rk4_steps": 1_000, "calls": 40}

FIGURE_IDS = (
    "il_one_coin",
    "portfolio_one_coin",
    "fee_model_comparison",
    "roi_comparison",
    "corrected_fee_model_comparison",
)


#: The paper's reference point: 99% compounders, alpha 0.2, one year.
REFERENCE_ROI = ["--frac", "0.99", "--alpha", "0.2", "--t", "1"]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _num(value: float) -> str:
    """A float as the CLI should read it back, bit for bit."""
    return repr(float(value))


def replay_script(seed: int, events: int) -> dict:
    """A collect-separately script: ~80% trades, ~15% price moves, some collects and snapshots.

    Trade sizes are log-normal around 1e-4 of the input reserve and about
    30% carry a spread cap, so some caps bind and some do not.  Log prices
    revert to their start, so reserves stay within a few percent of their
    initial size and no trade can fail.
    """
    rng = random.Random(f"replay-{seed}")
    p_x, p_y = math.exp(rng.uniform(-1, 1)), math.exp(rng.uniform(-1, 1))
    x0, y0 = 1e6 / p_x, 1e6 / p_y
    log_x = log_y = 0.0
    script_events = []
    for i in range(events):
        t = (i + 1) / events
        u = rng.random()
        if u < 0.80:
            direction = rng.choice(("y2x", "x2y"))
            reserve = y0 if direction == "y2x" else x0
            event = {
                "type": "trade",
                "t": t,
                "direction": direction,
                "amount": reserve * 1e-4 * rng.lognormvariate(0, 1.5),
            }
            if rng.random() < 0.30:
                event["max_spread"] = rng.uniform(1e-4, 2e-3)
        elif u < 0.95:
            step_x = -0.05 * log_x + rng.gauss(0, 0.01)
            step_y = -0.05 * log_y + rng.gauss(0, 0.01)
            log_x, log_y = log_x + step_x, log_y + step_y
            event = {
                "type": "price_move",
                "t": t,
                "delta_x": math.exp(step_x),
                "delta_y": math.exp(step_y),
            }
        elif u < 0.98:
            event = {"type": "collect_fees", "t": t, "provider": "lp"}
        else:
            event = {"type": "snapshot", "t": t, "label": f"s{i}"}
        script_events.append(event)
    return {
        "pool": {"x": x0, "y": y0, "fee_rate": 0.003, "fee_model": "collect_separately"},
        "prices": {"p_x": p_x, "p_y": p_y},
        "provider": "lp",
        "events": script_events,
    }


@dataclass(frozen=True)
class FigureJob:
    figure_id: str
    grid: tuple  # (lo, hi, count) exactly as the CLI receives them
    argv: tuple


def analytics_jobs(seed: int, rows: int) -> list:
    """The five figures on seeded grids of ``rows`` points each.

    ``il_one_coin`` always ends at +200% so its last row can be checked
    against the paper's -13.40%.
    """
    rng = random.Random(f"analytics-{seed}")

    def price_grid(hi):
        return (rng.uniform(-99.0, -50.0), hi, rows)

    specs = [
        ("il_one_coin", price_grid(200.0), []),
        ("portfolio_one_coin", price_grid(rng.uniform(150.0, 400.0)), []),
        (
            "fee_model_comparison",
            price_grid(rng.uniform(200.0, 400.0)),
            ["--alpha", _num(rng.uniform(0.1, 0.3)), "--t", _num(rng.uniform(0.5, 2.0))],
        ),
        (
            "roi_comparison",
            (0.0, rng.uniform(0.5, 2.0), rows),
            ["--alpha", _num(rng.uniform(0.1, 0.3)), "--frac", _num(rng.uniform(0.5, 0.99))],
        ),
        ("corrected_fee_model_comparison", price_grid(rng.uniform(100.0, 300.0)), []),
    ]
    jobs = []
    for figure_id, (lo, hi, count), extra in specs:
        argv = ["emit-figure", "--figure", figure_id, "--grid-min", _num(lo),
                "--grid-max", _num(hi), "--count", str(count), *extra]
        jobs.append(FigureJob(figure_id, (float(_num(lo)), float(_num(hi)), count), tuple(argv)))
    return jobs


def rk4_argv(steps: int) -> list:
    return ["roi", *REFERENCE_ROI, "--method", "rk4", "--step", _num(1.0 / steps)]


def implicit_argv() -> list:
    return ["roi", *REFERENCE_ROI, "--method", "implicit"]


@dataclass(frozen=True)
class CallJob:
    argv: tuple
    expect: int  # exit code
    head: str  # what stdout starts with on success


def cli_call_jobs(seed: int, count: int, scripts: dict) -> list:
    """A seeded sequence of one-shot commands; one in ten is invalid and must exit 1.

    ``scripts`` maps ``"valid"`` to a list of tiny scenario paths and
    ``"backwards"`` / ``"missing"`` to scripts the CLI must reject.
    """
    rng = random.Random(f"cli-{seed}")

    def amount(lo=1.0, hi=1e4):
        return _num(math.exp(rng.uniform(math.log(lo), math.log(hi))))

    def fraction():
        return f"{rng.randint(1, 10_000)}/{rng.randint(1, 100)}"

    def pool(exact):
        if exact:
            return ["--x", fraction(), "--y", fraction(), "--fee", "3/1000"]
        return ["--x", amount(), "--y", amount(), "--fee", _num(rng.uniform(0, 0.01))]

    def trade(exact):
        argv = ["--direction", rng.choice(("y2x", "x2y")),
                "--amount", fraction() if exact else amount(0.01, 1e3)]
        if rng.random() < 0.3:
            argv += ["--max-spread", f"1/{rng.randint(2, 1000)}" if exact else _num(rng.uniform(0.001, 0.5))]
        return argv

    def delta():
        return _num(math.exp(rng.uniform(-2, 2)))

    def figure(figure_id):
        return ["emit-figure", "--figure", figure_id], "time," if figure_id == "roi_comparison" else "price_change_pct,"

    valid = [
        lambda: (["quote", *pool(False), *trade(False)], "direction="),
        lambda: (["quote", *pool(True), *trade(True)], "direction="),
        lambda: (["swap", *pool(False), *trade(False), "--fee-model",
                  rng.choice(("auto_compound", "collect_separately"))], "direction="),
        lambda: (["swap", *pool(True), *trade(True), "--fee-model",
                  rng.choice(("auto_compound", "collect_separately"))], "direction="),
        lambda: (["pool-info", "--x", amount(), "--y", amount(), "--p-x", amount(0.1, 10),
                  "--p-y", amount(0.1, 10)], "rate="),
        lambda: (["il", "--delta-x", delta(), "--delta-y", delta(), "--replay-check"], "v_pooled="),
        lambda: (["evolve", "--delta-x", delta(), "--delta-y", delta(),
                  "--alpha", _num(rng.uniform(0, 0.5)), "--t", _num(rng.uniform(0, 3))], "hold="),
        lambda: (["roi", "--frac", _num(rng.uniform(0.01, 0.99)), "--alpha",
                  _num(rng.uniform(0.05, 0.5)), "--method", rng.choice(("implicit", "rk4"))], "rho_c="),
        lambda: figure(rng.choice(FIGURE_IDS)),
        lambda: (["run-scenario", rng.choice(scripts["valid"])], "label,"),
    ]
    invalid = [
        ["quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount=-5"],
        ["quote", "--x", "0", "--y", "100", "--direction", "x2y", "--amount", "5"],
        ["swap", "--x", "100", "--y", "100", "--fee", "1.5", "--direction", "x2y", "--amount", "5"],
        ["quote", "--x", "100", "--y", "100", "--direction", "y2x", "--amount", "5", "--max-spread", "1.5"],
        ["pool-info", "--x", "1", "--y", "2", "--p-x=-1"],
        ["il", "--delta-x=-1", "--delta-y", "2"],
        ["roi", "--frac", "1.5"],
        ["roi", "--method", "rk4", "--step", "0"],
        ["emit-figure", "--figure", "il_one_coin", "--count", "1"],
        ["run-scenario", scripts["backwards"]],
        ["run-scenario", scripts["missing"]],
    ]
    # Stratified, so every seed runs the same mix: each block of ten calls
    # holds one invalid call, and valid kinds come from a shuffled cycle.
    jobs, kinds = [], []
    for i in range(count):
        if i % 10 == 0:
            invalid_at = i + rng.randrange(10)
        if i == invalid_at:
            jobs.append(CallJob(tuple(rng.choice(invalid)), 1, ""))
            continue
        if not kinds:
            kinds = rng.sample(valid, len(valid))
        argv, head = kinds.pop()()
        jobs.append(CallJob(tuple(argv), 0, head))
    return jobs


def tiny_scripts(seed: int) -> dict:
    """Scenario documents for ``cli_calls``: three valid, one with time running backwards."""
    valid = [replay_script(seed * 10 + i, 20) for i in range(3)]
    backwards = replay_script(seed, 20)
    backwards["events"][5]["t"] = -1.0
    return {"valid": valid, "backwards": backwards}
