"""Command-line surface for the pool engine and analytics.

Subcommands::

    quote         price a swap without executing it
    swap          execute a swap and show the resulting pool
    pool-info     rate, liquidity and value of a pool
    il            impermanent loss for a relative price change
    evolve        portfolio evolution under both fee models
    roi           compounding vs collecting ROI from the growth model
    run-scenario  replay a JSON scenario script, print snapshots as CSV
    emit-figure   print one of the five analysis figures as CSV

Scalar results print as ``key=value`` lines; tabular results print as CSV.
Amounts and reserves accept plain decimals or exact fractions like ``1/3``;
fractional inputs keep the whole computation exact.  Exit status is 1 for
rejected input, 2 for usage errors, 3 for internal failures.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import figures
from .analytics import (
    GrowthParams,
    PriceScenario,
    hold_value_relative,
    il_brute_force,
    impermanent_loss,
    relative_evolution_collected,
    relative_evolution_compounded,
)
from .compounding import RoiParams, roi_pair
from .errors import DomainError, InputError, InternalError
from .pool import (
    Direction,
    FeeModel,
    Numeric,
    SwapReceipt,
    create_pool,
    execute_swap,
    liquidity_of,
    pool_value,
    quote,
    rate_of,
)
from .scenario import _run_script_file, snapshots_to_csv


def _num(text: str) -> Numeric:
    """Parse a CLI number; a ``/`` selects the exact rational backend."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError as err:
            raise ValueError(f"zero denominator in {text!r}") from err
    return float(text)


def _print_pairs(pairs: Sequence[Tuple[str, object]]) -> None:
    """Print ``key=value`` lines, or nothing if a float result is not finite."""
    for key, value in pairs:
        # Only floats: math.isfinite would overflow converting a huge Fraction.
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{key} = {value} leaves float range")
    print("\n".join(f"{key}={value!s}" for key, value in pairs))


def _add_pool_args(parser: argparse.ArgumentParser, with_fee: bool = True) -> None:
    parser.add_argument("--x", type=_num, required=True, help="X reserve")
    parser.add_argument("--y", type=_num, required=True, help="Y reserve")
    if with_fee:
        parser.add_argument(
            "--fee", type=_num, default=0.0, help="fee rate in [0, 1), default 0"
        )


def _add_swap_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--direction",
        choices=[d.value for d in Direction],
        required=True,
        help="y2x sells Y for X, x2y sells X for Y",
    )
    parser.add_argument("--amount", type=_num, required=True, help="input amount")
    parser.add_argument(
        "--max-spread",
        type=_num,
        default=None,
        help="cap the input so the spread stays at or below this value",
    )


def _quote_pairs(receipt: SwapReceipt) -> List[Tuple[str, object]]:
    """Every receipt field in declaration order; the direction by its CLI name."""
    values = {field.name: getattr(receipt, field.name) for field in fields(receipt)}
    values["direction"] = receipt.direction.value
    return list(values.items())


def _cmd_quote(args: argparse.Namespace) -> None:
    pool = create_pool(args.x, args.y, fee_rate=args.fee)
    receipt = quote(pool, Direction(args.direction), args.amount, args.max_spread)
    _print_pairs(_quote_pairs(receipt))


def _cmd_swap(args: argparse.Namespace) -> None:
    pool = create_pool(
        args.x, args.y, fee_rate=args.fee, fee_model=FeeModel(args.fee_model)
    )
    pool, receipt = execute_swap(
        pool, Direction(args.direction), args.amount, args.max_spread
    )
    _print_pairs(
        _quote_pairs(receipt)
        + [
            ("new_x", pool.reserve_x),
            ("new_y", pool.reserve_y),
            ("new_rate", rate_of(pool)),
            ("fees_x", pool.side_ledger.fees_x),
            ("fees_y", pool.side_ledger.fees_y),
        ]
    )


def _cmd_pool_info(args: argparse.Namespace) -> None:
    pool = create_pool(args.x, args.y)
    _print_pairs(
        [
            ("rate", rate_of(pool)),
            ("liquidity", liquidity_of(pool)),
            ("value", pool_value(pool, args.p_x, args.p_y)),
        ]
    )


def _cmd_il(args: argparse.Namespace) -> None:
    scenario = PriceScenario(delta_x=args.delta_x, delta_y=args.delta_y)
    report = impermanent_loss(scenario)
    pairs: List[Tuple[str, object]] = [
        ("v_pooled", report.v_pooled),
        ("v_held", report.v_held),
        ("loss", report.relative_loss),
        ("loss_pct", report.relative_loss * 100.0),
    ]
    if args.replay_check:
        replay = il_brute_force(scenario, create_pool(100.0, 100.0))
        pairs.append(("loss_replay", replay.relative_loss))
    _print_pairs(pairs)


def _cmd_evolve(args: argparse.Namespace) -> None:
    scenario = PriceScenario(delta_x=args.delta_x, delta_y=args.delta_y)
    growth = GrowthParams(alpha=args.alpha, t=args.t)
    _print_pairs(
        [
            ("hold", hold_value_relative(scenario)),
            ("auto_compound", relative_evolution_compounded(scenario, growth)),
            ("collect_separately", relative_evolution_collected(scenario, growth)),
        ]
    )


def _cmd_roi(args: argparse.Namespace) -> None:
    params = RoiParams(
        frac_compounding=args.frac,
        alpha=args.alpha,
        horizon=args.t,
        step=args.step,
    )
    rho_c, rho_nc = roi_pair(params, args.t, method=args.method)
    _print_pairs(
        [
            ("rho_c", rho_c),
            ("rho_nc", rho_nc),
            ("roi_c_pct", (rho_c - 1.0) * 100.0),
            ("roi_nc_pct", (rho_nc - 1.0) * 100.0),
        ]
    )


def _cmd_run_scenario(args: argparse.Namespace) -> None:
    print(snapshots_to_csv(_run_script_file(args.script)), end="")


def _cmd_emit_figure(args: argparse.Namespace) -> None:
    overrides = {}
    if args.grid_min is not None or args.grid_max is not None or args.count is not None:
        base = figures.default_figure_spec(args.figure).domain_grid
        overrides["domain_grid"] = (
            base[0] if args.grid_min is None else args.grid_min,
            base[1] if args.grid_max is None else args.grid_max,
            base[2] if args.count is None else args.count,
        )
    for name, value in (
        ("alpha", args.alpha),
        ("t", args.t),
        ("frac_compounding", args.frac),
    ):
        if value is not None:
            overrides[name] = value
    spec = figures.default_figure_spec(args.figure, **overrides)
    text = figures.emit_figure(spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        print(text, end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpamm",
        description="Constant-product pool engine and LP analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quote", help="price a swap without executing it")
    _add_pool_args(p)
    _add_swap_args(p)
    p.set_defaults(func=_cmd_quote)

    p = sub.add_parser("swap", help="execute a swap against a fresh pool")
    _add_pool_args(p)
    _add_swap_args(p)
    p.add_argument(
        "--fee-model",
        choices=[m.value for m in FeeModel],
        default=FeeModel.AUTO_COMPOUND.value,
        help="where collected fees go",
    )
    p.set_defaults(func=_cmd_swap)

    p = sub.add_parser("pool-info", help="rate, liquidity and value of a pool")
    _add_pool_args(p, with_fee=False)
    p.add_argument("--p-x", type=_num, default=1.0, help="price of X, default 1")
    p.add_argument("--p-y", type=_num, default=1.0, help="price of Y, default 1")
    p.set_defaults(func=_cmd_pool_info)

    p = sub.add_parser("il", help="impermanent loss for a price change")
    p.add_argument("--delta-x", type=float, default=1.0, help="price factor for X")
    p.add_argument("--delta-y", type=float, default=1.0, help="price factor for Y")
    p.add_argument(
        "--replay-check",
        action="store_true",
        help="also measure the loss by replaying the arbitrage on a pool",
    )
    p.set_defaults(func=_cmd_il)

    p = sub.add_parser("evolve", help="portfolio evolution under both fee models")
    p.add_argument("--delta-x", type=float, default=1.0)
    p.add_argument("--delta-y", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.2, help="fee growth rate per year")
    p.add_argument("--t", type=float, default=1.0, help="horizon in years")
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("roi", help="compounding vs collecting ROI")
    p.add_argument(
        "--frac", type=float, default=0.99, help="fraction of compounding providers"
    )
    p.add_argument("--alpha", type=float, default=0.2)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--method", choices=["implicit", "rk4"], default="implicit")
    p.add_argument("--step", type=float, default=1e-3, help="integrator step (rk4)")
    p.set_defaults(func=_cmd_roi)

    p = sub.add_parser("run-scenario", help="replay a JSON scenario script")
    p.add_argument("script", help="path to the scenario JSON file")
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("emit-figure", help="print one analysis figure as CSV")
    p.add_argument("--figure", choices=list(figures.FIGURE_IDS), required=True)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--frac", type=float, default=None)
    p.add_argument("--out", default=None, help="write to this file instead of stdout")
    p.set_defaults(func=_cmd_emit_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
