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
Amounts, reserves, the fee and prices are read as scenario scripts read
numbers (``errors.number``): a float, unless written ``a/b``, an exact
fraction that keeps the whole computation exact but for an irrational
square root.  The defaults of ``--fee`` (0) and of ``--p-x`` and ``--p-y``
(1) are ints, which join either kind of number.  A fraction past the
largest float is rejected, as ``inf`` is, and so is an exact input or
result whose numerator or denominator passes ``pool.MAX_EXACT_BITS``
bits.  Exit status is 1 for rejected input or output that cannot be
written, 2 for usage errors, 3 for internal failures.  A reader that stops
early, as ``| head`` does, ends the command quietly with status 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import math
import os
import stat
import sys
from typing import Container, Iterable, List, Optional, Sequence, Tuple

from . import analytics, compounding, figures, pool, scenario
from .errors import DomainError, InputError, InternalError, number


def _pairs(pairs: Sequence[Tuple[str, object]]) -> List[str]:
    """The ``key=value`` lines to print, unless a float result is not finite."""
    for key, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{key} = {value} leaves float range")
    return ["".join(f"{key}={value!s}\n" for key, value in pairs)]


def _add_pool_args(parser: argparse.ArgumentParser, with_fee: bool = True) -> None:
    parser.add_argument("--x", type=number, required=True, help="X reserve")
    parser.add_argument("--y", type=number, required=True, help="Y reserve")
    if with_fee:
        parser.add_argument(
            "--fee", type=number, default=0, help="fee rate in [0, 1), default 0"
        )


def _add_swap_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--direction",
        required=True,
        choices=[d.value for d in pool.Direction],
        help="y2x sells Y for X, x2y sells X for Y",
    )
    parser.add_argument("--amount", type=number, required=True, help="input amount")
    parser.add_argument(
        "--max-spread",
        type=number,
        default=None,
        help="cap the input so the spread stays at or below this value",
    )


def _quote_pairs(receipt: pool.SwapReceipt) -> List[Tuple[str, object]]:
    """Every receipt field in declaration order; the direction by its CLI name."""
    from dataclasses import fields

    values = {field.name: getattr(receipt, field.name) for field in fields(receipt)}
    values["direction"] = receipt.direction.value
    return list(values.items())


def _cmd_quote(args: argparse.Namespace) -> List[str]:
    state = pool.create_pool(args.x, args.y, fee_rate=args.fee)
    receipt = pool.quote(state, pool.Direction(args.direction), args.amount, args.max_spread)
    return _pairs(_quote_pairs(receipt))


def _cmd_swap(args: argparse.Namespace) -> List[str]:
    fee_model = args.fee_model or pool.FeeModel.AUTO_COMPOUND
    state = pool.create_pool(args.x, args.y, fee_rate=args.fee, fee_model=fee_model)
    state, receipt = pool.execute_swap(
        state, pool.Direction(args.direction), args.amount, args.max_spread
    )
    return _pairs(
        _quote_pairs(receipt)
        + [
            ("new_x", state.reserve_x),
            ("new_y", state.reserve_y),
            ("new_rate", pool.rate_of(state)),
            ("fees_x", state.side_ledger.fees_x),
            ("fees_y", state.side_ledger.fees_y),
        ]
    )


def _cmd_pool_info(args: argparse.Namespace) -> List[str]:
    state = pool.create_pool(args.x, args.y)
    return _pairs(
        [
            ("rate", pool.rate_of(state)),
            ("liquidity", pool.liquidity_of(state)),
            ("value", pool.pool_value(state, args.p_x, args.p_y)),
        ]
    )


def _cmd_il(args: argparse.Namespace) -> List[str]:
    prices = analytics.PriceScenario(delta_x=args.delta_x, delta_y=args.delta_y)
    report = analytics.impermanent_loss(prices)
    pairs: List[Tuple[str, object]] = [
        ("v_pooled", report.v_pooled),
        ("v_held", report.v_held),
        ("loss", report.relative_loss),
        ("loss_pct", report.relative_loss * 100.0),
    ]
    if args.replay_check:
        replay = analytics.il_brute_force(prices, pool.create_pool(100.0, 100.0))
        pairs.append(("loss_replay", replay.relative_loss))
    return _pairs(pairs)


def _cmd_evolve(args: argparse.Namespace) -> List[str]:
    prices = analytics.PriceScenario(delta_x=args.delta_x, delta_y=args.delta_y)
    growth = analytics.GrowthParams(alpha=args.alpha, t=args.t)
    return _pairs(
        [
            ("hold", analytics.hold_value_relative(prices)),
            ("auto_compound", analytics.relative_evolution_compounded(prices, growth)),
            ("collect_separately", analytics.relative_evolution_collected(prices, growth)),
        ]
    )


def _cmd_roi(args: argparse.Namespace) -> List[str]:
    params = compounding.RoiParams(
        frac_compounding=args.frac,
        alpha=args.alpha,
        horizon=args.t,
        step=args.step,
    )
    rho_c, rho_nc = compounding.roi_pair(params, args.t, method=args.method)
    return _pairs(
        [
            ("rho_c", rho_c),
            ("rho_nc", rho_nc),
            ("roi_c_pct", (rho_c - 1.0) * 100.0),
            ("roi_nc_pct", (rho_nc - 1.0) * 100.0),
        ]
    )


def _cmd_run_scenario(args: argparse.Namespace) -> List[str]:
    # Every chunk is built before the first is written, since a malformed
    # event anywhere in the script is reported before any replay error; each
    # is encoded on its own.
    return scenario._run_script_file(args.script)


def _cmd_emit_figure(args: argparse.Namespace) -> Iterable[str]:
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
    # The header comes once every check has passed; each chunk after it is
    # computed as the one before is written, so no figure is ever held whole.
    chunks = figures._figure_chunks(spec)
    header = next(chunks)
    if not args.out:
        return itertools.chain((header,), chunks)
    try:
        handle = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as err:
        raise InputError(f"cannot write figure: {err}") from err
    try:
        with handle:
            handle.write(header)
            handle.writelines(chunks)
    except BaseException as err:
        # A partial figure is no figure; a device or a link named by --out stays.
        with contextlib.suppress(OSError):
            if stat.S_ISREG(os.lstat(args.out).st_mode):
                os.remove(args.out)
        if isinstance(err, OSError):
            raise InputError(f"cannot write figure: {err}") from err
        raise
    return []


#: Every command; ``main`` gives arguments only to the one its argv names.
_COMMANDS = ("quote", "swap", "pool-info", "il", "evolve", "roi", "run-scenario", "emit-figure")


def build_parser(commands: Container[str] = _COMMANDS) -> argparse.ArgumentParser:
    """The ``cpamm`` parser: every command is registered, so usage lines,
    top-level help and errors read the same whatever ``commands`` holds, but
    only the commands in it get their arguments, whose choices load the
    layer that defines them."""
    parser = argparse.ArgumentParser(
        prog="cpamm",
        description="Constant-product pool engine and LP analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run) -> Optional[argparse.ArgumentParser]:
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=run)
        return command if name in commands else None

    if p := add("quote", "price a swap without executing it", _cmd_quote):
        _add_pool_args(p)
        _add_swap_args(p)

    if p := add("swap", "execute a swap against a fresh pool", _cmd_swap):
        _add_pool_args(p)
        _add_swap_args(p)
        p.add_argument(
            "--fee-model", choices=[m.value for m in pool.FeeModel], help="where collected fees go"
        )

    if p := add("pool-info", "rate, liquidity and value of a pool", _cmd_pool_info):
        _add_pool_args(p, with_fee=False)
        p.add_argument("--p-x", type=number, default=1, help="price of X, default 1")
        p.add_argument("--p-y", type=number, default=1, help="price of Y, default 1")

    if p := add("il", "impermanent loss for a price change", _cmd_il):
        p.add_argument("--delta-x", type=float, default=1.0, help="price factor for X")
        p.add_argument("--delta-y", type=float, default=1.0, help="price factor for Y")
        p.add_argument(
            "--replay-check",
            action="store_true",
            help="also measure the loss by replaying the arbitrage on a pool",
        )

    if p := add("evolve", "portfolio evolution under both fee models", _cmd_evolve):
        p.add_argument("--delta-x", type=float, default=1.0)
        p.add_argument("--delta-y", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=0.2, help="fee growth rate per year")
        p.add_argument("--t", type=float, default=1.0, help="horizon in years")

    if p := add("roi", "compounding vs collecting ROI", _cmd_roi):
        p.add_argument(
            "--frac", type=float, default=0.99, help="fraction of compounding providers"
        )
        p.add_argument("--alpha", type=float, default=0.2)
        p.add_argument("--t", type=float, default=1.0)
        p.add_argument("--method", choices=["implicit", "rk4"], default="implicit")
        p.add_argument("--step", type=float, default=1e-3, help="integrator step (rk4)")

    if p := add("run-scenario", "replay a JSON scenario script", _cmd_run_scenario):
        p.add_argument("script", help="path to the scenario JSON file")

    if p := add("emit-figure", "print one analysis figure as CSV", _cmd_emit_figure):
        p.add_argument("--figure", required=True, choices=figures.FIGURE_IDS)
        p.add_argument("--grid-min", type=float, default=None)
        p.add_argument("--grid-max", type=float, default=None)
        p.add_argument("--count", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--frac", type=float, default=None)
        p.add_argument("--out", default=None, help="write to this file instead of stdout")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The top-level parser has no option that takes a value, so the first
    # argument naming a command is the command argparse runs; an argument
    # before it that names none fails as an invalid choice.
    command = next((arg for arg in argv if arg in _COMMANDS), None)
    args = build_parser((command,)).parse_args(argv)
    try:
        output = args.func(args)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    try:
        sys.stdout.writelines(output)
        sys.stdout.flush()
    except InternalError as err:  # a figure row that failed after its checks passed
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        # A closed pipe means the reader stopped early, as ``| head`` does:
        # what it read is right, so end quietly.
        broken = isinstance(err, BrokenPipeError)
        if not broken:
            print(f"error: cannot write output: {err}", file=sys.stderr)
        # What is still buffered would fail again when the interpreter
        # flushes stdout at exit, so send it nowhere.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        except io.UnsupportedOperation:  # a stream with no descriptor
            pass
        return 0 if broken else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
