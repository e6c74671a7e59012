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

Each command's flags are declared once, in ``_COMMANDS``.  ``main`` reads a
well-formed argv (see ``_read``: a command, its exact flags, every value
passing its reader and choices) straight from that table, without
argparse.  Every other argv goes to the argparse parser that
``build_parser`` builds from the same table, which reads it as before and
writes every help text, usage line and error message.  So neither
``import cpamm.cli`` nor a well-formed command loads ``argparse``, nor the
``gettext`` and ``locale`` it brings in, which took 5 to 6 ms of each
call, with bytecode cached or not.

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

import contextlib
import io
import itertools
import math
import os
import stat
import sys
from collections.abc import Iterable, Sequence
from types import SimpleNamespace

from .errors import DomainError, InputError, InternalError, number


def _pairs(pairs: Sequence[tuple[str, object]]) -> list[str]:
    """The ``key=value`` lines to print, unless a float result is not finite."""
    for key, value in pairs:
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"{key} = {value} leaves float range")
    return ["".join(f"{key}={value!s}\n" for key, value in pairs)]


def _quote_pairs(receipt: tuple) -> list[tuple[str, object]]:
    """Every receipt value by its ``kernel._RECEIPT_FIELDS`` name; the direction by its CLI name."""
    from .kernel import _RECEIPT_FIELDS

    return list(zip(_RECEIPT_FIELDS, (receipt[0].value, *receipt[1:])))


def _swap_on_a_new_pool(args) -> tuple:
    """``((x, y, fees_x, fees_y), receipt)`` of the swap ``args`` name on a pool of ``--x``, ``--y``."""
    from .kernel import Direction, FeeModel, _execute, _opening

    fee_model = _opening(args.x, args.y, args.fee, getattr(args, "fee_model", None)
                         or FeeModel.AUTO_COMPOUND)[0]
    return _execute(args.x, args.y, 0, 0, args.fee, fee_model, Direction(args.direction),
                    args.amount, args.max_spread)


def _cmd_quote(args) -> list[str]:
    return _pairs(_quote_pairs(_swap_on_a_new_pool(args)[1]))


def _cmd_swap(args) -> list[str]:
    from .kernel import _rate

    (x, y, fees_x, fees_y), receipt = _swap_on_a_new_pool(args)
    return _pairs(
        _quote_pairs(receipt)
        + [("new_x", x), ("new_y", y), ("new_rate", _rate(x, y)), ("fees_x", fees_x),
           ("fees_y", fees_y)]
    )


def _cmd_pool_info(args) -> list[str]:
    from .kernel import FeeModel, _opening, _rate, _value

    liquidity = _opening(args.x, args.y, 0, FeeModel.AUTO_COMPOUND)[1]
    rate, value = _rate(args.x, args.y), _value(args.x, args.y, args.p_x, args.p_y)
    return _pairs([("rate", rate), ("liquidity", liquidity), ("value", value)])


def _cmd_il(args) -> list[str]:
    from .curves import _check_prices, _il, _il_replay

    _check_prices(args.delta_x, args.delta_y)
    v_pooled, v_held, loss = _il(args.delta_x, args.delta_y)
    pairs: list[tuple[str, object]] = [
        ("v_pooled", v_pooled),
        ("v_held", v_held),
        ("loss", loss),
        ("loss_pct", loss * 100.0),
    ]
    if args.replay_check:  # on a pool of 100 and 100, which opens without fail
        pairs.append(("loss_replay", _il_replay(100.0, 100.0, args.delta_x, args.delta_y)[2]))
    return _pairs(pairs)


def _cmd_evolve(args) -> list[str]:
    from .curves import _check_growth, _check_prices, _collected, _compounded, _held

    dx, dy, growth = args.delta_x, args.delta_y, args.alpha * args.t
    _check_prices(dx, dy)
    _check_growth(args.alpha, args.t)
    return _pairs(
        [
            ("hold", _held(dx, dy)),
            ("auto_compound", _compounded(dx, dy, growth)),
            ("collect_separately", _collected(dx, dy, growth)),
        ]
    )


def _cmd_roi(args) -> list[str]:
    from .curves import _roi_pair, _roi_params

    p = _roi_params(args.frac, args.alpha, args.t, step=args.step)
    rho_c, rho_nc = _roi_pair(p, args.t, args.method)
    return _pairs(
        [
            ("rho_c", rho_c),
            ("rho_nc", rho_nc),
            ("roi_c_pct", (rho_c - 1.0) * 100.0),
            ("roi_nc_pct", (rho_nc - 1.0) * 100.0),
        ]
    )


def _cmd_run_scenario(args) -> list[str]:
    # The replay engine alone, not the scenario layer's types over it, so
    # the command loads neither dataclasses nor fractions (for a script with
    # no a/b number).  Every chunk is built before the first is written,
    # since a malformed event anywhere in the script is reported before any
    # replay error; each is encoded on its own.
    from .replay import _run_script_file

    return _run_script_file(args.script)


def _cmd_emit_figure(args) -> Iterable[str]:
    from .curves import _FIGURES, _figure_chunks, _figure_spec

    lo, hi, count = _FIGURES[args.figure][0]
    grid = (lo if args.grid_min is None else args.grid_min,
            hi if args.grid_max is None else args.grid_max,
            count if args.count is None else args.count)
    overrides = {name: value for name, value in (
        ("alpha", args.alpha), ("t", args.t), ("frac_compounding", args.frac)
    ) if value is not None}
    spec = _figure_spec(args.figure, grid, **overrides)
    # The header comes once every check has passed; each chunk after it is
    # computed as the one before is written, so no figure is ever held whole.
    chunks = _figure_chunks(spec)
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


def _directions():
    from .kernel import Direction

    return [d.value for d in Direction]


def _fee_models():
    from .kernel import FeeModel

    return [m.value for m in FeeModel]


def _figure_ids():
    from .curves import _FIGURES

    return tuple(_FIGURES)


#: A flag's default when it has none: the flag must be given.
_REQUIRED = object()

_POOL = [("--x", number, _REQUIRED, None, "X reserve"),
         ("--y", number, _REQUIRED, None, "Y reserve")]
_TRADE = [
    *_POOL,
    ("--fee", number, 0, None, "fee rate in [0, 1), default 0"),
    ("--direction", str, _REQUIRED, _directions, "y2x sells Y for X, x2y sells X for Y"),
    ("--amount", number, _REQUIRED, None, "input amount"),
    ("--max-spread", number, None, None,
     "cap the input so the spread stays at or below this value"),
]

#: Every command, its help and the function that runs it, and its arguments,
#: each ``(flag, reader, default, choices, help)``.  The flag names the
#: attribute as argparse does (``--max-spread`` gives ``max_spread``); a name
#: with no ``--`` is the command's one positional argument.  The reader is
#: what turns the text into the value: ``errors.number``, ``float``, ``int``,
#: ``str`` for text, or ``bool`` for a flag that stores True when given.
#: ``choices`` is a function that gives them, so that only a command that
#: takes them loads the engine that defines them.
_COMMANDS = {
    "quote": ("price a swap without executing it", _cmd_quote, _TRADE),
    "swap": ("execute a swap against a fresh pool", _cmd_swap, [
        *_TRADE, ("--fee-model", str, None, _fee_models, "where collected fees go"),
    ]),
    "pool-info": ("rate, liquidity and value of a pool", _cmd_pool_info, [
        *_POOL,
        ("--p-x", number, 1, None, "price of X, default 1"),
        ("--p-y", number, 1, None, "price of Y, default 1"),
    ]),
    "il": ("impermanent loss for a price change", _cmd_il, [
        ("--delta-x", float, 1.0, None, "price factor for X"),
        ("--delta-y", float, 1.0, None, "price factor for Y"),
        ("--replay-check", bool, False, None,
         "also measure the loss by replaying the arbitrage on a pool"),
    ]),
    "evolve": ("portfolio evolution under both fee models", _cmd_evolve, [
        ("--delta-x", float, 1.0, None, None),
        ("--delta-y", float, 1.0, None, None),
        ("--alpha", float, 0.2, None, "fee growth rate per year"),
        ("--t", float, 1.0, None, "horizon in years"),
    ]),
    "roi": ("compounding vs collecting ROI", _cmd_roi, [
        ("--frac", float, 0.99, None, "fraction of compounding providers"),
        ("--alpha", float, 0.2, None, None),
        ("--t", float, 1.0, None, None),
        ("--method", str, "implicit", lambda: ["implicit", "rk4"], None),
        ("--step", float, 1e-3, None, "integrator step (rk4)"),
    ]),
    "run-scenario": ("replay a JSON scenario script", _cmd_run_scenario, [
        ("script", str, _REQUIRED, None, "path to the scenario JSON file"),
    ]),
    "emit-figure": ("print one analysis figure as CSV", _cmd_emit_figure, [
        ("--figure", str, _REQUIRED, _figure_ids, None),
        ("--grid-min", float, None, None, None),
        ("--grid-max", float, None, None, None),
        ("--count", int, None, None, None),
        ("--alpha", float, None, None, None),
        ("--t", float, None, None, None),
        ("--frac", float, None, None, None),
        ("--out", str, None, None, "write to this file instead of stdout"),
    ]),
}


def build_parser() -> "argparse.ArgumentParser":
    """The ``cpamm`` argparse parser, built from ``_COMMANDS``.  ``main`` runs
    it only on an argv that ``_read`` declines: help, a usage error, or a
    form argparse accepts and ``_read`` does not, such as an abbreviation."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cpamm",
        description="Constant-product pool engine and LP analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        command.set_defaults(func=run)
        for flag, reader, default, choices, text in flags:
            if reader is bool:
                command.add_argument(flag, action="store_true", help=text)
            elif not flag.startswith("-"):
                command.add_argument(flag, help=text)
            else:
                required = default is _REQUIRED
                command.add_argument(
                    flag, type=None if reader is str else reader, required=required,
                    default=None if required else default,
                    choices=choices() if choices else None, help=text,
                )
    return parser


def _negative_number(arg: str) -> bool:
    r"""Whether argparse takes ``arg``, which starts with ``-``, for a value
    and not a flag: its ``_negative_number_matcher``, ``^-\d+$|^-\d*\.\d+$``
    (whose ``$`` also matches before a final newline), which is the same
    from Python 3.10 to 3.13.0 and matches a subset of what later ones take."""
    whole, dot, part = (arg[1:-1] if arg.endswith("\n") else arg[1:]).partition(".")
    if dot:
        return (not whole or whole.isdecimal()) and part.isdecimal()
    return whole.isdecimal()


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` in."""
    return flag.lstrip("-").replace("-", "_")


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The arguments argparse reads from a well-formed ``argv``, read from
    ``_COMMANDS`` without it; None for any other argv.

    Well formed: a command, then only its exact flags, written ``--flag
    value`` or ``--flag=value`` (a ``bool`` one alone), and ``run-scenario``'s
    script once.  A value after a space that starts with ``-`` must be a
    number argparse reads as a value (``_negative_number``), and none may be
    ``--``.  Every value must pass its reader and choices, every required
    flag must be given, and a flag given twice keeps its last value.  Help,
    an abbreviation, an unknown flag, a bad value or a missing flag is left
    to argparse, which writes its usage error as it always has.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, run, flags = _COMMANDS[argv[0]]
    values = {"command": argv[0], "func": run}
    table, missing, positional = {}, set(), None
    for entry in flags:
        flag, _, default = entry[:3]
        table[flag] = entry
        values[_dest(flag)] = None if default is _REQUIRED else default
        if default is _REQUIRED:
            missing.add(flag)
        if not flag.startswith("-"):
            positional = flag
    rest = iter(argv[1:])
    for arg in rest:
        if arg.startswith("-"):
            flag, equals, value = arg.partition("=")
            if flag not in table:
                return None
            if table[flag][1] is bool:  # a switch, which takes no value
                if equals:
                    return None
                values[_dest(flag)] = True
                continue
            if not equals:
                value = next(rest, None)
                if value is None or value.startswith("-") and not _negative_number(value):
                    return None
            if value == "--":
                return None
        else:  # the positional argument, given once
            flag, value = positional, arg
            if flag not in missing:
                return None
        _, reader, _, choices, _ = table[flag]
        try:
            value = reader(value)
        except (TypeError, ValueError):
            return None
        if choices and value not in choices():
            return None
        values[_dest(flag)] = value
        missing.discard(flag)
    return None if missing else SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
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
