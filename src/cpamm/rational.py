"""Exact-rational pool arithmetic, used as ground truth in tests.

The fee-free, uncapped swap equation is rational: the output for input ``n``
against reserves ``(x, y)`` is ``x * n / (y + n)``.  Re-implementing just
that path on ``fractions.Fraction`` gives a bit-exact oracle for the float
engine: the reserve product is preserved exactly, and splitting a trade into
arbitrarily many sequential pieces yields exactly the same total output as
one swap of the full size (the partial outputs telescope).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple

from .errors import NonPositiveAmount, NonPositiveReserve, positive
from .pool import Direction


@dataclass(frozen=True)
class RationalPool:
    """Reserves of the fee-free swap oracle, each held as the ``Fraction`` of
    the number given, which is exact for an int or a float too."""

    reserve_x: Fraction
    reserve_y: Fraction

    def __post_init__(self) -> None:
        positive(NonPositiveReserve, "reserves", self.reserve_x, self.reserve_y)
        object.__setattr__(self, "reserve_x", Fraction(self.reserve_x))
        object.__setattr__(self, "reserve_y", Fraction(self.reserve_y))

    @property
    def product(self) -> Fraction:
        return self.reserve_x * self.reserve_y


def oracle_swap(
    pool: RationalPool, direction: Direction, amount_in: Fraction
) -> Tuple[RationalPool, Fraction]:
    """Fee-free uncapped swap, computed exactly on any number's exact value."""
    positive(NonPositiveAmount, "trade amount", amount_in)
    amount_in = Fraction(amount_in)
    if direction is Direction.Y_FOR_X:
        out = pool.reserve_x * amount_in / (pool.reserve_y + amount_in)
        new_pool = RationalPool(pool.reserve_x - out, pool.reserve_y + amount_in)
    else:
        out = pool.reserve_y * amount_in / (pool.reserve_x + amount_in)
        new_pool = RationalPool(pool.reserve_x + amount_in, pool.reserve_y - out)
    return new_pool, out


def oracle_split_sum(
    pool: RationalPool, direction: Direction, parts: Iterable[Fraction]
) -> Fraction:
    """Total output of sequential swaps of ``parts``; equals one swap of the sum."""
    parts = tuple(parts)
    if not parts:
        raise NonPositiveAmount("parts must be non-empty")
    total = Fraction(0)
    current = pool
    for part in parts:
        current, out = oracle_swap(current, direction, part)
        total += out
    return total
