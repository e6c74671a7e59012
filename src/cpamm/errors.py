"""Exception hierarchy.

``InputError`` subclasses signal bad arguments or domain violations and are
also ``ValueError``s, so generic callers can catch either.  ``InternalError``
subclasses indicate a bug in this package (a solver that should always
converge failed, an invariant broke) and are ``RuntimeError``s.

The numeric domain checks live here too, so every layer decides "is this a
valid amount?" the same way: chained comparisons, which NaN fails and
``Fraction`` passes exactly, raising the ``InputError`` the caller names.
So does the float rule for ``sqrt(a * b)``: the pool engine and the
analytics both use it, and the analytics commands never load the pool.
"""

import math
import sys

_TINY = sys.float_info.min


class CpammError(Exception):
    """Base class for every error raised by this package."""


class InputError(CpammError, ValueError):
    """Invalid argument or domain violation."""


class InternalError(CpammError, RuntimeError):
    """Invariant violation inside the package; indicates a bug."""


# -- pool engine ---------------------------------------------------------

class NonPositiveReserve(InputError):
    """Pool reserves must be strictly positive."""


class InactivePool(InputError):
    """Operation requires an active (non-empty) pool."""


class InvalidFee(InputError):
    """Fee rate must lie in [0, 1)."""


class InvalidRate(InputError):
    """Exchange rate must be strictly positive."""


class NonPositiveInput(InputError):
    """Argument must be strictly positive."""


class NonPositiveAmount(InputError):
    """Trade or share amount must be strictly positive."""


class SpreadOutOfRange(InputError):
    """Spread cap outside the valid domain for the trade direction."""


class RateMismatch(InputError):
    """Deposit ratio or pool rate deviates from the required value."""


class InsufficientShares(InputError):
    """Provider does not own enough shares."""


class NonPositivePrice(InputError):
    """Market price must be strictly positive."""


# -- analytics and simulation --------------------------------------------

class NonPositiveDelta(InputError):
    """Relative price change must be strictly positive."""


class InvalidStep(InputError):
    """Integration step must be strictly positive."""


class EmptyWindow(InputError):
    """Measurement window must have positive length."""


class NoConvergence(InternalError):
    """Root finder hit its iteration cap; the equation is monotone, so this
    signals a solver bug rather than a hard instance."""


# -- scenario scripts and reporting --------------------------------------

class ScriptError(InputError):
    """Malformed scenario script or script-level invariant violation."""


class DomainError(InputError):
    """Figure grid leaves the mathematical domain of its curves."""


# -- numeric domain checks -------------------------------------------------

def _reject(error, what, domain, values):
    got = values[0] if len(values) == 1 else f"({', '.join(map(str, values))})"
    raise error(f"{what} must be {domain}, got {got}")


def positive(error, what, *values):
    """Raise ``error`` unless every value is finite and strictly positive."""
    for value in values:
        if not 0 < value < math.inf:
            _reject(error, what, "finite and positive", values)


def non_negative(error, what, *values, below=math.inf):
    """Raise ``error`` unless every value lies in ``[0, below)``."""
    for value in values:
        if not 0 <= value < below:
            domain = "finite and >= 0" if below == math.inf else f"in [0, {below})"
            _reject(error, what, domain, values)


def normal(error, what, value):
    """``value``, unless it is a float outside the normal range: past the
    largest float it is inf, and below the smallest normal one it has lost
    bits; then raise ``error``.  Exact values are not looked at."""
    if isinstance(value, float) and not _TINY <= value < math.inf:
        _reject(error, what, "a normal float", (value,))
    return value


def float_geometric_mean(a: float, b: float) -> float:
    """``sqrt(a * b)`` for floats, rounded as if the product had no exponent
    limit: where it leaves the normal float range, both factors are first
    scaled by one power of two, which is exact.  So ``a == b`` gives ``a``,
    and scaling both factors by a power of two scales the root by it."""
    product = a * b
    if _TINY <= product < math.inf:
        return math.sqrt(product)
    scale = (math.frexp(a)[1] + math.frexp(b)[1]) // 2
    return math.ldexp(math.sqrt(math.ldexp(a, -scale) * math.ldexp(b, -scale)), scale)


def unit_interval(error, what, value):
    """Raise ``error`` unless ``value`` lies in ``[0, 1]``."""
    if not 0 <= value <= 1:
        _reject(error, what, "in [0, 1]", (value,))
