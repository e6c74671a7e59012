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
And so does the one rule for reading a number from text or JSON,
:func:`number`, which the CLI flags and the script fields share.

"Finite" means at most the largest float, ``sys.float_info.max``, for every
number: an int or ``Fraction`` past it is rejected as ``inf`` is.
"""

import math
import sys

_TINY = sys.float_info.min
_MAX = sys.float_info.max


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
    """Figure grid leaves the mathematical domain of its curves, or a value
    to report leaves float range."""


# -- numeric domain checks -------------------------------------------------

def number(value):
    """``value`` read as a number: a ``Fraction`` if it is text with a ``/``, else a float."""
    if value.__class__ is bool:
        raise TypeError(f"expected a number, got {str(value).lower()}")
    if isinstance(value, str) and "/" in value:
        from fractions import Fraction  # only exact input loads it
        try:
            return Fraction(value)
        except ZeroDivisionError as err:
            raise ValueError(f"zero denominator in {value!r}") from err
    return float(value)


def shown(value) -> str:
    """``value`` as a message shows it: its ``str``, but an exact value with
    more digits than ``str`` gives by its size."""
    try:
        return str(value)
    except ValueError:  # past ``sys.get_int_max_str_digits()``
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        return f"an exact value of {bits} bits"


def _reject(error, what, domain, values):
    got = shown(values[0]) if len(values) == 1 else f"({', '.join(map(shown, values))})"
    raise error(f"{what} must be {domain}, got {got}")


def positive(error, what, *values):
    """Raise ``error`` unless every value is finite and strictly positive."""
    for value in values:
        if not 0 < value <= _MAX:
            _reject(error, what, "finite and positive", values)


def non_negative(error, what, *values, below=None):
    """Raise ``error`` unless every value is finite and >= 0, or in ``[0, below)``."""
    for value in values:
        if not (0 <= value <= _MAX if below is None else 0 <= value < below):
            domain = "finite and >= 0" if below is None else f"in [0, {below})"
            _reject(error, what, domain, values)


def normal(error, what, value):
    """``value``, unless it is past the largest float, or a float below the
    smallest normal one, which has lost bits; then raise ``error``.  An
    exact value below it has lost nothing."""
    exact = not isinstance(value, float)
    if not (value <= _MAX if exact else _TINY <= value <= _MAX):
        _reject(error, what, "finite" if exact else "a normal float", (value,))
    return value


def float_geometric_mean(a: float, b: float) -> float:
    """``sqrt(a * b)`` for floats, rounded as if the product had no exponent
    limit: where it leaves the normal float range, both factors are first
    scaled by one power of two, which is exact.  So ``a == b`` gives ``a``,
    and scaling both factors by a power of two scales the root by it."""
    product = a * b
    if _TINY <= product <= _MAX:
        return math.sqrt(product)
    scale = (math.frexp(a)[1] + math.frexp(b)[1]) // 2
    return math.ldexp(math.sqrt(math.ldexp(a, -scale) * math.ldexp(b, -scale)), scale)


def unit_interval(error, what, value):
    """Raise ``error`` unless ``value`` lies in ``[0, 1]``."""
    if not 0 <= value <= 1:
        _reject(error, what, "in [0, 1]", (value,))
