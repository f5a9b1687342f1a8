"""Exception hierarchy shared across the package, and the argument checks
every entry point makes, which raise :class:`OperatorValueError`.

Each rule is written once here, so the library and the command line
refuse the same values: an integer is a ``numbers.Integral`` and a real
number a ``numbers.Real``, never a ``bool`` or a ``str``; a real number and
every time in an array of times must be finite; an array of times is 1-D
with a numeric, non-bool dtype, and a sequence of times holds no ``bool``.
Every message reads ``<name> must be <rule>, got <value>``, with the
middle of a long value cut out by :func:`elide`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

#: The package's one budget, in bytes: a series product or integral, or a
#: quadrature level, whose projected peak would pass it is refused before it
#: allocates. Stages read it as ``errors.BYTE_BUDGET`` at call time, so that
#: one assignment moves every stage.
BYTE_BUDGET = 256 << 20


class EffhamError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EffhamError):
    """Operands act on spaces of different dimension."""


class NumericalGuardError(EffhamError):
    """Base class for the numerical guards: a budget, a cap or the float
    range that a computation would exceed. ``effham report`` ends on any of
    these with exit 3."""


class DimensionCapError(NumericalGuardError):
    """A constructed matrix would exceed the configured dimension cap."""


class OperatorValueError(EffhamError):
    """Operator entries are invalid (non-square layout, NaN or Inf)."""


class PowerCapError(NumericalGuardError):
    """A tone-polynomial power would exceed the configured maximum order."""


class TermBudgetError(NumericalGuardError):
    """A series product, integral or derivative whose monomials would pass
    :data:`BYTE_BUDGET`, checked on their projected bytes before they are
    formed. The message names the count and the stage, the dimension, the
    projection and the budget."""


class SweepOverflowError(NumericalGuardError):
    """A coupling-sweep factor drives a scaled order out of the range of a
    float, so a defect of the sweep would not be finite."""


class SeriesOverflowError(NumericalGuardError):
    """A series coefficient, or a series value on the report's time grid,
    is not finite: the couplings or the times are so large that a product
    or sum of series, or a defect or gap measured on that grid, leaves the
    range of a float."""


class FrequencyConditionError(EffhamError):
    """A builder's frequency precondition (distinctness, no ambiguous
    three-frequency sums) is violated."""


class QuadratureError(NumericalGuardError):
    """Quadrature refinement whose next level would pass :data:`BYTE_BUDGET`
    before reaching tolerance, or a nested chain that overflowed, which no
    finer grid brings back.

    Carries the best available estimate in ``best``.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


class ModelError(EffhamError):
    """Base class for model-file diagnostics; carries a source location."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col if col is not None else 0}: {message}"
        super().__init__(message)


class UnknownModelError(ModelError, OperatorValueError):
    """A built-in model name that is not in the zoo. It is an
    :class:`OperatorValueError` too, as an unknown name has always been."""


class ModelSyntaxError(ModelError):
    """Tokenization or grammar failure in a model file."""


class ModelValidationError(ModelError):
    """The file parsed but violates a static rule (duplicate name,
    unknown identifier, a frequency that is not a carrier)."""


class ModelCompileError(ModelError):
    """Expression evaluation failed while building matrices (dimension
    mismatch, non-square literal, dimension cap)."""


#: The longest repr of a value that a diagnostic quotes whole.
ELIDE_CAP = 80


def elide(value) -> str:
    """``repr(value)`` itself if it has at most ``ELIDE_CAP`` characters;
    else its first and last ``ELIDE_CAP / 2`` around a note of how many
    characters were cut, so that a long value cannot swamp a one-line
    diagnostic."""
    text, half = repr(value), ELIDE_CAP // 2
    cut = len(text) - ELIDE_CAP
    return text if cut <= 0 else f"{text[:half]}...[{cut} characters cut]...{text[-half:]}"


def check_integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int``: an integer in ``[low, high]`` (no upper
    bound when ``high`` is None)."""
    if (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and low <= value and (high is None or value <= high)):
        return int(value)
    rule = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise OperatorValueError(f"{name} must be an integer {rule}, got {elide(value)}")


def _bound(low: float, strict: bool) -> str:
    return "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"


def _is_real(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _as_float(value: numbers.Real) -> float:
    """``float(value)``, or NaN for a value too large for a float (an int or
    a ``Fraction``), so that it counts as not finite."""
    try:
        return float(value)
    except OverflowError:
        return math.nan


def check_real(name: str, value, low: float = -math.inf, strict: bool = False):
    """``value`` itself if it is a finite real number ``>= low`` (``> low``
    if ``strict``)."""
    if _is_real(value) and math.isfinite(_as_float(value)) and (
            value > low if strict else value >= low):
        return value
    raise OperatorValueError(
        f"{name} must be a finite real number{_bound(low, strict)}, got {elide(value)}")


def check_times(name: str, times, low: float = -math.inf) -> np.ndarray:
    """``times`` as a 1-D float array; each time must be finite and ``>= low``.

    A ``bool`` in a sequence is refused before numpy would promote it to
    a number. A sequence that numpy keeps as objects is converted element
    by element when every element is a real number, such as a ``Fraction``
    or an int beyond int64; one too large for a float is not finite."""
    try:
        array = np.asarray(times)
    except ValueError:  # a ragged nest of sequences
        array = np.asarray(times, dtype=object)
    given = array
    if array.ndim == 1 and array.dtype == object and all(map(_is_real, array)):
        array = np.array([_as_float(x) for x in array])
    if array.ndim != 1:
        got = f"shape {array.shape}"
    elif array.dtype.kind not in "iuf":
        got = f"dtype {array.dtype}"
    elif not isinstance(times, np.ndarray) and any(
            isinstance(x, (bool, np.bool_)) for x in times):
        got = "a bool"
    else:
        array = array.astype(float, copy=False)
        bad = ~(np.isfinite(array) & (array >= low))
        if not bad.any():
            return array
        got = elide(given[bad][0]) if given.dtype == object else repr(float(array[bad][0]))
    raise OperatorValueError(
        f"{name} must be a 1-D array of finite real numbers{_bound(low, False)}, got {got}")


def check_orders(orders, high: int) -> tuple[int, ...]:
    """The distinct orders of ``orders``, sorted, each an integer in
    ``[2, high]``; an empty list is refused."""
    checked = tuple(sorted({check_integer("order", n, 2, high) for n in orders}))
    if not checked:
        raise OperatorValueError("at least one order must be given")
    return checked
