"""Exception hierarchy shared across the package, and the argument checks
every entry point makes, which raise :class:`OperatorValueError`.

Each rule is written once here, so the library and the command line
refuse the same values: an integer is a ``numbers.Integral`` and a real
number a ``numbers.Real``, never a ``bool`` or a ``str``; a real number and
every time in an array of times must be finite; an array of times is 1-D
with a numeric, non-bool dtype. Every message reads ``<name> must be
<rule>, got <value>``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class EffhamError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EffhamError):
    """Operands act on spaces of different dimension."""


class DimensionCapError(EffhamError):
    """A constructed matrix would exceed the configured dimension cap."""


class OperatorValueError(EffhamError):
    """Operator entries are invalid (non-square layout, NaN or Inf)."""


class PowerCapError(EffhamError):
    """A tone-polynomial power would exceed the configured maximum order."""


class TermBudgetError(EffhamError):
    """A series operation would exceed the term budget.

    The budget bounds the ``(frequency, power)`` keys a series stores and
    the key pairs one product forms (checked before it allocates). It
    defaults to 2_000_000; ``EFFHAM_MAX_TERMS`` overrides it, and a value
    that is not an integer >= 1 raises this error too.
    """


class SweepOverflowError(EffhamError):
    """A coupling-sweep factor drives a scaled order out of the range of a
    float, so a defect of the sweep would not be finite."""


class FrequencyConditionError(EffhamError):
    """A builder's frequency precondition (distinctness, no ambiguous
    three-frequency sums) is violated."""


class QuadratureError(EffhamError):
    """Quadrature refinement budget exhausted before reaching tolerance.

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
    unknown identifier, non-positive frequency)."""


class ModelCompileError(ModelError):
    """Expression evaluation failed while building matrices (dimension
    mismatch, non-square literal, dimension cap)."""


def check_integer(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an ``int``: an integer in ``[low, high]`` (no upper
    bound when ``high`` is None)."""
    if (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and low <= value and (high is None or value <= high)):
        return int(value)
    rule = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise OperatorValueError(f"{name} must be an integer {rule}, got {value!r}")


def _bound(low: float, strict: bool) -> str:
    return "" if low == -math.inf else f" {'>' if strict else '>='} {low:g}"


def check_real(name: str, value, low: float = -math.inf, strict: bool = False):
    """``value`` itself if it is a finite real number ``>= low`` (``> low``
    if ``strict``)."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if finite and (value > low if strict else value >= low):
            return value
    raise OperatorValueError(
        f"{name} must be a finite real number{_bound(low, strict)}, got {value!r}")


def check_times(name: str, times, low: float = -math.inf) -> np.ndarray:
    """``times`` as a 1-D float array; each time must be finite and ``>= low``."""
    try:
        array = np.asarray(times)
    except ValueError:  # a ragged nest of sequences
        array = np.asarray(times, dtype=object)
    if array.ndim != 1:
        got = f"shape {array.shape}"
    elif array.dtype.kind not in "iuf":
        got = f"dtype {array.dtype}"
    else:
        array = array.astype(float, copy=False)
        bad = ~(np.isfinite(array) & (array >= low))
        if not bad.any():
            return array
        got = repr(float(array[bad][0]))
    raise OperatorValueError(
        f"{name} must be a 1-D array of finite real numbers{_bound(low, False)}, got {got}")


def check_orders(orders, high: int) -> tuple[int, ...]:
    """The distinct orders of ``orders``, sorted, each an integer in
    ``[2, high]``; an empty list is refused."""
    checked = tuple(sorted({check_integer("order", n, 2, high) for n in orders}))
    if not checked:
        raise OperatorValueError("at least one order must be given")
    return checked
