"""Exception hierarchy shared across the package."""

from __future__ import annotations


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
