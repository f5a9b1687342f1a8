"""The argument checks of ``effham.errors``, the value elision of their
one-line messages, and the split of the error classes by exit code."""

from fractions import Fraction

import pytest

from effham import OperatorValueError, errors
from effham.errors import (DimensionMismatchError, EffhamError, FrequencyConditionError,
                           ModelError, NumericalGuardError, check_integer, check_real,
                           check_times, elide)

HUGE = 10**400  # 401 digits, too large for a float


def test_elide_keeps_a_repr_up_to_the_cap():
    assert elide("x" * 78) == repr("x" * 78)  # 80 characters with the quotes


def test_elide_keeps_both_ends_of_a_repr_and_counts_the_cut():
    text = "a" * 39 + "b" * 21 + "c" * 39  # a repr of 101 characters
    assert elide(text) == "'" + "a" * 39 + "...[21 characters cut]..." + "c" * 39 + "'"


@pytest.mark.parametrize("check, args, head", [
    (check_real, ("x", HUGE), "x must be a finite real number, got "),
    (check_integer, ("n", HUGE, 0, 5), "n must be an integer in [0, 5], got "),
])
def test_huge_integer_is_refused_with_a_short_message(check, args, head):
    with pytest.raises(OperatorValueError) as err:
        check(*args)
    digits = repr(HUGE)
    assert str(err.value) == (head + digits[:40] + "...[321 characters cut]..."
                              + digits[-40:])
    assert len(str(err.value).encode()) < 200


def test_huge_integer_passes_an_unbounded_integer_check():
    assert check_integer("n", HUGE, 0) == HUGE


@pytest.mark.parametrize("check, args, message", [
    (check_real, ("x", -1.5, 0.0), "x must be a finite real number >= 0, got -1.5"),
    (check_real, ("x", "1"), "x must be a finite real number, got '1'"),
    (check_integer, ("n", 10**79, 0, 5), f"n must be an integer in [0, 5], got {10**79}"),
    (check_integer, ("n", 2.5, 0), "n must be an integer >= 0, got 2.5"),
])
def test_value_within_the_cap_is_printed_whole(check, args, message):
    with pytest.raises(OperatorValueError) as err:
        check(*args)
    assert str(err.value) == message


def test_ragged_times_are_refused_by_dtype():
    with pytest.raises(OperatorValueError) as err:
        check_times("t", [[1, 2], [3]])
    assert str(err.value) == "t must be a 1-D array of finite real numbers, got dtype object"


def test_times_of_real_objects_are_converted_one_by_one():
    # numpy keeps a Fraction, or an int beyond int64, as an object
    times = check_times("t", [Fraction(1, 2), 10**20, 0.25])
    assert times.dtype == float and times.tolist() == [0.5, 1e20, 0.25]


@pytest.mark.parametrize("times, got", [
    ([HUGE], repr(HUGE)[:40] + "...[321 characters cut]..." + repr(HUGE)[-40:]),
    ([Fraction(-1, 2)], "Fraction(-1, 2)"),
    ([-1], "-1.0"),
])
def test_times_refusals_quote_the_value_given(times, got):
    with pytest.raises(OperatorValueError) as err:
        check_times("t", times, 0.0)
    assert str(err.value) == f"t must be a 1-D array of finite real numbers >= 0, got {got}"


#: The six numerical guards; ``effham report`` exits 3 on each.
GUARDS = ("DimensionCapError", "PowerCapError", "TermBudgetError", "SweepOverflowError",
          "SeriesOverflowError", "QuadratureError")

#: Library refusals that ``effham report`` checks up front or never reaches.
LIBRARY_ONLY = (OperatorValueError, DimensionMismatchError, FrequencyConditionError)


def test_every_error_class_has_exactly_one_exit_code_group():
    classes = [c for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, EffhamError) and c is not EffhamError]
    for c in classes:
        # UnknownModelError is an OperatorValueError too, but exits 2 as a ModelError
        groups = [issubclass(c, ModelError), issubclass(c, NumericalGuardError),
                  c in LIBRARY_ONLY]
        assert groups.count(True) == 1, c.__name__
    guards = {c.__name__ for c in classes if issubclass(c, NumericalGuardError)}
    assert guards == {"NumericalGuardError", *GUARDS}
