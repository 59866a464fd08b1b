"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation-type errors (bad flags,
unreadable or malformed inputs, misuse of an operation) exit with 2,
computation-type errors (fit failures, infeasible designs, degenerate
data) exit with 1. ``check_int`` is the one check of integer arguments
(counts, seeds, run lengths, filter orders, segment lengths),
``check_real`` the one check of scalar real arguments (quantiles,
levels, return periods) and ``check_floats`` the check of array
arguments that must convert to floats, so they fail the same way
everywhere.
"""

import numbers
import operator

import numpy as np


class EegxError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(EegxError):
    """Invalid input or configuration, detected before computing."""

    exit_code = 2


class FormatError(ValidationError):
    """Structurally malformed input file (header, column counts)."""


class DataError(ValidationError):
    """Unusable numeric content (non-numeric cell, NaN/Inf)."""


class UsageError(ValidationError):
    """An operation was called in a way its contract forbids."""


class ChannelLookupError(ValidationError):
    """A requested channel name does not exist in the recording."""


class SizeError(EegxError):
    """Too little data to carry out the computation."""


class DesignError(EegxError):
    """Requested filter cannot be realized at this sampling rate."""


class DomainError(EegxError):
    """Arguments lie outside the mathematical domain of an operation."""


class FitError(EegxError):
    """An estimator failed to converge or had nothing to fit."""


class SparseTailError(EegxError):
    """Too few joint tail exceedances to estimate dependence."""


def check_int(value, name: str, minimum: int) -> int:
    """``value`` as an ``int``; a :class:`UsageError` naming ``name`` when
    it is not an integer (floats and strings included) or is below
    ``minimum``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_real(value, name: str) -> float:
    """``value`` as a ``float``; a :class:`UsageError` naming ``name`` when
    it is not a real number (strings, arrays and complex numbers
    included). Range checks stay with the caller."""
    if not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    return float(value)


def check_floats(value, name: str) -> np.ndarray:
    """``value`` as a float array; a :class:`DataError` naming ``name``
    when it does not convert (strings, ragged sequences). Shape and
    finiteness checks stay with the caller."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DataError(f"{name} must hold real numbers: {exc}") from None
