"""Exception hierarchy shared across the package, and the one check of
each kind of argument.

The CLI maps these onto exit codes: validation-type errors (bad flags,
unreadable or malformed inputs, misuse of an operation) exit with 2,
computation-type errors (fit failures, infeasible designs, degenerate
data) exit with 1. ``check_int`` checks integer arguments (counts,
seeds, run lengths, orders) against a minimum, and ``check_real``
scalar real arguments and record fields against an interval written as
in mathematics, ``"(0, 1]"`` or ``"[1, inf)"``, by default ``"(-inf,
inf)"``, a finite real: anything else, booleans included, is a
``UsageError``. ``check_floats`` converts array arguments: text,
ragged, object or complex input is a ``DataError``, the wrong number of
dimensions a ``ValidationError``, and NaN or Inf, where finite values
are asked for, a ``DataError``. Checks that relate two values (an edge
below another, a length within a sample size) and size minima stay
with the callers.
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
    it is not an integer (booleans, floats and strings included) or is
    below ``minimum``."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise UsageError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise UsageError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """``value`` as a ``float`` that lies in ``interval``, written as in
    mathematics (``"(0, 1]"``, ``"[0.8, 0.999]"``, ``"[1, inf)"``); a
    :class:`UsageError` naming ``name`` when it is not a real number
    (booleans, strings, arrays and complex numbers included) or lies
    outside. NaN lies in no interval and an infinity in none open at it,
    so the default asks for a finite real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise UsageError(f"{name} must be a real number, got {value!r}")
    x = float(value)
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if not (
        (lo <= x if interval[0] == "[" else lo < x)
        and (x <= hi if interval[-1] == "]" else x < hi)
    ):
        raise UsageError(f"{name} must lie in {interval}, got {x}")
    return x


def check_floats(value, name: str, ndim: int | None = None, finite: bool = False) -> np.ndarray:
    """``value`` as a float array, named ``name`` in the error: a
    :class:`DataError` when it does not hold real numbers (text, ragged
    sequences, object and complex arrays), a :class:`ValidationError`
    when ``ndim`` is given and the array has another number of
    dimensions, and a :class:`DataError` when ``finite`` is set and a
    value is NaN or Inf. Booleans and integers convert. Converts without
    a copy where ``value`` already is a float array."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:  # ragged nested sequences
        raise DataError(f"{name} must hold real numbers: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if finite and not np.isfinite(arr).all():
        raise DataError(f"{name} must be finite; found NaN or Inf")
    return arr
