"""The numeric checks behind every constructor that takes numbers: arrays and weights."""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral, Real

import numpy as np


def as_numbers(value, name: str, *, integer: bool = False, hi: float | None = None) -> np.ndarray:
    """``value`` as a float64 array, or as an int64 array when ``integer`` is set.

    Raises ValueError naming ``name`` for non-numeric or ragged input, NaN or
    infinities, fractions where integers are required, integers outside int64,
    and values below 0 or above ``hi``. The upper bound is checked first, so a
    NaN under it is reported as out of range.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    # Python ints past int64 arrive as uint64 or object arrays
    if a.dtype.kind in "uO" and all(isinstance(v, Real) for v in a.flat):
        if integer and all(isinstance(v, Integral) for v in a.flat):
            if not all(-(2**63) <= v < 2**63 for v in a.flat):
                raise ValueError(f"{name} must be integers within int64 range")
            a = a.astype(np.int64)
        else:
            try:
                a = a.astype(np.float64)
            except OverflowError:  # an integer past the float range
                raise ValueError(f"{name} must be finite") from None
    if a.dtype.kind not in "bif":
        raise ValueError(f"{name} must be numbers, got {a.dtype}")
    if hi is not None and not np.all((a >= 0) & (a <= hi)):
        raise ValueError(f"{name} must lie in [0, {hi:g}]")
    if a.dtype.kind == "f":
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite")
        if integer and not np.array_equal(np.rint(a), a):
            raise ValueError(f"{name} must be whole numbers")
        if integer and not np.all(np.abs(a) < 2**63):
            raise ValueError(f"{name} must be integers within int64 range")
    if np.any(a < 0):
        raise ValueError(f"{name} must be nonnegative")
    return a.astype(np.int64 if integer else np.float64)


def as_weights(value, name: str) -> tuple[Fraction, ...]:
    """``value`` as a tuple of exact nonnegative rationals.

    Each entry may be anything ``Fraction`` takes: an integer, a finite float,
    a Fraction or a string such as ``"9/10"``. Raises ValueError naming
    ``name`` for anything else and for negative entries.
    """
    try:
        weights = tuple(Fraction(w) for w in value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be finite rational numbers: {exc}") from None
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} must be nonnegative")
    return weights
