"""The numeric checks behind every constructor and reader: shapes, arrays, weights and integer text."""

from __future__ import annotations

import reprlib
import sys
from fractions import Fraction
from numbers import Integral, Real

import numpy as np


class InvalidDimensionError(ValueError):
    """An array or a single-number field has the wrong shape, or a grid side length is below 1."""


def as_numbers(
    value, name: str, *, shape: tuple, integer: bool = False, hi: float | None = None
) -> np.ndarray:
    """``value`` as a float64 array, or as an int64 array when ``integer`` is set.

    The array must have ``shape``: ``None`` in it matches any length, and
    ``()`` asks for a single number. A mismatch raises
    InvalidDimensionError naming ``name``. Raises ValueError naming ``name``
    for non-numeric or ragged input, a bool as a single number, NaN or
    infinities, fractions where integers are required, integers outside
    int64, and values below 0 or above ``hi``. The upper bound is checked
    first, so a NaN under it is reported as out of range.
    """
    try:
        a = np.asarray(value)
    except ValueError:  # ragged nesting
        raise ValueError(f"{name} must be a rectangular array of numbers") from None
    if a.ndim != len(shape) or any(d not in (None, got) for d, got in zip(shape, a.shape)):
        if shape == ():
            raise InvalidDimensionError(f"{name} must be a single number, got shape {a.shape}")
        want = str(shape).replace("None", "any")
        raise InvalidDimensionError(f"{name} must have shape {want}, got {a.shape}")
    if shape == () and a.dtype.kind == "b":  # True is an int to Python, not a count to a caller
        raise ValueError(f"{name} must be a number, got {value!r}")
    # Python ints past int64 arrive as uint64 or object arrays
    if a.dtype.kind == "u" and integer and a.size and int(a.max()) >= 2**63:
        raise ValueError(f"{name} must be integers within int64 range")
    if a.dtype.kind == "O" and all(isinstance(v, Real) for v in a.flat):
        exact = integer and all(isinstance(v, Integral) for v in a.flat)
        try:
            a = a.astype(np.int64 if exact else np.float64)
        except OverflowError:  # an integer past int64, or past the float range
            within = "integers within int64 range" if exact else "finite"
            raise ValueError(f"{name} must be {within}") from None
    if a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be numbers, got {a.dtype}")
    lo, top = (a.min(), a.max()) if a.size else (0, 0)  # a NaN is both, and fails every comparison
    if hi is not None and not (lo >= 0 and top <= hi):
        raise ValueError(f"{name} must lie in [0, {hi:g}]")
    if a.dtype.kind == "f":
        if not (-np.inf < lo and top < np.inf):
            raise ValueError(f"{name} must be finite")
        if integer and not np.array_equal(np.rint(a), a):
            raise ValueError(f"{name} must be whole numbers")
        if integer and not (-(2**63) < lo and top < 2**63):
            raise ValueError(f"{name} must be integers within int64 range")
    if lo < 0:
        raise ValueError(f"{name} must be nonnegative")
    return a.astype(np.int64 if integer else np.float64)


def as_seed(value) -> int:
    """``value`` as a seed: a nonnegative integer of any size, as numpy seeds take."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {reprlib.repr(value)}")
    return int(value)


def as_weights(value, name: str) -> tuple[Fraction, ...]:
    """``value`` as a tuple of exact nonnegative rationals.

    Each entry may be anything ``Fraction`` takes: an integer (a numpy one read as an int, so every
    part is an int), a finite float, a Fraction or a string such as ``"9/10"``. Raises ValueError
    naming ``name`` for anything else and for negative entries.
    """
    try:
        weights = tuple(Fraction(int(w) if isinstance(w, np.integer) else w) for w in value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{name} must be finite rational numbers: {exc}") from None
    if any(w < 0 for w in weights):
        raise ValueError(f"{name} must be nonnegative")
    return weights


def decimal_integer(text: str, kind: str = "nonnegative") -> int:
    """``text`` as an integer if it is ASCII digits only: ``int()`` also takes signs, '_' and other digits."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"must be a {kind} integer, got {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() reads
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"must have at most {limit} digits, got {len(text)}") from None
