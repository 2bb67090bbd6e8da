"""Numeric modes: double precision with a tolerance, or exact rationals.

Float mode stores values in float64 numpy arrays and compares within a
configurable tolerance. Rational mode stores `fractions.Fraction` values in
object arrays and compares exactly; it exists so that theorem-shaped tests
can demand bit-exact equality instead of closeness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import FinprobError, TooLargeError

Number = Union[float, Fraction]

FLOAT = "float"
RATIONAL = "rational"


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic regime: kind is "float" (with tolerance) or "rational" (exact)."""

    kind: str
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.kind not in (FLOAT, RATIONAL):
            raise FinprobError(f"unknown numeric mode kind {self.kind!r}")
        if self.kind == FLOAT and not self.tolerance > 0:
            raise FinprobError("float mode requires tolerance > 0")
        if self.kind == RATIONAL and self.tolerance != 0:
            raise FinprobError("rational mode is exact; tolerance must be 0")

    @property
    def exact(self) -> bool:
        return self.kind == RATIONAL

    def close(self, a, b) -> bool:
        """Scalar equality: exact in rational mode, within tolerance in float mode."""
        if self.exact:
            return a == b
        return abs(a - b) <= self.tolerance

    def all_close(self, a, b) -> bool:
        """Elementwise equality of arrays under this mode."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            return False
        if self.exact:
            return bool(np.equal(a, b).all())
        return bool((np.abs(a - b) <= self.tolerance).all())

    def zero(self) -> Number:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Number:
        return Fraction(1) if self.exact else 1.0


def float_mode(tolerance: float = 1e-9) -> NumericMode:
    return NumericMode(FLOAT, tolerance)


def rational_mode() -> NumericMode:
    return NumericMode(RATIONAL, 0.0)


FLOAT_DEFAULT = float_mode()
EXACT = rational_mode()


def as_number(x, mode: NumericMode) -> Number:
    """Coerce a scalar into the mode's number type.

    Rational mode accepts ints, Fractions and "num/den" strings; it rejects
    non-integral floats rather than silently converting their binary expansion.
    """
    if mode.exact:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)
        if isinstance(x, float):
            if x.is_integer():
                return Fraction(int(x))
            raise FinprobError(
                f"refusing to coerce non-integral float {x!r} into rational mode"
            )
        raise FinprobError(f"cannot represent {type(x).__name__} as a rational")
    return float(x)


def as_vector(values: Iterable, mode: NumericMode) -> np.ndarray:
    """Read-only 1-d array in the mode's dtype.

    Arrays that already carry the right dtype (results of internal
    arithmetic) are frozen without per-element coercion.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if (values.dtype == object) == mode.exact:
            arr = values.copy()
            arr.setflags(write=False)
            return arr
    data = [as_number(v, mode) for v in values]
    if mode.exact:
        arr = np.empty(len(data), dtype=object)
        arr[:] = data
    else:
        arr = np.asarray(data, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def as_matrix(rows: Sequence[Iterable], mode: NumericMode) -> np.ndarray:
    """Read-only 2-d array in the mode's dtype; rows must be equal length."""
    data = [[as_number(v, mode) for v in row] for row in rows]
    ncols = {len(r) for r in data}
    if len(ncols) > 1:
        raise FinprobError("ragged matrix rows")
    if mode.exact:
        arr = np.empty((len(data), ncols.pop() if ncols else 0), dtype=object)
        for i, row in enumerate(data):
            arr[i, :] = row
    else:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:  # zero columns
            arr = arr.reshape(len(data), 0)
    arr.setflags(write=False)
    return arr


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product working for both float64 and object (Fraction) arrays."""
    return np.dot(a, b)


def _int_nth_root(k: int, n: int):
    """Exact integer n-th root of k >= 0, or None if k is not a perfect power."""
    if k < 0:
        return None
    if k in (0, 1) or n == 1:
        return k
    if n == 2:
        r = math.isqrt(k)
    else:  # integer Newton steps down from a power of two above the root
        r = 1 << -(-k.bit_length() // n)
        while True:
            s = ((n - 1) * r + k // r ** (n - 1)) // n
            if s >= r:
                break
            r = s
    return r if r**n == k else None


def _float_root(frac: Fraction, n: int) -> float:
    """n-th root of a positive rational as a float, also when the rational
    itself lies outside the float range."""
    try:
        value = float(frac)
    except OverflowError:
        value = 0.0
    if value > 0.0:
        return value ** (1.0 / n)
    # Split off a power of 2**n so that the rest converts, then scale back.
    shift = (frac.numerator.bit_length() - frac.denominator.bit_length()) // n
    rest = float(frac / Fraction(2) ** (shift * n))
    try:
        return math.ldexp(rest ** (1.0 / n), shift)
    except OverflowError:
        raise TooLargeError(
            f"root of index {n} of a value near 2**{shift * n} exceeds the float range"
        ) from None


def nth_root(value: Number, n: int, mode: NumericMode) -> Number:
    """n-th root of a nonnegative number.

    In rational mode the result is an exact Fraction whenever the root is
    rational (in particular for value 0), and a float otherwise.
    """
    if n < 1:
        raise FinprobError("root index must be >= 1")
    if mode.exact:
        frac = Fraction(value)
        if frac < 0:
            raise FinprobError("nth_root of a negative value")
        if frac == 0:
            return Fraction(0)
        if n == 1:
            return frac
        num = _int_nth_root(frac.numerator, n)
        den = _int_nth_root(frac.denominator, n)
        if num is not None and den is not None:
            return Fraction(num, den)
        return _float_root(frac, n)
    v = float(value)
    if v < 0:
        raise FinprobError("nth_root of a negative value")
    return v ** (1.0 / n)


def exact_sqrt(value: Number, mode: NumericMode) -> Number:
    return nth_root(value, 2, mode)


def is_infinite(n) -> bool:
    """True for the L-infinity norm index."""
    return n == math.inf


def check_norm_index(n) -> None:
    if is_infinite(n):
        return
    if isinstance(n, int) and n >= 1:
        return
    if isinstance(n, float) and n.is_integer() and n >= 1:
        return
    raise FinprobError(f"norm index must be a positive integer or math.inf, got {n!r}")
