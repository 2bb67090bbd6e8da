"""Numeric modes: double precision with a tolerance, or exact rationals.

Float mode stores values in float64 numpy arrays and compares within a
configurable tolerance. Rational mode compares exactly; it exists so that
theorem-shaped tests can demand bit-exact equality instead of closeness.

In rational mode, random variables and space weights are held as
`Rationals`: an integer numerator array over positive integer
denominators, of shape (n,) for real values or (n, d) for values in R^d.
An array whose entries share a denominator keeps one common value (weights
always do); conditional expectations carry one denominator per block and
component. A kernel holds an integer numerator matrix over one common
denominator, in lowest terms, and a stack of kernels one denominator per
kernel. Each operation first bounds its results from the data; the arrays
are int64 when that bound fits and Python-int object arrays otherwise, so
no result ever wraps around. `fractions.Fraction` objects appear at the
boundary: scalar results, `.values`/`.weights`/`.rows` (built on first
access and cached), input given as Fractions, and the text formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import FinprobError, SizeMismatchError, TooLargeError

Number = Union[float, Fraction]


class Frozen:
    """Base of the immutable slotted classes: a constructor binds the slots
    through `object.__setattr__`, and assignment raises. Copies and pickles
    carry the slots that are set, skipping a lazily built cache not yet
    read, and restore them the same way, their arrays read-only."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getstate__(self) -> dict:
        state = {}
        for cls in type(self).__mro__:
            for name in cls.__dict__.get("__slots__", ()):
                try:  # object.__getattribute__ does not fall back on a lazy __getattr__
                    state[name] = object.__getattribute__(self, name)
                except AttributeError:
                    pass
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray) and value.flags.writeable:
                value = value.view()  # freezing a view leaves a shared array as it is
                value.setflags(write=False)
            object.__setattr__(self, name, value)


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

    def close_mask(self, a, b) -> np.ndarray:
        """Elementwise equality of broadcastable arrays under this mode, as a boolean array."""
        if self.exact:
            return np.equal(a, b)
        return np.abs(np.subtract(a, b)) <= self.tolerance

    def value_close_mask(self, a, b) -> np.ndarray:
        """`close_mask` for random-variable values: in float mode within the
        tolerance times max(1, the largest magnitude of either operand),
        since rounding grows with the size of the values. Kernel entries are
        at most 1 and keep the absolute tolerance."""
        if self.exact:
            return np.equal(a, b)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
        return np.abs(np.subtract(a, b)) <= self.tolerance * scale

    def all_close(self, a, b) -> bool:
        """Equality of same-shape arrays at every entry under this mode."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            return False
        return bool(self.close_mask(a, b).all())

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


def _in_mode_dtype(arr: np.ndarray, mode: NumericMode) -> bool:
    """float64, or in rational mode an object array of Fractions only."""
    if mode.exact:
        return arr.dtype == object and set(map(type, arr.flat)) <= {Fraction}
    return arr.dtype == np.float64


def as_vector(values: Iterable, mode: NumericMode) -> np.ndarray:
    """Read-only 1-d array in the mode's dtype.

    Arrays that already hold the mode's numbers (results of internal
    arithmetic) are frozen as they are; any other goes like a list.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and _in_mode_dtype(values, mode):
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
    """Read-only 2-d array in the mode's dtype; a row of another length than
    row 0 is a `SizeMismatchError` that names it."""
    data = [[as_number(v, mode) for v in row] for row in rows]
    ncols = len(data[0]) if data else 0
    for i, row in enumerate(data):
        if len(row) != ncols:
            raise SizeMismatchError(f"matrix row {i} has {len(row)} entries, row 0 has {ncols}")
    if mode.exact:
        arr = np.empty((len(data), ncols), dtype=object)
        for i, row in enumerate(data):
            arr[i, :] = row
    else:
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:  # zero columns
            arr = arr.reshape(len(data), 0)
    arr.setflags(write=False)
    return arr


def _freeze_matrix(rows, mode: NumericMode) -> np.ndarray:
    """Read-only array in the mode's dtype: an array that already holds the
    mode's numbers as it is, anything else like a list through `as_matrix`,
    which converts ints and integral floats and refuses the rest."""
    if isinstance(rows, np.ndarray):
        if _in_mode_dtype(rows, mode):
            m = rows.copy()
            m.setflags(write=False)
            return m
        rows = rows.tolist()
    return as_matrix(rows, mode)


def per_row(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One entry of w per outcome, shaped to broadcast along x's trailing value axes."""
    return w.reshape(w.shape + (1,) * (x.ndim - w.ndim))


def _first(mask: np.ndarray) -> tuple:
    """Index of the first true entry of a boolean array, in row-major order."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _at(index: tuple, names: tuple) -> str:
    """"sequence s, step t, row x": each index with the name of its axis."""
    return ", ".join(map("{} {}".format, names, index))


_INT64_MAX = (1 << 63) - 1


def magnitude(a: np.ndarray) -> int:
    """Largest absolute value in an integer array, as a Python int (0 when empty)."""
    return int(np.abs(a).max()) if a.size else 0


def widen(bound: int, *arrays: np.ndarray) -> tuple:
    """The arrays as they are when `bound` fits int64, else as Python ints."""
    if bound <= _INT64_MAX:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def int_array(values, bound: int) -> np.ndarray:
    """Integers as int64 when `bound` (on every magnitude) fits, else as objects."""
    return np.array(values, dtype=np.int64 if bound <= _INT64_MAX else object)


class Rationals:
    """Exact array num / den of same-shape integer arrays with den > 0:
    shape (n,) for real values, (n, d) for values in R^d.

    Fractions need not be in lowest terms. Every operation bounds its
    results before computing them and switches to Python ints when int64
    could overflow (see the module docstring).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num = num
        self.den = den

    @classmethod
    def from_ints(cls, nums: Sequence[int], dens: Sequence[int]) -> "Rationals":
        """From numerators and positive denominators: over their common
        denominator when that fits int64, else one denominator each."""
        common = math.lcm(*set(dens))
        top = max(map(abs, nums), default=0)
        if max(top, 1) * common <= _INT64_MAX:
            num = np.array(nums, dtype=np.int64)
            num *= common // np.array(dens, dtype=np.int64)
            return cls(num, np.full(len(nums), common, dtype=np.int64))
        bound = max(top, max(dens))
        return cls(int_array(nums, bound), int_array(dens, bound))

    @classmethod
    def of(cls, values: Iterable) -> "Rationals":
        """From Fractions and ints: a sequence, or an object array of any shape."""
        values = np.asarray(values, dtype=object)
        flat = values.ravel().tolist()
        out = cls.from_ints([v.numerator for v in flat], [v.denominator for v in flat])
        return cls(out.num.reshape(values.shape), out.den.reshape(values.shape))

    @classmethod
    def over(cls, num: np.ndarray, den: int) -> "Rationals":
        """Integer numerators over one denominator."""
        return cls(num, np.full(num.shape, den, dtype=np.int64 if den <= _INT64_MAX else object))

    def __len__(self) -> int:
        return len(self.num)

    def take(self, idx) -> "Rationals":
        return Rationals(self.num[idx], self.den[idx])

    def common_den(self) -> Union[int, None]:
        """The denominator every entry shares, or None."""
        d = self.den
        if not d.size:
            return 1
        return int(d.flat[0]) if (d == d.flat[0]).all() else None

    def over_common(self) -> tuple[np.ndarray, int]:
        """(numerators, L): value[i] = numerators[i] / L, L the lcm of the denominators."""
        common = self.common_den()
        if common is not None:
            return self.num, common
        common = math.lcm(*set(self.den.ravel().tolist()))
        num, den = widen(max(magnitude(self.num), 1) * common, self.num, self.den)
        return num * (common // den), common

    def over_block_lcm(self, labels: np.ndarray, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
        """(numerators, block denominators): value[i] = numerators[i] /
        block_den[labels[i]], each block (and value component) over the lcm
        of its members' denominators."""
        block_den = np.ones((n_blocks, *self.den.shape[1:]), dtype=object)
        den = self.den.astype(object)
        np.lcm.at(block_den, labels, den)
        num = self.num.astype(object) * (block_den[labels] // den)
        if max(magnitude(num), magnitude(block_den)) <= _INT64_MAX:
            return num.astype(np.int64), block_den.astype(np.int64)
        return num, block_den

    def same_den(self, other: "Rationals") -> bool:
        return self.den is other.den or np.array_equal(self.den, other.den)

    def add(self, other: "Rationals", sign: int = 1) -> "Rationals":
        """Elementwise self + sign * other, over the pairwise lcm of denominators."""
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if self.same_den(other):
            an, bn = widen(magnitude(an) + magnitude(bn), an, bn)
            return Rationals(an + bn if sign > 0 else an - bn, ad)
        tad, tbd = magnitude(ad), magnitude(bd)
        bound = max(magnitude(an) * tbd + magnitude(bn) * tad, tad * tbd)
        an, ad, bn, bd = widen(bound, an, ad, bn, bd)
        g = np.gcd(ad, bd)
        ca, cb = bd // g, ad // g
        num = an * ca + bn * cb if sign > 0 else an * ca - bn * cb
        return Rationals(num, ad * ca)

    def equal(self, other: "Rationals") -> np.ndarray:
        """Elementwise exact equality, by cross-multiplication."""
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if self.same_den(other):
            return an == bn
        bound = max(magnitude(an) * magnitude(bd), magnitude(bn) * magnitude(ad))
        an, ad, bn, bd = widen(bound, an, ad, bn, bd)
        return an * bd == bn * ad

    def mul(self, other: "Rationals") -> "Rationals":
        """Elementwise product."""
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        bound = max(magnitude(an) * magnitude(bn), magnitude(ad) * magnitude(bd))
        an, ad, bn, bd = widen(bound, an, ad, bn, bd)
        return Rationals(an * bn, ad * bd)

    def fractions(self) -> np.ndarray:
        """Read-only object array of the values as Fractions."""
        return fraction_array(self.num, self.den)


def fraction_array(num: np.ndarray, den) -> np.ndarray:
    """Read-only object array of the Fractions num / den, for integer arrays
    of any shape; `den` broadcasts against `num`. Equal (num, den) pairs,
    as in a block-constant random variable, share one Fraction."""
    num, den = np.broadcast_arrays(num, np.asarray(den))
    out = np.empty(num.shape, dtype=object)
    made = {}
    out.reshape(-1)[:] = [
        made[p] if p in made else made.setdefault(p, Fraction(*p))
        for p in zip(num.ravel().tolist(), den.ravel().tolist())
    ]
    out.setflags(write=False)
    return out


def int_numerators(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(numerators, L) of an object array of Fractions, of any shape:
    values = numerators / L, L the lcm of the denominators. The numerators
    are int64 when their absolute sum fits, so that no sum over them wraps."""
    flat = values.ravel().tolist()
    den = math.lcm(*{v.denominator for v in flat})
    nums = [v.numerator * (den // v.denominator) for v in flat]
    return int_array(nums, sum(map(abs, nums))).reshape(values.shape), den


def int_dot(a: np.ndarray, b: np.ndarray):
    """Exact sum of a[i] * b[i] over integer arrays: a Python int, or for an
    (n, d) array b an integer array of d sums."""
    a, b = widen(len(a) * magnitude(a) * magnitude(b), a, b)
    if b.ndim > 1:
        return np.dot(a, b)
    return int(np.dot(a, b)) if a.dtype != object and b.dtype != object else int((a * b).sum())


def block_sums(x: np.ndarray, labels: np.ndarray, n_blocks: int) -> np.ndarray:
    """Per-block sums of x along its first axis over a label array, each
    added up in index order starting from zero; exact in int64 and object
    dtypes (the caller bounds the sums before choosing the dtype)."""
    out = np.zeros((n_blocks, *x.shape[1:]), dtype=x.dtype)
    np.add.at(out, labels, x)
    return out


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


def float_roots(num: np.ndarray, den: int, n: int) -> np.ndarray:
    """Float n-th roots of the nonnegative rationals num / den, as one array
    expression while both lie in the float range, else one `nth_root` each."""
    if num.dtype != object and den < 1 << 1000:
        return (num / float(den)) ** (1.0 / n)
    return np.array([_float_root(Fraction(a, den), n) if a else 0.0 for a in num.tolist()])


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
