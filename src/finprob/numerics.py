"""Numeric modes: double precision with a tolerance, or exact rationals.

Float mode stores values in float64 numpy arrays and compares within a
configurable tolerance. Rational mode compares exactly; it exists so that
theorem-shaped tests can demand bit-exact equality instead of closeness.

Kernel data, space weights and random-variable values take one form in
both modes: numerators over denominators. Float numerators are the float64
values themselves, over the integer 1; a float kernel's `num` is its `rows`,
a float space's weight numerators are its weights and a float random
variable's `num` is its `values`. Rational numerators are integer arrays.
So an operation on kernels or random variables is one expression in both
modes, comparing through `NumericMode.close_mask` or `value_close_mask`;
the bookkeeping of this module keeps it free of cost in float mode:
`magnitude` bounds no float array, `widen` and `times` leave float arrays as
they are, so scaling by a denominator of 1 makes no new array, and
`quotients` hands float numerators back unchanged.

Random-variable values are `Rationals`: a numerator array over a
denominator array of the same shape, (n,) for real values or (n, d) for
values in R^d, or float values over the int 1. An array whose entries share
a denominator keeps one common value; conditional expectations carry one
denominator per block and component. A kernel holds an integer numerator
matrix over one common denominator, in lowest terms, and a stack of kernels
one denominator per kernel; a coupling holds its joint table as a kernel
holds its rows. Each rational operation first bounds its results from the
data; the arrays are int64 when that bound fits and Python-int object
arrays otherwise, so no result ever wraps around.

Numbers come in through one reader, `as_matrix`, which every constructor
calls: rows of numbers, or one number per entry, become `Rationals`, each
entry read by `as_number`'s rule, and integer numerators are int64 only
while their magnitudes add up within int64 over their common denominator
(`Rationals.from_ints`, which the token reader of the text formats also
uses). `fractions.Fraction` objects appear
at the boundary: scalar results, `.values`/`.weights`/`.rows`/`.table`
(built on first access and cached), input given as Fractions, and the text
formats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import FinprobError, SizeMismatchError, TooLargeError

Number = Union[float, Fraction]


# Read once here, since `Frozen._set` runs for every value that is built.
_bind_slot, _ndarray = object.__setattr__, np.ndarray


class Frozen:
    """Base of the immutable value classes. A constructor binds each slot
    once through `_set`, which makes every numpy array it binds read-only,
    and assignment raises. A slot named in the class's `_LAZY` table, which
    maps it to a function of the object, is built on first read and bound
    the same way. Copies and pickles carry the slots that are set, skipping
    a lazy slot not yet read, and restore them through `_set`: every array
    is then the original's, read-only already, or a private copy; slots
    that share an array (a float kernel's `rows` and `num`) still share one."""

    __slots__ = ()
    _LAZY: dict = {}

    def _set(self, **slots):
        for name, value in slots.items():
            if type(value) is _ndarray:
                value.setflags(write=False)
            _bind_slot(self, name, value)
        return self

    def __getattr__(self, name):
        # Reached only while a slot is unset: a lazy one is built and bound.
        build = type(self)._LAZY.get(name)
        if build is None:
            raise AttributeError(name)
        value = build(self)
        self._set(**{name: value})
        return value

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
        self._set(**state)


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
        if self.kind == FLOAT and not 0 < self.tolerance < math.inf:
            raise FinprobError(f"float mode requires a finite tolerance > 0, got {self.tolerance!r}")
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

    def close_mask(self, a, b, out=None) -> np.ndarray:
        """Elementwise equality of broadcastable arrays under this mode, as a
        boolean array. In float mode the difference is taken in `out` when
        it is given (a float array of the broadcast shape, overwritten)."""
        if self.exact:
            return np.equal(a, b)
        return _at_most(np.subtract(a, b, out=out), self.tolerance)

    def value_close_mask(self, a, b) -> np.ndarray:
        """`close_mask` for random-variable values: in float mode within the
        tolerance times max(1, the largest magnitude of either operand),
        since rounding grows with the size of the values. Kernel entries are
        at most 1 and keep the absolute tolerance."""
        if self.exact:
            return np.equal(a, b)
        scale = max(1.0, float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
        return _at_most(np.subtract(a, b), self.tolerance * scale)

    def indicator(self, mask: np.ndarray) -> np.ndarray:
        """0/1 numerators over the denominator 1 of a boolean array: int64 in
        rational mode, float64 in float mode."""
        return mask.astype(np.int64 if self.exact else np.float64)

    def zero(self) -> Number:
        return Fraction(0) if self.exact else 0.0

    def one(self) -> Number:
        return Fraction(1) if self.exact else 1.0


def _at_most(diff, bound) -> np.ndarray:
    """|diff| <= bound elementwise. An array diff is a difference made for
    this test, so its absolute value is taken in place."""
    if isinstance(diff, np.ndarray):
        return np.abs(diff, out=diff) <= bound
    return np.abs(diff) <= bound


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
    Anything that is not a number of the mode is a `FinprobError`.
    """
    try:
        if not mode.exact:
            return float(x)
        if isinstance(x, Fraction):
            return x
        if isinstance(x, (int, str)):
            return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise FinprobError(f"cannot read {x!r} as a {mode.kind} number") from None
    if isinstance(x, float):
        if x.is_integer():
            return Fraction(int(x))
        raise FinprobError(
            f"refusing to coerce non-integral float {x!r} into rational mode"
        )
    raise FinprobError(f"cannot represent {type(x).__name__} as a rational")


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


def magnitude(a) -> int:
    """Largest absolute value in an integer array, or of an int, as a Python
    int (0 when empty). A float array counts 0: it needs no bound, since
    `widen` leaves it as it is."""
    if isinstance(a, int):
        return abs(a)
    return int(np.abs(a).max()) if a.size and a.dtype.kind != "f" else 0


def widen(bound: int, *arrays: np.ndarray) -> tuple:
    """The arrays as they are when `bound` fits int64, else the integer ones
    as Python ints; float arrays always stay as they are."""
    if bound <= _INT64_MAX:
        return arrays
    return tuple(a if a.dtype.kind == "f" else a.astype(object) for a in arrays)


def times(num: np.ndarray, factor) -> np.ndarray:
    """Numerators scaled by a factor, `factor` a ratio of denominators: a
    new integer array, or float numerators as they are, with no new array,
    since over the denominator 1 every such factor is 1."""
    return num if num.dtype.kind == "f" else num * factor


def int_array(values, bound: int) -> np.ndarray:
    """Integers as int64 when `bound` (on every magnitude) fits, else as objects."""
    return np.array(values, dtype=np.int64 if bound <= _INT64_MAX else object)


class Rationals(Frozen):
    """Array num / den of shape (n,) for real values, (n, d) for values in
    R^d. Rational numerators are integers over a same-shape array of
    positive integer denominators, not necessarily in lowest terms; float
    values are their own float64 numerators over the int 1.

    Every operation bounds its integer results before computing them and
    switches to Python ints when int64 could overflow (see the module
    docstring); on float values it is the float operation itself. A
    `Rationals` is a frozen value: its arrays are read-only from
    construction, the caller's own arrays included, and each operation
    returns a new one.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den):
        self._set(num=num, den=den)

    @classmethod
    def from_ints(cls, nums: Sequence[int], dens: Sequence[int]) -> "Rationals":
        """From numerators and positive denominators: int64 over their common
        denominator when the magnitudes of the numerators over it add up
        within int64, so that no sum over them wraps; else Python ints, one
        denominator each, which stay Python ints over any common
        denominator (`over_common`)."""
        common = math.lcm(*set(dens))
        total = sum(map(abs, nums))
        if max(total, 1) * common <= _INT64_MAX:
            num = np.array(nums, dtype=np.int64)
            num *= common // np.array(dens, dtype=np.int64)
            return cls(num, np.full(len(nums), common, dtype=np.int64))
        return cls(np.array(nums, dtype=object), np.array(dens, dtype=object))

    @classmethod
    def over(cls, num: np.ndarray, den: int) -> "Rationals":
        """Numerators over one denominator: float ones over 1 as they are."""
        if num.dtype.kind == "f":
            return cls(num, 1)
        return cls(num, np.full(num.shape, den, dtype=np.int64 if den <= _INT64_MAX else object))

    def take(self, idx) -> "Rationals":
        den = self.den
        return Rationals(self.num[idx], den[idx] if isinstance(den, np.ndarray) else den)

    def reshape(self, shape: tuple) -> "Rationals":
        den = self.den
        return Rationals(self.num.reshape(shape), den.reshape(shape) if isinstance(den, np.ndarray) else den)

    def common_den(self) -> Union[int, None]:
        """The denominator every entry shares, or None."""
        d = self.den
        if not isinstance(d, np.ndarray):
            return d
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

    def pair(self, other: "Rationals") -> tuple[np.ndarray, np.ndarray]:
        """Numerators of self and other elementwise over shared denominators,
        by cross-multiplication where the denominators differ: equal values
        have equal numerators, and float values are their own."""
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        if self.same_den(other):
            return an, bn
        bound = max(magnitude(an) * magnitude(bd), magnitude(bn) * magnitude(ad))
        an, ad, bn, bd = widen(bound, an, ad, bn, bd)
        return an * bd, bn * ad

    def mul(self, other: "Rationals") -> "Rationals":
        """Elementwise product."""
        an, ad, bn, bd = self.num, self.den, other.num, other.den
        bound = max(magnitude(an) * magnitude(bn), magnitude(ad) * magnitude(bd))
        an, ad, bn, bd = widen(bound, an, ad, bn, bd)
        return Rationals(an * bn, ad * bd)


def _number(x, mode: NumericMode):
    """`as_number`'s rule, with Python ints taken as they are in rational
    mode: an int is its own numerator over 1."""
    return x if mode.exact and type(x) is int else as_number(x, mode)


def _packed(numbers: list, mode: NumericMode) -> Rationals:
    """A flat list of the mode's numbers (ints too in rational mode) as a
    1-d `Rationals`: float64 over 1, or integer numerators over their
    common denominator (`Rationals.from_ints`)."""
    if not mode.exact:
        return Rationals(np.array(numbers, dtype=np.float64), 1)
    return Rationals.from_ints([v.numerator for v in numbers], [v.denominator for v in numbers])


def as_vector(values: Iterable, mode: NumericMode) -> Rationals:
    """The numbers of a flat sequence, each read by `as_number`'s rule, as
    a 1-d `Rationals`. An array is iterated along its first axis, so each
    entry is a numpy scalar or a subarray."""
    return _packed([_number(v, mode) for v in values], mode)


def as_matrix(values, mode: NumericMode, rows: bool = True) -> Rationals:
    """The one reader of numbers that come in, as `Rationals`; `Rationals`
    are taken as they are. Every other entry is read by `as_number`'s rule.

    With `rows`, values are rows of numbers. An array of integers or of the
    mode's numbers (float64, or only Fractions in rational mode) is read at
    its own rank, whatever that is; any other array is read as its
    `tolist()`. A list is read row by row, every row before the row lengths
    are checked (`_width`), and no rows are shape (0, 0).

    Without `rows`, values are one number per entry of a flat sequence
    (`as_vector`); only a 1-d float64 or integer array in float mode is
    read whole.

    An array is always copied, so the caller's array is never frozen.
    """
    if isinstance(values, Rationals):
        return values
    if isinstance(values, np.ndarray):
        ints = values.dtype.kind in "iu"
        if not mode.exact:
            if (rows or values.ndim == 1) and (ints or values.dtype == np.float64):
                return Rationals(values.astype(np.float64), 1)
        elif rows and (ints or values.dtype == object and all(type(v) is Fraction for v in values.flat)):
            return _packed(values.ravel().tolist(), mode).reshape(values.shape)
        if rows:
            values = values.tolist()
    if not rows:
        return as_vector(values, mode)
    data = [[_number(v, mode) for v in row] for row in values]
    width = _width(data)
    return _packed([v for row in data for v in row], mode).reshape((len(data), width))


def _summable(values: Rationals) -> tuple[np.ndarray, int]:
    """`values.over_common()`, as Python ints when the magnitudes of the
    numerators add up past int64, so that no sum over them wraps: the rule
    of `Rationals.from_ints` for `Rationals` built elsewhere."""
    num, common = values.over_common()
    if num.dtype == np.int64 and magnitude(num) * num.size > _INT64_MAX:
        if sum(map(abs, num.ravel().tolist())) > _INT64_MAX:
            num = num.astype(object)
    return num, common


def _width(rows: list) -> int:
    """The length of row 0 (0 for no rows), which every row must have; a
    row of another length is a `SizeMismatchError` that names it."""
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        if len(row) != width:
            raise SizeMismatchError(f"matrix row {i} has {len(row)} entries, row 0 has {width}")
    return width


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


def quotient(num, den):
    """num / den for an entry of a numerator array at the boundary: a
    Fraction of integers, and a float (over 1) or a Fraction as it is."""
    return num if isinstance(num, float) or type(num) is Fraction else Fraction(int(num), int(den))


def quotients(num: np.ndarray, den) -> np.ndarray:
    """The numbers num / den of a numerator array at the boundary: read-only
    Fractions of integers (`fraction_array`), float numerators as they are."""
    return num if num.dtype.kind == "f" else fraction_array(num, den)


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
    # frac = rest * 2**shift with rest in [1/2, 2] and shift = q * n + r, so
    # the root is rest**(1/n) * 2**(r/n) * 2**q, each factor in float range.
    shift = frac.numerator.bit_length() - frac.denominator.bit_length()
    rest = float(frac / Fraction(2) ** shift)
    q, r = divmod(shift, n)
    try:
        return math.ldexp(rest ** (1.0 / n) * 2.0 ** (r / n), q)
    except OverflowError:
        raise TooLargeError(
            f"root of index {n} of a value near 2**{shift} exceeds the float range"
        ) from None


def nth_root(value: Number, n: int, mode: NumericMode) -> Number:
    """n-th root of a nonnegative number.

    In rational mode the result is an exact Fraction whenever the root is
    rational (in particular for value 0), and a float otherwise. In float
    mode an int or a Fraction is rooted as a rational (`_float_root`), so a
    value past the float range has a root too.
    """
    if n < 1:
        raise FinprobError("root index must be >= 1")
    if not (mode.exact or isinstance(value, (int, Fraction))):
        v = float(value)
        if v < 0:
            raise FinprobError("nth_root of a negative value")
        return v ** (1.0 / n)
    frac = Fraction(value)
    if frac < 0:
        raise FinprobError("nth_root of a negative value")
    if not mode.exact:  # a rational's float root, also past the float range
        return _float_root(frac, n) if frac else 0.0
    if frac == 0:
        return Fraction(0)
    if n == 1:
        return frac
    roots = (_int_nth_root(frac.numerator, n), _int_nth_root(frac.denominator, n))
    return _float_root(frac, n) if None in roots else Fraction(*roots)


def nth_roots(values: np.ndarray, n: int) -> np.ndarray:
    """`nth_root` of each nonnegative entry at the boundary: for Fractions
    exact whenever the root is rational, for float values one array power."""
    if values.dtype.kind == "f":
        return values ** (1.0 / n)
    return np.frompyfunc(lambda v: nth_root(v, n, EXACT), 1, 1)(values)


def float_roots(num: np.ndarray, den: int, n: int) -> np.ndarray:
    """Float n-th roots of the nonnegative rationals num / den, as one array
    expression while both lie in the float range, else one `nth_root` each."""
    if num.dtype != object and den < 1 << 1000:
        return (num / float(den)) ** (1.0 / n)
    return np.array([_float_root(Fraction(a, den), n) if a else 0.0 for a in num.tolist()])


def is_infinite(n) -> bool:
    """True for the L-infinity norm index."""
    return n == math.inf


def _nonnegative(n: int, what: str, error: type = SizeMismatchError) -> int:
    """n, a count of `what`; a negative count raises `error`, naming it."""
    if n < 0:
        raise error(f"{what} must be nonnegative, got {n}")
    return n


def check_norm_index(n) -> None:
    if is_infinite(n):
        return
    if isinstance(n, int) and n >= 1:
        return
    if isinstance(n, float) and n.is_integer() and n >= 1:
        return
    raise FinprobError(f"norm index must be a positive integer or math.inf, got {n!r}")
