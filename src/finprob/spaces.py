"""Finite probability spaces and random variables up to almost-sure equality.

A space is a finite outcome set {0..size-1} with validated probability
weights. Random variables are value vectors over the outcomes; two of them
are almost surely equal when they agree on every outcome of positive weight.
Weights and values are numerators over denominators in both modes, float
ones over 1 (see `numerics`), and both are built from `Rationals`: a space
by one constructor body, whose only mode branch is the arithmetic (lowest
terms, or one float division), and each operation on random variables by
one body, comparing through `NumericMode.value_close_mask`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    DimMismatchError,
    FinprobError,
    NegativeWeightError,
    NonFiniteError,
    SizeMismatchError,
    SpaceMismatchError,
    SumNotOneError,
)
from .numerics import (
    FLOAT_DEFAULT,
    Frozen,
    NumericMode,
    Rationals,
    _at,
    _first,
    _summable,
    as_matrix,
    check_norm_index,
    float_roots,
    int_array,
    is_infinite,
    magnitude,
    nth_root,
    per_row,
    quotient,
    quotients,
    widen,
)


def _checked_weights(w: np.ndarray, den, mode: NumericMode, lead: tuple = ()) -> None:
    """The checks of a weight vector, or of a stack of them along the named
    `lead` axes: numerators over their denominators, float weights over 1.
    Every weight is finite (float mode) and nonnegative, and each vector
    sums to one (within the mode's tolerance) with a positive weight; an
    error names the first offending vector and weight."""
    def value(num, at):
        return quotient(num[at], np.broadcast_to(den, w.shape[: len(lead)])[at[: len(lead)]])

    def where(at):
        return f"{_at(at, lead)}: " if lead else ""

    if not mode.exact and not np.isfinite(w).all():
        at = _first(~np.isfinite(w))
        raise NonFiniteError(f"{_at(at, lead + ('weight',))} is {w[at]}")
    negative = w < 0
    if negative.any():
        at = _first(negative)
        raise NegativeWeightError(f"{_at(at, lead + ('weight',))} is negative: {value(w, at)}")
    totals = np.asarray(w.sum(axis=-1))  # an object sum of one vector is a bare int
    bad = ~mode.close_mask(totals, den)
    if bad.any():
        at = _first(bad)
        total = value(totals, at)
        raise SumNotOneError(f"{where(at)}weights sum to {total}, deviation {total - mode.one()}")
    empty = ~(w > 0).any(axis=-1)
    if empty.any():
        raise SumNotOneError(f"{where(_first(empty))}weights have empty support")


class ProbSpace(Frozen):
    """Finite outcome set with probability weights.

    Weights are validated (nonnegative, summing to one within the mode's
    tolerance, nonempty support) and never renormalized: a wrong total is a
    modeling error and is reported, not repaired. They are read by
    `numerics.as_matrix`, one weight per outcome, and kept as numerators
    over one denominator: integers in lowest terms in rational mode, and in
    float mode the float weights over 1, integer numerators divided once by
    their denominator. The numerators and the denominator are also the key
    of equality and hashing.
    """

    __slots__ = (
        "mode", "size", "support", "_uniform_weight", "_weights",
        "_wkey", "_wden", "_wnum", "_live",
    )

    def __init__(self, weights: Iterable, mode: NumericMode = FLOAT_DEFAULT):
        num, den = _summable(as_matrix(weights, mode, rows=False))
        if num.size == 0:
            raise SizeMismatchError("a probability space needs at least one outcome")
        if mode.exact:
            g = math.gcd(den, *num.tolist())
            num, den = num // g, den // g
        elif num.dtype.kind != "f":
            num, den = np.asarray(num / den, dtype=np.float64), 1
        _checked_weights(num, den, mode)
        live = np.flatnonzero(num > 0)
        num.setflags(write=False)
        live.setflags(write=False)
        first = num[live[0]]
        uniform = quotient(first, den) if (num[live] == first).all() else None
        for name, value in (
            ("mode", mode), ("size", int(num.size)), ("support", tuple(live.tolist())),
            ("_uniform_weight", uniform), ("_weights", None),
            ("_wkey", tuple(num.tolist())), ("_wden", den), ("_wnum", num), ("_live", live),
        ):
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight vector in the mode's number type."""
        if self._weights is None:
            object.__setattr__(self, "_weights", quotients(*self.int_weights()))
        return self._weights

    def int_weights(self) -> tuple[np.ndarray, int]:
        """(numerators, denominator) of the weights: in rational mode integers
        in lowest terms, in float mode the weights themselves over 1."""
        return self._wnum, self._wden

    def live_index(self) -> np.ndarray:
        """Indices of the outcomes of positive weight, as an array."""
        return self._live

    @property
    def fully_supported(self) -> bool:
        return len(self.support) == self.size

    def weight(self, i: int):
        return self.weights[i]

    def is_null(self, i: int) -> bool:
        return self._wkey[i] == 0

    def same_as(self, other: "ProbSpace") -> bool:
        """Structural identity: equal modes and identical weight vectors."""
        if self is other:
            return True
        if not isinstance(other, ProbSpace) or self.mode != other.mode:
            return False
        return self._wden == other._wden and self._wkey == other._wkey

    def __eq__(self, other):
        if not isinstance(other, ProbSpace):
            return NotImplemented
        return self.same_as(other)

    def __hash__(self):
        return hash((self.mode, self._wden, self._wkey))

    def __repr__(self):
        return f"ProbSpace({list(self.weights)!r}, mode={self.mode.kind})"


def make_space(weights: Iterable, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """Validated probability space over the given weights."""
    return ProbSpace(weights, mode)


def uniform_space(n: int, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    return ProbSpace(Rationals.over(np.ones(n, dtype=np.int64), n), mode)


def point_space(mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """The one-outcome space."""
    return ProbSpace([mode.one()], mode)


class RandomVar(Frozen):
    """Function on the outcomes of a space with real values, shape (n,), or
    with values in R^d, shape (n, d).

    The values are held as `data`, a `Rationals` of numerators over
    denominators (see the module docstring): in float mode the float values
    over 1, and `values` is `data.num` itself; in rational mode integers,
    and `values` is the read-only `Fraction` array, built on first access.
    """

    __slots__ = ("space", "data", "values")

    def __init__(self, values: Iterable, space: ProbSpace):
        mode = space.mode
        # One value per outcome, or an (n, d) array of rows; a list of rows is
        # for `VecRandomVar`.
        values = as_matrix(values, mode, rows=isinstance(values, np.ndarray) and values.ndim == 2)
        num = values.num
        if not mode.exact and not np.isfinite(num).all():
            at = _first(~np.isfinite(num))
            raise NonFiniteError(f"random variable value at {_at(at, ('outcome', 'component'))} is {num[at]}")
        if len(num) != space.size:
            raise SizeMismatchError(
                f"random variable has {len(num)} values for a {space.size}-outcome space"
            )
        num.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "data", values)

    def __getattr__(self, name):
        # Reached only while a slot is unset: `values` is built on first
        # access and cached in its slot (see the class docstring).
        if name != "values":
            raise AttributeError(name)
        values = quotients(self.data.num, self.data.den)
        object.__setattr__(self, "values", values)
        return values

    def __reduce__(self):
        # A copy or a pickle is rebuilt from the data, so float values stay
        # the numerators, frozen, and Fractions not yet read stay unbuilt.
        return RandomVar, (self.data, self.space)

    @property
    def dim(self):
        """d for values in R^d, None for real values."""
        num = self.data.num
        return num.shape[1] if num.ndim == 2 else None

    def component(self, j: int) -> "RandomVar":
        """Coordinate projection onto component j, as a real-valued RV."""
        if self.dim is None or not 0 <= j < self.dim:
            raise DimMismatchError(f"component {j} out of range for dim {self.dim}")
        return RandomVar(self.data.take((slice(None), j)), self.space)

    def _combine(self, other, sign: int):
        if not isinstance(other, RandomVar):
            return NotImplemented
        _require_same_shape(self, other)
        return RandomVar(self.data.add(other.data, sign), self.space)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __repr__(self):
        if self.dim is not None:
            return f"VecRandomVar(dim={self.dim}, size={self.space.size})"
        return f"RandomVar({list(self.values)!r})"


def _row_width(rows: list, dim: int | None = None):
    """The common length of rows of numbers, one row per outcome: `dim` when
    given, else the first row's (None for no rows); a row of another length
    raises, naming its outcome."""
    width = dim if dim is not None or not rows else len(rows[0])
    for x, row in enumerate(rows):
        if len(row) != width:
            raise DimMismatchError(f"vector value at outcome {x} has {len(row)} components, expected {width}")
    return width


def VecRandomVar(values, space: ProbSpace, dim: int | None = None) -> RandomVar:
    """An R^d-valued `RandomVar` from one row of d numbers per outcome, or
    from an (n, d) array or `Rationals`; `dim`, when given, is d."""
    if not isinstance(values, (np.ndarray, Rationals)):
        values = [list(row) for row in values]
        _row_width(values, dim)
        values = as_matrix(values, space.mode)
    f = RandomVar(values, space)
    if f.dim is None or dim not in (None, f.dim):
        raise DimMismatchError(f"expected vectors of length {dim}, got values of dimension {f.dim}")
    if f.dim == 0:
        raise DimMismatchError("a vector random variable needs at least one component")
    return f


def _require_same_shape(f: RandomVar, g: RandomVar) -> None:
    if not f.space.same_as(g.space):
        raise SpaceMismatchError("operands live on different probability spaces")
    if f.dim != g.dim:
        raise DimMismatchError(f"random variables of dimension {f.dim} and {g.dim}")


def as_equal_rv(f: RandomVar, g: RandomVar) -> bool:
    """Almost-sure equality: agreement on the support, within the mode's
    tolerance scaled by the values' size (`NumericMode.value_close_mask`)."""
    _require_same_shape(f, g)
    live = _live(f.space)
    a, b = f.data.pair(g.data)
    return bool(f.space.mode.value_close_mask(a[live], b[live]).all())


def _live(space: ProbSpace):
    """Index of the support: all outcomes, or the array of those of positive weight."""
    return slice(None) if space.fully_supported else space.live_index()


def _weighted_sum(space: ProbSpace, live, x: np.ndarray):
    """Sum over the support of the weight numerators times the numerators
    x (one row per supported outcome), along the first axis. A uniform
    space multiplies the sum of x by its one weight numerator; otherwise the
    products are summed in outcome order. Float sums thus keep their order,
    and rational ones are exact integers: the weight numerators add up to
    the weight denominator, which bounds every partial sum with max |x|."""
    wnum, wden = space.int_weights()
    w, x = widen(wden * magnitude(x), wnum[live], x)
    if space._uniform_weight is not None:
        return w[0] * x.sum(axis=0)
    return (per_row(w, x) * x).sum(axis=0)


def expectation(f: RandomVar):
    """E[f] under the space's weights: a number, or for an R^d-valued f an
    array of d numbers."""
    space = f.space
    live = _live(space)
    num, den = f.data.take(live).over_common()
    total, den = _weighted_sum(space, live, num), space.int_weights()[1] * den
    return quotient(total, den) if f.dim is None else quotients(total, den)


def _magnitudes(f: RandomVar, live, vnorm) -> tuple:
    """(m, den, k) with |f(x)|^k = m[x] / den^k over the support: integer m
    in rational mode, float m over 1 otherwise (k = 1). Every norm of
    a real value is its absolute value. For values in R^d, "euclidean" gives
    the integer sums of squares (k = 2), "max" and "sum" the norms, and a
    callable `vnorm` runs once per outcome; it must give finite nonnegative
    numbers, exact ones when all are ints or Fractions in rational mode."""
    dim = f.dim
    if dim is not None and callable(vnorm):
        norms = [vnorm(row) for row in f.values[live]]
        if f.space.mode.exact and all(isinstance(m, (int, Fraction)) for m in norms):
            m, den = as_matrix(norms, f.space.mode, rows=False).over_common()
        else:
            m, den = np.array(norms, dtype=np.float64), 1
        bad = ~((m >= 0) & (m < math.inf))  # negative, NaN or infinite
        if bad.any():
            (i,) = _first(bad)
            error = FinprobError if m[i] < 0 else NonFiniteError
            raise error(f"value norm at outcome {np.arange(f.space.size)[live][i]} is {norms[i]}")
        return m, den, 1
    if dim is not None and vnorm not in ("euclidean", "max", "sum"):
        raise DimMismatchError(f"unknown value-space norm {vnorm!r}")
    x, den = f.data.take(live).over_common()
    if dim is not None:  # a sum of d squares or magnitudes
        (x,) = widen(dim * max(magnitude(x), 1) ** 2, x)
    x = np.abs(x)
    if dim is None:
        return x, den, 1
    if vnorm != "euclidean":
        return (x.max(axis=-1) if vnorm == "max" else x.sum(axis=-1)), den, 1
    squares = (x * x).sum(axis=-1)
    return (np.sqrt(squares), 1, 1) if squares.dtype.kind == "f" else (squares, den, 2)


def ln_norm(f: RandomVar, n=1, vnorm="euclidean"):
    """Weighted L^n norm: (sum_x p(x) |f(x)|^n)^(1/n); ess-sup for n = inf.
    For an R^d-valued f this is the Bochner norm over the value-space norm
    `vnorm`: "euclidean", "max", "sum" or a callable on one value.

    The essential supremum only sees the support. In rational mode the
    result is exact whenever the root is rational (always for n = 1, inf,
    and zero norms of real values): the sum is one exact Fraction, and
    `nth_root` takes its root. Euclidean value norms are taken from exact
    integer sums of squares: for even n, |f(x)|^n is a power of that sum,
    and for n = inf the root of the largest one; only an odd n takes a root
    per outcome, exact when each is rational and in floats otherwise.
    """
    check_norm_index(n)
    space = f.space
    live = _live(space)
    m, den, k = _magnitudes(f, live, vnorm)
    if k == 2 and not is_infinite(n) and n % 2:
        sums = m.tolist()
        roots = [math.isqrt(s) for s in sums]
        if all(r * r == s for r, s in zip(roots, sums)):
            m, k = int_array(roots, max(roots)), 1
        else:
            m, den, k = float_roots(m, den * den, 2), 1, 1
    if m.dtype.kind == "f":
        return _float_norm(space, live, m, n)
    if is_infinite(n):
        top = Fraction(int(m.max()), den**k)
        return top if k == 1 else nth_root(top, k, space.mode)
    n = int(n)
    if n > k:
        (m,) = widen(magnitude(m) ** (n // k), m)
        m = m ** (n // k)
    total = quotient(_weighted_sum(space, live, m), space.int_weights()[1] * den**n)
    return total if n == 1 else nth_root(total, n, space.mode)


def _float_norm(space: ProbSpace, live, mags: np.ndarray, n):
    """`ln_norm` from float magnitudes over the support, in either mode."""
    if is_infinite(n):
        return mags.max()
    n = int(n)
    if n > 1:
        mags = mags**n
    w = space._uniform_weight
    total = w * mags.sum() if w is not None else (space.weights[live].astype(np.float64) * mags).sum()
    return total if n == 1 else float(total) ** (1.0 / n)


def indicator(space: ProbSpace, outcomes: Iterable[int]) -> RandomVar:
    """Indicator RV of a set of outcomes; an outcome outside the space raises."""
    chosen = list(outcomes)
    for x in chosen:
        if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or not 0 <= x < space.size:
            raise SizeMismatchError(f"indicator outcome {x!r} is not one of 0..{space.size - 1}")
    mask = np.zeros(space.size, dtype=bool)
    mask[chosen] = True
    return RandomVar(Rationals.over(space.mode.indicator(mask), 1), space)


def constant_rv(space: ProbSpace, value) -> RandomVar:
    return RandomVar([value] * space.size, space)
