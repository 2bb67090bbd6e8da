"""Finite probability spaces and random variables up to almost-sure equality.

A space is a finite outcome set {0..size-1} with validated probability
weights. Random variables are value vectors over the outcomes; two of them
are almost surely equal when they agree on every outcome of positive weight.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import (
    DimMismatchError,
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
    _freeze_matrix,
    as_matrix,
    as_vector,
    check_norm_index,
    float_roots,
    fraction_array,
    int_array,
    int_dot,
    is_infinite,
    magnitude,
    nth_root,
    per_row,
    widen,
)


def _checked_weights(w: np.ndarray, den, mode: NumericMode, lead: tuple = ()) -> None:
    """The checks of a weight vector, or of a stack of them along the named
    `lead` axes: float weights over None, or integer numerators over their
    denominators. No weight is negative, and each vector sums to one (within
    the mode's tolerance) with a positive weight; an error names the first
    offending vector and weight."""
    den = None if den is None else np.asarray(den)

    def value(num, at):
        return num[at] if den is None else Fraction(int(num[at]), int(den[at[: len(lead)]]))

    def where(at):
        return f"{_at(at, lead)}: " if lead else ""

    negative = w < 0
    if negative.any():
        at = _first(negative)
        raise NegativeWeightError(f"{_at(at, lead + ('weight',))} is negative: {value(w, at)}")
    totals = w.sum(axis=-1)
    bad = ~mode.close_mask(totals, 1.0) if den is None else totals != den
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
    modeling error and is reported, not repaired. In rational mode they are
    kept as integer numerators over one denominator in lowest terms, which
    is also the key of equality and hashing.
    """

    __slots__ = (
        "mode", "size", "support", "_uniform_weight", "_weights",
        "_wkey", "_wden", "_wnum", "_live",
    )

    def __init__(self, weights: Iterable, mode: NumericMode = FLOAT_DEFAULT):
        if mode.exact:
            self._init_exact(weights, mode)
            return
        w = as_vector(weights, mode)
        if w.size == 0:
            raise SizeMismatchError("a probability space needs at least one outcome")
        _checked_weights(w, None, mode)
        live = np.flatnonzero(w > 0)
        first = w[live[0]]
        uniform = first if (w[live] == first).all() else None
        self._set(mode, int(w.size), tuple(live.tolist()), uniform, w)

    def _init_exact(self, weights, mode: NumericMode) -> None:
        frac = None
        if not isinstance(weights, Rationals):
            frac = as_vector(weights, mode)
            weights = Rationals.of(frac)
        scaled, den = weights.over_common()
        g = math.gcd(den, *scaled.tolist())
        wnum, den = scaled // g, den // g
        nums = wnum.tolist()
        if not nums:
            raise SizeMismatchError("a probability space needs at least one outcome")
        _checked_weights(wnum, den, mode)
        support = tuple(i for i, a in enumerate(nums) if a > 0)
        first = nums[support[0]]
        uniform = Fraction(first, den) if all(nums[i] == first for i in support[1:]) else None
        self._set(mode, len(nums), support, uniform, frac, tuple(nums), den, wnum)

    def _set(self, mode, size, support, uniform, weights, wkey=None, wden=None, wnum=None):
        for name, value in (
            ("mode", mode), ("size", size), ("support", support),
            ("_uniform_weight", uniform), ("_weights", weights),
            ("_wkey", wkey), ("_wden", wden), ("_wnum", wnum), ("_live", None),
        ):
            object.__setattr__(self, name, value)

    @property
    def weights(self) -> np.ndarray:
        """Read-only weight vector in the mode's number type."""
        if self._weights is None:
            wnum, den = self.int_weights()
            weights = Rationals.over(wnum, den).fractions()
            object.__setattr__(self, "_weights", weights)
        return self._weights

    def int_weights(self) -> tuple[np.ndarray, int]:
        """Rational mode: (numerators, denominator) of the weights, in lowest terms."""
        return self._wnum, self._wden

    def live_index(self) -> np.ndarray:
        """Indices of the outcomes of positive weight, as an array."""
        if self._live is None:
            object.__setattr__(self, "_live", np.array(self.support, dtype=np.intp))
        return self._live

    @property
    def fully_supported(self) -> bool:
        return len(self.support) == self.size

    def weight(self, i: int):
        return self.weights[i]

    def is_null(self, i: int) -> bool:
        if self._wkey is not None:
            return self._wkey[i] == 0
        return self.weights[i] == 0

    def same_as(self, other: "ProbSpace") -> bool:
        """Structural identity: equal modes and identical weight vectors."""
        if self is other:
            return True
        if not isinstance(other, ProbSpace) or self.mode != other.mode:
            return False
        if self.mode.exact:
            return self._wden == other._wden and self._wkey == other._wkey
        return self._weights.shape == other._weights.shape and bool(
            np.equal(self._weights, other._weights).all()
        )

    def __eq__(self, other):
        if not isinstance(other, ProbSpace):
            return NotImplemented
        return self.same_as(other)

    def __hash__(self):
        if self.mode.exact:
            return hash((self.mode, self._wden, self._wkey))
        return hash((self.mode, tuple(self._weights)))

    def __repr__(self):
        return f"ProbSpace({list(self.weights)!r}, mode={self.mode.kind})"


def make_space(weights: Iterable, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """Validated probability space over the given weights."""
    return ProbSpace(weights, mode)


def uniform_space(n: int, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    if mode.exact:
        return ProbSpace(Rationals.over(np.ones(n, dtype=np.int64), n), mode)
    return ProbSpace([1.0 / n] * n, mode)


def point_space(mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """The one-outcome space."""
    return ProbSpace([mode.one()], mode)


class RandomVar(Frozen):
    """Function on the outcomes of a space with real values, shape (n,), or
    with values in R^d, shape (n, d).

    In rational mode the values are held as `Rationals`; `.values` is the
    read-only `Fraction` array, built on first access.
    """

    __slots__ = ("space", "_values", "_exact")

    def __init__(self, values: Iterable, space: ProbSpace):
        mode = space.mode
        v = exact = None
        if isinstance(values, Rationals) and mode.exact:
            exact = values
        else:
            two_d = isinstance(values, np.ndarray) and values.ndim == 2
            v = _freeze_matrix(values, mode) if two_d else as_vector(values, mode)
            if mode.exact:
                exact = Rationals.of(v)
            elif not np.isfinite(v).all():
                at = _first(~np.isfinite(v))
                raise NonFiniteError(f"random variable value at {_at(at, ('outcome', 'component'))} is {v[at]}")
        size = len(exact) if exact is not None else len(v)
        if size != space.size:
            raise SizeMismatchError(
                f"random variable has {size} values for a {space.size}-outcome space"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_values", v)
        object.__setattr__(self, "_exact", exact)

    @property
    def values(self) -> np.ndarray:
        """Read-only value array in the mode's number type."""
        if self._values is None:
            object.__setattr__(self, "_values", self._exact.fractions())
        return self._values

    @property
    def dim(self):
        """d for values in R^d, None for real values."""
        shape = (self._values if self._exact is None else self._exact.num).shape
        return shape[1] if len(shape) == 2 else None

    def component(self, j: int) -> "RandomVar":
        """Coordinate projection onto component j, as a real-valued RV."""
        if self.dim is None or not 0 <= j < self.dim:
            raise DimMismatchError(f"component {j} out of range for dim {self.dim}")
        if self._exact is not None:
            return RandomVar(self._exact.take((slice(None), j)), self.space)
        return RandomVar(self._values[:, j], self.space)

    def _combine(self, other, sign: int):
        if not isinstance(other, RandomVar):
            return NotImplemented
        _require_same_shape(self, other)
        if self._exact is not None:
            return RandomVar(self._exact.add(other._exact, sign), self.space)
        a, b = self._values, other._values
        return RandomVar(a + b if sign > 0 else a - b, self.space)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __repr__(self):
        if self.dim is not None:
            return f"VecRandomVar(dim={self.dim}, size={self.space.size})"
        return f"RandomVar({list(self.values)!r})"


def VecRandomVar(values, space: ProbSpace, dim: int | None = None) -> RandomVar:
    """An R^d-valued `RandomVar` from one row of d numbers per outcome, or
    from an (n, d) array or `Rationals`; `dim`, when given, is d."""
    if not isinstance(values, (np.ndarray, Rationals)):
        values = [list(row) for row in values]
        width = dim if dim is not None or not values else len(values[0])
        for x, row in enumerate(values):
            if len(row) != width:
                raise DimMismatchError(
                    f"vector value at outcome {x} has {len(row)} components, expected {width}"
                )
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
    space = f.space
    live = _live(space)
    if space.mode.exact:
        return bool(f._exact.equal(g._exact)[live].all())
    return bool(space.mode.value_close_mask(f.values[live], g.values[live]).all())


def as_equal_vec_rv(f: RandomVar, g: RandomVar) -> bool:
    return as_equal_rv(f, g)


def _live(space: ProbSpace):
    """Index of the support: all outcomes, or the array of those of positive weight."""
    return slice(None) if space.fully_supported else space.live_index()


def expectation(f: RandomVar):
    """E[f] under the space's weights: a number, or for an R^d-valued f an
    array of d numbers."""
    space = f.space
    live = _live(space)
    if space.mode.exact:
        wnum, wden = space.int_weights()
        scaled, den = f._exact.take(live).over_common()
        total = int_dot(wnum[live], scaled)
        return Fraction(total, wden * den) if f.dim is None else fraction_array(total, wden * den)
    x = f.values[live]
    w = space._uniform_weight
    if w is not None:
        return w * x.sum(axis=0)
    return (per_row(space.weights[live], x) * x).sum(axis=0)


def _magnitudes(f: RandomVar, live, vnorm) -> tuple:
    """(m, den, k) with |f(x)|^k = m[x] / den^k over the support: integer m
    in rational mode, float m over den None otherwise (k = 1). Every norm of
    a real value is its absolute value. For values in R^d, "euclidean" gives
    the integer sums of squares (k = 2), "max" and "sum" the norms, and a
    callable `vnorm` runs once per outcome."""
    space, dim = f.space, f.dim
    if dim is not None and callable(vnorm):
        norms = [vnorm(row) for row in f.values[live]]
        if space.mode.exact and all(isinstance(m, (int, Fraction)) for m in norms):
            return (*Rationals.of(norms).over_common(), 1)
        return np.array(norms, dtype=np.float64), None, 1
    if dim is not None and vnorm not in ("euclidean", "max", "sum"):
        raise DimMismatchError(f"unknown value-space norm {vnorm!r}")
    if space.mode.exact:
        x, den = f._exact.take(live).over_common()
        if dim is not None:  # a sum of d squares or magnitudes
            (x,) = widen(dim * max(magnitude(x), 1) ** 2, x)
    else:
        x, den = f.values[live], None
    x = np.abs(x)
    if dim is None:
        return x, den, 1
    if vnorm != "euclidean":
        return (x.max(axis=-1) if vnorm == "max" else x.sum(axis=-1)), den, 1
    squares = (x * x).sum(axis=-1)
    return (squares, den, 2) if den is not None else (np.sqrt(squares), None, 1)


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
            m, den, k = float_roots(m, den * den, 2), None, 1
    if den is None:
        return _float_norm(space, live, m, n)
    if is_infinite(n):
        top = Fraction(int(m.max()), den**k)
        return top if k == 1 else nth_root(top, k, space.mode)
    n = int(n)
    if n > k:
        (m,) = widen(magnitude(m) ** (n // k), m)
        m = m ** (n // k)
    wnum, wden = space.int_weights()
    total = Fraction(int_dot(wnum[live], m), wden * den**n)
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
    """Indicator RV of a set of outcomes."""
    chosen = set(outcomes)
    one, zero = space.mode.one(), space.mode.zero()
    return RandomVar([one if i in chosen else zero for i in range(space.size)], space)


def constant_rv(space: ProbSpace, value) -> RandomVar:
    return RandomVar([value] * space.size, space)
