"""Finite probability spaces and random variables up to almost-sure equality.

A space is a finite outcome set {0..size-1} with validated probability
weights. Random variables are value vectors over the outcomes; two of them
are almost surely equal when they agree on every outcome of positive weight.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

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
    as_matrix,
    as_number,
    as_vector,
    check_norm_index,
    int_dot,
    is_infinite,
    nth_root,
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
            weights = Rationals(wnum, np.full_like(wnum, den)).fractions()
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
        ones = np.ones(n, dtype=np.int64)
        return ProbSpace(Rationals(ones, ones * n), mode)
    return ProbSpace([1.0 / n] * n, mode)


def point_space(mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """The one-outcome space."""
    return ProbSpace([mode.one()], mode)


def _require_same_space(a, b):
    if not a.space.same_as(b.space):
        raise SpaceMismatchError("operands live on different probability spaces")


class RandomVar(Frozen):
    """Real-valued function on the outcomes of a space.

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
            v = as_vector(values, mode)
            if mode.exact:
                exact = Rationals.of(v)
            elif not np.isfinite(v).all():
                bad = int(np.flatnonzero(~np.isfinite(v))[0])
                raise NonFiniteError(f"random variable value at outcome {bad} is {v[bad]}")
        size = len(exact) if exact is not None else v.size
        if size != space.size:
            raise SizeMismatchError(
                f"random variable has {size} values for a {space.size}-outcome space"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "_values", v)
        object.__setattr__(self, "_exact", exact)

    @property
    def values(self) -> np.ndarray:
        """Read-only value vector in the mode's number type."""
        if self._values is None:
            object.__setattr__(self, "_values", self._exact.fractions())
        return self._values

    def _combine(self, other, sign: int):
        if not isinstance(other, RandomVar):
            return NotImplemented
        _require_same_space(self, other)
        if self._exact is not None:
            return RandomVar(self._exact.add(other._exact, sign), self.space)
        a, b = self._values, other._values
        return RandomVar(a + b if sign > 0 else a - b, self.space)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scaled(self, c) -> "RandomVar":
        c = as_number(c, self.space.mode)
        return RandomVar([c * v for v in self.values], self.space)

    def __repr__(self):
        return f"RandomVar({list(self.values)!r})"


class VecRandomVar(Frozen):
    """Vector-valued function on the outcomes: one d-dimensional value per outcome."""

    __slots__ = ("values", "dim", "space")

    def __init__(self, values: Sequence[Iterable], space: ProbSpace, dim: int | None = None):
        m = as_matrix([list(row) for row in values], space.mode)
        if m.shape[0] != space.size:
            raise SizeMismatchError(
                f"vector RV has {m.shape[0]} rows for a {space.size}-outcome space"
            )
        if dim is None:
            dim = m.shape[1]
        if m.shape[1] != dim or dim < 1:
            raise DimMismatchError(f"expected vectors of length {dim}, got {m.shape[1]}")
        if not space.mode.exact and not np.isfinite(m).all():
            x, j = (int(i) for i in np.argwhere(~np.isfinite(m))[0])
            raise NonFiniteError(f"vector value at outcome {x}, component {j} is {m[x, j]}")
        object.__setattr__(self, "values", m)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "space", space)

    def component(self, j: int) -> RandomVar:
        """Coordinate projection onto component j, as a scalar RV."""
        if not 0 <= j < self.dim:
            raise DimMismatchError(f"component {j} out of range for dim {self.dim}")
        return RandomVar(self.values[:, j], self.space)

    def __sub__(self, other):
        if isinstance(other, VecRandomVar):
            _require_same_space(self, other)
            if self.dim != other.dim:
                raise DimMismatchError("vector RVs of different dimension")
            return VecRandomVar(self.values - other.values, self.space, self.dim)
        return NotImplemented

    def __repr__(self):
        return f"VecRandomVar(dim={self.dim}, size={self.space.size})"


def as_equal_rv(f: RandomVar, g: RandomVar) -> bool:
    """Almost-sure equality: agreement on the support, within the mode's
    tolerance scaled by the values' size (`NumericMode.value_close_mask`)."""
    _require_same_space(f, g)
    space = f.space
    live = slice(None) if space.fully_supported else space.live_index()
    if space.mode.exact:
        return bool(f._exact.equal(g._exact)[live].all())
    return bool(space.mode.value_close_mask(f.values[live], g.values[live]).all())


def as_equal_vec_rv(f: VecRandomVar, g: VecRandomVar) -> bool:
    _require_same_space(f, g)
    if f.dim != g.dim:
        raise DimMismatchError("vector RVs of different dimension")
    live = f.space.live_index()
    return bool(f.space.mode.value_close_mask(f.values[live], g.values[live]).all())


def _on_support(f: RandomVar) -> Rationals:
    space = f.space
    return f._exact if space.fully_supported else f._exact.take(space.live_index())


def _weighted_total(space: ProbSpace, r: Rationals) -> Fraction:
    """Exact sum over the support of weight times value, one Fraction."""
    wnum, wden = space.int_weights()
    if not space.fully_supported:
        wnum = wnum[space.live_index()]
    scaled, den = r.over_common()
    return Fraction(int_dot(wnum, scaled), wden * den)


def expectation(f: RandomVar):
    """E[f] under the space's weights."""
    space = f.space
    if space.mode.exact:
        return _weighted_total(space, _on_support(f))
    w = space._uniform_weight
    if w is not None:
        return w * sum(f.values[i] for i in space.support)
    return sum(space.weights[i] * f.values[i] for i in space.support)


def ln_norm(f: RandomVar, n=1):
    """Weighted L^n norm: (sum_x p(x) |f(x)|^n)^(1/n); ess-sup for n = inf.

    The essential supremum only sees the support. In rational mode the
    result is exact whenever the root is rational (always for n = 1, inf,
    and zero norms): the sum is one exact Fraction, and `nth_root` takes
    its root.
    """
    check_norm_index(n)
    space = f.space
    if space.mode.exact:
        mags = _on_support(f).abs()
        if is_infinite(n):
            scaled, den = mags.over_common()
            return Fraction(int(scaled.max()), den)
        n = int(n)
        total = _weighted_total(space, mags if n == 1 else mags.power(n))
        return total if n == 1 else nth_root(total, n, space.mode)
    if is_infinite(n):
        sup = space.mode.zero()
        for i in space.support:
            mag = abs(f.values[i])
            if mag > sup:
                sup = mag
        return sup
    n = int(n)
    live = list(space.support)
    mags = np.abs(f.values[live])
    if n > 1:
        mags = mags**n
    w = space._uniform_weight
    if w is not None:
        total = w * mags.sum()
    else:
        total = (space.weights[live] * mags).sum()
    if n == 1:
        return total
    return nth_root(total, n, space.mode)


def indicator(space: ProbSpace, outcomes: Iterable[int]) -> RandomVar:
    """Indicator RV of a set of outcomes."""
    chosen = set(outcomes)
    one, zero = space.mode.one(), space.mode.zero()
    return RandomVar([one if i in chosen else zero for i in range(space.size)], space)


def constant_rv(space: ProbSpace, value) -> RandomVar:
    return RandomVar([value] * space.size, space)
