"""Finite probability spaces and random variables up to almost-sure equality.

A space is a finite outcome set {0..size-1} with validated probability
weights. Random variables are value vectors over the outcomes; two of them
are almost surely equal when they agree on every outcome of positive weight.
"""

from __future__ import annotations

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
    NumericMode,
    as_matrix,
    as_number,
    as_vector,
    check_norm_index,
    is_infinite,
    nth_root,
)


class ProbSpace:
    """Finite outcome set with probability weights.

    Weights are validated (nonnegative, summing to one within the mode's
    tolerance, nonempty support) and never renormalized: a wrong total is a
    modeling error and is reported, not repaired.
    """

    __slots__ = ("weights", "mode", "support", "_uniform_weight")

    def __init__(self, weights: Iterable, mode: NumericMode = FLOAT_DEFAULT):
        w = as_vector(weights, mode)
        if w.size == 0:
            raise SizeMismatchError("a probability space needs at least one outcome")
        for i, v in enumerate(w):
            if v < 0:
                raise NegativeWeightError(f"weight {i} is negative: {v}")
        total = w.sum()
        if not mode.close(total, mode.one()):
            raise SumNotOneError(f"weights sum to {total}, deviation {total - mode.one()}")
        support = tuple(i for i, v in enumerate(w) if v > 0)
        if not support:
            raise SumNotOneError("weights have empty support")
        first = w[support[0]]
        uniform = first if all(w[i] == first for i in support[1:]) else None
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_uniform_weight", uniform)

    def __setattr__(self, name, value):
        raise AttributeError("ProbSpace is immutable")

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def weight(self, i: int):
        return self.weights[i]

    def is_null(self, i: int) -> bool:
        return self.weights[i] == 0

    def same_as(self, other: "ProbSpace") -> bool:
        """Structural identity: equal modes and identical weight vectors."""
        if self is other:
            return True
        return (
            isinstance(other, ProbSpace)
            and self.mode == other.mode
            and self.weights.shape == other.weights.shape
            and bool(np.equal(self.weights, other.weights).all())
        )

    def __eq__(self, other):
        if not isinstance(other, ProbSpace):
            return NotImplemented
        return self.same_as(other)

    def __hash__(self):
        return hash((self.mode, tuple(self.weights)))

    def __repr__(self):
        return f"ProbSpace({list(self.weights)!r}, mode={self.mode.kind})"


def make_space(weights: Iterable, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """Validated probability space over the given weights."""
    return ProbSpace(weights, mode)


def uniform_space(n: int, mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    if mode.exact:
        return ProbSpace([Fraction(1, n)] * n, mode)
    return ProbSpace([1.0 / n] * n, mode)


def point_space(mode: NumericMode = FLOAT_DEFAULT) -> ProbSpace:
    """The one-outcome space."""
    return ProbSpace([mode.one()], mode)


def _require_same_space(a, b):
    if not a.space.same_as(b.space):
        raise SpaceMismatchError("operands live on different probability spaces")


class RandomVar:
    """Real-valued function on the outcomes of a space."""

    __slots__ = ("values", "space")

    def __init__(self, values: Iterable, space: ProbSpace):
        v = as_vector(values, space.mode)
        if v.size != space.size:
            raise SizeMismatchError(
                f"random variable has {v.size} values for a {space.size}-outcome space"
            )
        if not space.mode.exact and not np.isfinite(v).all():
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise NonFiniteError(f"random variable value at outcome {bad} is {v[bad]}")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("RandomVar is immutable")

    def __add__(self, other):
        if isinstance(other, RandomVar):
            _require_same_space(self, other)
            return RandomVar(self.values + other.values, self.space)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, RandomVar):
            _require_same_space(self, other)
            return RandomVar(self.values - other.values, self.space)
        return NotImplemented

    def scaled(self, c) -> "RandomVar":
        c = as_number(c, self.space.mode)
        return RandomVar([c * v for v in self.values], self.space)

    def __repr__(self):
        return f"RandomVar({list(self.values)!r})"


class VecRandomVar:
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
        object.__setattr__(self, "values", m)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "space", space)

    def __setattr__(self, name, value):
        raise AttributeError("VecRandomVar is immutable")

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
    """Almost-sure equality: agreement (within mode tolerance) on the support."""
    _require_same_space(f, g)
    mode = f.space.mode
    live = list(f.space.support)
    if mode.exact:
        return bool(np.equal(f.values[live], g.values[live]).all())
    return bool((np.abs(f.values[live] - g.values[live]) <= mode.tolerance).all())


def as_equal_vec_rv(f: VecRandomVar, g: VecRandomVar) -> bool:
    _require_same_space(f, g)
    if f.dim != g.dim:
        raise DimMismatchError("vector RVs of different dimension")
    mode = f.space.mode
    return all(
        mode.close(f.values[i, j], g.values[i, j])
        for i in f.space.support
        for j in range(f.dim)
    )


def expectation(f: RandomVar):
    """E[f] under the space's weights."""
    space = f.space
    w = space._uniform_weight
    if w is not None:
        return w * sum(f.values[i] for i in space.support)
    return sum(space.weights[i] * f.values[i] for i in space.support)


def ln_norm(f: RandomVar, n=1):
    """Weighted L^n norm: (sum_x p(x) |f(x)|^n)^(1/n); ess-sup for n = inf.

    The essential supremum only sees the support. In rational mode the
    result is exact whenever the root is rational (always for n = 1, inf,
    and zero norms).
    """
    check_norm_index(n)
    space = f.space
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
