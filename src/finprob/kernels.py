"""Measure-preserving Markov kernels between finite spaces, up to a.s. equality.

A kernel is a row-stochastic matrix: rows[x][y] is the probability of landing
on codomain outcome y from domain outcome x. Two kernels are almost surely
equal when their rows agree at every supported domain outcome; the canonical
representative of that class fixes each null row to the codomain weights.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    FinprobError,
    NegativeWeightError,
    NonFiniteError,
    NotMeasurePreservingError,
    SizeMismatchError,
    SpaceMismatchError,
    SumNotOneError,
)
from .numerics import NumericMode, as_matrix, block_sums, mat_mul
from .partitions import Partition
from .spaces import ProbSpace


def _freeze_matrix(rows, mode: NumericMode) -> np.ndarray:
    """Read-only matrix in the mode's dtype, whatever the caller handed over."""
    if isinstance(rows, np.ndarray):
        expected_object = mode.exact
        if (rows.dtype == object) == expected_object and rows.ndim == 2:
            m = rows.copy()
            m.setflags(write=False)
            return m
        rows = rows.tolist()
    return as_matrix(rows, mode)


class Kernel:
    """Row-stochastic matrix from a domain space to a codomain space."""

    __slots__ = ("rows", "domain", "codomain")

    def __init__(self, rows: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        if domain.mode != codomain.mode:
            raise SpaceMismatchError("domain and codomain use different numeric modes")
        mode = domain.mode
        m = _freeze_matrix(rows, mode)
        if m.shape != (domain.size, codomain.size):
            raise SizeMismatchError(
                f"kernel shape {m.shape} for spaces {domain.size} -> {codomain.size}"
            )
        if not mode.exact and not np.isfinite(m).all():
            x, y = (int(i) for i in np.argwhere(~np.isfinite(m))[0])
            raise NonFiniteError(f"kernel entry at row {x}, column {y} is {m[x, y]}")
        one = mode.one()
        for x in range(domain.size):
            row = m[x]
            for v in row:
                if v < 0:
                    raise NegativeWeightError(f"kernel entry at row {x} is negative: {v}")
            total = row.sum()
            if not mode.close(total, one):
                raise SumNotOneError(f"row {x} sums to {total}")
        object.__setattr__(self, "rows", m)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)

    def __setattr__(self, name, value):
        raise AttributeError("Kernel is immutable")

    @property
    def mode(self):
        return self.domain.mode

    def is_endo(self) -> bool:
        return self.domain.same_as(self.codomain)

    def __repr__(self):
        return f"Kernel({self.domain.size}->{self.codomain.size}, mode={self.mode.kind})"


def identity_kernel(space: ProbSpace) -> Kernel:
    one, zero = space.mode.one(), space.mode.zero()
    rows = [
        [one if i == j else zero for j in range(space.size)] for i in range(space.size)
    ]
    return Kernel(rows, space, space)


def compose(k: Kernel, l: Kernel) -> Kernel:
    """Composite kernel: apply k, then l. Rows are the matrix product k.rows @ l.rows."""
    if not k.codomain.same_as(l.domain):
        raise SpaceMismatchError("middle spaces do not match")
    return Kernel(mat_mul(k.rows, l.rows), k.domain, l.codomain)


def is_measure_preserving(k: Kernel) -> bool:
    """Pushforward check: p^T rows = q within the mode's tolerance."""
    push = mat_mul(k.domain.weights, k.rows)
    return k.mode.all_close(push, k.codomain.weights)


def _require_mp(k: Kernel) -> None:
    if not is_measure_preserving(k):
        raise NotMeasurePreservingError("kernel does not push p forward to q")


def _require_parallel(k: Kernel, h: Kernel) -> None:
    if not (k.domain.same_as(h.domain) and k.codomain.same_as(h.codomain)):
        raise SpaceMismatchError("kernels have different domain or codomain")


def as_equal_kernels(k: Kernel, h: Kernel) -> bool:
    """Almost-sure equality: rows agree at every supported domain outcome."""
    _require_parallel(k, h)
    mode = k.mode
    return all(mode.all_close(k.rows[x], h.rows[x]) for x in k.domain.support)


def canonicalize(k: Kernel) -> Kernel:
    """Canonical representative of k's a.s. class: null rows become q."""
    _require_mp(k)
    if len(k.domain.support) == k.domain.size:
        return k
    rows = [
        list(k.codomain.weights) if k.domain.is_null(x) else list(k.rows[x])
        for x in range(k.domain.size)
    ]
    return Kernel(rows, k.domain, k.codomain)


def bayes_inverse(k: Kernel) -> Kernel:
    """Bayesian inverse: the kernel from (Y,q) back to (X,p) with
    k_inv[y][x] = rows[x][y] p(x) / q(y), rows at q-null outcomes set to p.

    Satisfies sum_{x in A} k(B|x) p(x) = sum_{y in B} k_inv(A|y) q(y) for all
    subset pairs, which pins it down up to a.s. equality.
    """
    _require_mp(k)
    p, q = k.domain.weights, k.codomain.weights
    rows = []
    for y in range(k.codomain.size):
        if k.codomain.is_null(y):
            rows.append(list(p))
        else:
            rows.append([k.rows[x][y] * p[x] / q[y] for x in range(k.domain.size)])
    return Kernel(rows, k.codomain, k.domain)


def deterministic_from_function(
    f: Sequence[int] | Callable[[int], int],
    domain: ProbSpace,
    codomain: ProbSpace,
) -> Kernel:
    """0/1 kernel of an outcome map; the map must push p forward to q."""
    if callable(f):
        f = [f(x) for x in range(domain.size)]
    if len(f) != domain.size:
        raise SizeMismatchError("outcome map length differs from domain size")
    mode = domain.mode
    pushed = [mode.zero()] * codomain.size
    for x, y in enumerate(f):
        if not 0 <= y < codomain.size:
            raise SizeMismatchError(f"f({x}) = {y} outside the codomain")
        pushed[y] = pushed[y] + domain.weights[x]
    for y in range(codomain.size):
        if not mode.close(pushed[y], codomain.weights[y]):
            raise NotMeasurePreservingError(
                f"map pushes weight {pushed[y]} onto outcome {y}, expected {codomain.weights[y]}"
            )
    one, zero = mode.one(), mode.zero()
    rows = [[one if f[x] == y else zero for y in range(codomain.size)] for x in range(domain.size)]
    return Kernel(rows, domain, codomain)


def coarsening_kernel(
    space: ProbSpace, p: Partition
) -> tuple[ProbSpace, Kernel, Kernel]:
    """Quotient space of a partition with the collapse kernel and its inverse.

    The quotient outcomes are the blocks with their aggregated weights, pi is
    the deterministic block collapse, and pi_dag = bayes_inverse(pi) carries
    each supported block to its conditional distribution p(.|block).
    """
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} on a {space.size}-outcome space"
        )
    quotient = ProbSpace(block_sums(space.weights, p.labels, p.n_blocks), space.mode)
    pi = deterministic_from_function(p.labels.tolist(), space, quotient)
    pi_dag = bayes_inverse(pi)
    return quotient, pi, pi_dag


def is_as_deterministic(k: Kernel) -> bool:
    """Almost-sure determinism, decided by the dagger-epi test k o k_dag = id.

    Cross-checked against the direct criterion: every supported row is 0/1.
    """
    _require_mp(k)
    kinv = bayes_inverse(k)
    roundtrip = compose(kinv, k)  # endo-kernel on the codomain
    dagger_epi = as_equal_kernels(roundtrip, identity_kernel(k.codomain))
    mode = k.mode
    zero_one = all(
        mode.close(v, mode.zero()) or mode.close(v, mode.one())
        for x in k.domain.support
        for v in k.rows[x]
    )
    if dagger_epi != zero_one:
        raise FinprobError(
            "dagger-epi test and 0/1-row criterion disagree on this kernel"
        )
    return dagger_epi


class Coupling:
    """Joint table on domain x codomain whose marginals are p and q."""

    __slots__ = ("table", "domain", "codomain")

    def __init__(self, table: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        if domain.mode != codomain.mode:
            raise SpaceMismatchError("domain and codomain use different numeric modes")
        mode = domain.mode
        t = _freeze_matrix(table, mode)
        if t.shape != (domain.size, codomain.size):
            raise SizeMismatchError(f"coupling shape {t.shape}")
        for row in t:
            for v in row:
                if v < 0:
                    raise NegativeWeightError("coupling entries must be nonnegative")
        if not mode.all_close(t.sum(axis=1), domain.weights):
            raise NotMeasurePreservingError("row marginals differ from p")
        if not mode.all_close(t.sum(axis=0), codomain.weights):
            raise NotMeasurePreservingError("column marginals differ from q")
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)

    def __setattr__(self, name, value):
        raise AttributeError("Coupling is immutable")


def coupling_from_kernel(k: Kernel) -> Coupling:
    """Joint table c(x,y) = p(x) rows[x][y]."""
    _require_mp(k)
    p = k.domain.weights
    table = [[p[x] * v for v in k.rows[x]] for x in range(k.domain.size)]
    return Coupling(table, k.domain, k.codomain)


def kernel_from_coupling(c: Coupling) -> Kernel:
    """Conditioning on the first marginal; null rows canonicalized to q."""
    rows = []
    for x in range(c.domain.size):
        mass = c.domain.weights[x]
        if mass == 0:
            rows.append(list(c.codomain.weights))
        else:
            rows.append([v / mass for v in c.table[x]])
    return Kernel(rows, c.domain, c.codomain)


def kernel_from_measure(space: ProbSpace) -> Kernel:
    """The unique measure-preserving kernel from the one-point space to `space`."""
    from .spaces import point_space

    return Kernel([list(space.weights)], point_space(space.mode), space)
