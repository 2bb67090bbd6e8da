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
from .numerics import NumericMode, _in_mode_dtype, as_matrix, block_sums, mat_mul
from .partitions import Partition
from .spaces import ProbSpace


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


def _first(mask: np.ndarray) -> tuple:
    """Index of the first true entry of a boolean array, in row-major order."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _at(index: tuple, names=("row", "column")) -> str:
    """"step t, row x, column y": axes before the named ones are steps of a stack."""
    return ", ".join(map("{} {}".format, ("step",) * (len(index) - len(names)) + names, index))


def _table(rows, domain: ProbSpace, codomain: ProbSpace, what: str, lead: tuple = ()) -> np.ndarray:
    """Frozen array of a kernel or coupling, or of a stack of them along the `lead` axes, with
    every entry finite and nonnegative; an error names the first offending step, row and column."""
    if domain.mode != codomain.mode:
        raise SpaceMismatchError("domain and codomain use different numeric modes")
    m = _freeze_matrix(rows, domain.mode)
    if m.shape != lead + (domain.size, codomain.size):
        raise SizeMismatchError(f"{what} shape {m.shape} for spaces {domain.size} -> {codomain.size}")
    if not domain.mode.exact and not np.isfinite(m).all():
        at = _first(~np.isfinite(m))
        raise NonFiniteError(f"{what} entry at {_at(at)} is {m[at]}")
    negative = m < 0
    if negative.any():
        at = _first(negative)
        raise NegativeWeightError(f"{what} entry at {_at(at)} is negative: {m[at]}")
    return m


def _kernel_rows(rows, domain: ProbSpace, codomain: ProbSpace, lead: tuple = ()) -> np.ndarray:
    """`_table` for kernels: each row must also sum to one."""
    m = _table(rows, domain, codomain, "kernel", lead)
    totals = m.sum(axis=-1)
    bad = ~domain.mode.close_mask(totals, domain.mode.one())
    if bad.any():
        at = _first(bad)
        raise SumNotOneError(f"{_at(at, ('row',))} sums to {totals[at]}")
    return m


class Kernel:
    """Row-stochastic matrix from a domain space to a codomain space."""

    __slots__ = ("rows", "domain", "codomain")

    def __init__(self, rows: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        self._bind(_kernel_rows(rows, domain, codomain), domain, codomain)

    def _bind(self, rows: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> "Kernel":
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Kernel is immutable")

    @property
    def mode(self):
        return self.domain.mode

    def is_endo(self) -> bool:
        return self.domain.same_as(self.codomain)

    def __repr__(self):
        return f"Kernel({self.domain.size}->{self.codomain.size}, mode={self.mode.kind})"


def kernel_sequence(stack: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Kernels from a (T, n, m) array of row matrices in the mode's numbers,
    checked in one pass; kernel t holds slice t of one frozen copy."""
    stack = _kernel_rows(stack, domain, codomain, (len(stack),))
    return [object.__new__(Kernel)._bind(rows, domain, codomain) for rows in stack]


def identity_kernel(space: ProbSpace) -> Kernel:
    mode = space.mode
    return Kernel(np.where(np.eye(space.size, dtype=bool), mode.one(), mode.zero()), space, space)


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
    live = k.domain.live_index()
    return k.mode.all_close(k.rows[live], h.rows[live])


def canonicalize(k: Kernel) -> Kernel:
    """Canonical representative of k's a.s. class: null rows become q."""
    _require_mp(k)
    if k.domain.fully_supported:
        return k
    rows = k.rows.copy()
    rows[k.domain.weights == 0] = k.codomain.weights
    return Kernel(rows, k.domain, k.codomain)


def _conditioned(table: np.ndarray, given: ProbSpace, other: ProbSpace) -> Kernel:
    """Kernel from `given` to `other` conditioning a joint table on its rows:
    row x is table[x] / given(x), and the weights of `other` where given(x) = 0."""
    live = given.live_index()
    rows = np.empty_like(table)
    rows[:] = other.weights
    rows[live] = table[live] / given.weights[live, None]
    return Kernel(rows, given, other)


def bayes_inverse(k: Kernel) -> Kernel:
    """Bayesian inverse: the kernel from (Y,q) back to (X,p) with
    k_inv[y][x] = rows[x][y] p(x) / q(y), rows at q-null outcomes set to p.

    Satisfies sum_{x in A} k(B|x) p(x) = sum_{y in B} k_inv(A|y) q(y) for all
    subset pairs, which pins it down up to a.s. equality.
    """
    _require_mp(k)
    return _conditioned((k.rows * k.domain.weights[:, None]).T, k.codomain, k.domain)


def deterministic_from_function(
    f: Sequence[int] | Callable[[int], int],
    domain: ProbSpace,
    codomain: ProbSpace,
) -> Kernel:
    """0/1 kernel of an outcome map; the map must push p forward to q."""
    labels = np.array([f(x) for x in range(domain.size)] if callable(f) else f)
    if labels.shape != (domain.size,):
        raise SizeMismatchError("outcome map length differs from domain size")
    outside = (labels < 0) | (labels >= codomain.size)
    if outside.any():
        (x,) = _first(outside)
        raise SizeMismatchError(f"f({x}) = {labels[x]} outside the codomain")
    mode = domain.mode
    pushed = block_sums(domain.weights, labels, codomain.size)
    wrong = ~mode.close_mask(pushed, codomain.weights)
    if wrong.any():
        (y,) = _first(wrong)
        raise NotMeasurePreservingError(
            f"map pushes weight {pushed[y]} onto outcome {y}, expected {codomain.weights[y]}"
        )
    hits = labels[:, None] == np.arange(codomain.size)
    return Kernel(np.where(hits, mode.one(), mode.zero()), domain, codomain)


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
    pi = deterministic_from_function(p.labels, space, quotient)
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
    live = k.rows[k.domain.live_index()]
    zero_one = bool((mode.close_mask(live, mode.zero()) | mode.close_mask(live, mode.one())).all())
    if dagger_epi != zero_one:
        raise FinprobError(
            "dagger-epi test and 0/1-row criterion disagree on this kernel"
        )
    return dagger_epi


class Coupling:
    """Joint table on domain x codomain whose marginals are p and q."""

    __slots__ = ("table", "domain", "codomain")

    def __init__(self, table: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        t = _table(table, domain, codomain, "coupling")
        mode = domain.mode
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
    return Coupling(k.domain.weights[:, None] * k.rows, k.domain, k.codomain)


def kernel_from_coupling(c: Coupling) -> Kernel:
    """Conditioning on the first marginal; null rows canonicalized to q."""
    return _conditioned(c.table, c.domain, c.codomain)


def kernel_from_measure(space: ProbSpace) -> Kernel:
    """The unique measure-preserving kernel from the one-point space to `space`."""
    from .spaces import point_space

    return Kernel(space.weights[None, :], point_space(space.mode), space)
