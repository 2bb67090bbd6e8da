"""Measure-preserving Markov kernels between finite spaces, up to a.s. equality.

A kernel is a row-stochastic matrix: rows[x][y] is the probability of landing
on codomain outcome y from domain outcome x. Two kernels are almost surely
equal when their rows agree at every supported domain outcome; the canonical
representative of that class fixes each null row to the codomain weights.

In float mode a kernel holds its rows as a float64 array. In rational mode
it holds `num`, an integer numerator matrix, over one positive denominator
`den`, in lowest terms, and every operation is an integer array expression
over these. Rows are nonnegative and sum to the denominator, so no entry of
a kernel, or of a product of kernels, exceeds its denominator; each
operation bounds its results that way first and works in int64 when the
bound fits and in Python ints otherwise. `rows` is then a read-only
`Fraction` array built on first access and cached.
"""

from __future__ import annotations

import math
from fractions import Fraction
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
from .numerics import (
    Frozen,
    NumericMode,
    Rationals,
    _at,
    _first,
    _freeze_matrix,
    block_sums,
    fraction_array,
    int_array,
    int_numerators,
    magnitude,
    mat_mul,
    widen,
)
from .partitions import Partition
from .spaces import ProbSpace


def _spaces(domain: ProbSpace, codomain: ProbSpace) -> tuple:
    """(mode, (n, m)) of the spaces of a kernel or coupling, which share a mode."""
    if domain.mode != codomain.mode:
        raise SpaceMismatchError("domain and codomain use different numeric modes")
    return domain.mode, (domain.size, codomain.size)


_CELL, _STEPS = ("row", "column"), ("step",)


def _table(rows, mode: NumericMode, shape: tuple, what: str, lead: tuple = ()) -> np.ndarray:
    """Frozen array of an (n, m) kernel or coupling, or of a stack of them along the named
    `lead` axes, with every entry finite and nonnegative; an error names the first offending
    entry by its lead axes, row and column."""
    m = _freeze_matrix(rows, mode)
    if m.shape != m.shape[: len(lead)] + shape:
        raise SizeMismatchError(f"{what} shape {m.shape} for spaces {shape[0]} -> {shape[1]}")
    if not mode.exact and not np.isfinite(m).all():
        at = _first(~np.isfinite(m))
        raise NonFiniteError(f"{what} entry at {_at(at, lead + _CELL)} is {m[at]}")
    negative = m < 0
    if negative.any():
        at = _first(negative)
        raise NegativeWeightError(f"{what} entry at {_at(at, lead + _CELL)} is negative: {m[at]}")
    return m


def _kernel_rows(rows, mode: NumericMode, shape: tuple, lead: tuple = ()) -> np.ndarray:
    """`_table` for float kernels: each row must also sum to one."""
    m = _table(rows, mode, shape, "kernel", lead)
    totals = m.sum(axis=-1)
    bad = ~mode.close_mask(totals, mode.one())
    if bad.any():
        at = _first(bad)
        raise SumNotOneError(f"{_at(at, lead + ('row',))} sums to {totals[at]}")
    return m


def _int_rows(num: np.ndarray, den: np.ndarray, lead: tuple = ()) -> tuple:
    """Checked lowest-terms form of integer numerators over positive
    denominators: one kernel (a 2-d `num` over a 0-d `den`) or a stack of
    them along the named `lead` axes, each over its own denominator. Every
    numerator must be nonnegative and every row must sum to its denominator;
    an error names the first offending entry by its lead axes, row and
    column. The frozen arrays are int64 when the largest denominator fits."""
    negative = num < 0
    if negative.any():
        at = _first(negative)
        value = Fraction(int(num[at]), int(den[at[:-2]]))
        raise NegativeWeightError(f"kernel entry at {_at(at, lead + _CELL)} is negative: {value}")
    totals = num.sum(axis=-1)
    bad = totals != den[..., None]
    if bad.any():
        at = _first(bad)
        total = Fraction(int(totals[at]), int(den[at[:-1]]))
        raise SumNotOneError(f"{_at(at, lead + ('row',))} sums to {total}")
    g = np.asarray(np.gcd(np.gcd.reduce(np.gcd.reduce(num, axis=-1), axis=-1), den))
    num, den = num // g[..., None, None], np.asarray(den // g)
    if num.dtype == object and max(den.reshape(-1).tolist(), default=0) <= np.iinfo(np.int64).max:
        num, den = num.astype(np.int64), den.astype(np.int64)
    num.setflags(write=False)
    return num, den


class Kernel(Frozen):
    """Row-stochastic matrix from a domain space to a codomain space.

    Float mode holds the float64 `rows`; rational mode holds the integer
    numerators `num` over the denominator `den` (see the module docstring).
    """

    __slots__ = ("rows", "num", "den", "domain", "codomain")

    def __init__(self, rows: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        if not domain.mode.exact:
            self._bind(_kernel_rows(rows, *_spaces(domain, codomain)), None, None, domain, codomain)
            return
        table = _table(rows, *_spaces(domain, codomain), "kernel")
        self._bind_int(*int_numerators(table), domain, codomain)

    def _bind(self, rows, num, den, domain: ProbSpace, codomain: ProbSpace) -> "Kernel":
        if rows is not None:
            object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        return self

    def _bind_int(self, num: np.ndarray, den: int, domain: ProbSpace, codomain: ProbSpace) -> "Kernel":
        """Bind the checked lowest-terms form of integer numerators over a denominator."""
        num, den = _int_rows(num, np.asarray(den))
        return self._bind(None, num, int(den), domain, codomain)

    def __getattr__(self, name):
        # Reached only while a slot is unset: in rational mode `rows`, the
        # read-only Fraction matrix, is built on first access and cached in
        # its slot, so reading it costs a float kernel nothing extra.
        if name != "rows" or self.num is None:
            raise AttributeError(name)
        rows = fraction_array(self.num, self.den)
        object.__setattr__(self, "rows", rows)
        return rows

    @property
    def mode(self):
        return self.domain.mode

    def is_endo(self) -> bool:
        return self.domain.same_as(self.codomain)

    def __repr__(self):
        return f"Kernel({self.domain.size}->{self.codomain.size}, mode={self.mode.kind})"


def _exact(num: np.ndarray, den: int, domain: ProbSpace, codomain: ProbSpace) -> Kernel:
    """Checked rational kernel of integer numerators over a denominator."""
    return object.__new__(Kernel)._bind_int(num, den, domain, codomain)


def _views(data: np.ndarray, den, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Kernels over the slices of a checked stack: float rows over None, or
    rational numerators over their (T,) denominators."""
    if den is None:
        return [object.__new__(Kernel)._bind(rows, None, None, domain, codomain) for rows in data]
    return [object.__new__(Kernel)._bind(None, k, d, domain, codomain) for k, d in zip(data, den.tolist())]


def _exact_stack(num: np.ndarray, den: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Rational kernels from a (T, n, m) numerator array over (T,)
    denominators, checked in one pass; kernel t holds slice t."""
    return _views(*_int_rows(num, den, _STEPS), domain, codomain)


def _checked_stack(stack: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> tuple:
    """A (T, n, m) array of row matrices in the mode's numbers, checked in
    one pass, as (data, den): the frozen float rows over None, or the
    lowest-terms numerators over (T,) denominators."""
    mode, shape = _spaces(domain, codomain)
    if mode.exact:
        num, den = int_numerators(_table(stack, mode, shape, "kernel", _STEPS))
        return _int_rows(num, int_array([den] * len(num), den), _STEPS)
    return _kernel_rows(stack, mode, shape, _STEPS), None


def kernel_sequence(stack: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Kernels from a (T, n, m) array of row matrices in the mode's numbers,
    checked in one pass; kernel t holds slice t of one frozen copy."""
    return _views(*_checked_stack(stack, domain, codomain), domain, codomain)


def identity_kernel(space: ProbSpace) -> Kernel:
    if space.mode.exact:
        return _exact(np.eye(space.size, dtype=np.int64), 1, space, space)
    return Kernel(np.eye(space.size), space, space)


def compose(k: Kernel, l: Kernel) -> Kernel:
    """Composite kernel: apply k, then l. Rows are the matrix product k.rows @ l.rows."""
    if not k.codomain.same_as(l.domain):
        raise SpaceMismatchError("middle spaces do not match")
    if k.mode.exact:
        den = k.den * l.den
        return _exact(mat_mul(*widen(den, k.num, l.num)), den, k.domain, l.codomain)
    return Kernel(mat_mul(k.rows, l.rows), k.domain, l.codomain)


def is_measure_preserving(k: Kernel) -> bool:
    """Pushforward check: p^T rows = q within the mode's tolerance."""
    if k.mode.exact:
        wnum, wden = k.domain.int_weights()
        qnum, qden = k.codomain.int_weights()
        w, num, q = widen(wden * k.den * qden, wnum, k.num, qnum)
        return bool((mat_mul(w, num) * qden == q * (wden * k.den)).all())
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
    if k.mode.exact:
        a, b = widen(k.den * h.den, k.num[live], h.num[live])
        return bool((a * h.den == b * k.den).all())
    return k.mode.all_close(k.rows[live], h.rows[live])


def canonicalize(k: Kernel) -> Kernel:
    """Canonical representative of k's a.s. class: null rows become q."""
    _require_mp(k)
    if k.domain.fully_supported:
        return k
    if k.mode.exact:
        qnum, qden = k.codomain.int_weights()
        den = math.lcm(k.den, qden)
        num, q = widen(den, k.num, qnum)
        num = num * (den // k.den)
        num[k.domain.int_weights()[0] == 0] = q * (den // qden)
        return _exact(num, den, k.domain, k.codomain)
    rows = k.rows.copy()
    rows[k.domain.weights == 0] = k.codomain.weights
    return Kernel(rows, k.domain, k.codomain)


def _conditioned(table: np.ndarray, den, given: ProbSpace, other: ProbSpace) -> Kernel:
    """Kernel from `given` to `other` conditioning a joint table on its rows:
    row x is table[x] / given(x), and the weights of `other` where given(x) = 0.
    In rational mode the table is integer numerators over `den`."""
    if given.mode.exact:
        gnum, gden = given.int_weights()
        onum, oden = other.int_weights()
        row_den = [den * g for g in gnum.tolist()]  # row x is table[x] * gden / row_den[x]
        nulls = [] if given.fully_supported else [oden]
        common = math.lcm(*(set(row_den) - {0}), *nulls)
        scale = [common // d if d else 0 for d in row_den]
        bound = max(magnitude(table) * gden * max(scale), common)
        t, s, o = widen(bound, table, int_array(scale, bound), onum)
        num = np.where(s[:, None] > 0, t * gden * s[:, None], o * (common // oden))
        return _exact(num, common, given, other)
    return Kernel(_conditioned_rows(table, given.weights, other.weights), given, other)


def _conditioned_rows(table: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Float rows of a joint table, or of a stack of them with their weight
    stacks, conditioned on the rows: table[x] / p(x), and q where p(x) = 0."""
    rows = np.empty_like(table)
    rows[...] = q[..., None, :]
    return np.divide(table, p[..., None], out=rows, where=p[..., None] > 0)


def bayes_inverse(k: Kernel) -> Kernel:
    """Bayesian inverse: the kernel from (Y,q) back to (X,p) with
    k_inv[y][x] = rows[x][y] p(x) / q(y), rows at q-null outcomes set to p.

    Satisfies sum_{x in A} k(B|x) p(x) = sum_{y in B} k_inv(A|y) q(y) for all
    subset pairs, which pins it down up to a.s. equality.
    """
    _require_mp(k)
    if k.mode.exact:
        wnum, wden = k.domain.int_weights()
        num, w = widen(k.den * wden, k.num, wnum)
        return _conditioned((num * w[:, None]).T, k.den * wden, k.codomain, k.domain)
    return _conditioned((k.rows * k.domain.weights[:, None]).T, None, k.codomain, k.domain)


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
    if mode.exact:
        wnum, wden = domain.int_weights()
        qnum, qden = codomain.int_weights()
        w, q = widen(wden * qden, wnum, qnum)
        pushed = block_sums(w, labels, codomain.size)
        wrong = pushed * qden != q * wden
    else:
        pushed = block_sums(domain.weights, labels, codomain.size)
        wrong = ~mode.close_mask(pushed, codomain.weights)
    if wrong.any():
        (y,) = _first(wrong)
        got = Fraction(int(pushed[y]), wden) if mode.exact else pushed[y]
        raise NotMeasurePreservingError(
            f"map pushes weight {got} onto outcome {y}, expected {codomain.weights[y]}"
        )
    hits = labels[:, None] == np.arange(codomain.size)
    if mode.exact:
        return _exact(hits.astype(np.int64), 1, domain, codomain)
    return Kernel(np.where(hits, 1.0, 0.0), domain, codomain)


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
    if space.mode.exact:
        wnum, wden = space.int_weights()
        mass = Rationals(block_sums(wnum, p.labels, p.n_blocks), int_array([wden] * p.n_blocks, wden))
    else:
        mass = block_sums(space.weights, p.labels, p.n_blocks)
    quotient = ProbSpace(mass, space.mode)
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
    live = k.domain.live_index()
    if k.mode.exact:
        rows, one = k.num[live], k.den
    else:
        rows, one = k.rows[live], 1.0
    zero_one = bool((k.mode.close_mask(rows, 0) | k.mode.close_mask(rows, one)).all())
    if dagger_epi != zero_one:
        raise FinprobError(
            "dagger-epi test and 0/1-row criterion disagree on this kernel"
        )
    return dagger_epi


def _checked_marginals(table: np.ndarray, p, q, mode: NumericMode, lead: tuple = ()) -> None:
    """A joint table, or a stack of them along the named `lead` axes, has
    the row marginals p and the column marginals q within the mode's
    tolerance; an error names the first table that does not."""
    for axis, w, side, name in ((-1, p, "row", "p"), (-2, q, "column", "q")):
        bad = ~mode.close_mask(table.sum(axis=axis), w).all(axis=-1)
        if bad.any():
            where = f" of {_at(_first(bad), lead)}" if lead else ""
            raise NotMeasurePreservingError(f"{side} marginals{where} differ from {name}")


class Coupling(Frozen):
    """Joint table on domain x codomain whose marginals are p and q."""

    __slots__ = ("table", "domain", "codomain")

    def __init__(self, table: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        mode, shape = _spaces(domain, codomain)
        t = _table(table, mode, shape, "coupling")
        _checked_marginals(t, domain.weights, codomain.weights, mode)
        object.__setattr__(self, "table", t)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)


def coupling_from_kernel(k: Kernel) -> Coupling:
    """Joint table c(x,y) = p(x) rows[x][y]."""
    _require_mp(k)
    return Coupling(k.domain.weights[:, None] * k.rows, k.domain, k.codomain)


def kernel_from_coupling(c: Coupling) -> Kernel:
    """Conditioning on the first marginal; null rows canonicalized to q."""
    if c.domain.mode.exact:
        return _conditioned(*int_numerators(c.table), c.domain, c.codomain)
    return _conditioned(c.table, None, c.domain, c.codomain)


def kernel_from_measure(space: ProbSpace) -> Kernel:
    """The unique measure-preserving kernel from the one-point space to `space`."""
    from .spaces import point_space

    if space.mode.exact:
        wnum, wden = space.int_weights()
        return _exact(wnum[None, :], wden, point_space(space.mode), space)
    return Kernel(space.weights[None, :], point_space(space.mode), space)
