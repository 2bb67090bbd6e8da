"""Measure-preserving Markov kernels between finite spaces, up to a.s. equality.

A kernel is a row-stochastic matrix: rows[x][y] is the probability of landing
on codomain outcome y from domain outcome x. Two kernels are almost surely
equal when their rows agree at every supported domain outcome; the canonical
representative of that class fixes each null row to the codomain weights.

A kernel holds `num`, a numerator matrix, over one positive integer
denominator `den`, and every operation is one array expression over these
in both numeric modes, comparing through `NumericMode.close_mask`. In float
mode the numerators are the float64 rows themselves over the denominator 1
(`num` is `rows`). In rational mode they are integers in lowest terms. Rows
are nonnegative and sum to the denominator, so no entry of a kernel, or of
a product of kernels, exceeds its denominator; each operation bounds its
results that way first and works in int64 when the bound fits and in
Python ints otherwise. `rows` is then a read-only `Fraction` array built on
first access and cached. A coupling holds its joint table in the same form
(`table` is built on first read), so a kernel and a coupling turn into each
other by an integer product and by conditioning. Both read their input
through `numerics.as_matrix`. A mode branch is left only where the
arithmetic differs: validation (a tolerance against exact sums, and lowest
terms) and conditioning (division in place against lcm scaling). Every
conditioning of rows on their weights, here and in the conditioning kernels
of partitions and the sampled kernels, is one disintegration,
`_disintegrated`: the dagger conditions the joint table on its second
marginal, a coupling's kernel on its first, and `canonicalize` conditions a
kernel on its supported rows.
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
from .numerics import (
    Frozen,
    NumericMode,
    Rationals,
    _at,
    _first,
    _summable,
    as_matrix,
    block_sums,
    int_array,
    magnitude,
    mat_mul,
    quotient,
    quotients,
    times,
    widen,
)
from .partitions import Partition
from .spaces import ProbSpace


_CELL, _STEPS = ("row", "column"), ("step",)


def _read(values, domain: ProbSpace, codomain: ProbSpace, what: str, lead: tuple = ()) -> tuple:
    """(mode, numerators, denominator) of an (n, m) kernel or coupling, or of
    a stack of them along the named `lead` axes, read by `as_matrix` over one
    common denominator; the spaces must share a mode and fit the shape."""
    if domain.mode != codomain.mode:
        raise SpaceMismatchError("domain and codomain use different numeric modes")
    shape = (domain.size, codomain.size)
    num, den = _summable(as_matrix(values, domain.mode))
    if num.shape != num.shape[: len(lead)] + shape:
        raise SizeMismatchError(f"{what} shape {num.shape} for spaces {shape[0]} -> {shape[1]}")
    return domain.mode, num, den


def _entries(num: np.ndarray, den, mode: NumericMode, what: str, lead: tuple) -> None:
    """Every entry of numerators over denominators (one per `lead` index)
    finite in float mode and nonnegative; an error names the first that is not."""
    if not mode.exact and not np.isfinite(num).all():
        at = _first(~np.isfinite(num))
        raise NonFiniteError(f"{what} entry at {_at(at, lead + _CELL)} is {num[at]}")
    negative = num < 0
    if negative.any():
        at = _first(negative)
        value = quotient(num[at], np.broadcast_to(den, num.shape[: len(lead)])[at[:-2]])
        raise NegativeWeightError(f"{what} entry at {_at(at, lead + _CELL)} is negative: {value}")


def _rows(num: np.ndarray, den, mode: NumericMode, lead: tuple = ()) -> tuple:
    """Checked form of kernel numerators over positive denominators: one
    kernel (a 2-d `num` over a 0-d `den`) or a stack of them along the named
    `lead` axes, each over its own denominator; float numerators are over 1.
    Every entry must be finite and nonnegative and every row must sum to its
    denominator, within the tolerance in float mode; an error names the
    first offending entry by its lead axes, row and column. Rational
    numerators are brought to lowest terms, int64 when the largest
    denominator fits. The numerators are frozen in place."""
    den = np.asarray(den)
    _entries(num, den, mode, "kernel", lead)
    totals = num.sum(axis=-1)
    bad = ~mode.close_mask(totals, den[..., None])
    if bad.any():
        at = _first(bad)
        raise SumNotOneError(f"{_at(at, lead + ('row',))} sums to {quotient(totals[at], den[at[:-1]])}")
    if mode.exact:
        g = np.asarray(np.gcd(np.gcd.reduce(np.gcd.reduce(num, axis=-1), axis=-1), den))
        num, den = num // g[..., None, None], np.asarray(den // g)
        if num.dtype == object and max(den.reshape(-1).tolist(), default=0) <= np.iinfo(np.int64).max:
            num, den = num.astype(np.int64), den.astype(np.int64)
    num.setflags(write=False)
    return num, den


class _OverDen(Frozen):
    """A matrix between two spaces held as the numerators `num` over one
    positive denominator `den` (see the module docstring). Its numbers, the
    slot named by `_VIEW`, are built on first read and cached: a read-only
    `Fraction` matrix in rational mode, the numerators themselves in float
    mode."""

    __slots__ = ("num", "den", "domain", "codomain")
    _VIEW = ""

    def _bind(self, num: np.ndarray, den, domain: ProbSpace, codomain: ProbSpace):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", int(den))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        return self

    def __getattr__(self, name):
        # Reached only while a slot is unset.
        if name != self._VIEW:
            raise AttributeError(name)
        view = quotients(self.num, self.den)
        object.__setattr__(self, name, view)
        return view


class Kernel(_OverDen):
    """Row-stochastic matrix from a domain space to a codomain space, held
    as the numerators `num` over the denominator `den`; `rows` is built on
    first read."""

    __slots__ = ("rows",)
    _VIEW = "rows"

    def __init__(self, rows: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        mode, num, den = _read(rows, domain, codomain, "kernel")
        self._bind(*_rows(num, den, mode), domain, codomain)

    @property
    def mode(self):
        return self.domain.mode

    def is_endo(self) -> bool:
        return self.domain.same_as(self.codomain)

    def __repr__(self):
        return f"Kernel({self.domain.size}->{self.codomain.size}, mode={self.mode.kind})"


def _bound(rows: tuple, domain: ProbSpace, codomain: ProbSpace) -> Kernel:
    """Kernel over checked numerators and their denominator (see `_rows`)."""
    return object.__new__(Kernel)._bind(*rows, domain, codomain)


def _kernel(num: np.ndarray, den, domain: ProbSpace, codomain: ProbSpace) -> Kernel:
    """Checked kernel of numerators over a denominator (see `_rows`)."""
    return _bound(_rows(num, den, domain.mode), domain, codomain)


def _views(data: np.ndarray, den: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Kernels over the slices of a checked stack of numerators over their
    (T,) denominators."""
    return [object.__new__(Kernel)._bind(k, d, domain, codomain) for k, d in zip(data, den.tolist())]


def _disintegrated(table: np.ndarray, den, given: tuple, fallback: tuple, mode: NumericMode, lead: tuple = ()) -> tuple:
    """Checked kernel rows (see `_rows`) of a nonnegative (n, m) table of
    numerators over `den` conditioned on its rows, or of a stack of them
    along the named `lead` axes, each over its own denominator: row x is
    table[x] / given(x), and the fallback row where given(x) = 0. `given`
    holds the n row weights and `fallback` the m weights of the null rows,
    each as (numerators, denominator); a row of positive weight sums to it.
    Float numerators are over 1 and divide in place; rational rows are
    scaled to the lcm of their row denominators."""
    gnum, gden = given
    fnum, fden = fallback
    if not mode.exact:
        rows = np.empty_like(table, order="C")  # C-ordered also for a transposed table
        rows[...] = fnum[..., None, :]
        np.divide(table, gnum[..., None], out=rows, where=gnum[..., None] > 0)
        return _rows(rows, den, mode, lead)
    den, gden, fden = (np.asarray(d, dtype=object)[..., None] for d in (den, gden, fden))
    g = np.gcd(den, gden)  # a live row x is table[x] * (gden / g) over row_den[x]
    row_den = np.where(gnum > 0, den // g * gnum, fden)
    common = np.lcm.reduce(row_den, axis=-1, keepdims=True)
    bound = max(common.reshape(-1).tolist())  # a numerator is at most its denominator
    common, scale, mult = (int_array(a, bound) for a in (common[..., 0], common // row_den, gden // g))
    table, fnum = widen(bound, table, fnum)
    num = np.where(gnum[..., None] > 0, table * mult[..., None], fnum[..., None, :]) * scale[..., None]
    return _rows(num, common, mode, lead)


def kernel_sequence(stack: np.ndarray, domain: ProbSpace, codomain: ProbSpace) -> list[Kernel]:
    """Kernels from a (T, n, m) array of row matrices, read by `as_matrix`
    and checked in one pass; kernel t holds slice t of one frozen copy."""
    mode, num, den = _read(stack, domain, codomain, "kernel", _STEPS)
    return _views(*_rows(num, int_array([den] * len(num), den), mode, _STEPS), domain, codomain)


def identity_kernel(space: ProbSpace) -> Kernel:
    return _kernel(space.mode.indicator(np.eye(space.size, dtype=bool)), 1, space, space)


def compose(k: Kernel, l: Kernel) -> Kernel:
    """Composite kernel: apply k, then l. Rows are the matrix product k.rows @ l.rows."""
    if not k.codomain.same_as(l.domain):
        raise SpaceMismatchError("middle spaces do not match")
    den = k.den * l.den
    return _kernel(mat_mul(*widen(den, k.num, l.num)), den, k.domain, l.codomain)


def is_measure_preserving(k: Kernel) -> bool:
    """Pushforward check: p^T rows = q within the mode's tolerance."""
    wnum, wden = k.domain.int_weights()
    qnum, qden = k.codomain.int_weights()
    w, num, q = widen(wden * k.den * qden, wnum, k.num, qnum)
    return bool(k.mode.close_mask(times(mat_mul(w, num), qden), times(q, wden * k.den)).all())


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
    a, b = widen(k.den * h.den, k.num[live], h.num[live])
    return bool(k.mode.close_mask(times(a, h.den), times(b, k.den)).all())


def canonicalize(k: Kernel) -> Kernel:
    """Canonical representative of k's a.s. class: null rows become q."""
    _require_mp(k)
    if k.domain.fully_supported:
        return k
    live = (k.domain.int_weights()[0] > 0).astype(np.int64)
    rows = _disintegrated(k.num, k.den, (live, 1), k.codomain.int_weights(), k.mode)
    return _bound(rows, k.domain, k.codomain)


def bayes_inverse(k: Kernel) -> Kernel:
    """Bayesian inverse: the kernel from (Y,q) back to (X,p) with
    k_inv[y][x] = rows[x][y] p(x) / q(y), rows at q-null outcomes set to p.

    Satisfies sum_{x in A} k(B|x) p(x) = sum_{y in B} k_inv(A|y) q(y) for all
    subset pairs, which pins it down up to a.s. equality.
    """
    _require_mp(k)
    wnum, wden = k.domain.int_weights()
    num, w = widen(k.den * wden, k.num, wnum)
    table = (num * w[:, None]).T
    rows = _disintegrated(table, k.den * wden, k.codomain.int_weights(), (wnum, wden), k.mode)
    return _bound(rows, k.codomain, k.domain)


def deterministic_from_function(
    f: Sequence[int] | Callable[[int], int],
    domain: ProbSpace,
    codomain: ProbSpace,
) -> Kernel:
    """0/1 kernel of an outcome map; the map must send every outcome to an
    integer codomain outcome and push p forward to q."""
    values = [f(x) for x in range(domain.size)] if callable(f) else f
    labels = np.asarray(values)
    if labels.shape != (domain.size,):
        raise SizeMismatchError("outcome map length differs from domain size")
    if labels.dtype.kind not in "iu":
        for x, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise SizeMismatchError(f"f({x}) = {v} is not an integer outcome")
    outside = (labels < 0) | (labels >= codomain.size)
    if outside.any():
        (x,) = _first(outside)
        raise SizeMismatchError(f"f({x}) = {labels[x]} outside the codomain")
    wnum, wden = domain.int_weights()
    qnum, qden = codomain.int_weights()
    w, q = widen(wden * qden, wnum, qnum)
    pushed = block_sums(w, labels, codomain.size)
    wrong = ~domain.mode.close_mask(times(pushed, qden), times(q, wden))
    if wrong.any():
        (y,) = _first(wrong)
        raise NotMeasurePreservingError(
            f"map pushes weight {quotient(pushed[y], wden)} onto outcome {y}, expected {codomain.weights[y]}"
        )
    hits = labels[:, None] == np.arange(codomain.size)
    return _kernel(domain.mode.indicator(hits), 1, domain, codomain)


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
    wnum, wden = space.int_weights()
    quotient_space = ProbSpace(Rationals.over(block_sums(wnum, p.labels, p.n_blocks), wden), space.mode)
    pi = deterministic_from_function(p.labels, space, quotient_space)
    pi_dag = bayes_inverse(pi)
    return quotient_space, pi, pi_dag


def is_as_deterministic(k: Kernel) -> bool:
    """Almost-sure determinism, decided by the dagger-epi test k o k_dag = id.

    Cross-checked against the direct criterion: every supported row is 0/1.
    """
    _require_mp(k)
    kinv = bayes_inverse(k)
    roundtrip = compose(kinv, k)  # endo-kernel on the codomain
    dagger_epi = as_equal_kernels(roundtrip, identity_kernel(k.codomain))
    rows = k.num[k.domain.live_index()]
    zero_one = bool((k.mode.close_mask(rows, 0) | k.mode.close_mask(rows, k.den)).all())
    if dagger_epi != zero_one:
        raise FinprobError(
            "dagger-epi test and 0/1-row criterion disagree on this kernel"
        )
    return dagger_epi


def _checked_marginals(num: np.ndarray, den, p: tuple, q: tuple, mode: NumericMode, lead: tuple = ()) -> None:
    """A joint table of numerators over `den`, or a stack of them along the
    named `lead` axes, each over its own denominator, has the row marginals p
    and the column marginals q, each (numerators, denominators) with one
    denominator per table as `den` has, within the mode's tolerance,
    comparing numerators across the two denominators; an error names the
    first table that does not."""
    top, per_table = magnitude(den), np.asarray(den)[..., None]
    for axis, (w, wden), side, name in ((-1, p, "row", "p"), (-2, q, "column", "q")):
        sums = num.sum(axis=axis)
        sums, w = widen(max(magnitude(sums) * magnitude(wden), magnitude(w) * top), sums, w)
        bad = ~mode.close_mask(times(sums, np.asarray(wden)[..., None]), times(w, per_table)).all(axis=-1)
        if bad.any():
            where = f" of {_at(_first(bad), lead)}" if lead else ""
            raise NotMeasurePreservingError(f"{side} marginals{where} differ from {name}")


class Coupling(_OverDen):
    """Joint table on domain x codomain whose marginals are p and q, held
    as the numerators `num` over the denominator `den`; `table` is built on
    first read."""

    __slots__ = ("table",)
    _VIEW = "table"

    def __init__(self, table: Sequence[Iterable], domain: ProbSpace, codomain: ProbSpace):
        mode, num, den = _read(table, domain, codomain, "coupling")
        _entries(num, den, mode, "coupling", ())
        _checked_marginals(num, den, domain.int_weights(), codomain.int_weights(), mode)
        num.setflags(write=False)
        self._bind(num, den, domain, codomain)


def coupling_from_kernel(k: Kernel) -> Coupling:
    """Joint table c(x,y) = p(x) rows[x][y]: the products of the weight and
    row numerators, over the product of their denominators."""
    _require_mp(k)
    wnum, wden = k.domain.int_weights()
    den = wden * k.den
    w, num = widen(den, wnum, k.num)  # every product is at most den
    return Coupling(Rationals(w[:, None] * num, den), k.domain, k.codomain)


def kernel_from_coupling(c: Coupling) -> Kernel:
    """Conditioning on the first marginal; null rows canonicalized to q."""
    rows = _disintegrated(c.num, c.den, c.domain.int_weights(), c.codomain.int_weights(), c.domain.mode)
    return _bound(rows, c.domain, c.codomain)


def kernel_from_measure(space: ProbSpace) -> Kernel:
    """The unique measure-preserving kernel from the one-point space to `space`."""
    from .spaces import point_space

    wnum, wden = space.int_weights()
    return _kernel(wnum[None, :], wden, point_space(space.mode), space)
