"""Seeded random instances for tests and experiments.

All draws go through a numpy Generator (PCG64 via default_rng), so a seed
pins every instance exactly; rational instances are built from integer
draws and are therefore reproducible bit for bit. Instances are assembled
as numerators over denominators in both modes, float arrays over ones or
integer numerators (in lowest terms in a stack), and only the draws and the
weights built from them differ by mode; a space is integer draws over their
total, which float mode divides once. A kernel is a drawn table conditioned
on its rows by `kernels._disintegrated`, the one body of every conditioning.
"""

from __future__ import annotations

import math

import numpy as np

from .idempotents import IdempotentKernel, cond_exp_kernel
from .kernels import Kernel, _bound, _checked_marginals, _disintegrated, _entries, _views
from .numerics import NumericMode, Rationals, mat_mul, widen
from .partitions import Partition
from .spaces import ProbSpace, RandomVar, VecRandomVar, _checked_weights


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_space(
    rng: np.random.Generator,
    size: int,
    mode: NumericMode,
    null_outcomes: int = 0,
) -> ProbSpace:
    """Space with the requested number of zero-weight outcomes."""
    if null_outcomes >= size:
        raise ValueError("at least one outcome must carry mass")
    while True:
        raw = rng.integers(1, 10, size=size)
        positions = rng.permutation(size)[:null_outcomes]
        raw[positions] = 0
        if raw.sum() > 0:
            break
    return ProbSpace(Rationals.over(raw, int(raw.sum())), mode)


def random_rv(rng: np.random.Generator, space: ProbSpace, span: int = 8) -> RandomVar:
    return RandomVar(_random_values(rng, space, (space.size,), span), space)


def random_vec_rv(rng: np.random.Generator, space: ProbSpace, dim: int, span: int = 8) -> RandomVar:
    return VecRandomVar(_random_values(rng, space, (space.size, dim), span), space, dim)


def _random_values(rng: np.random.Generator, space: ProbSpace, shape: tuple, span: int):
    """Values of the given shape in [-span, span]: in rational mode integer
    draws num / den with den in 1..4, as `Rationals` over their common
    denominator; uniform floats otherwise."""
    if space.mode.exact:
        nums = rng.integers(-span, span + 1, size=shape)
        dens = rng.integers(1, 5, size=shape)
        common = math.lcm(*set(dens.ravel().tolist()))
        nums, dens = widen(span * common, nums, dens)
        return Rationals.over(nums * (common // dens), common)
    return rng.uniform(-span, span, size=shape)


def random_joint_table(
    rng: np.random.Generator,
    nrows: int,
    ncols: int,
    null_rows: int = 0,
) -> np.ndarray:
    """Nonnegative integer table with a positive total and the requested
    number of all-zero rows; divided by its total it is a joint distribution
    whose marginals define measure-preserving data exactly."""
    if null_rows >= nrows:
        raise ValueError("at least one outcome must carry mass")
    while True:
        raw = rng.integers(0, 10, size=(nrows, ncols))
        kill = rng.permutation(nrows)[:null_rows]
        raw[kill, :] = 0
        if raw.sum() > 0 and (raw.sum(axis=0) > 0).any():
            return raw


def random_mp_stack(
    rng: np.random.Generator,
    count: int,
    nrows: int,
    ncols: int,
    mode: NumericMode,
    null_rows: int = 0,
) -> tuple:
    """`count` measure-preserving kernels with fresh marginal spaces, each
    from its own random joint table, drawn one after another as
    `random_mp_kernel` draws them, then conditioned and checked as stacks.

    Returns three (numerators, denominators) pairs: the (S, n, m) kernels,
    the (S, n) domain weights and the (S, m) codomain weights, each over (S,)
    denominators: float arrays over ones, or lowest-terms integer numerators.
    The checks are those of `ProbSpace` and `Coupling` and of kernel rows,
    and an error names the sequence.
    """
    raw = np.stack([random_joint_table(rng, nrows, ncols, null_rows) for _ in range(count)])
    lead = ("sequence",)
    total = raw.sum(axis=(1, 2))
    if mode.exact:
        table, den = raw, total
        p, q = _lowest(raw.sum(axis=2), total), _lowest(raw.sum(axis=1), total)
    else:
        table, den = raw / total[:, None, None], np.ones(count, dtype=np.int64)
        p, q = (table.sum(axis=2), den), (table.sum(axis=1), den)
    _checked_weights(*p, mode, lead)
    _checked_weights(*q, mode, lead)
    _entries(table, den, mode, "coupling", lead)
    _checked_marginals(table, den, p, q, mode, lead)
    return _disintegrated(table, den, p, q, mode, lead), p, q


def _lowest(num: np.ndarray, den: np.ndarray) -> tuple:
    """(S, k) integer numerators over (S,) denominators, in lowest terms per row."""
    g = np.gcd(np.gcd.reduce(num, axis=1), den)
    return num // g[:, None], den // g


def random_mp_kernel(
    rng: np.random.Generator,
    nrows: int,
    ncols: int,
    mode: NumericMode,
    null_rows: int = 0,
) -> Kernel:
    """Measure-preserving kernel with fresh marginal spaces, built from a
    random joint table by conditioning: `random_mp_stack` of one."""
    (data, den), *weights = random_mp_stack(rng, 1, nrows, ncols, mode, null_rows)
    domain, codomain = (ProbSpace(Rationals.over(w[0], int(d[0])), mode) for w, d in weights)
    return _views(data, den, domain, codomain)[0]


def random_mp_kernel_from(
    rng: np.random.Generator, domain: ProbSpace, ncols: int
) -> Kernel:
    """Measure-preserving kernel out of a fixed domain space; the codomain
    is the pushforward of random stochastic rows: integer draws over their
    row sums in rational mode, uniform draws divided by their row sums in
    float mode."""
    mode = domain.mode
    if mode.exact:
        raw = np.zeros((domain.size, ncols), dtype=np.int64)
        for row in raw:
            row[:] = rng.integers(0, 10, size=ncols)
            if row.sum() == 0:
                row[int(rng.integers(0, ncols))] = 1
    else:
        raw = rng.uniform(0.01, 1.0, size=(domain.size, ncols))
    totals = raw.sum(axis=1)  # all positive, so the fallback row is never taken
    num, den = _disintegrated(raw, 1, (totals, 1), (np.zeros_like(raw[0]), 1), mode)
    den = int(den)
    wnum, wden = domain.int_weights()
    w, num = widen(den * wden, wnum, num)  # the pushforward's numerators are at most den * wden
    q = Rationals.over(mat_mul(w, num), den * wden)
    return _bound((num, den), domain, ProbSpace(q, mode))


def random_partition(rng: np.random.Generator, n: int) -> Partition:
    """Uniform-ish random partition via a random restricted growth string."""
    labels = [0] * n
    max_label = 0
    for i in range(1, n):
        lab = int(rng.integers(0, max_label + 2))
        labels[i] = lab
        max_label = max(max_label, lab)
    return Partition.from_labels(labels)


def random_coarsening_chain(
    rng: np.random.Generator, n: int, length: int, start: Partition | None = None
) -> list[Partition]:
    """Decreasing chain: start fine, repeatedly merge two random blocks."""
    current = start if start is not None else Partition.discrete(n)
    chain = [current]
    while len(chain) < length and current.n_blocks > 1:
        i, j = rng.permutation(current.n_blocks)[:2]
        current = Partition.from_labels(np.where(current.labels == j, i, current.labels).tolist())
        chain.append(current)
    return chain


def random_refining_chain(rng: np.random.Generator, n: int, length: int) -> list[Partition]:
    """Increasing chain: the reversed coarsening chain."""
    return list(reversed(random_coarsening_chain(rng, n, length)))


def random_idempotent_chain(
    rng: np.random.Generator,
    space: ProbSpace,
    length: int,
    increasing: bool = True,
) -> list[IdempotentKernel]:
    parts = (
        random_refining_chain(rng, space.size, length)
        if increasing
        else random_coarsening_chain(rng, space.size, length)
    )
    return [cond_exp_kernel(space, p) for p in parts]
