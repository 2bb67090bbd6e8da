"""Seeded random instances for tests and experiments.

All draws go through a numpy Generator (PCG64 via default_rng), so a seed
pins every instance exactly; rational instances are built from integer
draws and are therefore reproducible bit for bit.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .idempotents import IdempotentKernel, cond_exp_kernel
from .kernels import Coupling, Kernel, _conditioned, _exact, kernel_from_coupling
from .numerics import NumericMode, Rationals, int_array, mat_mul, widen
from .partitions import Partition
from .spaces import ProbSpace, RandomVar, VecRandomVar


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
    if mode.exact:
        total = int(raw.sum())
        return ProbSpace([Fraction(int(v), total) for v in raw], mode)
    weights = raw / raw.sum()
    return ProbSpace(weights, mode)


def random_rv(rng: np.random.Generator, space: ProbSpace, span: int = 8) -> RandomVar:
    if space.mode.exact:
        nums = rng.integers(-span, span + 1, size=space.size)
        dens = rng.integers(1, 5, size=space.size)
        return RandomVar([Fraction(int(a), int(b)) for a, b in zip(nums, dens)], space)
    return RandomVar(rng.uniform(-span, span, size=space.size), space)


def random_vec_rv(rng: np.random.Generator, space: ProbSpace, dim: int, span: int = 8) -> VecRandomVar:
    if space.mode.exact:
        nums = rng.integers(-span, span + 1, size=(space.size, dim))
        dens = rng.integers(1, 5, size=(space.size, dim))
        rows = [
            [Fraction(int(nums[i, j]), int(dens[i, j])) for j in range(dim)]
            for i in range(space.size)
        ]
        return VecRandomVar(rows, space, dim)
    return VecRandomVar(rng.uniform(-span, span, size=(space.size, dim)), space, dim)


def random_joint_table(
    rng: np.random.Generator,
    nrows: int,
    ncols: int,
    null_rows: int = 0,
) -> np.ndarray:
    """Nonnegative integer table with a positive total and the requested
    number of all-zero rows; divided by its total it is a joint distribution
    whose marginals define measure-preserving data exactly."""
    while True:
        raw = rng.integers(0, 10, size=(nrows, ncols))
        kill = rng.permutation(nrows)[:null_rows]
        raw[kill, :] = 0
        if raw.sum() > 0 and (raw.sum(axis=0) > 0).any():
            return raw


def random_mp_kernel(
    rng: np.random.Generator,
    nrows: int,
    ncols: int,
    mode: NumericMode,
    null_rows: int = 0,
) -> Kernel:
    """Measure-preserving kernel with fresh marginal spaces, built from a
    random joint table by conditioning."""
    raw = random_joint_table(rng, nrows, ncols, null_rows)
    if mode.exact:
        total = int(raw.sum())
        domain = ProbSpace(Rationals(raw.sum(axis=1), np.full(nrows, total)), mode)
        codomain = ProbSpace(Rationals(raw.sum(axis=0), np.full(ncols, total)), mode)
        return _conditioned(raw, total, domain, codomain)
    table = raw / raw.sum()
    domain = ProbSpace(list(table.sum(axis=1)), mode)
    codomain = ProbSpace(list(table.sum(axis=0)), mode)
    return kernel_from_coupling(Coupling(table, domain, codomain))


def random_mp_kernel_from(
    rng: np.random.Generator, domain: ProbSpace, ncols: int
) -> Kernel:
    """Measure-preserving kernel out of a fixed domain space; the codomain
    is the pushforward of random stochastic rows."""
    mode = domain.mode
    if mode.exact:
        raw = np.zeros((domain.size, ncols), dtype=np.int64)
        for row in raw:
            row[:] = rng.integers(0, 10, size=ncols)
            if row.sum() == 0:
                row[int(rng.integers(0, ncols))] = 1
        totals = raw.sum(axis=1).tolist()
        den = math.lcm(*totals)
        wnum, wden = domain.int_weights()
        # every numerator is at most den, and the pushforward's at most den * wden
        raw, scale, w = widen(den * wden, raw, int_array([den // t for t in totals], den), wnum)
        num = raw * scale[:, None]
        q = Rationals(mat_mul(w, num), int_array([den * wden] * ncols, den * wden))
        return _exact(num, den, domain, ProbSpace(q, mode))
    raw = rng.uniform(0.01, 1.0, size=(domain.size, ncols))
    rows = raw / raw.sum(axis=1, keepdims=True)
    rows = [list(r) for r in rows]
    q = [
        sum(domain.weights[x] * rows[x][y] for x in range(domain.size))
        for y in range(ncols)
    ]
    return Kernel(rows, domain, ProbSpace(q, mode))


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
