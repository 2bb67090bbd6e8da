"""Pullback action of kernels on random variables, and conditional expectation.

A kernel k acts contravariantly on codomain RVs by integration against its
rows: (k*g)(x) = sum_y rows[x][y] g(y). At finite scale the kernel matrix is
the operator, so no separate operator algebra exists here. Conditioning on a
partition is the pullback of the partition's idempotent kernel, spelled out
directly as block averaging.

Every block sum (block averages here, the rows of `cond_exp_kernel`, the
quotient weights of `coarsening_kernel`) goes through `numerics.block_sums`
and follows one rule: in float mode it adds in outcome order starting from
0.0; in rational mode it is exact, over integer numerators for the block
averages and the kernel rows.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .errors import DimMismatchError, SizeMismatchError, SpaceMismatchError
from .kernels import Kernel, bayes_inverse
from .numerics import (
    Rationals,
    block_sums,
    check_norm_index,
    magnitude,
    mat_mul,
    per_row,
    widen,
)
from .partitions import Partition
from .spaces import RandomVar, VecRandomVar, expectation, ln_norm, point_space

VNorm = Union[str, Callable[[np.ndarray], float]]


def _int_pullback(k: Kernel, gnum: np.ndarray, common: int) -> tuple:
    """Rational k* on values gnum / common, along the first axis: one
    integer product of the kernel numerators with gnum, over k.den * common.
    A kernel row is nonnegative and sums to k.den, so every result is at
    most k.den * max|gnum| in magnitude."""
    den = k.den * common
    num, gnum = widen(max(k.den * magnitude(gnum), den), k.num, gnum)
    return mat_mul(num, gnum), den


def apply_pullback(k: Kernel, g: RandomVar) -> RandomVar:
    """k*g: integrate g against each row of k, componentwise for an
    R^d-valued g, so it commutes with every coordinate projection. Rational
    mode takes one integer product over g's common denominator (see
    `_int_pullback`)."""
    if not g.space.same_as(k.codomain):
        raise SpaceMismatchError("RV must live on the kernel's codomain")
    if k.mode.exact:
        return RandomVar(Rationals.over(*_int_pullback(k, *g._exact.over_common())), k.domain)
    return RandomVar(mat_mul(k.rows, g.values), k.domain)


def cond_expectation(f: RandomVar, p: Partition) -> RandomVar:
    """Conditional expectation of f given the partition, componentwise for
    an R^d-valued f.

    Each block of positive mass gets its weighted average; blocks of zero
    mass get the global mean E[f], a fixed canonical representative (any
    value there is a.s. equal). The result is constant per block.
    """
    space = f.space
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} against a {space.size}-outcome RV"
        )
    if space.fully_supported and p.n_blocks == space.size:
        return f  # discrete partition: identity
    return RandomVar(_block_averages(f, p), space)


def _block_averages(f: RandomVar, p: Partition):
    """Block averages (sum of w_x f_x) / (mass of b) for every block b, all
    value components at once.

    Float mode sums both in outcome order starting from 0.0, so zero-weight
    members add exact zeros and null-set completion cannot move a bit.
    Rational mode takes integer sums over the weights' numerators: members
    of a block with different denominators are first brought to the lcm of
    those denominators. Blocks of zero mass get the global mean.
    """
    space = f.space
    labels = p.labels
    nb = p.n_blocks
    if not space.mode.exact:
        w = space.weights
        sums, dens = block_sums(per_row(w, f.values) * f.values, labels, nb), block_sums(w, labels, nb)
        empty = dens == 0
        if empty.any():
            sums[empty], dens[empty] = expectation(f), 1.0
        return (sums / per_row(dens, sums))[labels]
    wnum, wden = space.int_weights()
    common = f._exact.common_den()
    if common is None:
        num, block_den = f._exact.over_block_lcm(labels, nb)
        top_den = magnitude(block_den)
    else:
        num, block_den = f._exact.num, common
        top_den = common
    wnum, num = widen(wden * max(magnitude(num), 1), wnum, num)
    sums = block_sums(per_row(wnum, num) * num, labels, nb)
    masses = block_sums(wnum, labels, nb)
    (masses,) = widen(wden * top_den, masses)
    dens = per_row(masses, sums) * block_den
    if dens.shape != sums.shape:  # R^d values over one common denominator
        dens = np.repeat(dens, sums.shape[1], axis=1)
    empty = masses == 0
    if empty.any():
        mean = Rationals.of(np.atleast_1d(expectation(f)))
        sums, dens = widen(max(magnitude(mean.num), magnitude(mean.den)), sums, dens)
        sums[empty], dens[empty] = mean.num, mean.den
    return Rationals(sums[labels], dens[labels])


def vector_cond_expectation(g: RandomVar, p: Partition) -> RandomVar:
    return cond_expectation(g, p)


def inner_product(f: RandomVar, g: RandomVar):
    """L^2 pairing: sum_x p(x) <f(x), g(x)>, over the dot product of R^d values."""
    if not f.space.same_as(g.space):
        raise SpaceMismatchError("inner product needs a common space")
    if f.dim != g.dim:
        raise DimMismatchError(f"random variables of dimension {f.dim} and {g.dim}")
    s = f.space
    total = expectation(RandomVar(f._exact.mul(g._exact) if s.mode.exact else f.values * g.values, s))
    return total if f.dim is None else total.sum()


def adjointness_defect(k: Kernel, f: RandomVar, g: RandomVar):
    """|<f, k*g>_p - <(k+)*f, g>_q|; zero (within tolerance) for every
    measure-preserving kernel, since Bayesian inversion is the L^2 adjoint."""
    if not f.space.same_as(k.domain):
        raise SpaceMismatchError("f must live on the kernel's domain")
    if not g.space.same_as(k.codomain):
        raise SpaceMismatchError("g must live on the kernel's codomain")
    kinv = bayes_inverse(k)
    left = inner_product(f, apply_pullback(k, g))
    right = inner_product(apply_pullback(kinv, f), g)
    return abs(left - right)


def lipschitz_check(k: Kernel, g: RandomVar, n=1) -> bool:
    """True when ||k*g||_n <= ||g||_n (within tolerance): the pullback is
    1-Lipschitz for every L^n norm."""
    check_norm_index(n)
    pulled = apply_pullback(k, g)
    lhs, rhs = ln_norm(pulled, n), ln_norm(g, n)
    mode = k.mode
    if mode.exact:
        return lhs <= rhs
    return float(lhs) <= float(rhs) + mode.tolerance


def vector_pullback(k: Kernel, g: RandomVar) -> RandomVar:
    return apply_pullback(k, g)


def value_norm(vec, vnorm: VNorm, mode):
    """Norm of one value in R^d: "euclidean" (default), "max", "sum", or a callable."""
    return ln_norm(VecRandomVar([vec], point_space(mode)), math.inf, vnorm)


def bochner_norm(g: RandomVar, n=1, vnorm: VNorm = "euclidean"):
    return ln_norm(g, n, vnorm)
