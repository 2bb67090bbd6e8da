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

from typing import Callable, Union

import numpy as np

from .errors import DimMismatchError, SizeMismatchError, SpaceMismatchError
from .kernels import Kernel, bayes_inverse
from .numerics import (
    Rationals,
    block_sums,
    check_norm_index,
    exact_sqrt,
    fraction_array,
    int_array,
    int_numerators,
    is_infinite,
    mat_mul,
    magnitude,
    nth_root,
    widen,
)
from .partitions import Partition
from .spaces import RandomVar, VecRandomVar, expectation, ln_norm

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
    """k*g: integrate g against each row of k; in rational mode one integer
    product over g's common denominator (see `_int_pullback`)."""
    if not g.space.same_as(k.codomain):
        raise SpaceMismatchError("RV must live on the kernel's codomain")
    if k.mode.exact:
        num, den = _int_pullback(k, *g._exact.over_common())
        return RandomVar(Rationals(num, int_array([den] * len(num), den)), k.domain)
    return RandomVar(mat_mul(k.rows, g.values), k.domain)


def cond_expectation(f: RandomVar, p: Partition) -> RandomVar:
    """Conditional expectation of f given the partition.

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
    """Block averages (sum of w_x f_x) / (mass of b) for every block b.

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
        sums, dens = block_sums(w * f.values, labels, nb), block_sums(w, labels, nb)
        empty = dens == 0
        if empty.any():
            sums[empty], dens[empty] = expectation(f), 1.0
        return (sums / dens)[labels]
    wnum, wden = space.int_weights()
    common = f._exact.common_den()
    if common is None:
        num, block_den = f._exact.over_block_lcm(labels, nb)
        top_den = magnitude(block_den)
    else:
        num, block_den = f._exact.num, common
        top_den = common
    wnum, num = widen(wden * max(magnitude(num), 1), wnum, num)
    sums = block_sums(wnum * num, labels, nb)
    masses = block_sums(wnum, labels, nb)
    (masses,) = widen(wden * top_den, masses)
    dens = masses * block_den
    empty = masses == 0
    if empty.any():
        mean = expectation(f)
        sums, dens = widen(max(abs(mean.numerator), mean.denominator), sums, dens)
        sums[empty] = mean.numerator
        dens[empty] = mean.denominator
    return Rationals(sums[labels], dens[labels])


def vector_cond_expectation(g: VecRandomVar, p: Partition) -> VecRandomVar:
    """Componentwise conditional expectation of a vector-valued RV."""
    cols = [cond_expectation(g.component(j), p).values for j in range(g.dim)]
    return VecRandomVar(np.stack(cols, axis=-1).tolist(), g.space, g.dim)


def inner_product(f: RandomVar, g: RandomVar):
    """L^2 pairing: sum_x p(x) f(x) g(x)."""
    if not f.space.same_as(g.space):
        raise SpaceMismatchError("inner product needs a common space")
    s = f.space
    if s.mode.exact:
        return expectation(RandomVar(f._exact.mul(g._exact), s))
    live = list(s.support)
    products = f.values[live] * g.values[live]
    w = s._uniform_weight
    if w is not None:
        return w * products.sum()
    return (s.weights[live] * products).sum()


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


def vector_pullback(k: Kernel, g: VecRandomVar) -> VecRandomVar:
    """Componentwise pullback of a vector-valued RV; commutes with every
    coordinate projection by construction. Rational mode takes one integer
    product over the values' common denominator (see `_int_pullback`)."""
    if not g.space.same_as(k.codomain):
        raise SpaceMismatchError("vector RV must live on the kernel's codomain")
    if k.mode.exact:
        return VecRandomVar(fraction_array(*_int_pullback(k, *int_numerators(g.values))), k.domain, g.dim)
    return VecRandomVar(mat_mul(k.rows, g.values), k.domain, g.dim)


def value_norm(vec, vnorm: VNorm, mode):
    """Norm on the value space: "euclidean" (default), "max", "sum", or a callable.

    In rational mode the euclidean branch returns an exact Fraction whenever
    the root is rational (always for the zero vector).
    """
    if callable(vnorm):
        return vnorm(vec)
    if vnorm == "euclidean":
        total = sum(v * v for v in vec)
        return exact_sqrt(total, mode)
    if vnorm == "max":
        return max((abs(v) for v in vec), default=mode.zero())
    if vnorm == "sum":
        return sum(abs(v) for v in vec)
    raise DimMismatchError(f"unknown value-space norm {vnorm!r}")


def bochner_norm(g: VecRandomVar, n=1, vnorm: VNorm = "euclidean"):
    """Weighted L^n norm of the outcome-wise value-space norms.

    For n = inf, the supremum of the value norms over the support.
    """
    check_norm_index(n)
    space = g.space
    mode = space.mode
    if is_infinite(n):
        sup = mode.zero()
        for i in space.support:
            mag = value_norm(g.values[i], vnorm, mode)
            if mag > sup:
                sup = mag
        return sup
    n = int(n)
    total = sum(
        space.weights[i] * value_norm(g.values[i], vnorm, mode) ** n
        for i in space.support
    )
    if n == 1:
        return total
    return nth_root(total, n, mode)
