"""Idempotent kernels, invariant partitions, splittings, and their order.

A measure-preserving endo-kernel e with e o e = e (almost surely) is exactly
a block-conditional kernel: it conditions on the partition of almost-surely
invariant sets. That partition splits e through the quotient space, every
such idempotent is self-dual under Bayesian inversion, and the assignments
partition -> conditional-expectation kernel and kernel -> invariant partition
form a Galois connection that restricts to an order bijection on completed
partitions. All of that is finite here, so it is checked, not assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    FinprobError,
    NotAChainError,
    NotComparableError,
    NotIdempotentError,
    SpaceMismatchError,
    TooLargeError,
)
from .kernels import (
    _STEPS,
    Kernel,
    _disintegrated,
    _views,
    as_equal_kernels,
    bayes_inverse,
    coarsening_kernel,
    compose,
    identity_kernel,
    is_measure_preserving,
)
from .numerics import Frozen, block_sums, int_array, times, widen
from .partitions import Partition, _limit, all_partitions, complete_partition
from .spaces import ProbSpace


class IdempotentKernel(Frozen):
    """Endo-kernel validated to be measure-preserving and a.s. idempotent.

    Self-duality (equality with its own Bayesian inverse) holds for every
    such kernel; the constructor asserts it rather than trusting it.
    """

    __slots__ = ("kernel", "space")

    def __init__(self, kernel: Kernel, validate: bool = True):
        if not kernel.is_endo():
            raise SpaceMismatchError("an idempotent kernel must have domain = codomain")
        if validate:
            if not is_measure_preserving(kernel):
                raise NotIdempotentError("kernel is not measure-preserving")
            if not as_equal_kernels(compose(kernel, kernel), kernel):
                raise NotIdempotentError("kernel composed with itself differs from itself")
            if not as_equal_kernels(bayes_inverse(kernel), kernel):
                raise FinprobError(
                    "idempotent kernel is not self-dual; numeric data is inconsistent"
                )
        self._set(kernel=kernel, space=kernel.domain)

    def __repr__(self):
        return f"IdempotentKernel(size={self.space.size}, mode={self.space.mode.kind})"


@dataclass(frozen=True)
class Splitting:
    """Quotient-space factorization of an idempotent: e = pi_dag after pi."""

    quotient: ProbSpace
    pi: Kernel
    pi_dag: Kernel
    invariant_partition: Partition


def is_idempotent(k: Kernel) -> bool:
    """True when k o k is a.s. equal to k."""
    if not k.is_endo():
        raise SpaceMismatchError("idempotence needs domain = codomain")
    return as_equal_kernels(compose(k, k), k)


def _same_block(parts: Sequence[Partition]) -> np.ndarray:
    """(m, n, n) table: [k, x, y] is true when x and y share a block of parts[k]."""
    labels = np.array([p.labels for p in parts])
    return labels[:, :, None] == labels[:, None, :]


def _packed_same_block(parts: Sequence[Partition]) -> np.ndarray:
    """`_same_block` packed as bits: (m, W) uint64 words, one word per
    partition when n * n <= 64."""
    bits = np.packbits(_same_block(parts).reshape(len(parts), -1), axis=1)
    words = np.zeros((len(parts), -(-bits.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : bits.shape[1]] = bits
    return words.view(np.uint64)


def _subset_table(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """(len(sup), len(sub)) table of packed bit tables: [i, j] is true when
    every bit of sub[j] is set in sup[i]."""
    return ~(sub[None] & ~sup[:, None]).any(axis=-1)


def _conditioning(space: ProbSpace, parts: Sequence[Partition]) -> list[Kernel]:
    """Conditioning kernels of partitions of the space, built and checked as
    one stack: the table [x, y share a block] w(y) conditioned on the mass
    of x's block at a supported x, and the weights at a null x. Block masses
    add up in outcome order; the weight denominator cancels, so the table
    and the masses are both taken over 1."""
    labels = np.array([p.labels for p in parts])
    m, n = labels.shape
    bins = (labels + n * np.arange(m)[:, None]).ravel()
    w, wden = space.int_weights()
    mass = block_sums(np.tile(w, m), bins, m * n)[bins].reshape(m, n)
    table, ones = np.where(_same_block(parts), w, 0), np.ones(m, dtype=np.int64)
    rows = _disintegrated(table, ones, (np.where(w > 0, mass, 0), 1), (w, wden), space.mode, _STEPS)
    return _views(*rows, space, space)


def cond_exp_kernel(space: ProbSpace, p: Partition, validate: bool = True) -> IdempotentKernel:
    """Conditioning kernel of a partition: each supported row is p(.|block(x)).

    Rows at null outcomes are canonicalized to the space weights. The result
    is measure-preserving and idempotent by construction; exhaustive
    enumeration loops may skip the constructor's re-validation.
    """
    if p.parent_size != space.size:
        raise SpaceMismatchError(
            f"partition of size {p.parent_size} on a {space.size}-outcome space"
        )
    return IdempotentKernel(_conditioning(space, [p])[0], validate=validate)


def _transitions(data: np.ndarray, space: ProbSpace) -> np.ndarray:
    """The positive transition relation e(y|x) > 0 between supported
    outcomes, over the last two axes of kernel numerators: above the
    tolerance, which is 0 in rational mode."""
    live = space.live_index()
    return data[..., live, :][..., live] > space.mode.tolerance


def _invariant_partitions(step: np.ndarray, space: ProbSpace) -> list[Partition]:
    """Invariant partitions of a stack of transition relations (see
    `invariant_partition`), closed all at once."""
    live = space.live_index()
    reach = step | step.swapaxes(-1, -2) | np.eye(live.size, dtype=bool)
    stack = np.arange(len(reach))[:, None]
    while True:  # square the reachability relations until they are transitive
        first = reach.argmax(axis=-1)  # each outcome's first related outcome
        # reflexive and symmetric, a relation is transitive exactly when
        # every row equals the row of its first member
        if (reach[stack, first] == reach).all():
            break
        square = reach.astype(np.float64)
        reach = square @ square > 0
    labels = np.tile(np.arange(space.size), (len(step), 1))  # null outcomes keep a label of their own
    labels[:, live] = live[first]
    return [Partition.from_labels(row) for row in labels.tolist()]


def invariant_partition(e: IdempotentKernel) -> Partition:
    """Partition of almost-surely invariant sets.

    Supported outcomes are grouped into connected components of the positive
    transition relation e(y|x) > 0, read off its symmetric transitive
    closure; every null outcome is a singleton. For a finite idempotent this
    is exactly the atomic decomposition of the invariant sigma-algebra (the
    subset-enumeration oracle agrees).
    """
    step = _transitions(e.kernel.num, e.space)
    return _invariant_partitions(step[None], e.space)[0]


def split(e: IdempotentKernel) -> Splitting:
    """Splitting through the invariant partition's quotient space.

    Postconditions (checked): pi after pi_dag is a.s. the quotient identity,
    and pi_dag after pi is a.s. e itself.
    """
    part = invariant_partition(e)
    quotient, pi, pi_dag = coarsening_kernel(e.space, part)
    if not as_equal_kernels(compose(pi_dag, pi), identity_kernel(quotient)):
        raise FinprobError("splitting failed: pi o pi_dag is not the identity")
    if not as_equal_kernels(compose(pi, pi_dag), e.kernel):
        raise FinprobError("splitting failed: pi_dag o pi does not reproduce e")
    return Splitting(quotient, pi, pi_dag, part)


# -- the idempotent partial order ------------------------------------------

def _int_form(kernels: Sequence[Kernel], out: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Endo-kernels of one space as their held numerators, stacked (into
    `out` when it is given).

    Returns an (m, n, n) numerator array and the (m,) vector of the
    kernels' denominators, ones for float rows. Null rows are zeroed: a
    measure-preserving kernel moves no mass from a supported outcome to a
    null one, so they never reach a supported row of a composite. A
    composite of two forms has nonnegative rows summing to the product of
    their denominators; integer arrays are int64 when max(denominators)**2
    fits, and Python ints otherwise.
    """
    dens = [k.den for k in kernels]
    top = max(dens)
    nums, dens = widen(top * top, np.stack([k.num for k in kernels], out=out), int_array(dens, top))
    nums[:, kernels[0].domain.int_weights()[0] == 0] = 0
    return nums, dens


def _order_forms(kernels: Sequence[Kernel], out: Optional[np.ndarray] = None) -> tuple:
    """Endo-kernels of one space, stacked once for the composite test
    (`_leq_forms`): (numerators, denominators, mode) from `_int_form`."""
    return (*_int_form(kernels, out), kernels[0].mode)


def _same_forms(forms, twin) -> np.ndarray:
    """Per prepared form i, whether it is a.s. equal to form twin[i]."""
    nums, dens, mode = forms
    scaled = nums * dens[twin, None, None]
    return mode.close_mask(scaled, nums[twin] * dens[:, None, None], out=scaled).all(axis=(1, 2))


def _leq_forms(mode, a: np.ndarray, b: np.ndarray, lb) -> np.ndarray:
    """The composite test: e_a <= e_b, for stacks of prepared forms a and b
    that broadcast over their leading axes, when both composites a.b and
    b.a are a.s. equal to a.

    A composite carries the denominator la * lb, so it is compared with a
    scaled by lb (b's denominators, shaped to broadcast against a): exactly
    in rational mode; in float mode, where every denominator is 1, within
    the tolerance, the difference taken in the composite's own buffer. The
    second composite is formed only where the first agrees somewhere.
    """
    target = times(a, lb)

    def agrees(composite):
        return mode.close_mask(composite, target, out=composite).all(axis=(-2, -1))

    ok = agrees(np.matmul(a, b))
    if ok.any():
        ok &= agrees(np.matmul(b, a))
    return ok


def _leq_against(forms, i: int, lo: int, hi: int, above: bool = False) -> np.ndarray:
    """e_i <= e_j for every j in lo..hi-1 of prepared forms, or e_j <= e_i
    when `above`: the composite test in one direction."""
    nums, dens, mode = forms
    if above:
        return _leq_forms(mode, nums[lo:hi], nums[i], dens[i])
    return _leq_forms(mode, nums[i], nums[lo:hi], dens[lo:hi, None, None])


_BLOCK = 1 << 12  # entries of a table, or of a stack of composites, held at once
# Entries of a block of trace-screen rows (`_order_table`). A row holds m + n*n
# entries, 4,204 at n = 8, where 2**12 would screen one row per product and
# 2**15 screens seven: the rational n = 8 order table took 1.55 s against
# 1.93 s (median of 9; 2 cores, one BLAS thread, numpy 2.4).
_SCREEN_BLOCK = 1 << 15


def _order_table(forms) -> np.ndarray:
    """(m, m) table of e_i <= e_j over prepared forms, built in blocks.

    A pair is decided by the composite test (`_leq_forms`) only when it
    survives a trace screen: if a.b and b.a equal a scaled by lb, then
    tr(a.b) = lb * tr(a). In rational mode the screen asks for equality. In
    float mode a composite within the tolerance of a moves its trace by at
    most n * tolerance, and the screen allows twice that plus the rounding
    of two sums taken in different orders, which needs far less. The traces
    of a block of rows come from one product of flattened forms, since
    tr(a.b) = sum over x, y of a[y, x] * b[x, y]; a block holds its rows of
    the trace table and of the turned forms, near `_SCREEN_BLOCK` entries
    and at least one row, and the pairs that survive are composed in
    chunks. The diagonal is true untested. In rational mode the traces are
    integers of at most n * la * lb: below 2**53 the product runs on
    float64, where every partial sum of these nonnegative terms is an exact
    integer, and on int64 or Python ints above.
    """
    nums, dens, mode = forms
    m, n = nums.shape[:2]
    if mode.exact:
        bound = n * max(dens.tolist()) ** 2
        wide, scale = (nums.astype(np.float64), dens.astype(np.float64)) if bound < 2**53 else widen(bound, nums, dens)
        slack = 0
    else:
        wide, scale = nums, dens
        slack = 2 * n * (mode.tolerance + n * n * np.finfo(np.float64).eps)
    flat, traces = wide.reshape(m, n * n), np.trace(wide, axis1=1, axis2=2)
    leq = np.eye(m, dtype=bool)
    rows, pairs = max(1, _SCREEN_BLOCK // (m + n * n)), max(1, _BLOCK // (n * n))
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        turned = wide[lo:hi].swapaxes(1, 2).reshape(hi - lo, n * n)
        screen = turned @ flat.T
        screen -= traces[lo:hi, None] * scale
        screen = np.abs(screen, out=screen) <= slack
        screen[np.arange(hi - lo), np.arange(lo, hi)] = False
        first, second = np.nonzero(screen)
        for start in range(0, len(first), pairs):
            i, j = first[start : start + pairs] + lo, second[start : start + pairs]
            leq[i, j] = _leq_forms(mode, nums[i], nums[j], dens[j, None, None])
    return leq


def _leq_pair_exact(a: tuple, b: tuple) -> bool:
    """e_a <= e_b for the prepared forms of two kernels (`_order_forms` of
    one kernel each), in either mode: the composite test on stacks of one.
    Integer forms are widened to Python ints when the composites'
    denominator does not fit int64."""
    (x, lx, mode), (y, ly, _) = a, b
    x, y, ly = widen(int(lx[0]) * int(ly[0]), x, y, ly)
    return bool(_leq_forms(mode, x, y, ly[:, None, None])[0])


def idem_leq(e1: IdempotentKernel, e2: IdempotentKernel) -> bool:
    """Idempotent order: true when both composites of e1 and e2 a.s. equal e1."""
    if not e1.space.same_as(e2.space):
        raise SpaceMismatchError("idempotents on different spaces")
    return _leq_pair_exact(_order_forms([e1.kernel]), _order_forms([e2.kernel]))


def order_witnesses(
    e1: IdempotentKernel, e2: IdempotentKernel
) -> tuple[Kernel, Kernel]:
    """Unique connecting maps between the quotients of comparable idempotents.

    For e1 <= e2 with splittings (A1, pi1, pi1_dag) and (A2, pi2, pi2_dag),
    returns f: A1 -> A2 and g: A2 -> A1 with iota2 o f = iota1, g o pi2 = pi1,
    g o f = id, and f equal to the Bayesian inverse of g. All four identities
    are verified before returning.
    """
    if not idem_leq(e1, e2):
        raise NotComparableError("witnesses require e1 <= e2 in the idempotent order")
    s1 = split(e1)
    s2 = split(e2)
    f = compose(s1.pi_dag, s2.pi)
    g = compose(s2.pi_dag, s1.pi)
    checks = (
        as_equal_kernels(compose(f, s2.pi_dag), s1.pi_dag),
        as_equal_kernels(compose(s2.pi, g), s1.pi),
        as_equal_kernels(compose(f, g), identity_kernel(s1.quotient)),
        as_equal_kernels(bayes_inverse(g), f),
    )
    if not all(checks):
        raise FinprobError(f"witness identities failed: {checks}")
    return f, g


def _chain_optimum(chain: Sequence[IdempotentKernel], increasing: bool, start: int = 0) -> IdempotentKernel:
    """Supremum of an increasing chain or infimum of a decreasing one (see
    `sup_idempotents` and `inf_idempotents`), checked in one walk.

    The walk forms each element once and decides, in the one direction the
    chain needs, each adjacent pair from pair `start` (chain[start],
    chain[start + 1]) on, and each element against the optimum. It holds
    two element forms and the optimum's form, whatever the length: in float
    mode three (n, n) buffers, filled in turn, since with fresh forms for
    each element float chains at n = 96 and 160 took about a sixth longer.
    A pair out of order raises `NotAChainError` before a failed bound is
    reported.
    """
    if not chain:
        raise NotAChainError("empty chain")
    space = chain[0].space
    for e in chain[1:]:
        if not e.space.same_as(space):
            raise SpaceMismatchError("chain elements on different spaces")
    out = cond_exp_kernel(space, _limit(map(invariant_partition, chain), space, increasing))

    n = space.size
    slots = [None] * 3 if space.mode.exact else np.empty((3, 1, n, n))
    optimum = _order_forms([out.kernel], slots[2])

    def below(lo, hi):  # lo <= hi in the chain's direction
        return _leq_pair_exact(lo, hi) if increasing else _leq_pair_exact(hi, lo)

    bounded, prev = True, None
    for i, e in enumerate(chain):
        form = _order_forms([e.kernel], slots[i % 2])
        if i > start and not below(prev, form):
            word = "increasing" if increasing else "decreasing"
            raise NotAChainError(f"chain is not {word} in the idempotent order")
        bounded = bounded and below(form, optimum)
        prev = form
    if not bounded:
        raise FinprobError(
            "join kernel is not an upper bound of the chain"
            if increasing
            else "meet kernel is not a lower bound of the chain"
        )
    return out


def sup_idempotents(chain: Sequence[IdempotentKernel]) -> IdempotentKernel:
    """Supremum of an increasing chain: conditioning on the join (common
    refinement) of the invariant partitions.

    The bound property is re-verified on return; least-ness among
    partition-induced idempotents is exhaustive work and lives in the
    filtration optimality check.
    """
    return _chain_optimum(chain, increasing=True)


def inf_idempotents(chain: Sequence[IdempotentKernel]) -> IdempotentKernel:
    """Infimum of a decreasing chain: conditioning on the meet of the
    completed invariant partitions.

    Invariant partitions are already null-complete, and completion happens
    before meeting; meeting the raw partitions instead would be wrong
    whenever null outcomes glue supported blocks together. The bound
    property is re-verified on return.
    """
    return _chain_optimum(chain, increasing=False)


# -- exhaustive Galois audit -------------------------------------------------

@dataclass(frozen=True)
class GaloisReport:
    """Outcome of the exhaustive partitions-vs-idempotents audit on one space."""

    size: int
    n_partitions: int
    adjunction_failures: tuple
    roundtrip_failures: tuple
    completion_failures: tuple
    monotonicity_failures: tuple

    @property
    def all_ok(self) -> bool:
        return not (
            self.adjunction_failures
            or self.roundtrip_failures
            or self.completion_failures
            or self.monotonicity_failures
        )


def galois_roundtrips(space: ProbSpace, max_size: int = 8) -> GaloisReport:
    """Exhaustive check of the order correspondence on one space.

    For every partition B and every partition-induced idempotent e:
    the adjunction (B contained in the invariant algebra of e iff the
    conditioning kernel of B is <= e), the idempotent roundtrip
    (conditioning on the invariant partition of e reproduces e), the
    partition roundtrip (the invariant partition of the conditioning kernel
    of B is the completion of B), and monotonicity of both assignments.

    The conditioning kernels of all partitions are one checked stack. Every
    invariant partition is itself one of the partitions, so the idempotent
    roundtrip compares e with the stacked kernel of its invariant partition.
    The order is one table (`_order_table`), and refinement is read from
    same-block tables packed into one uint64 word per partition (n <= 8).
    """
    n = space.size
    if n > max_size:
        raise TooLargeError(f"exhaustive audit over {n} outcomes refused")
    parts = list(all_partitions(n))
    m = len(parts)
    kernels = _conditioning(space, parts)
    forms = _order_forms(kernels)
    invariants = _invariant_partitions(_transitions(forms[0], space), space)
    completions = [complete_partition(p, space) for p in parts]

    completion_failures = tuple(
        (i,) for i in range(m) if invariants[i] != completions[i]
    )
    index = {p: i for i, p in enumerate(parts)}
    same = _same_forms(forms, [index[p] for p in invariants])
    roundtrip_failures = tuple((int(i),) for i in np.flatnonzero(~same))

    # Order of the idempotents, by composites (the honest route). Only the
    # pairs that pass a trace screen are composed. The screen is sound: e <= f
    # makes e.f equal to e (scaled by f's denominator), so their traces agree,
    # and a pair whose traces differ cannot be ordered. See `_order_table`.
    leq = _order_table(forms)

    # Refinement by "same block" tables, packed as bits: p refines q when p
    # never puts two outcomes together that q separates. Row blocks of the
    # (m, m) tables give the failures in row-major order, as one table would.
    part_bits, inv_bits = _packed_same_block(parts), _packed_same_block(invariants)
    adjunction_failures = []
    monotonicity_failures = []
    step = max(1, _BLOCK // m)
    for lo in range(0, m, step):
        rows = leq[lo : lo + step]
        contained = _subset_table(inv_bits, part_bits[lo : lo + step])
        for i, e in np.argwhere(contained != rows).tolist():
            adjunction_failures.append((lo + i, e, bool(contained[i, e]), bool(rows[i, e])))
        up = _subset_table(part_bits, part_bits[lo : lo + step]) & ~rows
        down = rows & ~_subset_table(inv_bits, inv_bits[lo : lo + step])
        for i, j in np.argwhere(up | down).tolist():
            if up[i, j]:
                monotonicity_failures.append(("partition-to-kernel", lo + i, j))
            if down[i, j]:
                monotonicity_failures.append(("kernel-to-partition", lo + i, j))

    return GaloisReport(
        size=n,
        n_partitions=m,
        adjunction_failures=tuple(adjunction_failures),
        roundtrip_failures=roundtrip_failures,
        completion_failures=tuple(completion_failures),
        monotonicity_failures=tuple(monotonicity_failures),
    )
