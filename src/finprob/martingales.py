"""Filtrations, martingales, and verified convergence at finite scale.

A filtration is a monotone sequence of partitions; once checked to be
monotone after null-set completion, its limit object is its last level,
completed: the finest level (increasing case) or the coarsest (decreasing
case). Conditioning a fixed RV along the filtration yields a (forward or
backward) martingale, and on a finite lattice the filtration stabilizes,
so convergence verdicts can demand exact almost-sure equality beyond the
stabilization index instead of mere smallness. Metric tolerances only
absorb float drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    InvalidFiltrationError,
    NotAMartingaleError,
    NotMonotoneError,
    SizeMismatchError,
    SpaceMismatchError,
    TooLargeError,
)
from .idempotents import (
    IdempotentKernel,
    _chain_optimum,
    _conditioning,
    _leq_against,
    _order_forms,
    idem_leq,
)
from .kernels import as_equal_kernels
from .metrics import ConvergenceReport, _tol, one_sided_distance, report_from_flags
from .numerics import Frozen, NumericMode, Rationals, _first, check_norm_index, rational_mode
from .operators import VNorm, cond_expectation
from .partitions import Partition, all_partitions, as_measurable_wrt, complete_partition
from .spaces import ProbSpace, RandomVar, as_equal_rv, ln_norm, uniform_space

INCREASING = "increasing"
DECREASING = "decreasing"


class Filtration(Frozen):
    """Monotone sequence of partitions of one space.

    Monotonicity is almost-sure: after null-set completion, each step must
    refine (increasing) or coarsen (decreasing) its predecessor. Structural
    refinement implies the completed one, so ordinary filtrations pass
    unchanged, while a.s.-equal stand-ins are accepted too. The check makes
    the last completed level the limit (`filtration_limit`).
    """

    __slots__ = ("partitions", "direction", "space")

    def __init__(self, partitions: Sequence[Partition], direction: str, space: ProbSpace):
        if direction not in (INCREASING, DECREASING):
            raise InvalidFiltrationError(f"unknown direction {direction!r}")
        partitions = tuple(partitions)
        if not partitions:
            raise InvalidFiltrationError("a filtration needs at least one partition")
        for p in partitions:
            if p.parent_size != space.size:
                raise InvalidFiltrationError(
                    f"partition of size {p.parent_size} on a {space.size}-outcome space"
                )
        completed = [complete_partition(p, space) for p in partitions]
        for a, b in zip(completed, completed[1:]):
            fine, coarse = (b, a) if direction == INCREASING else (a, b)
            if not fine.refines(coarse):
                raise InvalidFiltrationError(
                    f"partitions do not form an {direction} filtration (a.s.)"
                )
        object.__setattr__(self, "partitions", partitions)
        object.__setattr__(self, "direction", direction)
        object.__setattr__(self, "space", space)

    def __len__(self) -> int:
        return len(self.partitions)


def filtration_limit(f: Filtration) -> Partition:
    """Limit partition: the last level, completed, which the constructor's
    check makes the finest (increasing) or the coarsest (decreasing)."""
    return complete_partition(f.partitions[-1], f.space)


class Martingale(Frozen):
    """RVs adapted to a filtration, earlier ones conditioning later ones."""

    __slots__ = ("filtration", "rvs")

    def __init__(self, filtration: Filtration, rvs: Sequence[RandomVar]):
        rvs = tuple(rvs)
        if len(rvs) != len(filtration.partitions):
            raise NotAMartingaleError("one RV per filtration step is required")
        for rv in rvs:
            if not rv.space.same_as(filtration.space):
                raise SpaceMismatchError("martingale RVs must live on the filtration's space")
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "rvs", rvs)


def martingale_from_terminal(f: RandomVar, filtration: Filtration) -> Martingale:
    """Condition a fixed RV along every level of the filtration.

    The tower property makes the result a martingale (backward for
    decreasing filtrations).
    """
    if not f.space.same_as(filtration.space):
        raise SpaceMismatchError("terminal RV must live on the filtration's space")
    rvs = [cond_expectation(f, p) for p in filtration.partitions]
    return Martingale(filtration, rvs)


def is_martingale(m: Martingale, all_pairs: Optional[bool] = None) -> bool:
    """Check adaptedness and the tower identities.

    Adjacent pairs suffice by transitivity; in rational mode (or on request)
    every pair is checked.
    """
    if all_pairs is None:
        all_pairs = m.filtration.space.mode.exact
    return _martingale_defect(m, all_pairs) is None


def _martingale_defect(m: Martingale, all_pairs: bool) -> Optional[str]:
    """The first failure of adaptedness or of a tower identity, named by its
    level, or by its step pair, first outcome and defect; None when there
    is none."""
    filtration = m.filtration
    for level, (rv, p) in enumerate(zip(m.rvs, filtration.partitions)):
        if not as_measurable_wrt(rv, p):
            return f"level {level} is not measurable with respect to its partition"
    size = len(m.rvs)
    pairs = (
        [(i, j) for i in range(size) for j in range(i + 1, size)]
        if all_pairs
        else [(i, i + 1) for i in range(size - 1)]
    )
    for i, j in pairs:
        # condition the later level (increasing) or the earlier one (decreasing)
        given, source = (i, j) if filtration.direction == INCREASING else (j, i)
        expected, actual = cond_expectation(m.rvs[source], filtration.partitions[given]), m.rvs[given]
        if not as_equal_rv(expected, actual):
            live = actual.space.live_index()
            a, b = expected.values[live], actual.values[live]
            (row, *_) = _first(~actual.space.mode.value_close_mask(a, b))
            return (
                f"tower identity fails between steps {i} and {j}: at outcome {live[row]}, "
                f"E[X{source} | F{given}] and X{given} differ by {np.max(np.abs(a[row] - b[row]))}"
            )
    return None


def _limit_rv(m: Martingale) -> RandomVar:
    base = m.rvs[-1] if m.filtration.direction == INCREASING else m.rvs[0]
    return cond_expectation(base, filtration_limit(m.filtration))


def levy_report(m: Martingale, n=1, vnorm: VNorm = "euclidean") -> ConvergenceReport:
    """Per-step L^n distances of the martingale to its limit RV; for an
    R^d-valued martingale the Bochner L^n norm over the value-space norm
    `vnorm` (see `ln_norm`).

    The limit is the conditional expectation of the generating RV on the
    limit partition. Convergence demands a.s. equality from the
    stabilization index on (exact beyond float drift), which on a finite
    lattice always happens at the final step at the latest.
    """
    check_norm_index(n)
    defect = _martingale_defect(m, all_pairs=False)  # adjacent pairs suffice by transitivity
    if defect is not None:
        raise NotAMartingaleError(f"not a martingale: {defect}")
    f_inf = _limit_rv(m)
    distances = tuple(ln_norm(rv - f_inf, n, vnorm) for rv in m.rvs)
    equal = [as_equal_rv(rv, f_inf) for rv in m.rvs]
    return report_from_flags(distances, equal, _tol(m.filtration.space.mode))


@dataclass(frozen=True)
class NoncauchyDiagnostics:
    """L^1 norms of the levels and of the increments of the escaping-mass
    martingale; constant 1 norms with constant 1 increments witness the lack
    of uniform integrability."""

    l1_norms: tuple
    increment_l1_norms: tuple


def dyadic_space(levels: int, mode: NumericMode = rational_mode()) -> ProbSpace:
    """The unit interval discretized into 2**levels equal-mass atoms."""
    return uniform_space(1 << levels, mode)


def dyadic_partition(levels: int, level: int) -> Partition:
    """Partition of 2**levels atoms into 2**level consecutive runs."""
    if not 0 <= level <= levels:
        raise SizeMismatchError(f"dyadic level {level} outside 0..{levels}")
    return Partition.from_labels((np.arange(1 << levels) >> (levels - level)).tolist())


def dyadic_filtration(
    levels: int,
    mode: NumericMode = rational_mode(),
    direction: str = INCREASING,
) -> Filtration:
    space = dyadic_space(levels, mode)
    parts = [dyadic_partition(levels, lv) for lv in range(levels + 1)]
    if direction == DECREASING:
        parts.reverse()
    return Filtration(parts, direction, space)


def nonintegrable_example(levels: int, mode: NumericMode = rational_mode()):
    """Martingale whose mass escapes to a shrinking dyadic corner.

    Level k takes the value 2**k on the first 2**(levels-k) atoms and 0
    elsewhere. Every level has L^1 norm exactly 1 and every increment has
    L^1 norm exactly 1, so the sequence is not Cauchy in L^1 and no terminal
    RV generates it; it is nevertheless a genuine martingale.
    """
    if levels < 2:
        raise InvalidFiltrationError(
            f"the non-integrable example needs at least 2 levels, got {levels}"
        )
    filtration = dyadic_filtration(levels, mode)
    space = filtration.space
    n = space.size
    rvs = []
    for k in range(levels + 1):
        level = mode.indicator(np.arange(n) < 1 << (levels - k)) * (1 << k)
        rvs.append(RandomVar(Rationals.over(level, 1), space))
    m = Martingale(filtration, rvs)
    l1 = tuple(ln_norm(rv, 1) for rv in rvs)
    increments = tuple(ln_norm(rvs[k + 1] - rvs[k], 1) for k in range(levels))
    return m, NoncauchyDiagnostics(l1, increments)


def preserves_optima_check(f: Filtration, n=2, max_size: int = 8) -> bool:
    """The limit partition's conditioning operator is the least upper bound
    (increasing case) or greatest lower bound (decreasing case) of the
    per-level operators in the idempotent order.

    Bound and optimality are checked against every partition-induced
    idempotent of the space, exhaustively. The order of the pullback
    operators is settled by matrix composites and therefore does not depend
    on the norm index n; n is validated and recorded only.
    """
    check_norm_index(n)
    space = f.space
    if space.size > max_size:
        raise TooLargeError(f"exhaustive optimality check over {space.size} outcomes refused")
    parts = [filtration_limit(f), *f.partitions, *all_partitions(space.size)]
    forms = _order_forms(_conditioning(space, parts))
    first, end = len(f.partitions) + 1, len(parts)  # candidates are first..end-1
    increasing = f.direction == INCREASING

    # Bound: each level lies below (increasing) or above (decreasing) the limit.
    if not _leq_against(forms, 0, 1, first, above=increasing).all():
        return False
    # Optimality: every candidate bound of all levels is bounded by the limit.
    bounds = np.ones(end - first, dtype=bool)
    for level in range(1, first):
        bounds &= _leq_against(forms, level, first, end, above=not increasing)
    return not (bounds & ~_leq_against(forms, 0, first, end, above=not increasing)).any()


def levi_property_check(chain: Sequence[IdempotentKernel]) -> ConvergenceReport:
    """Distance of each chain element to the chain's supremum or infimum.

    The one-sided and two-sided metrics agree on idempotents (they are
    self-dual), so the one-sided distance is reported. Stabilization is
    decided by a.s. equality with the optimum.
    """
    if not chain:
        raise NotMonotoneError("empty chain")
    increasing, start = True, len(chain) - 1  # a constant chain: every pair is decided
    for k, (a, b) in enumerate(zip(chain, chain[1:])):
        up, down = idem_leq(a, b), idem_leq(b, a)
        if up and down:
            continue  # an a.s.-equal step decides nothing
        if not (up or down):
            raise NotMonotoneError("adjacent chain elements are incomparable")
        increasing, start = up, k + 1  # pairs 0..k are in order either way
        break
    target = _chain_optimum(chain, increasing, start)
    distances = tuple(one_sided_distance(e.kernel, target.kernel) for e in chain)
    equal = [as_equal_kernels(e.kernel, target.kernel) for e in chain]
    return report_from_flags(distances, equal, _tol(chain[0].space.mode))

