"""Computable distances metrizing kernel convergence, and convergence checks.

The setwise notion of convergence for kernel sequences is realized at finite
scale by the weighted entrywise L^1 distance: it dominates the per-set
integral for every codomain subset and is dominated by a multiple of the
worst one, so its null sequences are exactly the convergent ones. The
two-sided variant adds the same distance between the Bayesian inverses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import FinprobError, NotMeasurePreservingError, SpaceMismatchError
from .kernels import Kernel, _require_parallel, bayes_inverse, compose, is_measure_preserving
from .numerics import check_norm_index, int_array, is_infinite, nth_root, widen


def _stacked(seq: Sequence[Kernel], limit: Kernel) -> tuple:
    """The kernels of a sequence parallel to the limit as one (T, n, m)
    stack: float rows over None, or rational numerators over the list of
    their denominators."""
    for k in seq:
        _require_parallel(k, limit)
    if not limit.mode.exact:
        rows = np.array([k.rows for k in seq], dtype=limit.rows.dtype)
        return rows.reshape((-1,) + limit.rows.shape), None
    return np.array([k.num for k in seq]).reshape((-1,) + limit.num.shape), [k.den for k in seq]


def _difference(data: np.ndarray, dens, limit: Kernel) -> tuple:
    """(T, n, m) stack of each kernel's rows minus the limit's rows, with its
    denominator, from a stack as `_stacked` gives it: in rational mode
    integer numerators over the lcm of every kernel's denominator, in float
    mode the differences over None."""
    if dens is None:
        return data - limit.rows, None
    den = math.lcm(limit.den, *dens)
    scale = int_array([den // d for d in dens], den)
    nums, scale, last = widen(den, data, scale, limit.num)
    return nums * scale[:, None, None] - last * (den // limit.den), den


def _weighted_l1(diff: np.ndarray, den, domain) -> list:
    """Per step, sum_x p(x) sum_y |diff[t, x, y]| over the supported x."""
    live = domain.live_index()
    if den is None:
        return abs(diff[:, live]).sum(axis=2) @ domain.weights[live]
    wnum, wden = domain.int_weights()
    diff, w = widen(2 * den * wden, diff[:, live], wnum[live])  # a row of |diff| sums to at most 2 den
    return [Fraction(t, den * wden) for t in (abs(diff).sum(axis=2) @ w).tolist()]


def one_sided_distance(k: Kernel, h: Kernel):
    """sum_x p(x) sum_y |k(y|x) - h(y|x)|: a pseudometric on kernels, zero
    exactly on a.s.-equal pairs."""
    return _weighted_l1(*_difference(*_stacked([k], h), h), k.domain)[0]


def two_sided_distance(k: Kernel, h: Kernel):
    """One-sided distance of the kernels plus one-sided distance of their
    Bayesian inverses; both kernels must be measure-preserving onto the same
    codomain measure so that the inverses are parallel."""
    _require_parallel(k, h)
    if not (is_measure_preserving(k) and is_measure_preserving(h)):
        raise NotMeasurePreservingError("two-sided distance needs measure-preserving kernels")
    return one_sided_distance(k, h) + one_sided_distance(bayes_inverse(k), bayes_inverse(h))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-step distances with a horizon-bounded verdict.

    converged is true exactly when some index exists from which every later
    distance stays at or below the tolerance; stabilization_index is the
    first such index.
    """

    step_distances: tuple
    converged: bool
    stabilization_index: Optional[int]
    tolerance: float
    horizon: int

    def __post_init__(self):
        if self.converged:
            idx = self.stabilization_index
            ok = idx is not None and all(
                d <= self.tolerance for d in self.step_distances[idx:]
            )
            if not ok:
                raise ValueError("report marked converged but the tail exceeds tolerance")


def report_from_flags(
    distances: Sequence, flags: Sequence, tolerance, horizon: Optional[int] = None
) -> ConvergenceReport:
    """Verdict from per-step flags: stabilization is the first index from
    which every flag holds; no such index means not converged."""
    distances = tuple(distances)
    if horizon is None:
        horizon = len(distances)
    idx = len(flags)
    while idx > 0 and flags[idx - 1]:
        idx -= 1
    if idx == len(flags):
        return ConvergenceReport(distances, False, None, tolerance, horizon)
    return ConvergenceReport(distances, True, idx, tolerance, horizon)


def report_from_distances(
    distances: Sequence, tolerance, horizon: Optional[int] = None
) -> ConvergenceReport:
    """Verdict from raw distances: the flag of a step is distance <= tolerance."""
    distances = tuple(distances)
    return report_from_flags(distances, [d <= tolerance for d in distances], tolerance, horizon)


def _tol(limit: Kernel, tol):  # the default is the mode's, 0 in rational mode
    return tol if tol is not None else (0 if limit.mode.exact else limit.mode.tolerance)


def check_convergence(
    seq: Sequence[Kernel],
    limit: Kernel,
    metric: str = "one-sided",
    tol=None,
    horizon: Optional[int] = None,
) -> ConvergenceReport:
    """Distances from each sequence element to the limit, with a verdict.

    metric is "one-sided" or "two-sided"; the tolerance defaults to the
    numeric mode's (0 in rational mode).
    """
    if metric not in ("one-sided", "two-sided"):
        raise FinprobError(f"unknown metric {metric!r}")
    if horizon is not None:
        seq = seq[:horizon]
    if metric == "one-sided":
        distances = _weighted_l1(*_difference(*_stacked(seq, limit), limit), limit.domain)
    else:
        distances = [two_sided_distance(k, limit) for k in seq]
    return report_from_distances(distances, _tol(limit, tol), horizon or len(distances))


def _indicator_columns(size: int, cap: int = 10) -> np.ndarray:
    """0/1 columns of every nonempty subset when small enough, of the
    singletons otherwise; column j of the subsets is the bit pattern j + 1."""
    if size <= cap:
        return (np.arange(1, 1 << size) >> np.arange(size)[:, None]) & 1 == 1
    return np.eye(size, dtype=bool)


def _pullback_distances(diff: np.ndarray, den, limit: Kernel, norms: Sequence) -> list:
    """Per norm index, the per-step worst-case L^n distance of the pullbacks
    over indicator RVs, pulled back at once as the columns of a 0/1 matrix;
    every norm reads the same product. The n-th root is monotone, so the
    worst distance is the root of the largest weighted total. In rational
    mode `diff` holds integer numerators over `den` and so do the pulled
    values; a total of n-th powers is over wden * den**n.
    """
    for n in norms:
        check_norm_index(n)
    mode = limit.mode
    masks = _indicator_columns(limit.codomain.size).astype(diff.dtype if mode.exact else np.float64)
    live = limit.domain.live_index()
    if mode.exact:
        w, wden = limit.domain.int_weights()
    else:
        w = limit.domain.weights  # null rows carry weight zero in the finite-n totals
    out = [[] for _ in norms]
    block = max(1, (1 << 16) // (diff.shape[1] * masks.shape[1]))  # bounds the pulled values held
    for start in range(0, len(diff), block):
        pulled = abs(diff[start : start + block] @ masks)
        for distances, n in zip(out, norms):
            if is_infinite(n):
                worst = pulled[:, live].max(axis=(1, 2))
                distances.extend([Fraction(t, den) for t in worst.tolist()] if mode.exact else worst)
            elif mode.exact:
                n = int(n)
                scale = wden * den**n
                p, v = widen(scale * 2**n, w, pulled)  # a pulled value is at most 2 den
                totals = (p @ v**n).max(axis=1).tolist()
                distances.extend(nth_root(Fraction(t, scale), n, mode) for t in totals)
            else:
                distances.extend((w @ pulled ** int(n)).max(axis=1) ** (1.0 / int(n)))
    return out


def operator_pointwise_distances(seq: Sequence[Kernel], limit: Kernel, n=1) -> list:
    """Per-step worst-case L^n distance of the pullbacks over indicator RVs."""
    (distances,) = _pullback_distances(*_difference(*_stacked(seq, limit), limit), limit, (n,))
    return distances


def homeomorphism_reports(seq: Sequence[Kernel], limit: Kernel, norms=(1,), tol=None) -> tuple:
    """The one-sided metric report and one operator report per norm index,
    from one stacked difference and one shared pullback product. The two
    notions of convergence agree when the verdicts do."""
    return _stack_reports(*_stacked(seq, limit), limit, norms, tol)


def _stack_reports(data: np.ndarray, dens, limit: Kernel, norms, tol) -> tuple:
    """`homeomorphism_reports` of a sequence held as one checked stack
    parallel to the limit (see `_stacked`), with no kernel per step."""
    tol = _tol(limit, tol)
    diff, den = _difference(data, dens, limit)
    metric = report_from_distances(_weighted_l1(diff, den, limit.domain), tol)
    distances = _pullback_distances(diff, den, limit, norms)
    return metric, tuple(report_from_distances(d, tol) for d in distances)


def homeomorphism_check(seq: Sequence[Kernel], limit: Kernel, n=1, tol=None) -> bool:
    """True when the metric and operator verdicts agree (both converge or
    both fail) for norm index n."""
    metric, (operator,) = homeomorphism_reports(seq, limit, (n,), tol)
    return metric.converged == operator.converged


def composition_continuity_probe(
    seq_k: Sequence[Kernel],
    seq_h: Sequence[Kernel],
    limit_k: Optional[Kernel] = None,
    limit_h: Optional[Kernel] = None,
):
    """Final-step distance between compose(lim k, lim h) and the composed
    sequence: small for convergent inputs, since composition is jointly
    continuous. Limits default to the last elements."""
    if len(seq_k) != len(seq_h) or not seq_k:
        raise SpaceMismatchError("sequences must be nonempty and equally long")
    if limit_k is None:
        limit_k = seq_k[-1]
    if limit_h is None:
        limit_h = seq_h[-1]
    target = compose(limit_k, limit_h)
    return one_sided_distance(compose(seq_k[-1], seq_h[-1]), target)
