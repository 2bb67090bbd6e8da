"""Computable distances metrizing kernel convergence, and convergence checks.

The setwise notion of convergence for kernel sequences is realized at finite
scale by the weighted entrywise L^1 distance: it dominates the per-set
integral for every codomain subset and is dominated by a multiple of the
worst one, so its null sequences are exactly the convergent ones. The
two-sided variant adds the same distance between the Bayesian inverses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FinprobError, NotMeasurePreservingError, SpaceMismatchError
from .kernels import Kernel, bayes_inverse, compose, is_measure_preserving
from .numerics import check_norm_index, is_infinite, nth_root


def one_sided_distance(k: Kernel, h: Kernel):
    """sum_x p(x) sum_y |k(y|x) - h(y|x)|: a pseudometric on kernels, zero
    exactly on a.s.-equal pairs."""
    if not (k.domain.same_as(h.domain) and k.codomain.same_as(h.codomain)):
        raise SpaceMismatchError("kernels have different domain or codomain")
    live = k.domain.live_index()
    return k.domain.weights[live] @ abs(k.rows[live] - h.rows[live]).sum(axis=1)


def two_sided_distance(k: Kernel, h: Kernel):
    """One-sided distance of the kernels plus one-sided distance of their
    Bayesian inverses; both kernels must be measure-preserving onto the same
    codomain measure so that the inverses are parallel."""
    if not (k.domain.same_as(h.domain) and k.codomain.same_as(h.codomain)):
        raise SpaceMismatchError("kernels have different domain or codomain")
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
    dist = one_sided_distance if metric == "one-sided" else two_sided_distance
    if horizon is not None:
        seq = seq[:horizon]
    distances = [dist(k, limit) for k in seq]
    if tol is None:
        tol = limit.mode.tolerance if not limit.mode.exact else 0
    return report_from_distances(distances, tol, horizon or len(distances))


def _indicator_columns(size: int, cap: int = 10) -> np.ndarray:
    """0/1 columns of every nonempty subset when small enough, of the
    singletons otherwise; column j of the subsets is the bit pattern j + 1."""
    if size <= cap:
        return (np.arange(1, 1 << size) >> np.arange(size)[:, None]) & 1 == 1
    return np.eye(size, dtype=bool)


def operator_pointwise_distances(
    seq: Sequence[Kernel], limit: Kernel, n=1
) -> list:
    """Per-step worst-case L^n distance of the pullbacks over indicator RVs.

    All indicators are pulled back at once, as the columns of a 0/1 matrix
    in the mode's number type. The n-th root is monotone, so the worst
    distance is the root of the largest weighted total.
    """
    check_norm_index(n)
    mode = limit.mode
    masks = np.where(_indicator_columns(limit.codomain.size), mode.one(), mode.zero())
    live = limit.domain.live_index()
    p = limit.domain.weights
    out = []
    for k in seq:
        pulled = abs((k.rows - limit.rows) @ masks)
        if is_infinite(n):
            out.append(pulled[live].max())
        else:  # null rows carry weight zero
            out.append(nth_root((p @ pulled ** int(n)).max(), int(n), mode))
    return out


def homeomorphism_check(seq: Sequence[Kernel], limit: Kernel, n=1, tol=None) -> bool:
    """Agreement of the two convergence notions: the kernel metric goes to
    zero iff the pullback operators converge pointwise on indicator RVs.

    Returns True when both verdicts agree (both converge or both fail).
    """
    metric_report = check_convergence(seq, limit, "one-sided", tol=tol)
    distances = operator_pointwise_distances(seq, limit, n)
    if tol is None:
        tol = limit.mode.tolerance if not limit.mode.exact else 0
    operator_report = report_from_distances(distances, tol)
    return metric_report.converged == operator_report.converged


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
