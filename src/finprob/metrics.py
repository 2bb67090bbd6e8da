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
from .kernels import Kernel, _require_parallel, bayes_inverse, compose, is_measure_preserving
from .numerics import check_norm_index, is_infinite, nth_root


def _stacked_difference(seq: Sequence[Kernel], limit: Kernel) -> np.ndarray:
    """(T, n, m) stack of each kernel's rows minus the limit's rows."""
    for k in seq:
        _require_parallel(k, limit)
    rows = np.array([k.rows for k in seq], dtype=limit.rows.dtype)
    return rows.reshape((-1,) + limit.rows.shape) - limit.rows


def _weighted_l1(diff: np.ndarray, domain) -> np.ndarray:
    """Per step, sum_x p(x) sum_y |diff[t, x, y]| over the supported x."""
    live = domain.live_index()
    return abs(diff[:, live]).sum(axis=2) @ domain.weights[live]


def one_sided_distance(k: Kernel, h: Kernel):
    """sum_x p(x) sum_y |k(y|x) - h(y|x)|: a pseudometric on kernels, zero
    exactly on a.s.-equal pairs."""
    return _weighted_l1(_stacked_difference([k], h), k.domain)[0]


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
        distances = _weighted_l1(_stacked_difference(seq, limit), limit.domain)
    else:
        distances = [two_sided_distance(k, limit) for k in seq]
    return report_from_distances(distances, _tol(limit, tol), horizon or len(distances))


def _indicator_columns(size: int, cap: int = 10) -> np.ndarray:
    """0/1 columns of every nonempty subset when small enough, of the
    singletons otherwise; column j of the subsets is the bit pattern j + 1."""
    if size <= cap:
        return (np.arange(1, 1 << size) >> np.arange(size)[:, None]) & 1 == 1
    return np.eye(size, dtype=bool)


def _pullback_distances(diff: np.ndarray, limit: Kernel, norms: Sequence) -> list:
    """Per norm index, the per-step worst-case L^n distance of the pullbacks
    over indicator RVs, pulled back at once as the columns of a 0/1 matrix in
    the mode's number type; every norm reads the same product. The n-th root
    is monotone, so the worst distance is the root of the largest weighted total.
    """
    for n in norms:
        check_norm_index(n)
    mode = limit.mode
    masks = np.where(_indicator_columns(limit.codomain.size), mode.one(), mode.zero())
    live = limit.domain.live_index()
    p = limit.domain.weights  # null rows carry weight zero in the finite-n totals
    out = [[] for _ in norms]
    block = max(1, (1 << 16) // (diff.shape[1] * masks.shape[1]))  # bounds the pulled values held
    for start in range(0, len(diff), block):
        pulled = abs(diff[start : start + block] @ masks)
        for distances, n in zip(out, norms):
            if is_infinite(n):
                distances.extend(pulled[:, live].max(axis=(1, 2)))
            elif mode.exact:
                distances.extend(nth_root(t, int(n), mode) for t in (p @ pulled ** int(n)).max(axis=1))
            else:
                distances.extend((p @ pulled ** int(n)).max(axis=1) ** (1.0 / int(n)))
    return out


def operator_pointwise_distances(seq: Sequence[Kernel], limit: Kernel, n=1) -> list:
    """Per-step worst-case L^n distance of the pullbacks over indicator RVs."""
    (distances,) = _pullback_distances(_stacked_difference(seq, limit), limit, (n,))
    return distances


def homeomorphism_reports(seq: Sequence[Kernel], limit: Kernel, norms=(1,), tol=None) -> tuple:
    """The one-sided metric report and one operator report per norm index,
    from one stacked difference and one shared pullback product. The two
    notions of convergence agree when the verdicts do."""
    tol = _tol(limit, tol)
    diff = _stacked_difference(seq, limit)
    metric = report_from_distances(_weighted_l1(diff, limit.domain), tol)
    distances = _pullback_distances(diff, limit, norms)
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
