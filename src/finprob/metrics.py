"""Computable distances metrizing kernel convergence, and convergence checks.

The setwise notion of convergence for kernel sequences is realized at finite
scale by the weighted entrywise L^1 distance: it dominates the per-set
integral for every codomain subset and is dominated by a multiple of the
worst one, so its null sequences are exactly the convergent ones. The
two-sided variant adds the same distance between the Bayesian inverses.

Every distance is one body for both numeric modes: a block of kernel
sequences is numerators over denominators, float rows over 1 and integers
in rational mode, and only the last step, turning totals into `Fraction`s
and taking exact roots, depends on the mode (`numerics.quotients` and
`numerics.nth_roots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FinprobError, NotMeasurePreservingError, SpaceMismatchError
from .kernels import Kernel, _require_parallel, bayes_inverse, compose, is_measure_preserving
from .numerics import NumericMode, check_norm_index, int_array, is_infinite, nth_roots, quotients, widen


def _stacked(seq: Sequence[Kernel], limit: Kernel) -> tuple:
    """A sequence of kernels parallel to the limit as a block of one
    sequence, in the form `_block_reports` takes: the (1, T, n, m)
    numerators over their (1, T) denominators, the limit, and the domain
    weights."""
    for k in seq:
        _require_parallel(k, limit)
    shape = (1, -1) + (limit.domain.size, limit.codomain.size)
    dens = [k.den for k in seq]
    wnum, wden = limit.domain.int_weights()
    return (
        np.array([k.num for k in seq]).reshape(shape),
        int_array([dens], max(dens, default=1)),
        (limit.num[None], np.array([limit.den])),
        (wnum[None], np.array([wden])),
    )


def _difference(data: np.ndarray, dens: np.ndarray, limit: tuple) -> tuple:
    """(S, T, n, m) stack of each step's numerators minus its sequence's
    limit numerators, from a block as `_stacked` gives it, over one
    denominator per sequence: the lcm of its limit's and its steps'
    denominators, held as an (S,) vector (ones for float rows)."""
    k, kden = limit
    if (dens == kden[:, None]).all():  # every step over its limit's denominator, as float rows over 1 are
        return data - k[:, None], kden
    den = np.lcm.reduce(np.column_stack([kden, dens]).astype(object), axis=1).tolist()
    bound = max(den)
    den = int_array(den, bound)
    nums, dens, k, kden = widen(bound, data, dens, k, kden)
    return nums * (den[:, None] // dens)[..., None, None] - k[:, None] * (den // kden)[:, None, None, None], den


def _over(totals: np.ndarray, dens: list) -> np.ndarray:
    """(S, T) numbers totals[s, t] / dens[s]: Fractions, or float totals as they are."""
    return quotients(totals, np.array(dens, dtype=object)[:, None])


def _weighted_l1(diff: np.ndarray, den: np.ndarray, weights: tuple) -> np.ndarray:
    """(S, T) distances sum_x p(x) sum_y |diff[s, t, x, y]|, each sequence
    with its own domain weights p; a null row carries weight zero."""
    w, wden = weights
    scale = [d * wd for d, wd in zip(den.tolist(), wden.tolist())]
    diff, w = widen(2 * max(scale), diff, w)  # a row of |diff| sums to at most 2 den
    return _over((abs(diff).sum(axis=3) * w[:, None, :]).sum(axis=2), scale)


def _stacked_difference(seq: Sequence[Kernel], limit: Kernel) -> tuple:
    """`_difference` of a sequence against its limit, with the domain weights."""
    data, dens, lim, weights = _stacked(seq, limit)
    return (*_difference(data, dens, lim), weights)


def one_sided_distance(k: Kernel, h: Kernel):
    """sum_x p(x) sum_y |k(y|x) - h(y|x)|: a pseudometric on kernels, zero
    exactly on a.s.-equal pairs."""
    return _weighted_l1(*_stacked_difference([k], h))[0, 0]


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


def _stabilization(flags: np.ndarray) -> np.ndarray:
    """The first index along the last axis of a boolean array from which
    every flag holds: the axis length when the last flag fails."""
    return flags.shape[-1] - np.logical_and.accumulate(flags[..., ::-1], axis=-1).sum(axis=-1)


def _report(distances: Sequence, stable: int, tolerance, horizon: Optional[int] = None) -> ConvergenceReport:
    """Report of per-step distances whose flags hold from index `stable` on;
    converged when that index lies within the steps."""
    distances = tuple(distances)
    if horizon is None:
        horizon = len(distances)
    if stable == len(distances):
        return ConvergenceReport(distances, False, None, tolerance, horizon)
    return ConvergenceReport(distances, True, stable, tolerance, horizon)


def report_from_flags(
    distances: Sequence, flags: Sequence, tolerance, horizon: Optional[int] = None
) -> ConvergenceReport:
    """Verdict from per-step flags: stabilization is the first index from
    which every flag holds; no such index means not converged."""
    return _report(distances, int(_stabilization(np.array(flags, dtype=bool))), tolerance, horizon)


def report_from_distances(
    distances: Sequence, tolerance, horizon: Optional[int] = None
) -> ConvergenceReport:
    """Verdict from raw distances: the flag of a step is distance <= tolerance."""
    distances = tuple(distances)
    return report_from_flags(distances, [d <= tolerance for d in distances], tolerance, horizon)


def _tol(mode: NumericMode, tol=None):
    """A given tolerance, else the mode's: 0 (an int) in rational mode."""
    return tol if tol is not None else (0 if mode.exact else mode.tolerance)


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
        distances = _weighted_l1(*_stacked_difference(seq, limit))[0]
    else:
        distances = [two_sided_distance(k, limit) for k in seq]
    return report_from_distances(distances, _tol(limit.mode, tol), horizon or len(distances))


def _indicator_columns(size: int, cap: int = 10) -> np.ndarray:
    """0/1 columns of every nonempty subset when small enough, of the
    singletons otherwise; column j of the subsets is the bit pattern j + 1."""
    if size <= cap:
        return (np.arange(1, 1 << size) >> np.arange(size)[:, None]) & 1 == 1
    return np.eye(size, dtype=bool)


def _pullback_distances(diff: np.ndarray, den: np.ndarray, weights: tuple, norms: Sequence) -> list:
    """Per norm index, the (S, T) worst-case L^n distances of the pullbacks
    over indicator RVs, pulled back at once as the columns of a 0/1 matrix;
    every norm reads the same product. The n-th root is monotone, so the
    worst distance is the root of the largest weighted total. `diff` holds
    numerators over the (S,) `den` and so do the pulled values; a total of
    n-th powers is over wden * den**n, and exact totals take exact roots.
    """
    for n in norms:
        check_norm_index(n)
    w, wden = weights
    masks = _indicator_columns(diff.shape[3]).astype(diff.dtype)
    live = (w > 0)[:, None, :, None]
    out = [[np.empty((len(diff), 0), dtype=diff.dtype)] for _ in norms]
    block = max(1, (1 << 16) // (len(diff) * diff.shape[2] * masks.shape[1]))  # bounds the pulled values held
    for start in range(0, diff.shape[1], block):
        pulled = diff[:, start : start + block] @ masks
        pulled = np.abs(pulled, out=pulled)
        pulled *= live  # null rows: weight zero in every total, and out of the sup
        for chunks, n in zip(out, norms):
            if is_infinite(n):
                chunks.append(_over(pulled.max(axis=(2, 3)), den.tolist()))
                continue
            n = int(n)
            scale = [wd * d**n for wd, d in zip(wden.tolist(), den.tolist())]
            p, v = widen(max(scale) * 2**n, w, pulled)  # a pulled value is at most 2 den
            totals = (p[:, None, None, :] @ (v if n == 1 else v**n))[:, :, 0].max(axis=2)
            chunks.append(nth_roots(_over(totals, scale), n))
    return [np.concatenate(chunks, axis=1) for chunks in out]


def operator_pointwise_distances(seq: Sequence[Kernel], limit: Kernel, n=1) -> list:
    """Per-step worst-case L^n distance of the pullbacks over indicator RVs."""
    (distances,) = _pullback_distances(*_stacked_difference(seq, limit), (n,))
    return list(distances[0])


def homeomorphism_reports(seq: Sequence[Kernel], limit: Kernel, norms=(1,), tol=None) -> tuple:
    """The one-sided metric report and one operator report per norm index,
    from one stacked difference and one shared pullback product: the block
    of one sequence. The two notions of convergence agree when the verdicts
    do."""
    tol = _tol(limit.mode, tol)
    reports = _block_reports(*_stacked(seq, limit), norms, tol)
    metric, *operators = (_report(d[0], int(stable[0]), tol) for d, stable in reports)
    return metric, tuple(operators)


_BLOCK_ENTRIES = 1 << 12  # step-kernel entries of a block of sequences, about
_PULLED_ENTRIES = 1 << 14  # pulled values of a block, at most


def _sequences_per_block(horizon: int, n: int, m: int) -> int:
    """How many sequences of `horizon` (n, m) kernels `_block_reports`
    takes at once: near 2**12 kernel entries and at most 2**14 pulled
    values, and at least one sequence."""
    steps = horizon * n
    pulled = steps * _indicator_columns(m).shape[1]
    return max(1, min(_BLOCK_ENTRIES // (steps * m), _PULLED_ENTRIES // pulled))


def _block_reports(data: np.ndarray, dens, limit: tuple, weights: tuple, norms, tol) -> tuple:
    """The one-sided metric and one operator distance per norm index of a
    block of S sequences, each against its own limit, with no kernel per
    step: (distances, stabilization) pairs of the (S, T) distances and the
    (S,) first indices from which every distance is within the tolerance (T
    where the last is not). The block is (S, T, n, m) numerators over their
    (S, T) denominators, the (S, n, m) limits over their (S,) denominators
    and the (S, n) domain weights over theirs: float arrays over ones, or
    integer numerators."""
    diff, den = _difference(data, dens, limit)
    distances = [_weighted_l1(diff, den, weights), *_pullback_distances(diff, den, weights, norms)]
    return tuple((d, _stabilization(d <= tol)) for d in distances)


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
