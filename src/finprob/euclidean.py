"""Finite-dimensional subspaces, orthogonal projectors, and chain limits.

The projector order mirrors the idempotent order of the kernel side:
P1 <= P2 iff both products equal P1 iff the image subspaces are nested.
Increasing chains converge pointwise to the projector of the closed span of
the union, decreasing chains to the projector of the intersection; under the
sup norm that pointwise convergence fails, which the truncation family
demonstrates at finite size. A coordinate truncation is a diagonal map, so it
is carried as its diagonal (a 0/1 mask), not as a dense matrix.

Everything here runs in float64; exactness plays no role in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DimMismatchError,
    NonFiniteError,
    NotAChainError,
    NotLipschitzError,
    NotOrthonormalError,
)
from .numerics import Frozen

DEFAULT_TOL = 1e-8

VectorNorm = Union[str, Callable[[np.ndarray], float]]


def _all_close(a: np.ndarray, b: np.ndarray, atol: float) -> bool:
    """np.allclose's rule, |a - b| <= atol + 1e-5 |b| everywhere, for a finite
    reference b; skipping its infinity handling makes it twice as fast."""
    return bool((np.abs(a - b) <= atol + 1e-5 * np.abs(b)).all())


def _require_finite(m: np.ndarray, what: str) -> None:
    if not np.isfinite(m).all():
        at = tuple(int(i) for i in np.argwhere(~np.isfinite(m))[0])
        raise NonFiniteError(f"{what} entry at {at} is {m[at]}")


def _vec_norm(x: np.ndarray, kind: VectorNorm) -> float:
    if callable(kind):
        return float(kind(x))
    if kind == "euclidean":
        return float(np.linalg.norm(x))
    if kind == "sup":
        return float(np.max(np.abs(x))) if x.size else 0.0
    if kind == "sum":
        return float(np.sum(np.abs(x)))
    raise DimMismatchError(f"unknown vector norm {kind!r}")


def _operator_norm(m: np.ndarray, kind: VectorNorm) -> float:
    """Induced operator norm for the three named vector norms. A 1-d m is a
    diagonal map, whose norm is max|d| under each of them."""
    if m.ndim == 1 and kind in ("euclidean", "sup", "sum"):
        return float(np.max(np.abs(m))) if m.size else 0.0
    if kind == "euclidean":
        return float(np.linalg.norm(m, 2))
    if kind == "sup":
        return float(np.max(np.sum(np.abs(m), axis=1))) if m.size else 0.0
    if kind == "sum":
        return float(np.max(np.sum(np.abs(m), axis=0))) if m.size else 0.0
    raise DimMismatchError("operator norms are only defined for named vector norms")


class Subspace(Frozen):
    """Subspace of R^d carried by an explicit orthonormal basis (possibly empty)."""

    __slots__ = ("basis", "ambient_dim")

    def __init__(self, basis: np.ndarray, ambient_dim: Optional[int] = None, tol: float = DEFAULT_TOL):
        basis = np.asarray(basis, dtype=np.float64)
        if basis.ndim == 1:
            basis = basis.reshape(-1, 1)
        if ambient_dim is None:
            ambient_dim = basis.shape[0]
        if basis.shape[0] != ambient_dim:
            raise DimMismatchError(
                f"basis vectors of length {basis.shape[0]} in ambient dim {ambient_dim}"
            )
        _require_finite(basis, "basis")
        gram = basis.T @ basis
        if not _all_close(gram, np.eye(basis.shape[1]), tol):
            raise NotOrthonormalError("basis columns are not orthonormal")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "ambient_dim", int(ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)), ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim), ambient_dim)

    @classmethod
    def from_spanning(
        cls, vectors: Sequence, ambient_dim: Optional[int] = None, tol: float = DEFAULT_TOL
    ) -> "Subspace":
        """Orthonormal basis of the span, by pivoted modified Gram-Schmidt
        with a re-orthogonalization pass; rank decisions use `tol` on
        residual norms."""
        cols = [np.asarray(v, dtype=np.float64) for v in vectors]
        if ambient_dim is None:
            if not cols:
                raise DimMismatchError("need vectors or an explicit ambient dimension")
            ambient_dim = cols[0].shape[0]
        basis: list[np.ndarray] = []
        remaining = [c.copy() for c in cols]
        while remaining:
            norms = [np.linalg.norm(c) for c in remaining]
            pick = int(np.argmax(norms))
            v = remaining.pop(pick)
            for u in basis:
                v -= (u @ v) * u
            for u in basis:  # second pass tightens near-parallel inputs
                v -= (u @ v) * u
            norm = np.linalg.norm(v)
            if norm > tol:
                basis.append(v / norm)
        mat = np.stack(basis, axis=1) if basis else np.zeros((ambient_dim, 0))
        return cls(mat, ambient_dim)

    @property
    def dim(self) -> int:
        return int(self.basis.shape[1])

    def contains(self, x, tol: float = DEFAULT_TOL) -> bool:
        x = np.asarray(x, dtype=np.float64)
        return bool(np.linalg.norm(x - self.basis @ (self.basis.T @ x)) <= tol)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


class Projector(Frozen):
    """Symmetric idempotent matrix: the orthogonal projector onto its image."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray, tol: float = DEFAULT_TOL):
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimMismatchError("projector matrix must be square")
        _require_finite(m, "projector")
        if not _all_close(m, m.T, tol):
            raise NotOrthonormalError("projector is not symmetric")
        if not _all_close(m @ m, m, tol):
            raise NotOrthonormalError("projector is not idempotent")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def ambient_dim(self) -> int:
        return int(self.matrix.shape[0])

    def __call__(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x, dtype=np.float64)


def orthogonal_projector(s: Subspace) -> Projector:
    """P = sum of u u^T over the basis columns; the unique orthogonal
    projector with image s."""
    return Projector(s.basis @ s.basis.T if s.dim else np.zeros((s.ambient_dim, s.ambient_dim)))


def projector_image(p: Projector, tol: float = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the image, recovered from the spectrum."""
    vals, vecs = np.linalg.eigh(p.matrix)
    keep = vals > 0.5
    return Subspace(vecs[:, keep], p.ambient_dim, tol=tol)


def projector_leq(p1: Projector, p2: Projector, tol: float = DEFAULT_TOL) -> bool:
    """Projector order: both products equal p1. Cross-checked against the
    subspace-inclusion test (p2 fixes every image vector of p1)."""
    if p1.ambient_dim != p2.ambient_dim:
        raise DimMismatchError("projectors of different ambient dimension")
    a, b = p1.matrix, p2.matrix
    by_products = _all_close(a @ b, a, tol) and _all_close(b @ a, a, tol)
    image = projector_image(p1).basis
    by_inclusion = _all_close(b @ image, image, max(tol, 1e-7))
    if by_products != by_inclusion:
        raise NotOrthonormalError("product test and inclusion test disagree")
    return by_products


def closest_point_defect(s: Subspace, x) -> float:
    """|  ||x - Px|| - min_{v in s} ||x - v||  |, the minimum taken by an
    independent least-squares solve; zero says the projection is the closest
    point of the subspace."""
    x = np.asarray(x, dtype=np.float64)
    p = orthogonal_projector(s)
    via_projector = float(np.linalg.norm(x - p(x)))
    if s.dim == 0:
        analytic = float(np.linalg.norm(x))
    else:
        coeffs, *_ = np.linalg.lstsq(s.basis, x, rcond=None)
        analytic = float(np.linalg.norm(x - s.basis @ coeffs))
    return abs(via_projector - analytic)


def _require_subspace_chain(chain: Sequence[Subspace], increasing: bool) -> None:
    if not chain:
        raise NotAChainError("empty subspace chain")
    d = chain[0].ambient_dim
    for s in chain:
        if s.ambient_dim != d:
            raise DimMismatchError("chain mixes ambient dimensions")
    for a, b in zip(chain, chain[1:]):
        small, big = (a, b) if increasing else (b, a)
        # Subspace.contains on every basis column of the smaller subspace
        outside = small.basis - big.basis @ (big.basis.T @ small.basis)
        if not (np.linalg.norm(outside, axis=0) <= DEFAULT_TOL).all():
            word = "increasing" if increasing else "decreasing"
            raise NotAChainError(f"subspaces are not {word} by inclusion")


def chain_sup(chain: Sequence[Subspace]) -> Subspace:
    """Span of the union of an increasing chain: once the chain is checked
    to be increasing, that is the span of its last element."""
    _require_subspace_chain(chain, increasing=True)
    return chain[-1]


def chain_inf(chain: Sequence[Subspace]) -> Subspace:
    """Intersection of a decreasing chain: once the chain is checked to be
    decreasing, that is its last element."""
    _require_subspace_chain(chain, increasing=False)
    return chain[-1]


@dataclass(frozen=True)
class PointwiseConvergenceReport:
    """Residual norms ||e_step(x) - e_limit(x)|| per probe and step."""

    residuals: tuple  # residuals[probe][step]
    probe_count: int
    converged: bool
    norm_kind: str


def _probe_matrix(probes: Sequence, d: int) -> np.ndarray:
    """The probes as the columns of one finite (d, P) matrix; an error names
    the first probe of the wrong shape or with a non-finite entry."""
    cols = [np.asarray(x, dtype=np.float64) for x in probes]
    for i, x in enumerate(cols):
        if x.shape != (d,):
            raise DimMismatchError(f"probe {i} has shape {x.shape}, expected ({d},)")
    x = np.stack(cols, axis=1) if cols else np.zeros((d, 0))
    bad = ~np.isfinite(x)
    if bad.any():
        j, i = (int(k) for k in np.argwhere(bad.T)[0])
        raise NonFiniteError(f"probe {j} entry {i} is {x[i, j]}")
    return x


def _levi_demo(chain, probes, limit_space: Subspace, tol: float) -> PointwiseConvergenceReport:
    """Residuals of every probe at every step: one product of the step's
    validated projector with the whole probe matrix, then its column norms.
    Only one d x d projector is held at a time."""
    x = _probe_matrix(probes, limit_space.ambient_dim)
    target = orthogonal_projector(limit_space).matrix @ x
    columns = [
        np.linalg.norm(orthogonal_projector(s).matrix @ x - target, axis=0) for s in chain
    ]
    table = np.stack(columns, axis=1).tolist()  # table[probe][step]
    converged = all(row[-1] <= tol for row in table)
    return PointwiseConvergenceReport(
        tuple(map(tuple, table)), len(table), converged, "euclidean"
    )


def levi_up_demo(chain: Sequence[Subspace], probes: Sequence, tol: float = DEFAULT_TOL) -> PointwiseConvergenceReport:
    """Pointwise convergence of the projectors of an increasing chain to the
    projector of the span of the union; chain_sup checks the chain."""
    return _levi_demo(chain, probes, chain_sup(chain), tol)


def levi_down_demo(chain: Sequence[Subspace], probes: Sequence, tol: float = DEFAULT_TOL) -> PointwiseConvergenceReport:
    """Pointwise convergence of the projectors of a decreasing chain to the
    projector of the intersection; chain_inf checks the chain."""
    return _levi_demo(chain, probes, chain_inf(chain), tol)


def truncation_maps(n: int) -> np.ndarray:
    """Coordinate-killing maps of the sup-norm counterexample, as the
    read-only (n, n) stack of their diagonals: row i is all ones except a 0
    at position i, so step i zeroes coordinate i. Composites zero a growing
    prefix; each step is 1-Lipschitz for the sup norm (and for the euclidean
    norm)."""
    masks = 1.0 - np.eye(n)
    masks.setflags(write=False)
    return masks


@dataclass(frozen=True)
class TruncationReport:
    """Norm plateau of the truncation chain against its vanishing intersection.

    sup_norms[i] = ||e_i(probe)||_inf for i = 0..n, where e_i zeroes the
    first i coordinates and the final entry projects onto the intersection
    {0}. The sup norms stay at 1 for the all-ones probe while the euclidean
    norms decay: the pointwise chain-limit property holds for the inner
    product norm and fails for the sup norm.
    """

    sup_norms: tuple
    euclidean_norms: tuple
    seminorm_all_ones: float

    @property
    def sup_plateau(self) -> bool:
        return all(v == self.sup_norms[0] for v in self.sup_norms[:-1])

    @property
    def euclidean_decays(self) -> bool:
        pairs = zip(self.euclidean_norms, self.euclidean_norms[1:])
        return all(b <= a for a, b in pairs) and self.euclidean_norms[-1] == 0.0


def banach_counterexample(n: int, probe=None) -> TruncationReport:
    """Finite truncation of the decreasing coordinate-subspace chain.

    e_i zeroes the first i coordinates (i = 0..n-1); the intersection of the
    images is {0}, reported as step n. For the all-ones probe every sup norm
    before the terminal step equals exactly 1.
    """
    if n < 2:
        raise DimMismatchError("need dimension at least 2")
    x = np.ones(n) if probe is None else np.asarray(probe, dtype=np.float64)
    if x.shape != (n,):
        raise DimMismatchError(f"probe must have length {n}")
    sup_norms = []
    euc_norms = []
    for i in range(n + 1):
        cut = x.copy()
        cut[:i] = 0.0
        sup_norms.append(_vec_norm(cut, "sup"))
        euc_norms.append(_vec_norm(cut, "euclidean"))
    maps = truncation_maps(n)[: n - 1]
    semi = colimit_seminorm(maps, x, norm="sup")
    return TruncationReport(tuple(sup_norms), tuple(euc_norms), semi)


def _apply(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The map m applied to the vector x; a 1-d m is a diagonal."""
    return m @ x if m.ndim == 2 else m * x


def _compose(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """outer o inner, each a matrix or a diagonal; two diagonals compose to a
    diagonal."""
    if outer.ndim == 1:
        return outer * inner if inner.ndim == 1 else outer[:, None] * inner
    return outer @ inner if inner.ndim == 2 else outer * inner


def colimit_seminorm(
    maps: Sequence[np.ndarray],
    a,
    start: int = 0,
    norm: VectorNorm = "euclidean",
    tol: float = DEFAULT_TOL,
) -> float:
    """Final value of ||pi_m o ... o pi_start (a)|| along a 1-Lipschitz chain.

    Each map is a matrix or, when 1-d, the diagonal of a diagonal map (the
    rows of `truncation_maps` are such masks). One pass checks each map's
    operator norm, applies it, and checks that the norms never increase; at
    finite scale the limit is then the last value. Independence from the
    starting index is verified without recursion: walking back from the
    end, the composite of the maps from index k on is applied to the vector
    the pass held at k, and its norm must equal the value. Surjectivity of
    the chain maps onto their targets is the caller's obligation.
    """
    if start < 0 or start >= len(maps) + 1:
        raise NotAChainError(f"start index {start} outside the chain")
    maps = [np.asarray(m, dtype=np.float64) for m in maps[start:]]
    x = np.asarray(a, dtype=np.float64)
    xs = [x]
    value = _vec_norm(x, norm)
    # Applying a map, and the composite below, round by a few ulps of the
    # starting norm, so both comparisons are scaled by that norm.
    slack = tol * max(1.0, value)
    for k, m in enumerate(maps):
        op = _operator_norm(m, norm)
        if op > 1.0 + tol:
            raise NotLipschitzError(f"chain map {start + k} has operator norm {op} > 1")
        x = _apply(m, x)
        nxt = _vec_norm(x, norm)
        if nxt > value + slack:
            raise NotLipschitzError(
                f"norm rose from {value} to {nxt} at chain map {start + k}"
            )
        value = nxt
        xs.append(x)
    suffix = np.ones(len(x))  # the identity of the last space, as a diagonal
    for k in range(len(maps) - 1, 0, -1):
        suffix = _compose(suffix, maps[k])
        later = _vec_norm(_apply(suffix, xs[k]), norm)
        if abs(later - value) > slack:
            raise NotAChainError(
                f"seminorm depends on the starting index: {later} from index "
                f"{start + k} against {value}"
            )
    return value
