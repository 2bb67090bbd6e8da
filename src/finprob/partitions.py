"""Set partitions of a finite outcome set, standing in for sub-sigma-algebras.

On a finite discrete space the sub-sigma-algebras are exactly the
partition-generated ones, so the lattice of partitions carries the whole
structure: join = common refinement, meet = finest common coarsening, and
null-set completion splits every zero-weight outcome into its own block.

A partition is held as its canonical label vector: `labels[x]` is the
index of the block of outcome x, blocks numbered in order of their least
member. Two partitions are equal exactly when their label vectors are, so
equality does not depend on how a partition was produced, and every
lattice operation is a relabelling. `blocks`, the ascending member tuples
in that same order, is built from the labels on first access.
"""

from __future__ import annotations

import functools
from typing import Hashable, Iterable, Iterator

import numpy as np

from .errors import SizeMismatchError
from .numerics import Frozen, _nonnegative
from .spaces import ProbSpace, RandomVar


class Partition(Frozen):
    """Disjoint nonempty blocks covering {0..parent_size-1}, held as the
    canonical label vector (see the module docstring)."""

    __slots__ = ("labels", "n_blocks", "parent_size", "blocks")

    def __init__(self, blocks: Iterable[Iterable[int]], parent_size: int):
        labels = [-1] * _nonnegative(parent_size, "partition size")
        for bi, block in enumerate(blocks):
            block = tuple(block)
            if not block:
                raise SizeMismatchError("empty partition block")
            for x in block:
                if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
                    raise SizeMismatchError(f"partition member {x!r} is not an integer outcome")
                if not 0 <= x < parent_size:
                    raise SizeMismatchError(f"outcome {x} outside 0..{parent_size - 1}")
                if labels[x] != -1:
                    raise SizeMismatchError(f"outcome {x} appears in two blocks")
                labels[x] = bi
        if -1 in labels:
            missing = [x for x in range(parent_size) if labels[x] == -1]
            raise SizeMismatchError(f"outcomes not covered: {missing}")
        self._bind(labels)

    def _bind(self, labels: Iterable[Hashable]) -> "Partition":
        """Bind the labels renumbered by first appearance: the canonical form."""
        seen: dict = {}
        canon = np.array([seen.setdefault(lab, len(seen)) for lab in labels], dtype=np.intp)
        return self._set(labels=canon, n_blocks=len(seen), parent_size=canon.size)

    def _blocks(self) -> tuple:
        groups: list = [[] for _ in range(self.n_blocks)]
        for x, lab in enumerate(self.labels.tolist()):
            groups[lab].append(x)
        return tuple(map(tuple, groups))

    _LAZY = {"blocks": _blocks}

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls.from_labels(range(_nonnegative(n, "partition size")))

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls.from_labels([0] * _nonnegative(n, "partition size"))

    @classmethod
    def from_labels(cls, labels: Iterable[Hashable]) -> "Partition":
        """The partition whose blocks are the outcomes sharing a label."""
        return object.__new__(cls)._bind(labels)

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside a block of other."""
        if self.parent_size != other.parent_size:
            raise SizeMismatchError("partitions of different parent size")
        theirs = np.empty(self.n_blocks, dtype=np.intp)
        theirs[self.labels] = other.labels
        return bool((theirs[self.labels] == other.labels).all())

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.labels.tobytes() == other.labels.tobytes()  # equal bytes: equal sizes too

    def __hash__(self):
        return hash(self.labels.tobytes())

    def __repr__(self):
        inner = ", ".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)
        return f"Partition[{inner}]"


def _require_same_parent(p: Partition, q: Partition) -> None:
    if p.parent_size != q.parent_size:
        raise SizeMismatchError(
            f"partitions of sizes {p.parent_size} and {q.parent_size}"
        )


def join_partitions(p: Partition, q: Partition) -> Partition:
    """Join of the generated sigma-algebras: the common refinement.

    Outcomes share a block when they share their pair of p- and q-labels.
    """
    _require_same_parent(p, q)
    return Partition.from_labels((p.labels * q.n_blocks + q.labels).tolist())


def meet_partitions(p: Partition, q: Partition) -> Partition:
    """Meet of the generated sigma-algebras: the finest common coarsening.

    Blocks are connected components of the graph on the p-blocks and the
    q-blocks that links the two blocks of every outcome.
    """
    _require_same_parent(p, q)
    parent = list(range(p.n_blocks + q.n_blocks))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(p.labels.tolist(), (q.labels + p.n_blocks).tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    return Partition.from_labels([find(a) for a in p.labels.tolist()])


def complete_partition(p: Partition, space: ProbSpace) -> Partition:
    """Null-set completion: every zero-weight outcome becomes a singleton block.

    When every null outcome already is one (in particular on a fully
    supported space), this is p itself.
    """
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} on a {space.size}-outcome space"
        )
    if space.fully_supported:
        return p
    labels = p.labels.tolist()
    for x in set(range(space.size)).difference(space.support):
        labels[x] = -1 - x  # a label of its own
    out = Partition.from_labels(labels)
    return p if out.n_blocks == p.n_blocks else out


def _limit(parts: Iterable[Partition], space: ProbSpace, increasing: bool) -> Partition:
    """Limit of a monotone family of partitions of `space`: the join of the
    partitions when `increasing`, else the meet of their completions.

    Completion comes before meeting; meets of raw partitions would lose the
    counterexample where two a.s.-equal partitions have trivial intersection.
    """
    if increasing:
        return functools.reduce(join_partitions, parts)
    return functools.reduce(meet_partitions, (complete_partition(p, space) for p in parts))


def _constant_on_blocks(f: RandomVar, p: Partition, outcomes: np.ndarray) -> bool:
    """True when, within each block of p, f agrees on the given outcomes
    (within the mode's tolerance scaled by the values' size): each is
    compared with the first of them."""
    space = f.space
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} against a {space.size}-outcome RV"
        )
    labels = p.labels[outcomes]
    first = np.full(p.n_blocks, space.size, dtype=np.intp)
    np.minimum.at(first, labels, outcomes)
    a, b = f.data.take(outcomes).pair(f.data.take(first[labels]))
    return bool(space.mode.value_close_mask(a, b).all())


def measurable_wrt(f: RandomVar, p: Partition) -> bool:
    """True when f is constant (within mode tolerance) on every block of p."""
    return _constant_on_blocks(f, p, np.arange(f.space.size))


def as_measurable_wrt(f: RandomVar, p: Partition) -> bool:
    """Almost-sure measurability: constant on the supported part of every block."""
    return _constant_on_blocks(f, p, f.space.live_index())


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, via restricted growth strings."""
    if _nonnegative(n, "partition size") == 0:
        return
    labels = [0] * n

    def rec(i: int, max_label: int):
        if i == n:
            yield Partition.from_labels(labels)
            return
        for lab in range(max_label + 2):
            labels[i] = lab
            yield from rec(i + 1, max(max_label, lab))

    labels[0] = 0
    yield from rec(1, 0)


def bell_number(n: int) -> int:
    """Number of partitions of an n-element set."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]
