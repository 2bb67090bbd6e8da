"""Set partitions of a finite outcome set, standing in for sub-sigma-algebras.

On a finite discrete space the sub-sigma-algebras are exactly the
partition-generated ones, so the lattice of partitions carries the whole
structure: join = common refinement, meet = finest common coarsening, and
null-set completion splits every zero-weight outcome into its own block.

Canonical form (blocks ordered by minimal element, members ascending) makes
structural equality independent of how a partition was produced.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import SizeMismatchError
from .spaces import ProbSpace, RandomVar

Blocks = tuple[tuple[int, ...], ...]


def _canonical(blocks: Iterable[Iterable[int]]) -> Blocks:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


class Partition:
    """Disjoint nonempty blocks covering {0..parent_size-1}, in canonical form."""

    __slots__ = ("blocks", "parent_size", "_labels")

    def __init__(self, blocks: Iterable[Iterable[int]], parent_size: int):
        canon = _canonical(blocks)
        labels = [-1] * parent_size
        seen = 0
        for bi, block in enumerate(canon):
            if not block:
                raise SizeMismatchError("empty partition block")
            for x in block:
                if not 0 <= x < parent_size:
                    raise SizeMismatchError(f"outcome {x} outside 0..{parent_size - 1}")
                if labels[x] != -1:
                    raise SizeMismatchError(f"outcome {x} appears in two blocks")
                labels[x] = bi
                seen += 1
        if seen != parent_size:
            missing = [x for x in range(parent_size) if labels[x] == -1]
            raise SizeMismatchError(f"outcomes not covered: {missing}")
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "parent_size", parent_size)
        labels = np.array(labels, dtype=np.intp)
        labels.setflags(write=False)
        object.__setattr__(self, "_labels", labels)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @classmethod
    def discrete(cls, n: int) -> "Partition":
        return cls([(i,) for i in range(n)], n)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls([tuple(range(n))], n)

    @classmethod
    def from_labels(cls, labels: Sequence[int]) -> "Partition":
        groups: dict[int, list[int]] = {}
        for i, lab in enumerate(labels):
            groups.setdefault(lab, []).append(i)
        return cls(groups.values(), len(labels))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @property
    def labels(self) -> np.ndarray:
        """Block index (in canonical order) of every outcome, as a read-only array."""
        return self._labels

    def label_of(self, x: int) -> int:
        """Index (in canonical order) of the block containing outcome x."""
        return int(self._labels[x])

    def block_of(self, x: int) -> tuple[int, ...]:
        return self.blocks[self._labels[x]]

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside a block of other."""
        if self.parent_size != other.parent_size:
            raise SizeMismatchError("partitions of different parent size")
        first = np.fromiter((b[0] for b in self.blocks), dtype=np.intp, count=self.n_blocks)
        theirs = other._labels
        return bool((theirs == theirs[first][self._labels]).all())

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parent_size == other.parent_size and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.parent_size, self.blocks))

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

    Blocks are the nonempty pairwise intersections of p-blocks and q-blocks.
    """
    _require_same_parent(p, q)
    groups: dict[tuple[int, int], list[int]] = {}
    for x, key in enumerate(zip(p.labels.tolist(), q.labels.tolist())):
        groups.setdefault(key, []).append(x)
    return Partition(groups.values(), p.parent_size)


def meet_partitions(p: Partition, q: Partition) -> Partition:
    """Meet of the generated sigma-algebras: the finest common coarsening.

    Blocks are connected components of the graph linking outcomes that share
    a p-block or a q-block.
    """
    _require_same_parent(p, q)
    n = p.parent_size
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for part in (p, q):
        for block in part.blocks:
            for x in block[1:]:
                union(block[0], x)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return Partition(groups.values(), n)


def complete_partition(p: Partition, space: ProbSpace) -> Partition:
    """Null-set completion: every zero-weight outcome becomes a singleton block.

    When every null outcome already is one (in particular on a fully
    supported space), this is p itself.
    """
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} on a {space.size}-outcome space"
        )
    null = set(range(space.size)).difference(space.support)
    if all(len(p.block_of(x)) == 1 for x in null):
        return p
    blocks: list = []
    for block in p.blocks:
        if null.isdisjoint(block):
            blocks.append(block)
            continue
        kept = [x for x in block if x not in null]
        if kept:
            blocks.append(kept)
        blocks.extend([x] for x in block if x in null)
    return Partition(blocks, p.parent_size)


def _constant_on_blocks(f: RandomVar, p: Partition, outcomes: np.ndarray) -> bool:
    """True when, within each block of p, f agrees (within mode tolerance)
    on the given outcomes: each is compared with the first of them."""
    space = f.space
    if p.parent_size != space.size:
        raise SizeMismatchError(
            f"partition of size {p.parent_size} against a {space.size}-outcome RV"
        )
    labels = p.labels[outcomes]
    first = np.full(p.n_blocks, space.size, dtype=np.intp)
    np.minimum.at(first, labels, outcomes)
    ref = first[labels]
    if space.mode.exact:
        return bool(f._exact.take(outcomes).equal(f._exact.take(ref)).all())
    return bool((np.abs(f.values[outcomes] - f.values[ref]) <= space.mode.tolerance).all())


def measurable_wrt(f: RandomVar, p: Partition) -> bool:
    """True when f is constant (within mode tolerance) on every block of p."""
    return _constant_on_blocks(f, p, np.arange(f.space.size))


def as_measurable_wrt(f: RandomVar, p: Partition) -> bool:
    """Almost-sure measurability: constant on the supported part of every block."""
    return _constant_on_blocks(f, p, f.space.live_index())


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of {0..n-1}, via restricted growth strings."""
    if n == 0:
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
