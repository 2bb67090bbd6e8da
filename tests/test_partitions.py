import itertools
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob.sampling import random_coarsening_chain

from .oracles import (
    coarsening_chain_by_blocks,
    completion_by_definition,
    join_by_intersections,
    meet_by_closing,
    refines_by_containment,
)

R = fp.rational_mode()

P_BLOCKS = fp.Partition([(0, 1), (2, 3)], 4)
Q_BLOCKS = fp.Partition([(0, 2), (1, 3)], 4)


class TestCanonicalForm:
    def test_blocks_sorted_by_minimum(self):
        p = fp.Partition([(3, 2), (1, 0)], 4)
        assert p.blocks == ((0, 1), (2, 3))

    def test_equality_is_representation_independent(self):
        assert fp.Partition([(2, 3), (1, 0)], 4) == P_BLOCKS

    def test_overlap_rejected(self):
        with pytest.raises(fp.SizeMismatchError, match="outcome 1 appears in two blocks"):
            fp.Partition([(0, 1), (1, 2)], 3)

    def test_cover_required(self):
        with pytest.raises(fp.SizeMismatchError, match=r"outcomes not covered: \[2\]"):
            fp.Partition([(0, 1)], 3)

    @pytest.mark.parametrize(
        "blocks, n, message",
        [
            ([(0,), ()], 1, "empty partition block"),
            ([(0, 3)], 3, "outcome 3 outside 0..2"),
            ([(0, -1)], 2, "outcome -1 outside 0..1"),
            ([(0, 1.5)], 2, "member 1.5 is not an integer outcome"),
            ([(0, 1.0)], 2, "member 1.0 is not an integer outcome"),
            ([(False, True)], 2, "member False is not an integer outcome"),
            ([(0, None)], 2, "member None is not an integer outcome"),
        ],
    )
    def test_public_constructor_errors(self, blocks, n, message):
        with pytest.raises(fp.SizeMismatchError, match=message):
            fp.Partition(blocks, n)

    def test_numpy_integer_members_accepted(self):
        assert fp.Partition([np.arange(2), (np.int64(3), 2)], 4) == P_BLOCKS


class TestNegativeSize:
    @pytest.mark.parametrize(
        "make",
        [fp.Partition.discrete, fp.Partition.trivial, lambda n: fp.Partition([], n), lambda n: list(fp.all_partitions(n))],
    )
    def test_raises(self, make):
        # these used to give an empty partition, or an IndexError
        with pytest.raises(fp.SizeMismatchError, match="partition size must be nonnegative, got -1"):
            make(-1)

    def test_zero_is_empty(self):
        assert fp.Partition.discrete(0) == fp.Partition.trivial(0) == fp.Partition([], 0)
        assert fp.Partition([], 0).blocks == () and list(fp.all_partitions(0)) == []


class TestJoin:
    def test_crossing_blocks_give_discrete(self):
        assert fp.join_partitions(P_BLOCKS, Q_BLOCKS) == fp.Partition.discrete(4)

    def test_idempotent(self):
        assert fp.join_partitions(P_BLOCKS, P_BLOCKS) == P_BLOCKS

    def test_trivial_is_unit(self):
        assert fp.join_partitions(P_BLOCKS, fp.Partition.trivial(4)) == P_BLOCKS

    def test_size_mismatch(self):
        with pytest.raises(fp.SizeMismatchError):
            fp.join_partitions(P_BLOCKS, fp.Partition.trivial(3))


class TestMeet:
    def test_paper_three_point_pair_meets_to_trivial(self):
        b = fp.Partition([(0, 1), (2,)], 3)
        c = fp.Partition([(0,), (1, 2)], 3)
        assert fp.meet_partitions(b, c) == fp.Partition.trivial(3)

    def test_idempotent(self):
        assert fp.meet_partitions(P_BLOCKS, P_BLOCKS) == P_BLOCKS

    def test_discrete_is_unit(self):
        assert fp.meet_partitions(P_BLOCKS, fp.Partition.discrete(4)) == P_BLOCKS


class TestComplete:
    def test_null_outcome_forced_to_singleton(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        b = fp.Partition([(0, 1), (2,)], 3)
        assert fp.complete_partition(b, space) == fp.Partition.discrete(3)

    def test_fully_supported_space_unchanged(self):
        space = fp.uniform_space(4, R)
        assert fp.complete_partition(P_BLOCKS, space) == P_BLOCKS

    def test_trivial_on_half_null_space(self):
        space = fp.make_space([F(1), F(0)], R)
        out = fp.complete_partition(fp.Partition.trivial(2), space)
        assert out == fp.Partition.discrete(2)

    def test_idempotent_and_monotone(self):
        space = fp.make_space([F(1, 4), F(0), F(1, 4), F(1, 2)], R)
        for p in fp.all_partitions(4):
            done = fp.complete_partition(p, space)
            assert fp.complete_partition(done, space) == done
            for q in fp.all_partitions(4):
                if p.refines(q):
                    assert fp.complete_partition(p, space).refines(
                        fp.complete_partition(q, space)
                    )


class TestMeasurable:
    def test_constant_per_block(self):
        f = fp.RandomVar([1.5, 1.5, 3.5, 3.5], fp.uniform_space(4))
        assert fp.measurable_wrt(f, P_BLOCKS)

    def test_not_constant(self):
        f = fp.RandomVar([1, 2, 3, 4], fp.uniform_space(4))
        assert not fp.measurable_wrt(f, P_BLOCKS)

    def test_discrete_always(self):
        f = fp.RandomVar([1, 2, 3, 4], fp.uniform_space(4))
        assert fp.measurable_wrt(f, fp.Partition.discrete(4))


class TestLatticeLaws:
    def test_join_meet_bracket_the_pair(self):
        for p, q in itertools.product(fp.all_partitions(4), repeat=2):
            j = fp.join_partitions(p, q)
            m = fp.meet_partitions(p, q)
            assert j.refines(p) and j.refines(q)
            assert p.refines(m) and q.refines(m)

    def test_commutativity_and_absorption_exhaustive_5(self):
        parts = list(fp.all_partitions(5))
        assert len(parts) == fp.bell_number(5) == 52
        for p, q in itertools.product(parts, repeat=2):
            assert fp.join_partitions(p, q) == fp.join_partitions(q, p)
            assert fp.meet_partitions(p, q) == fp.meet_partitions(q, p)
            assert fp.join_partitions(p, fp.meet_partitions(p, q)) == p
            assert fp.meet_partitions(p, fp.join_partitions(p, q)) == p

    def test_associativity_exhaustive_4(self):
        parts = list(fp.all_partitions(4))
        for p, q, r in itertools.product(parts, repeat=3):
            assert fp.join_partitions(fp.join_partitions(p, q), r) == fp.join_partitions(
                p, fp.join_partitions(q, r)
            )
            assert fp.meet_partitions(fp.meet_partitions(p, q), r) == fp.meet_partitions(
                p, fp.meet_partitions(q, r)
            )

    def test_associativity_exhaustive_5(self):
        parts = list(fp.all_partitions(5))
        for p, q, r in itertools.product(parts, repeat=3):
            assert fp.join_partitions(fp.join_partitions(p, q), r) == fp.join_partitions(
                p, fp.join_partitions(q, r)
            )
            assert fp.meet_partitions(fp.meet_partitions(p, q), r) == fp.meet_partitions(
                p, fp.meet_partitions(q, r)
            )


def test_partition_count_matches_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert len(list(fp.all_partitions(n))) == bell
        assert fp.bell_number(n) == bell


def _block_sets(p):
    return set(map(frozenset, p.blocks))


class TestAgainstSetOracles:
    """Label operations against set-based definitions (tests/oracles.py)."""

    def test_lattice_exhaustive_5(self):
        parts = list(fp.all_partitions(5))
        for p, q in itertools.product(parts, repeat=2):
            assert _block_sets(fp.join_partitions(p, q)) == join_by_intersections(p.blocks, q.blocks)
            assert _block_sets(fp.meet_partitions(p, q)) == meet_by_closing(p.blocks, q.blocks)
            assert p.refines(q) == refines_by_containment(p.blocks, q.blocks)

    def test_completion_for_every_small_null_set(self):
        for null in itertools.chain.from_iterable(
            itertools.combinations(range(5), r) for r in range(3)
        ):
            weights = [F(0) if x in null else F(1, 5 - len(null)) for x in range(5)]
            space = fp.make_space(weights, R)
            for p in fp.all_partitions(5):
                out = fp.complete_partition(p, space)
                assert _block_sets(out) == completion_by_definition(weights, p.blocks)
                unchanged = all((x,) in p.blocks for x in null)
                assert (out is p) == unchanged

    def test_canonical_invariants(self):
        rng = np.random.default_rng(3)
        parts = list(fp.all_partitions(5)) + [
            fp.Partition.from_labels(rng.integers(0, k, size=40).tolist()) for k in (1, 3, 9, 40)
        ]
        for p in parts:
            labels = p.labels.tolist()
            firsts = [x for x in range(p.parent_size) if labels[x] not in labels[:x]]
            assert [labels[x] for x in firsts] == list(range(p.n_blocks))
            assert [b[0] for b in p.blocks] == firsts
            assert all(list(b) == sorted(b) for b in p.blocks)
            assert all(labels[x] == k for k, b in enumerate(p.blocks) for x in b)
            assert not p.labels.flags.writeable

    def test_from_labels_of_a_renaming(self):
        rng = np.random.default_rng(4)
        for p in list(fp.all_partitions(5)) + [fp.dyadic_partition(6, 3)]:
            names = rng.permutation(1000)[: p.n_blocks].tolist()
            for rename in (names, [f"b{k}" for k in names], [(k, -k) for k in names]):
                q = fp.Partition.from_labels([rename[lab] for lab in p.labels.tolist()])
                assert q == p and hash(q) == hash(p)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
    def test_random_coarsening_chain_merges_blocks(self, n):
        for seed in range(6):
            chain = random_coarsening_chain(np.random.default_rng(seed), n, n + 2)
            expected = coarsening_chain_by_blocks(np.random.default_rng(seed), n, n + 2)
            assert [p.blocks for p in chain] == expected
