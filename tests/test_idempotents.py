import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import finprob as fp
import finprob.idempotents as idempotents
from finprob.idempotents import _leq_against, _order_forms, _order_table
from finprob.sampling import random_mp_kernel_from, random_partition, random_space, rng_for

from .oracles import (
    cond_exp_kernel_by_definition,
    galois_roundtrips_by_kernels,
    invariant_partition_bruteforce,
    invariant_partition_by_search,
    invariant_sets_direct,
    kernel_mass,
    order_table_by_definition,
    to_float,
)

R = fp.rational_mode()

U4 = fp.uniform_space(4, R)
P3 = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
BLOCKS = fp.Partition([(0, 1), (2, 3)], 4)
CROSS = fp.Partition([(0, 2), (1, 3)], 4)
B_PART = fp.Partition([(0, 1), (2,)], 3)
C_PART = fp.Partition([(0,), (1, 2)], 3)


class TestIsIdempotent:
    def test_cond_exp_kernels_idempotent(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        assert fp.is_idempotent(e.kernel)

    def test_swap_not_idempotent(self):
        swap = fp.Kernel([[0, 1], [1, 0]], fp.uniform_space(2, R), fp.uniform_space(2, R))
        assert not fp.is_idempotent(swap)

    def test_identity_idempotent(self):
        assert fp.is_idempotent(fp.identity_kernel(U4))

    def test_rejects_non_square(self):
        u2 = fp.uniform_space(2, R)
        k = fp.deterministic_from_function([0, 0, 1, 1], U4, u2)
        with pytest.raises(fp.SpaceMismatchError):
            fp.is_idempotent(k)


class TestCondExpKernel:
    def test_uniform_four_blocks(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        half = F(1, 2)
        assert [list(r) for r in e.kernel.rows] == [
            [half, half, 0, 0],
            [half, half, 0, 0],
            [0, 0, half, half],
            [0, 0, half, half],
        ]

    def test_discrete_gives_identity(self):
        e = fp.cond_exp_kernel(U4, fp.Partition.discrete(4))
        assert fp.as_equal_kernels(e.kernel, fp.identity_kernel(U4))

    def test_trivial_gives_weights_rows(self):
        e = fp.cond_exp_kernel(U4, fp.Partition.trivial(4))
        for x in range(4):
            assert list(e.kernel.rows[x]) == [F(1, 4)] * 4

    def test_rows_match_definition(self):
        """Float rows equal the sequential-sum oracle bit for bit, exact rows
        equal it exactly; sizes 1-39, with and without null outcomes."""
        rng = rng_for(35)
        for trial in range(120):
            size = int(rng.integers(1, 40))
            mode = R if trial % 2 else fp.FLOAT_DEFAULT
            space = random_space(rng, size, mode, null_outcomes=int(rng.integers(0, size)))
            n_labels = int(rng.integers(1, size + 1))
            p = fp.Partition.from_labels(rng.integers(0, n_labels, size=size).tolist())
            rows = fp.cond_exp_kernel(space, p, validate=trial < 10).kernel.rows
            expected = cond_exp_kernel_by_definition(list(space.weights), p.blocks)
            if mode.exact:
                assert rows.tolist() == expected
            else:
                assert rows.tobytes() == np.array(expected, dtype=np.float64).tobytes()

    def test_validation_catches_non_idempotent(self):
        swap = fp.Kernel([[0, 1], [1, 0]], fp.uniform_space(2, R), fp.uniform_space(2, R))
        with pytest.raises(fp.NotIdempotentError):
            fp.IdempotentKernel(swap)


class TestInvariantPartition:
    def test_roundtrip_of_block_partition(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        assert fp.invariant_partition(e) == BLOCKS

    def test_paper_three_point_completion(self):
        e = fp.cond_exp_kernel(P3, B_PART)
        assert fp.invariant_partition(e) == fp.Partition.discrete(3)
        e2 = fp.cond_exp_kernel(P3, C_PART)
        assert fp.invariant_partition(e2) == fp.Partition.discrete(3)

    def test_identity_on_full_support(self):
        e = fp.IdempotentKernel(fp.identity_kernel(U4))
        assert fp.invariant_partition(e) == fp.Partition.discrete(4)

    def test_agrees_with_subset_oracle(self):
        rng = rng_for(41)
        for size, nulls in [(3, 1), (4, 0), (5, 1), (6, 2), (8, 1)]:
            space = random_space(rng, size, R, null_outcomes=nulls)
            part = random_partition(rng, size)
            e = fp.cond_exp_kernel(space, part)
            fast = fp.invariant_partition(e)
            assert fast == invariant_partition_bruteforce(e)
            # and the oracle's raw subset list matches the partition algebra
            masks = invariant_sets_direct(e)
            for mask in masks:
                members = {y for y in range(size) if mask >> y & 1}
                for block in fast.blocks:
                    live = [x for x in block if not space.is_null(x)]
                    inside = [x for x in live if x in members]
                    assert inside == [] or len(inside) == len(live)

    def test_agrees_with_subset_oracle_at_size_12(self):
        rng = rng_for(51)
        space = random_space(rng, 12, R, null_outcomes=2)
        e = fp.cond_exp_kernel(space, random_partition(rng, 12))
        assert fp.invariant_partition(e) == invariant_partition_bruteforce(e)

    def test_closure_matches_breadth_first_search(self):
        # random relations (one-way edges too) and random symmetric ones at
        # several densities, and paths through the live outcomes in random
        # order, which take up to six squarings to close; closed as one stack
        # and one at a time
        rng = rng_for(61)
        for size, nulls in [(1, 0), (2, 1), (3, 0), (6, 2), (17, 3), (45, 5), (160, 1)]:
            space = random_space(rng, size, fp.FLOAT_DEFAULT, null_outcomes=nulls)
            m = space.live_index().size
            relations = [rng.random((m, m)) < d for d in (0.0, 0.5 / m, 1.5 / m, 0.2)]
            relations += [r | r.T for r in relations]
            for _ in range(3):
                path, order = np.zeros((m, m), dtype=bool), rng.permutation(m)
                path[order[:-1], order[1:]] = True
                relations.append(path)
            stack = np.stack(relations)
            expected = [invariant_partition_by_search(r.tolist(), space) for r in stack]
            found = idempotents._invariant_partitions(stack, space)
            assert [p.labels.tolist() for p in found] == [p.labels.tolist() for p in expected]
            for r, part in zip(stack, expected):
                assert idempotents._invariant_partitions(r[None], space) == [part]

    def test_bruteforce_size_cap(self):
        e = fp.IdempotentKernel(fp.identity_kernel(fp.uniform_space(20, fp.FLOAT_DEFAULT)))
        with pytest.raises(fp.TooLargeError):
            invariant_partition_bruteforce(e)


class TestSplit:
    def test_uniform_four_blocks(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        s = fp.split(e)
        assert list(s.quotient.weights) == [F(1, 2), F(1, 2)]
        reconstructed = fp.compose(s.pi, s.pi_dag)
        assert [list(r) for r in reconstructed.rows] == [list(r) for r in e.kernel.rows]

    def test_identity_splits_through_itself(self):
        e = fp.IdempotentKernel(fp.identity_kernel(U4))
        s = fp.split(e)
        assert s.quotient.same_as(U4)
        assert fp.as_equal_kernels(s.pi, fp.identity_kernel(U4))

    def test_trivial_partition_single_point(self):
        e = fp.cond_exp_kernel(U4, fp.Partition.trivial(4))
        s = fp.split(e)
        assert s.quotient.size == 1
        assert list(s.pi_dag.rows[0]) == [F(1, 4)] * 4

    def test_random_splittings(self):
        rng = rng_for(42)
        for i in range(50):
            mode = R if i % 2 else fp.FLOAT_DEFAULT
            space = random_space(rng, int(rng.integers(2, 9)), mode, null_outcomes=int(i % 2))
            e = fp.cond_exp_kernel(space, random_partition(rng, space.size))
            s = fp.split(e)
            assert fp.as_equal_kernels(fp.compose(s.pi_dag, s.pi), fp.identity_kernel(s.quotient))
            assert fp.as_equal_kernels(fp.compose(s.pi, s.pi_dag), e.kernel)


class TestIdempotentOrder:
    def test_coarser_partition_smaller_idempotent(self):
        e_triv = fp.cond_exp_kernel(U4, fp.Partition.trivial(4))
        e_blocks = fp.cond_exp_kernel(U4, BLOCKS)
        e_disc = fp.cond_exp_kernel(U4, fp.Partition.discrete(4))
        assert fp.idem_leq(e_triv, e_blocks)
        assert fp.idem_leq(e_blocks, e_disc)

    def test_crossed_blocks_incomparable(self):
        e1 = fp.cond_exp_kernel(U4, BLOCKS)
        e2 = fp.cond_exp_kernel(U4, CROSS)
        assert not fp.idem_leq(e1, e2)
        assert not fp.idem_leq(e2, e1)

    def test_reflexive(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        assert fp.idem_leq(e, e)

    def test_partial_order_laws(self):
        rng = rng_for(43)
        space = random_space(rng, 5, R, null_outcomes=1)
        idems = [fp.cond_exp_kernel(space, p) for p in fp.all_partitions(5)]
        picks = rng.integers(0, len(idems), size=(40, 3))
        for a, b, c in picks:
            ea, eb, ec = idems[a], idems[b], idems[c]
            if fp.idem_leq(ea, eb) and fp.idem_leq(eb, ec):
                assert fp.idem_leq(ea, ec)
            if fp.idem_leq(ea, eb) and fp.idem_leq(eb, ea):
                assert fp.as_equal_kernels(ea.kernel, eb.kernel)

    def test_exact_and_float_paths_agree(self):
        rng = rng_for(44)
        for _ in range(20):
            raw = rng.integers(1, 9, size=4)
            total = int(raw.sum())
            exact = fp.make_space([F(int(v), total) for v in raw], R)
            approx = fp.make_space([int(v) / total for v in raw])
            p, q = random_partition(rng, 4), random_partition(rng, 4)
            left = fp.idem_leq(fp.cond_exp_kernel(exact, p), fp.cond_exp_kernel(exact, q))
            right = fp.idem_leq(fp.cond_exp_kernel(approx, p), fp.cond_exp_kernel(approx, q))
            assert left == right


class TestBatchedOrder:
    """The batched integer order test against the definition of the order:
    e1 <= e2 when both composites are a.s. equal to e1."""

    def check_space(self, space):
        kernels = [fp.cond_exp_kernel(space, p).kernel for p in fp.all_partitions(space.size)]
        expected = order_table_by_definition(kernels)
        forms = _order_forms(kernels)
        for i in range(len(kernels)):
            le = _leq_against(forms, i, 0, len(kernels))
            ge = _leq_against(forms, i, 0, len(kernels), above=True)
            assert (le == expected[i]).all() and (ge == expected[:, i]).all()
        return forms

    @pytest.mark.parametrize("size", [3, 4, 5])
    @pytest.mark.parametrize("nulls", [0, 1])
    def test_table_matches_definition(self, size, nulls):
        space = random_space(rng_for(48 + size), size, R, null_outcomes=nulls)
        nums, _, _ = self.check_space(space)
        assert nums.dtype == np.int64

    @pytest.mark.parametrize("nulls", [0, 1])
    def test_float_table_matches_definition(self, nulls):
        self.check_space(random_space(rng_for(53), 5, fp.FLOAT_DEFAULT, null_outcomes=nulls))

    def test_huge_denominators_take_the_python_int_path(self):
        p, q = 10**10 + 19, 10**10 + 33  # primes: block masses keep ~20-digit denominators
        space = fp.make_space([F(1, p), F(1, q), 1 - F(1, p) - F(1, q), F(0)], R)
        nums, dens, _ = self.check_space(space)
        assert nums.dtype == object and max(dens) > 2**63


class TestOrderTable:
    """The trace-screened order table against `_leq_against` on every
    ordered pair; the diagonal is true by convention."""

    @staticmethod
    def check(kernels):
        forms = _order_forms(kernels)
        m = len(kernels)
        expected = np.array([_leq_against(forms, i, 0, m) for i in range(m)])
        table = _order_table(forms)
        off = ~np.eye(m, dtype=bool)
        assert table.diagonal().all()
        assert (table[off] == expected[off]).all()
        return forms, table

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_conditioning_stacks(self, mode):
        rng = rng_for(91)
        for size in range(1, 7):
            for nulls in range(min(size, 3)):
                space = random_space(rng, size, mode, null_outcomes=nulls)
                self.check([fp.cond_exp_kernel(space, p).kernel for p in fp.all_partitions(size)])

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_random_endo_kernels(self, mode):
        # k after its Bayesian inverse is a measure-preserving endo-kernel,
        # mostly not idempotent, so the screen sees traces of every size;
        # the identity and the independent kernel add pairs that do compare
        rng = rng_for(92)
        for size in range(1, 6):
            space = random_space(rng, size, mode, null_outcomes=int(size > 2))
            independent = fp.cond_exp_kernel(space, fp.Partition.trivial(size)).kernel
            kernels = [fp.identity_kernel(space), independent]
            for _ in range(12):
                k = random_mp_kernel_from(rng, space, int(rng.integers(1, 5)))
                kernels.append(fp.compose(k, fp.bayes_inverse(k)))
            kernels += kernels[2:4]  # equal kernels at distinct indices
            _, table = self.check(kernels)
            assert table[1].all() and table[:, 0].all()  # independent <= k <= identity

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_second_composite_decides(self, mode):
        # rows of a are block measures of e, so a.e = a, but they are not
        # constant on the blocks, so e.a differs from a: a is not below e
        space = fp.uniform_space(4, mode)
        half, zero = mode.one() / 2, mode.zero()
        b1, b2 = [half, half, zero, zero], [zero, zero, half, half]
        a = fp.Kernel([b1, b2, b1, b2], space, space)
        e = fp.cond_exp_kernel(space, BLOCKS).kernel
        assert fp.as_equal_kernels(fp.compose(a, e), a)
        _, table = self.check([a, e, fp.identity_kernel(space)])
        assert not table[0, 1] and table[0, 2]

    def test_float_pairs_near_the_tolerance(self):
        # mixes of idempotents with the independent kernel at weights around
        # the tolerance: their composites differ by about that weight
        space = random_space(rng_for(93), 5, fp.FLOAT_DEFAULT, null_outcomes=1)
        independent = fp.cond_exp_kernel(space, fp.Partition.trivial(5)).kernel
        kernels = []
        for p in list(fp.all_partitions(5))[::4]:
            e = fp.cond_exp_kernel(space, p).kernel
            kernels.append(e)
            for eps in (1e-11, 3e-10, 1e-9, 3e-9):
                kernels.append(fp.Kernel((1 - eps) * e.rows + eps * independent.rows, space, space))
        _, table = self.check(kernels)
        assert 0 < table.sum() < table.size

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_blocks_of_several_rows_at_seven_outcomes(self, mode):
        # Bell(7) = 877 partitions: the screen takes its rows in blocks of
        # several, sized by the entries a block holds
        space = random_space(rng_for(95), 7, mode, null_outcomes=1)
        kernels = [fp.cond_exp_kernel(space, part).kernel for part in fp.all_partitions(7)]
        assert 1 < idempotents._SCREEN_BLOCK // (len(kernels) + 49) < len(kernels)
        _, table = self.check(kernels)
        assert 0 < table.sum() < table.size

    @staticmethod
    def trace_bound(forms):
        return forms[0].shape[1] * max(forms[1].tolist()) ** 2

    def test_float64_trace_path(self):
        space = random_space(rng_for(94), 6, R, null_outcomes=1)
        forms, _ = self.check([fp.cond_exp_kernel(space, part).kernel for part in fp.all_partitions(6)])
        assert self.trace_bound(forms) < 2**53

    def test_int64_trace_path(self):
        d = 10**8 + 7  # a prime: block masses keep denominators near 10**8
        a, b = 3 * 10**7, 3 * 10**7 + 1
        space = fp.make_space([F(a, d), F(b, d), F(d - a - b, d)], R)
        forms, _ = self.check([fp.cond_exp_kernel(space, part).kernel for part in fp.all_partitions(3)])
        assert forms[0].dtype == np.int64 and 2**53 <= self.trace_bound(forms) < 2**63

    def test_python_int_path(self):
        p, q = 10**10 + 19, 10**10 + 33  # primes: block masses keep ~20-digit denominators
        space = fp.make_space([F(1, p), F(1, q), 1 - F(1, p) - F(1, q), F(0)], R)
        forms, _ = self.check([fp.cond_exp_kernel(space, part).kernel for part in fp.all_partitions(4)])
        assert forms[0].dtype == object and max(forms[1]) > 2**63


class TestWitnesses:
    def test_trivial_below_blocks(self):
        e_triv = fp.cond_exp_kernel(U4, fp.Partition.trivial(4))
        e_blocks = fp.cond_exp_kernel(U4, BLOCKS)
        f, g = fp.order_witnesses(e_triv, e_blocks)
        assert [list(r) for r in f.rows] == [[F(1, 2), F(1, 2)]]
        assert [list(r) for r in g.rows] == [[1], [1]]

    def test_self_comparison_gives_identities(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        f, g = fp.order_witnesses(e, e)
        quotient = fp.split(e).quotient
        assert fp.as_equal_kernels(f, fp.identity_kernel(quotient))
        assert fp.as_equal_kernels(g, fp.identity_kernel(quotient))

    def test_not_comparable_raises(self):
        e1 = fp.cond_exp_kernel(U4, BLOCKS)
        e2 = fp.cond_exp_kernel(U4, CROSS)
        with pytest.raises(fp.NotComparableError):
            fp.order_witnesses(e1, e2)

    def test_retraction_on_random_comparable_pairs(self):
        rng = rng_for(45)
        done = 0
        while done < 100:
            size = int(rng.integers(3, 7))
            nulls = int(rng.integers(0, 2))
            mode = R if done % 2 else fp.FLOAT_DEFAULT
            space = random_space(rng, size, mode, null_outcomes=nulls)
            fine = random_partition(rng, size)
            coarse = fp.meet_partitions(fine, random_partition(rng, size))
            e1 = fp.cond_exp_kernel(space, coarse)
            e2 = fp.cond_exp_kernel(space, fine)
            if not fp.idem_leq(e1, e2):
                continue
            f, g = fp.order_witnesses(e1, e2)
            s1 = fp.split(e1)
            assert fp.as_equal_kernels(fp.compose(f, g), fp.identity_kernel(s1.quotient))
            done += 1

    def test_three_conditions_equivalent(self):
        rng = rng_for(46)
        space = random_space(rng, 5, R, null_outcomes=1)
        parts = list(fp.all_partitions(5))
        for _ in range(40):
            i, j = rng.integers(0, len(parts), size=2)
            e1, e2 = fp.cond_exp_kernel(space, parts[i]), fp.cond_exp_kernel(space, parts[j])
            s1 = fp.split(e1)
            cond1 = fp.idem_leq(e1, e2)
            cond2 = fp.as_equal_kernels(
                fp.compose(s1.pi_dag, e2.kernel), s1.pi_dag
            ) and fp.as_equal_kernels(fp.compose(e2.kernel, s1.pi), s1.pi)
            try:
                fp.order_witnesses(e1, e2)
                cond3 = True
            except fp.NotComparableError:
                cond3 = False
            assert cond1 == cond2 == cond3


class TestGalois:
    def test_paper_three_point_space(self):
        report = fp.galois_roundtrips(P3)
        assert report.all_ok
        assert report.n_partitions == 5

    def test_fully_supported_space_completion_is_identity(self):
        space = fp.make_space([F(1, 6), F(1, 3), F(1, 2)], R)
        for p in fp.all_partitions(3):
            e = fp.cond_exp_kernel(space, p)
            assert fp.invariant_partition(e) == p

    def test_uniform_four_exhaustive(self):
        report = fp.galois_roundtrips(U4)
        assert report.all_ok
        assert report.n_partitions == 15

    def test_float_mode_audit(self):
        report = fp.galois_roundtrips(fp.make_space([0.5, 0.0, 0.5]))
        assert report.all_ok

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_stacked_audit_matches_per_kernel_audit(self, mode):
        rng = rng_for(47)
        for size in range(1, 7):
            for nulls in range(size):
                space = random_space(rng, size, mode, null_outcomes=nulls)
                report = fp.galois_roundtrips(space)
                assert report == galois_roundtrips_by_kernels(space)
                assert report.all_ok

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_failure_tuples_of_rotated_invariants(self, mode, monkeypatch):
        # each idempotent gets the invariant partition of the next one, so
        # every check fails somewhere; the failures and their order are pinned
        found = idempotents._invariant_partitions

        def rotated(step, space):
            parts = found(step, space)
            return parts[1:] + parts[:1]

        monkeypatch.setattr(idempotents, "_invariant_partitions", rotated)
        report = fp.galois_roundtrips(random_space(rng_for(31), 4, mode, null_outcomes=1))
        golden = json.loads((Path(__file__).parent / "golden" / "galois-rotated-n4.json").read_text())
        for name, expected in golden.items():
            assert getattr(report, name) == tuple(map(tuple, expected)), name

    def test_too_large(self):
        with pytest.raises(fp.TooLargeError):
            fp.galois_roundtrips(fp.uniform_space(9, R))


class TestChainOptima:
    def test_dyadic_sup_is_identity(self):
        space = fp.uniform_space(8, R)
        parts = [fp.dyadic_partition(3, lv) for lv in range(4)]
        chain = [fp.cond_exp_kernel(space, p) for p in parts]
        sup = fp.sup_idempotents(chain)
        assert fp.as_equal_kernels(sup.kernel, fp.identity_kernel(space))

    def test_constant_chain(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        assert fp.as_equal_kernels(fp.sup_idempotents([e, e, e]).kernel, e.kernel)
        assert fp.as_equal_kernels(fp.inf_idempotents([e, e, e]).kernel, e.kernel)

    def test_two_step_chain(self):
        e_triv = fp.cond_exp_kernel(U4, fp.Partition.trivial(4))
        e_blocks = fp.cond_exp_kernel(U4, BLOCKS)
        sup = fp.sup_idempotents([e_triv, e_blocks])
        assert fp.as_equal_kernels(sup.kernel, e_blocks.kernel)

    def test_paper_inf_counterexample(self):
        e_b = fp.cond_exp_kernel(P3, B_PART)
        e_c = fp.cond_exp_kernel(P3, C_PART)
        # a.s.-equal, hence a (constant) decreasing chain
        inf = fp.inf_idempotents([e_b, e_c])
        assert fp.invariant_partition(inf) == fp.Partition.discrete(3)
        # the naive meet of the raw partitions would give the trivial kernel
        naive = fp.cond_exp_kernel(P3, fp.meet_partitions(B_PART, C_PART))
        assert not fp.as_equal_kernels(inf.kernel, naive.kernel)

    def test_decreasing_chain_to_trivial(self):
        chain = [
            fp.cond_exp_kernel(U4, fp.Partition.discrete(4)),
            fp.cond_exp_kernel(U4, BLOCKS),
            fp.cond_exp_kernel(U4, fp.Partition.trivial(4)),
        ]
        inf = fp.inf_idempotents(chain)
        assert fp.as_equal_kernels(
            inf.kernel, fp.cond_exp_kernel(U4, fp.Partition.trivial(4)).kernel
        )

    def test_not_a_chain(self):
        e1 = fp.cond_exp_kernel(U4, BLOCKS)
        e2 = fp.cond_exp_kernel(U4, CROSS)
        with pytest.raises(fp.NotAChainError):
            fp.sup_idempotents([e1, e2])

    def test_sup_is_least_upper_bound(self):
        rng = rng_for(47)
        space = random_space(rng, 5, R, null_outcomes=1)
        fine = random_partition(rng, 5)
        mid = fp.meet_partitions(fine, random_partition(rng, 5))
        chain = [fp.cond_exp_kernel(space, mid), fp.cond_exp_kernel(space, fine)]
        sup = fp.sup_idempotents(chain)
        for e in chain:
            assert fp.idem_leq(e, sup)
        for q in fp.all_partitions(5):
            cand = fp.cond_exp_kernel(space, q)
            if all(fp.idem_leq(e, cand) for e in chain):
                assert fp.idem_leq(sup, cand)


class TestSelfDuality:
    def test_exhaustive_size_four(self):
        spaces = [
            U4,
            fp.make_space([F(1, 2), F(0), F(1, 4), F(1, 4)], R),
            fp.make_space([F(1), F(0), F(0), F(0)], R),
        ]
        for space in spaces:
            for p in fp.all_partitions(4):
                e = fp.cond_exp_kernel(space, p)
                assert fp.as_equal_kernels(fp.bayes_inverse(e.kernel), e.kernel)

    def test_random_partition_idempotents(self):
        rng = rng_for(48)
        for _ in range(30):
            size = int(rng.integers(2, 10))
            space = random_space(rng, size, fp.FLOAT_DEFAULT, null_outcomes=int(rng.integers(0, 2)))
            e = fp.cond_exp_kernel(space, random_partition(rng, size))
            assert fp.as_equal_kernels(fp.bayes_inverse(e.kernel), e.kernel)


class TestHarmonicAndPositivity:
    def test_harmonic_iff_measurable_on_indicators(self):
        rng = rng_for(49)
        for size, nulls in [(4, 1), (5, 0), (6, 2)]:
            space = random_space(rng, size, R, null_outcomes=nulls)
            e = fp.cond_exp_kernel(space, random_partition(rng, size))
            inv = fp.invariant_partition(e)
            for mask in range(1 << size):
                members = [y for y in range(size) if mask >> y & 1]
                ind = fp.indicator(space, members)
                pulled = fp.apply_pullback(e.kernel, ind)
                assert fp.as_equal_rv(pulled, ind) == fp.measurable_wrt(ind, inv)

    def test_relative_positivity(self):
        rng = rng_for(50)
        for _ in range(10):
            space = random_space(rng, 5, R, null_outcomes=1)
            e = fp.cond_exp_kernel(space, random_partition(rng, 5))
            inv = fp.invariant_partition(e)
            import itertools as it

            invariant_unions = [
                sum(blocks, ())
                for r in range(len(inv.blocks) + 1)
                for blocks in it.combinations(inv.blocks, r)
            ]
            for a in invariant_unions:
                for bmask in range(1 << 5):
                    b = [y for y in range(5) if bmask >> y & 1]
                    inter = [y for y in b if y in a]
                    for x in space.support:
                        lhs = kernel_mass(e.kernel, x, a) * kernel_mass(e.kernel, x, b)
                        assert lhs == kernel_mass(e.kernel, x, inter)


class TestChainModeAgreement:
    """A rational chain with a null outcome and its float image give the
    same Levi verdicts and a.s.-equal optima."""

    SPACE = fp.make_space([F(1, 6), F(1, 3), F(0), F(1, 4), F(1, 8), F(1, 8)], R)
    # after completion each step refines (increasing) or coarsens
    # (decreasing) the one before; the last two are a.s. equal
    CHAINS = {
        "increasing": [
            [(0, 1, 2, 3, 4, 5)],
            [(0, 1, 2), (3, 4, 5)],
            [(0, 1), (2,), (3,), (4, 5)],
            [(0,), (1, 2), (3,), (4, 5)],
            [(0,), (1,), (2,), (3,), (4, 5)],
        ],
        "decreasing": [
            [(0,), (1,), (2,), (3,), (4,), (5,)],
            [(0, 1), (2,), (3,), (4, 5)],
            [(0, 1, 2), (3,), (4, 5)],
            [(0, 1, 2), (3, 4, 5)],
            [(0, 1, 2, 3, 4, 5)],
            [(0, 1, 3, 4, 5), (2,)],
        ],
    }

    def chains(self, direction):
        exact = [fp.cond_exp_kernel(self.SPACE, fp.Partition(b, 6)) for b in self.CHAINS[direction]]
        return exact, [fp.IdempotentKernel(to_float(e.kernel)) for e in exact]

    @pytest.mark.parametrize("direction", sorted(CHAINS))
    def test_levi_property_check(self, direction):
        exact, floats = self.chains(direction)
        r, f = fp.levi_property_check(exact), fp.levi_property_check(floats)
        assert r.converged and f.converged
        assert r.stabilization_index == f.stabilization_index == 3 + (direction == "decreasing")
        tol = fp.FLOAT_DEFAULT.tolerance
        for a, b in zip(r.step_distances, f.step_distances, strict=True):
            assert abs(float(a) - b) <= tol * max(1.0, abs(float(a)))
        assert r.step_distances[0] > 0 and r.step_distances[-1] == 0

    @pytest.mark.parametrize("direction", sorted(CHAINS))
    def test_sup_and_inf(self, direction):
        exact, floats = self.chains(direction)
        optimum = fp.sup_idempotents if direction == "increasing" else fp.inf_idempotents
        r, f = optimum(exact), optimum(floats)
        assert fp.as_equal_kernels(to_float(r.kernel), f.kernel)
