import math
from fractions import Fraction as F

import pytest

import finprob as fp
from finprob.sampling import (
    random_coarsening_chain,
    random_idempotent_chain,
    random_partition,
    random_refining_chain,
    random_rv,
    random_space,
    random_vec_rv,
    rng_for,
)

from finprob.partitions import _limit

from .oracles import chain_bound_by_definition

R = fp.rational_mode()

U4 = fp.uniform_space(4, R)
P3 = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
BLOCKS = fp.Partition([(0, 1), (2, 3)], 4)
B_PART = fp.Partition([(0, 1), (2,)], 3)
C_PART = fp.Partition([(0,), (1, 2)], 3)

UP4 = fp.Filtration(
    [fp.Partition.trivial(4), BLOCKS, fp.Partition.discrete(4)], fp.INCREASING, U4
)
DOWN4 = fp.Filtration(
    [fp.Partition.discrete(4), BLOCKS, fp.Partition.trivial(4)], fp.DECREASING, U4
)


class TestFiltration:
    def test_increasing_validation(self):
        with pytest.raises(fp.InvalidFiltrationError):
            fp.Filtration([fp.Partition.discrete(4), fp.Partition.trivial(4)], fp.INCREASING, U4)

    def test_as_constant_pair_is_a_valid_decreasing_filtration(self):
        f = fp.Filtration([B_PART, C_PART], fp.DECREASING, P3)
        assert len(f) == 2

    def test_structurally_incomparable_rejected_on_full_support(self):
        space = fp.uniform_space(3, R)
        with pytest.raises(fp.InvalidFiltrationError):
            fp.Filtration([B_PART, C_PART], fp.DECREASING, space)


class TestDyadicPartition:
    def test_runs_of_equal_length(self):
        assert fp.dyadic_partition(3, 1).blocks == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert fp.dyadic_partition(3, 0) == fp.Partition.trivial(8)
        assert fp.dyadic_partition(3, 3) == fp.Partition.discrete(8)

    @pytest.mark.parametrize("level", [-1, 4, 5])
    def test_level_outside_range(self, level):
        with pytest.raises(fp.SizeMismatchError, match=f"dyadic level {level} outside 0..3"):
            fp.dyadic_partition(3, level)


class TestFiltrationLimit:
    def test_dyadic_join_is_discrete(self):
        f = fp.dyadic_filtration(3)
        assert fp.filtration_limit(f) == fp.Partition.discrete(8)

    def test_decreasing_meet_is_trivial(self):
        assert fp.filtration_limit(DOWN4) == fp.Partition.trivial(4)

    def test_paper_pair_completes_to_discrete(self):
        f = fp.Filtration([B_PART, C_PART], fp.DECREASING, P3)
        assert fp.filtration_limit(f) == fp.Partition.discrete(3)
        # the raw meet without completion is trivial: that is the trap
        assert fp.meet_partitions(B_PART, C_PART) == fp.Partition.trivial(3)


class TestFiltrationLimitAgainstFold:
    """`filtration_limit` reads the last level, completed. The reference is
    the lattice fold over every level (`partitions._limit`: the join of the
    levels, or the meet of their completions), on random filtrations whose
    levels are a.s.-equal stand-ins: each level groups every null outcome
    with a random outcome of its own choosing."""

    @staticmethod
    def stand_in(rng, p, space):
        labels = p.labels.tolist()
        for x in set(range(space.size)).difference(space.support):
            labels[x] = labels[int(rng.integers(space.size))]
        return fp.Partition.from_labels(labels)

    def instance(self, seed, mode, direction):
        rng = rng_for(900 + seed)
        n = 2 + seed % 11  # sizes 2..12
        space = random_space(rng, n, mode, null_outcomes=int(rng.integers(n)))
        chain = random_coarsening_chain(rng, n, 1 + seed % 5, start=random_partition(rng, n))
        if direction == fp.INCREASING:
            chain.reverse()
        return fp.Filtration([self.stand_in(rng, p, space) for p in chain], direction, space)

    @pytest.mark.parametrize("seed", range(11))
    @pytest.mark.parametrize("direction", [fp.INCREASING, fp.DECREASING])
    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_last_level_is_the_fold(self, mode, direction, seed):
        f = self.instance(seed, mode, direction)
        space, increasing = f.space, direction == fp.INCREASING
        fold = _limit(f.partitions, space, increasing)
        assert fp.filtration_limit(f) == fp.complete_partition(fold, space)
        rng = rng_for(950 + seed)
        for n in (1, 2, math.inf):
            m = fp.martingale_from_terminal(random_rv(rng, space), f)
            f_inf = fp.cond_expectation(m.rvs[-1] if increasing else m.rvs[0], fold)
            report = fp.levy_report(m, n)
            assert report.step_distances == tuple(fp.ln_norm(rv - f_inf, n) for rv in m.rvs)
            flags = [fp.as_equal_rv(rv, f_inf) for rv in m.rvs]
            assert report.stabilization_index == flags.index(True)
            assert all(flags[report.stabilization_index :])


class TestMartingaleFromTerminal:
    def test_worked_example(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        m = fp.martingale_from_terminal(f, UP4)
        assert list(m.rvs[0].values) == [F(5, 2)] * 4
        assert list(m.rvs[1].values) == [F(3, 2), F(3, 2), F(7, 2), F(7, 2)]
        assert list(m.rvs[2].values) == [1, 2, 3, 4]

    def test_constant_terminal(self):
        m = fp.martingale_from_terminal(fp.constant_rv(U4, 7), UP4)
        for rv in m.rvs:
            assert list(rv.values) == [7] * 4

    def test_decreasing_gives_backward_martingale(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        m = fp.martingale_from_terminal(f, DOWN4)
        assert fp.is_martingale(m)
        assert list(m.rvs[2].values) == [F(5, 2)] * 4


class TestIsMartingale:
    def test_generated_is_martingale(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        assert fp.is_martingale(fp.martingale_from_terminal(f, UP4))

    def test_perturbation_on_support_detected(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        m = fp.martingale_from_terminal(f, UP4)
        bad = fp.Martingale(m.filtration, [m.rvs[0], m.rvs[1] + fp.constant_rv(U4, 1), m.rvs[2]])
        assert not fp.is_martingale(bad)

    def test_nonintegrable_example_is_martingale(self):
        m, _ = fp.nonintegrable_example(4)
        assert fp.is_martingale(m)


class TestLevyReport:
    def test_dyadic_scaled_index_strictly_decreasing_to_zero(self):
        levels = 10
        space = fp.dyadic_space(levels)
        n_atoms = space.size
        f = fp.RandomVar([F(i, n_atoms - 1) for i in range(n_atoms)], space)
        m = fp.martingale_from_terminal(f, fp.dyadic_filtration(levels))
        report = fp.levy_report(m, 1)
        assert report.converged
        assert report.step_distances[levels] == 0
        for a, b in zip(report.step_distances, report.step_distances[1:]):
            assert b < a or (a == 0 and b == 0)
        assert report.stabilization_index == levels

    def test_constant_martingale_all_zero(self):
        m = fp.martingale_from_terminal(fp.constant_rv(U4, 3), UP4)
        report = fp.levy_report(m, 2)
        assert report.step_distances == (0, 0, 0)
        assert report.stabilization_index == 0

    def test_backward_example_norms(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        m = fp.martingale_from_terminal(f, DOWN4)
        report = fp.levy_report(m, 1)
        mean = fp.constant_rv(U4, F(5, 2))
        d0 = fp.ln_norm(f - mean, 1)
        d1 = fp.ln_norm(fp.cond_expectation(f, BLOCKS) - mean, 1)
        assert report.step_distances == (d0, d1, 0)
        assert report.converged

    def test_rejects_non_martingale(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        m = fp.martingale_from_terminal(f, UP4)
        bad = fp.Martingale(m.filtration, [m.rvs[2], m.rvs[1], m.rvs[0]])
        with pytest.raises(fp.NotAMartingaleError, match="^not a martingale: level 0 is not measurable"):
            fp.levy_report(bad)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_rejection_names_the_failing_tower_identity(self, mode):
        space = fp.uniform_space(4, mode)
        shifted = fp.RandomVar([F(3, 2), F(3, 2), 4, 4] if mode.exact else [1.5, 1.5, 4.0, 4.0], space)
        # level 1 is the block averages of (1, 2, 3, 4) with block {2, 3} raised by
        # 1/2: adapted, but its mean moves by 1/4 (increasing), and it no longer
        # averages level 0 on outcomes 2 and 3 (decreasing)
        for filtration, witness in (
            (UP4, ("0", "E\\[X1 \\| F0\\] and X0", F(1, 4))),
            (DOWN4, ("2", "E\\[X0 \\| F1\\] and X1", F(1, 2))),
        ):
            filtration = fp.Filtration(filtration.partitions, filtration.direction, space)
            m = fp.martingale_from_terminal(fp.RandomVar([1, 2, 3, 4], space), filtration)
            bad = fp.Martingale(filtration, [m.rvs[0], shifted, m.rvs[2]])
            assert not fp.is_martingale(bad) and not fp.is_martingale(bad, all_pairs=False)
            outcome, pair, defect = witness
            defect = str(defect) if mode.exact else repr(float(defect))
            message = f"^not a martingale: tower identity fails between steps 0 and 1: at outcome {outcome}, {pair} differ by {defect}$"
            with pytest.raises(fp.NotAMartingaleError, match=message):
                fp.levy_report(bad)

    def test_contraction_along_increasing_filtration(self):
        rng = rng_for(90)
        for _ in range(10):
            f = random_rv(rng, fp.dyadic_space(4))
            m = fp.martingale_from_terminal(f, fp.dyadic_filtration(4))
            for n in (1, 2, math.inf):
                norms = [fp.ln_norm(rv, n) for rv in m.rvs]
                for a, b in zip(norms, norms[1:]):
                    assert a <= b  # conditional expectation contracts

    def test_contraction_along_decreasing_filtration(self):
        rng = rng_for(96)
        for _ in range(10):
            f = random_rv(rng, fp.dyadic_space(4))
            m = fp.martingale_from_terminal(
                f, fp.dyadic_filtration(4, direction=fp.DECREASING)
            )
            for n in (1, 2, math.inf):
                norms = [fp.ln_norm(rv, n) for rv in m.rvs]
                for a, b in zip(norms, norms[1:]):
                    assert b <= a

    def test_all_pair_tower_identities_at_size_16(self):
        rng = rng_for(97)
        f = random_rv(rng, fp.dyadic_space(4))
        m = fp.martingale_from_terminal(f, fp.dyadic_filtration(4))
        assert fp.is_martingale(m, all_pairs=True)

    def test_vector_functor_tower_transport(self):
        # the vector-valued conditioning respects the same retract structure
        rng = rng_for(98)
        space = random_space(rng, 6, R, null_outcomes=1)
        from finprob.sampling import random_partition

        fine = random_partition(rng, 6)
        coarse = fp.meet_partitions(fine, random_partition(rng, 6))
        g = random_vec_rv(rng, space, 3)
        towered = fp.cond_expectation(fp.cond_expectation(g, fine), coarse)
        assert fp.as_equal_rv(towered, fp.cond_expectation(g, coarse))


class TestNoncauchy:
    def test_k3_explicit_levels(self):
        m, diag = fp.nonintegrable_example(3)
        assert list(m.rvs[2].values) == [4, 4, 0, 0, 0, 0, 0, 0]
        assert list(m.rvs[3].values) == [8, 0, 0, 0, 0, 0, 0, 0]
        assert fp.ln_norm(m.rvs[3] - m.rvs[2], 1) == 1

    def test_unit_norms_all_levels(self):
        _, diag = fp.nonintegrable_example(6)
        assert diag.l1_norms == (F(1),) * 7
        assert diag.increment_l1_norms == (F(1),) * 6

    def test_minimum_levels(self):
        # too few levels is an invalid filtration, not an oversized one
        with pytest.raises(fp.InvalidFiltrationError, match="got 1"):
            fp.nonintegrable_example(1)


class TestPreservesOptima:
    def test_dyadic_chain_sup_is_identity(self):
        assert fp.preserves_optima_check(fp.dyadic_filtration(3), 1)

    def test_decreasing_chain_inf_is_mean(self):
        assert fp.preserves_optima_check(DOWN4, 2)

    def test_paper_pair_lands_on_completion(self):
        f = fp.Filtration([B_PART, C_PART], fp.DECREASING, P3)
        assert fp.preserves_optima_check(f, 1)
        # and the limit really is the completed-discrete conditioning, not trivial
        assert fp.filtration_limit(f) == fp.Partition.discrete(3)

    def test_too_large(self):
        with pytest.raises(fp.TooLargeError):
            fp.preserves_optima_check(fp.dyadic_filtration(4), 1)

    def test_norm_index_validated(self):
        with pytest.raises(fp.FinprobError):
            fp.preserves_optima_check(DOWN4, 0)


class TestLeviProperty:
    def test_dyadic_idempotent_chain(self):
        space = fp.dyadic_space(3)
        chain = [fp.cond_exp_kernel(space, fp.dyadic_partition(3, lv)) for lv in range(4)]
        report = fp.levi_property_check(chain)
        assert report.converged
        assert report.step_distances[-1] == 0
        for a, b in zip(report.step_distances, report.step_distances[1:]):
            assert b <= a

    def test_constant_chain_all_zero(self):
        e = fp.cond_exp_kernel(U4, BLOCKS)
        report = fp.levi_property_check([e, e, e])
        assert report.step_distances == (0, 0, 0)

    def test_decreasing_chain_to_trivial(self):
        chain = [
            fp.cond_exp_kernel(U4, fp.Partition.discrete(4)),
            fp.cond_exp_kernel(U4, BLOCKS),
            fp.cond_exp_kernel(U4, fp.Partition.trivial(4)),
        ]
        report = fp.levi_property_check(chain)
        assert report.converged
        assert report.step_distances[-1] == 0

    def test_incomparable_rejected(self):
        e1 = fp.cond_exp_kernel(U4, BLOCKS)
        e2 = fp.cond_exp_kernel(U4, fp.Partition([(0, 2), (1, 3)], 4))
        with pytest.raises(fp.NotMonotoneError):
            fp.levi_property_check([e1, e2])

    def test_mismatched_spaces_rejected(self):
        e1 = fp.cond_exp_kernel(U4, BLOCKS)
        e2 = fp.cond_exp_kernel(fp.make_space([F(1, 2), F(1, 4), F(1, 8), F(1, 8)], R), BLOCKS)
        with pytest.raises(fp.SpaceMismatchError):
            fp.levi_property_check([e1, e2])

    def test_random_chains_converge(self):
        rng = rng_for(91)
        for i in range(10):
            space = random_space(rng, 8, fp.FLOAT_DEFAULT, null_outcomes=i % 2)
            chain = random_idempotent_chain(rng, space, 5, increasing=bool(i % 2))
            report = fp.levi_property_check(chain)
            assert report.converged
            assert report.step_distances[-1] == 0.0


class TestChainChecksAgainstDefinition:
    """`levi_property_check`, `sup_idempotents` and `inf_idempotents` against
    the order by definition (`chain_bound_by_definition`) on random chains
    of 1 to 12 outcomes, in both modes, with null outcomes: monotone chains
    both ways, a.s.-equal middle steps, shuffled chains and chains with an
    unrelated element, which are mostly not chains. Errors keep their types
    and messages."""

    @staticmethod
    def outcome(call, *args):
        try:
            return call(*args), None
        except fp.FinprobError as exc:
            return None, exc

    def check(self, chain):
        mode = chain[0].space.mode
        for check, increasing in ((fp.sup_idempotents, True), (fp.inf_idempotents, False), (None, None)):
            expected, error = self.outcome(chain_bound_by_definition, chain, increasing)
            if check is None:
                got, got_error = self.outcome(fp.levi_property_check, chain)
            else:
                got, got_error = self.outcome(check, chain)
            assert type(got_error) is type(error) and str(got_error) == str(error)
            if error is not None:
                continue
            bound = chain[expected[1]].kernel
            if check is not None:
                assert fp.as_equal_kernels(got.kernel, bound)
                continue
            equal = [fp.as_equal_kernels(e.kernel, bound) for e in chain]
            stable = next(i for i in range(len(chain)) if all(equal[i:]))
            assert got.converged and got.stabilization_index == stable
            for d, e in zip(got.step_distances, chain):
                reference = fp.one_sided_distance(e.kernel, bound)  # the optimum is one up to a.s. equality
                assert d == reference if mode.exact else abs(d - reference) <= mode.tolerance

    @staticmethod
    def null_variant(space, part):
        """The partition with its first null outcome moved into the block of
        outcome 0 (or of outcome 1): a.s. equal, and a new object."""
        nulls = [x for x in range(space.size) if space.is_null(x)]
        if not nulls or space.size < 2:
            return part
        labels = list(part.labels)
        z = nulls[0]
        labels[z] = labels[0 if z else 1]
        return fp.Partition.from_labels(labels)

    def chains(self, rng, space):
        n = space.size
        parts = random_refining_chain(rng, n, int(rng.integers(1, 7)))
        middle = len(parts) // 2
        with_equal = parts[: middle + 1] + [self.null_variant(space, parts[middle])] + parts[middle + 1 :]
        shuffled = [parts[i] for i in rng.permutation(len(parts))]
        crossed = parts[:middle] + [random_partition(rng, n)] + parts[middle:]
        for chain in (parts, parts[::-1], with_equal, with_equal[::-1], shuffled, crossed):
            yield [fp.cond_exp_kernel(space, p) for p in chain]

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_random_chains(self, mode):
        rng = rng_for(131)
        for size in range(1, 13):
            for nulls in range(min(size, 3)):
                space = random_space(rng, size, mode, null_outcomes=nulls)
                for chain in self.chains(rng, space):
                    self.check(chain)

    @pytest.mark.parametrize("scale, ordered", [(0.5, True), (2.0, False)])
    def test_float_perturbation_around_the_tolerance(self, scale, ordered):
        # the middle element moves mass delta between outcomes 0 and 1 of
        # row 0: its composites with the finer element miss it by delta, and
        # so does the conditioning kernel on its invariant partition
        mode = fp.FLOAT_DEFAULT
        space = fp.make_space([0.25, 0.25, 0.25, 0.25, 0.0], mode)
        coarse, middle, fine = (
            fp.cond_exp_kernel(space, fp.Partition.from_labels(labels))
            for labels in ([0, 0, 0, 0, 0], [0, 0, 1, 1, 1], [0, 0, 1, 2, 2])
        )
        rows = middle.kernel.rows.copy()
        delta = scale * mode.tolerance
        rows[0, :2] += (delta, -delta)
        middle = fp.IdempotentKernel(fp.Kernel(rows, space, space), validate=False)
        assert fp.idem_leq(middle, fine) is ordered and fp.idem_leq(coarse, middle)
        for chain in ([coarse, middle, fine], [fine, middle, coarse], [middle, fine]):
            self.check(chain)
        if ordered:
            self.check([coarse, middle])
            return
        with pytest.raises(fp.NotAChainError, match="^chain is not increasing in the idempotent order$"):
            fp.levi_property_check([coarse, middle, fine])
        with pytest.raises(fp.NotMonotoneError, match="^adjacent chain elements are incomparable$"):
            fp.levi_property_check([middle, fine])
        # the supremum, conditioning on the join, is more than the tolerance
        # away from the top element, which fails the re-verified bound
        for check in (fp.sup_idempotents, fp.levi_property_check):
            with pytest.raises(fp.FinprobError) as info:
                check([coarse, middle])
            assert type(info.value) is fp.FinprobError
            assert str(info.value) == "join kernel is not an upper bound of the chain"

    def test_errors_keep_types_and_messages(self):
        other = fp.make_space([F(1, 2), F(1, 4), F(1, 8), F(1, 8)], R)
        coarse, blocks, fine = (fp.cond_exp_kernel(U4, p) for p in (fp.Partition.trivial(4), BLOCKS, fp.Partition.discrete(4)))
        crossed = fp.cond_exp_kernel(U4, fp.Partition([(0, 2), (1, 3)], 4))
        stranger = fp.cond_exp_kernel(other, BLOCKS)
        cases = [
            (fp.levi_property_check, [], fp.NotMonotoneError, "empty chain"),
            (fp.sup_idempotents, [], fp.NotAChainError, "empty chain"),
            (fp.inf_idempotents, [], fp.NotAChainError, "empty chain"),
            (fp.levi_property_check, [blocks, crossed], fp.NotMonotoneError, "adjacent chain elements are incomparable"),
            (fp.levi_property_check, [blocks, blocks, crossed], fp.NotMonotoneError, "adjacent chain elements are incomparable"),
            (fp.levi_property_check, [coarse, blocks, crossed], fp.NotAChainError, "chain is not increasing in the idempotent order"),
            (fp.levi_property_check, [fine, blocks, fine], fp.NotAChainError, "chain is not decreasing in the idempotent order"),
            (fp.sup_idempotents, [fine, blocks], fp.NotAChainError, "chain is not increasing in the idempotent order"),
            (fp.inf_idempotents, [blocks, fine], fp.NotAChainError, "chain is not decreasing in the idempotent order"),
            (fp.levi_property_check, [blocks, stranger], fp.SpaceMismatchError, "idempotents on different spaces"),
            (fp.levi_property_check, [blocks, blocks, stranger], fp.SpaceMismatchError, "idempotents on different spaces"),
            (fp.levi_property_check, [coarse, blocks, stranger], fp.SpaceMismatchError, "chain elements on different spaces"),
            (fp.levi_property_check, [coarse, blocks, crossed, stranger], fp.SpaceMismatchError, "chain elements on different spaces"),
            (fp.sup_idempotents, [fine, blocks, stranger], fp.SpaceMismatchError, "chain elements on different spaces"),
            (fp.inf_idempotents, [blocks, stranger], fp.SpaceMismatchError, "chain elements on different spaces"),
        ]
        for call, chain, error, message in cases:
            with pytest.raises(error) as info:
                call(chain)
            assert type(info.value) is error and str(info.value) == message
        with pytest.raises(fp.SpaceMismatchError, match="^idempotents on different spaces$"):
            fp.idem_leq(blocks, stranger)


class TestBochnerLevy:
    def test_dim_one_matches_scalar_report(self):
        rng = rng_for(92)
        f = random_rv(rng, U4)
        g = fp.VecRandomVar([[v] for v in f.values], U4)
        scalar = fp.levy_report(fp.martingale_from_terminal(f, UP4), 1)
        vector = fp.levy_report(fp.martingale_from_terminal(g, UP4), 1)
        assert vector.step_distances == scalar.step_distances
        assert vector.converged == scalar.converged

    @pytest.mark.parametrize("vnorm", ["euclidean", "max", "sum"])
    @pytest.mark.parametrize("n", [1, 2, 3, math.inf])
    def test_dim_one_matches_scalar_report_for_every_value_norm(self, vnorm, n):
        rng = rng_for(95)
        space = random_space(rng, 8, R, null_outcomes=2)
        filtration = fp.Filtration(random_refining_chain(rng, 8, 4), fp.INCREASING, space)
        f = random_rv(rng, space)
        g = fp.VecRandomVar([[v] for v in f.values], space)
        scalar = fp.levy_report(fp.martingale_from_terminal(f, filtration), n)
        vector = fp.levy_report(fp.martingale_from_terminal(g, filtration), n, vnorm)
        assert vector.step_distances == scalar.step_distances
        assert (vector.converged, vector.stabilization_index) == (scalar.converged, scalar.stabilization_index)

    def test_random_walk_standard_example(self):
        levels = 8
        space = fp.dyadic_space(levels)
        rng = rng_for(93)
        increments = rng.integers(-1, 2, size=(space.size, 2))
        cumulative = increments.cumsum(axis=0)
        g = fp.VecRandomVar([[int(a), int(b)] for a, b in cumulative], space)
        report = fp.levy_report(fp.martingale_from_terminal(g, fp.dyadic_filtration(levels)), 1)
        assert report.converged
        assert report.step_distances[levels] == 0
        for a, b in zip(report.step_distances, report.step_distances[1:]):
            assert b <= a

    def test_constant_vector_all_zero(self):
        g = fp.VecRandomVar([[2, 3]] * 4, U4)
        report = fp.levy_report(fp.martingale_from_terminal(g, UP4), 2)
        assert all(d == 0 for d in report.step_distances)

    def test_coordinatewise_agreement(self):
        rng = rng_for(94)
        g = random_vec_rv(rng, U4, 3)
        vec_report = fp.levy_report(fp.martingale_from_terminal(g, UP4), 1)
        for j in range(3):
            scalar = fp.levy_report(
                fp.martingale_from_terminal(g.component(j), UP4), 1
            )
            assert scalar.converged
            assert scalar.stabilization_index <= vec_report.stabilization_index


class TestOrderTransport:
    def test_pullback_preserves_split_idempotents_and_order(self):
        # functor side of the general convergence statement: images of the
        # retracts are retracts and the idempotent order carries over
        rng = rng_for(95)
        space = random_space(rng, 6, R, null_outcomes=1)
        chain = random_idempotent_chain(rng, space, 4, increasing=True)
        for a, b in zip(chain, chain[1:]):
            assert fp.idem_leq(a, b)
            s = fp.split(a)
            left = fp.compose(s.pi_dag, s.pi)
            assert fp.as_equal_kernels(left, fp.identity_kernel(s.quotient))
            # matrix order of the pullbacks agrees with the kernel order
            ab = fp.compose(a.kernel, b.kernel)
            ba = fp.compose(b.kernel, a.kernel)
            assert fp.as_equal_kernels(ab, a.kernel)
            assert fp.as_equal_kernels(ba, a.kernel)


class TestScaleAwareVerdicts:
    """Float comparisons of random-variable values scale with the values, so
    float and rational modes reach the same verdict at large values."""

    @staticmethod
    def levy_down_instance(seed, scale, mode):
        # 64 outcomes with weights 1-9 and one null outcome, values (a/b) * scale,
        # and a coarsening chain of length 32: the shape of the levy-down workload
        rng = rng_for(seed)
        raw = rng.integers(1, 10, size=64)
        raw[int(rng.integers(0, 64))] = 0
        values = [F(int(a), int(b)) * scale for a, b in zip(rng.integers(-8, 9, 64), rng.integers(1, 5, 64))]
        weights = [F(int(w), int(raw.sum())) for w in raw]
        if not mode.exact:
            weights, values = [float(w) for w in weights], [float(v) for v in values]
        space = fp.ProbSpace(weights, mode)
        chain = random_coarsening_chain(rng, 64, 32)
        return fp.martingale_from_terminal(fp.RandomVar(values, space), fp.Filtration(chain, fp.DECREASING, space))

    @pytest.mark.parametrize("seed", range(3))
    def test_levy_down_at_1e9_agrees_across_modes(self, seed):
        reports = [fp.levy_report(self.levy_down_instance(seed, 10**9, mode), 1) for mode in (R, fp.FLOAT_DEFAULT)]
        assert [r.converged for r in reports] == [True, True]
        assert reports[0].stabilization_index == reports[1].stabilization_index

    def test_rv_equality_scales_with_the_values(self):
        space = fp.uniform_space(3)
        big = fp.RandomVar([1e9, -2e9, 3.0], space)
        assert fp.as_equal_rv(big, fp.RandomVar([1e9 + 0.5, -2e9, 3.0], space))
        assert not fp.as_equal_rv(big, fp.RandomVar([1e9 + 3.0, -2e9, 3.0], space))
        small = fp.RandomVar([0.5, 0.25, 0.0], space)
        assert not fp.as_equal_rv(small, fp.RandomVar([0.5 + 2e-9, 0.25, 0.0], space))

    def test_vector_equality_scales_with_the_values(self):
        space = fp.uniform_space(2)
        f = fp.VecRandomVar([[1e9, 1.0], [2.0, 3.0]], space)
        assert fp.as_equal_rv(f, fp.VecRandomVar([[1e9 + 0.5, 1.0], [2.0, 3.0]], space))
        assert not fp.as_equal_rv(f, fp.VecRandomVar([[1e9, 1.0], [2.0, 5.0]], space))

    def test_block_constancy_scales_with_the_values(self):
        space = fp.uniform_space(4)
        blocks = fp.Partition([(0, 1), (2, 3)], 4)
        assert fp.as_measurable_wrt(fp.RandomVar([1e9, 1e9 + 0.5, -4e9, -4e9], space), blocks)
        assert not fp.as_measurable_wrt(fp.RandomVar([1e9, 1e9 + 8.0, 0.0, 0.0], space), blocks)
        assert not fp.measurable_wrt(fp.RandomVar([0.5, 0.5 + 2e-9, 0.0, 0.0], space), blocks)
