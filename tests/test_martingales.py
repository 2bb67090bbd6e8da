import math
from fractions import Fraction as F

import pytest

import finprob as fp
from finprob.sampling import (
    random_coarsening_chain,
    random_idempotent_chain,
    random_refining_chain,
    random_rv,
    random_space,
    random_vec_rv,
    rng_for,
)

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
        with pytest.raises(fp.NotAMartingaleError):
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
        towered = fp.vector_cond_expectation(fp.vector_cond_expectation(g, fine), coarse)
        assert fp.as_equal_vec_rv(towered, fp.vector_cond_expectation(g, coarse))


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


class TestBochnerLevy:
    def test_dim_one_matches_scalar_report(self):
        rng = rng_for(92)
        f = random_rv(rng, U4)
        g = fp.VecRandomVar([[v] for v in f.values], U4)
        scalar = fp.levy_report(fp.martingale_from_terminal(f, UP4), 1)
        vector = fp.bochner_levy_report(g, UP4, 1)
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
        vector = fp.bochner_levy_report(g, filtration, n, vnorm)
        assert vector.step_distances == scalar.step_distances
        assert (vector.converged, vector.stabilization_index) == (scalar.converged, scalar.stabilization_index)

    def test_random_walk_standard_example(self):
        levels = 8
        space = fp.dyadic_space(levels)
        rng = rng_for(93)
        increments = rng.integers(-1, 2, size=(space.size, 2))
        cumulative = increments.cumsum(axis=0)
        g = fp.VecRandomVar([[int(a), int(b)] for a, b in cumulative], space)
        report = fp.bochner_levy_report(g, fp.dyadic_filtration(levels), 1)
        assert report.converged
        assert report.step_distances[levels] == 0
        for a, b in zip(report.step_distances, report.step_distances[1:]):
            assert b <= a

    def test_constant_vector_all_zero(self):
        g = fp.VecRandomVar([[2, 3]] * 4, U4)
        report = fp.bochner_levy_report(g, UP4, 2)
        assert all(d == 0 for d in report.step_distances)

    def test_coordinatewise_agreement(self):
        rng = rng_for(94)
        g = random_vec_rv(rng, U4, 3)
        vec_report = fp.bochner_levy_report(g, UP4, 1)
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
        assert fp.as_equal_vec_rv(f, fp.VecRandomVar([[1e9 + 0.5, 1.0], [2.0, 3.0]], space))
        assert not fp.as_equal_vec_rv(f, fp.VecRandomVar([[1e9, 1.0], [2.0, 5.0]], space))

    def test_block_constancy_scales_with_the_values(self):
        space = fp.uniform_space(4)
        blocks = fp.Partition([(0, 1), (2, 3)], 4)
        assert fp.as_measurable_wrt(fp.RandomVar([1e9, 1e9 + 0.5, -4e9, -4e9], space), blocks)
        assert not fp.as_measurable_wrt(fp.RandomVar([1e9, 1e9 + 8.0, 0.0, 0.0], space), blocks)
        assert not fp.measurable_wrt(fp.RandomVar([0.5, 0.5 + 2e-9, 0.0, 0.0], space), blocks)
