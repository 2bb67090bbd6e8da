import math
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob.config import ExperimentConfig
from finprob.experiments import _slide_block, run_experiment
from finprob.metrics import _block_reports, _report
from finprob.sampling import random_mp_kernel, random_mp_stack, random_partition, random_space, rng_for

from .oracles import float_slide, kernel_block, mix_weights, setwise_distance, subsets, to_float

R = fp.rational_mode()

U2 = fp.uniform_space(2, R)
Q34 = fp.make_space([F(3, 4), F(1, 4)], R)
HALF = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, Q34)


def _mix(k, other, a):
    rows = [
        [(1 - a) * k.rows[x][y] + a * other.rows[x][y] for y in range(k.codomain.size)]
        for x in range(k.domain.size)
    ]
    return fp.Kernel(rows, k.domain, k.codomain)


def _independent(k):
    q = list(k.codomain.weights)
    return fp.Kernel([q] * k.domain.size, k.domain, k.codomain)


class TestOneSided:
    def test_self_distance_zero(self):
        assert fp.one_sided_distance(HALF, HALF) == 0

    def test_null_row_difference_invisible(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        a = fp.Kernel([[1, 0, 0], [1, 0, 0], [0, 0, 1]], space, space)
        b = fp.Kernel([[1, 0, 0], [0, 0, 1], [0, 0, 1]], space, space)
        assert fp.one_sided_distance(a, b) == 0

    def test_worked_two_point_example(self):
        k = fp.Kernel([[1, 0], [0, 1]], U2, U2)
        h = fp.Kernel([[F(1, 2), F(1, 2)], [0, 1]], U2, U2)
        assert fp.one_sided_distance(k, h) == F(1, 2)

    def test_pseudometric_laws(self):
        rng = rng_for(80)
        for _ in range(25):
            k = random_mp_kernel(rng, 4, 3, fp.FLOAT_DEFAULT)
            h = _mix(k, _independent(k), 0.3)
            g = _mix(k, _independent(k), 0.7)
            assert abs(fp.one_sided_distance(k, h) - fp.one_sided_distance(h, k)) < 1e-12
            assert fp.one_sided_distance(k, g) <= (
                fp.one_sided_distance(k, h) + fp.one_sided_distance(h, g) + 1e-12
            )

    def test_zero_iff_as_equal(self):
        rng = rng_for(81)
        for _ in range(20):
            k = random_mp_kernel(rng, 4, 3, R, null_rows=1)
            h = fp.canonicalize(k)
            assert (fp.one_sided_distance(k, h) == 0) == fp.as_equal_kernels(k, h)
            other = _independent(k)
            assert (fp.one_sided_distance(k, other) == 0) == fp.as_equal_kernels(k, other)

    def test_dominates_every_setwise_integral(self):
        rng = rng_for(82)
        for size in (3, 6, 10):
            k = random_mp_kernel(rng, 4, size, R)
            h = _mix(k, _independent(k), F(1, 3))
            d = fp.one_sided_distance(k, h)
            for b in subsets(range(size)):
                assert setwise_distance(k, h, b) <= d


class TestTwoSided:
    def test_identical_zero(self):
        assert fp.two_sided_distance(HALF, HALF) == 0

    def test_idempotents_double_one_sided(self):
        space = fp.make_space([F(1, 4), F(1, 4), F(1, 2)], R)
        e1 = fp.cond_exp_kernel(space, fp.Partition([(0, 1), (2,)], 3)).kernel
        e2 = fp.cond_exp_kernel(space, fp.Partition.trivial(3)).kernel
        assert fp.two_sided_distance(e1, e2) == 2 * fp.one_sided_distance(e1, e2)

    def test_quarter_strength_perturbation(self):
        h = _mix(HALF, _independent(HALF), F(1, 4))
        # brute-force: forward part 1/8, inverse part 1/8
        forward = sum(
            U2.weights[x] * sum(abs(HALF.rows[x][y] - h.rows[x][y]) for y in range(2))
            for x in range(2)
        )
        kinv, hinv = fp.bayes_inverse(HALF), fp.bayes_inverse(h)
        backward = sum(
            Q34.weights[y] * sum(abs(kinv.rows[y][x] - hinv.rows[y][x]) for x in range(2))
            for y in range(2)
        )
        assert forward == F(1, 8) and backward == F(1, 8)
        assert fp.two_sided_distance(HALF, h) == F(1, 4)

    def test_requires_measure_preserving(self):
        bad = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        with pytest.raises(fp.NotMeasurePreservingError):
            fp.two_sided_distance(bad, fp.identity_kernel(U2))


class TestCheckConvergence:
    def test_constant_sequence(self):
        report = fp.check_convergence([HALF, HALF, HALF], HALF)
        assert report.converged and report.stabilization_index == 0

    def test_harmonic_mix_has_linear_distances(self):
        other = _independent(HALF)
        base = fp.one_sided_distance(other, HALF)
        seq = [_mix(HALF, other, F(1, n)) for n in range(1, 33)]
        report = fp.check_convergence(seq, HALF, tol=base / 16)
        assert report.step_distances == tuple(base * F(1, n) for n in range(1, 33))
        assert report.converged and report.stabilization_index == 15

    def test_oscillating_not_converged(self):
        other = _independent(HALF)
        seq = [HALF if i % 2 == 0 else other for i in range(10)]
        report = fp.check_convergence(seq, HALF)
        assert not report.converged
        assert report.stabilization_index is None

    def test_two_sided_metric_selector(self):
        other = _independent(HALF)
        seq = [_mix(HALF, other, F(1, 2) ** i) for i in range(1, 8)]
        one = fp.check_convergence(seq, HALF, "one-sided", tol=F(1, 100))
        two = fp.check_convergence(seq, HALF, "two-sided", tol=F(1, 100))
        assert one.converged and two.converged
        for d1, d2 in zip(one.step_distances, two.step_distances):
            assert d2 >= d1

    def test_report_invariant_enforced(self):
        with pytest.raises(ValueError):
            fp.ConvergenceReport((1.0, 1.0), True, 0, 1e-9, 2)


class TestHomeomorphism:
    @pytest.mark.parametrize("n", [1, 2, 3, math.inf])
    def test_interpolating_sequence_agrees(self, n):
        other = _independent(HALF)
        seq = [_mix(HALF, other, F(1, 2) ** i) for i in range(40)]
        assert fp.homeomorphism_check(seq, HALF, n, tol=F(1, 10**9))

    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_constant_sequence_agrees(self, n):
        assert fp.homeomorphism_check([HALF] * 5, HALF, n)

    @pytest.mark.parametrize("n", [1, 2, math.inf])
    def test_oscillating_sequence_agrees_on_failure(self, n):
        other = _independent(HALF)
        seq = [HALF if i % 2 == 0 else other for i in range(10)]
        assert fp.homeomorphism_check(seq, HALF, n)

    def test_operator_distances_bounded_by_metric(self):
        # the n=1 operator distance on indicators never exceeds the kernel metric
        rng = rng_for(83)
        for _ in range(10):
            k = random_mp_kernel(rng, 4, 4, R)
            h = _mix(k, _independent(k), F(1, 5))
            (op_d,) = fp.operator_pointwise_distances([h], k, 1)
            assert op_d <= fp.one_sided_distance(h, k)


class TestStackReports:
    """A block of sequences, each against its own limit, gives every
    sequence the reports that `homeomorphism_reports` gives it alone."""

    NORMS = (1, 2, 3, math.inf)

    @classmethod
    def reports_of(cls, block, s, tol):
        metric, *operators = (_report(d[s], int(stable[s]), tol) for d, stable in block)
        return metric, tuple(operators)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_slides_match_kernel_lists(self, mode):
        # sampled blocks of sizes 1-4, horizon 1 and tables with zero rows
        one, tol = mode.one(), 0 if mode.exact else mode.tolerance
        for seed, (size, count, horizon, nulls) in enumerate(
            [(1, 3, 12, 0), (2, 7, 1, 1), (4, 5, 12, 0), (3, 13, 7, 2), (2, 4, 40, 0)]
        ):
            limit, p, q = random_mp_stack(rng_for(seed), count, size, size, mode, nulls)
            a = [
                [one * (i % 2 or i == horizon - 1) for i in range(horizon)]
                if s % 3 == 2
                else [one / 2**i for i in range(horizon)]
                for s in range(count)
            ]
            block = _block_reports(*_slide_block(mode, limit, q, mix_weights(a, mode.exact)), limit, p, self.NORMS, tol)
            rng = rng_for(seed)
            for s in range(count):
                k = random_mp_kernel(rng, size, size, mode, nulls)
                mixes = np.array([(1 - t) * k.rows + t * k.codomain.weights for t in a[s]])
                seq = fp.kernel_sequence(mixes, k.domain, k.codomain)
                assert self.reports_of(block, s, tol) == fp.homeomorphism_reports(seq, k, self.NORMS)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_mixed_denominators_match_kernel_lists(self, mode):
        # sequences whose steps have denominators of their own, and a tolerance
        rng = rng_for(86)
        limits = [random_mp_kernel(rng, 3, 4, mode) for _ in range(3)]
        seqs = [[_mix(k, _independent(k), mode.one() / d) for d in (3, 7, 11, 1, 5)] for k in limits]
        limit, p, _ = kernel_block(limits)
        steps = [kernel_block(seq)[0] for seq in seqs]
        data = np.stack([d for d, _ in steps])
        dens = np.stack([den for _, den in steps])
        for tol in (None, F(1, 10) if mode.exact else 0.1):
            value = tol if tol is not None else (0 if mode.exact else mode.tolerance)
            block = _block_reports(data, dens, limit, p, self.NORMS, value)
            for s, (seq, k) in enumerate(zip(seqs, limits)):
                assert self.reports_of(block, s, value) == fp.homeomorphism_reports(seq, k, self.NORMS, tol)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_bad_slide_names_sequence_and_step(self, mode):
        limit, _, q = kernel_block([HALF if mode.exact else to_float(HALF)] * 3)
        a = [[mode.one() / 2**i for i in range(3)] for _ in range(3)]
        a[2][1] = -mode.one()  # 2 k - q: row 0 gets 2 * 0 - 1/4
        value = "-1/4" if mode.exact else "-0.25"
        with pytest.raises(fp.NegativeWeightError, match=f"sequence 2, step 1, row 0, column 1 is negative: {value}"):
            _slide_block(mode, limit, q, mix_weights(a, mode.exact))

    def test_bad_float_slide_names_sequence_and_step(self):
        limit, _, q = kernel_block([to_float(HALF)] * 2)
        a = np.full((2, 4), 0.5)
        a[1, 3] = math.nan
        with pytest.raises(fp.NonFiniteError, match="sequence 1, step 3, row 0, column 0 is nan"):
            _slide_block(fp.FLOAT_DEFAULT, limit, q, mix_weights(a, False))

    def test_float_slide_is_the_float_expression(self):
        # float weights over ones take the shared expression, and give the
        # bytes of the float-only expression, also on null rows and at a = 0, 1
        for seed, (size, count, horizon, nulls) in enumerate([(1, 3, 5, 0), (3, 6, 40, 1), (4, 6, 40, 2), (5, 2, 9, 3)]):
            limit, _, q = random_mp_stack(rng_for(seed), count, size, size, fp.FLOAT_DEFAULT, nulls)
            a = np.random.default_rng(seed).uniform(0, 1, size=(count, horizon))
            a[:, 0], a[:, -1] = 0.0, 1.0
            a[0] = np.ldexp(1.0, -np.arange(horizon))
            data, dens = _slide_block(fp.FLOAT_DEFAULT, limit, q, mix_weights(a, False))
            expected = float_slide(limit, q, a)
            assert data.dtype == expected.dtype and data.tobytes() == expected.tobytes()
            assert dens.dtype == np.int64 and (dens == 1).all() and dens.shape == (count, horizon)


def _homeo_one_by_one(cfg):
    """homeo-audit rows as they were built before blocks: per sequence one
    sampled kernel, one list of mixed kernels and one reports call."""
    rng, one, rows = rng_for(cfg.seed), cfg.mode.one(), []
    for idx in range(cfg.count):
        k = random_mp_kernel(rng, cfg.size, cfg.size, cfg.mode)
        oscillate = idx % 5 == 4
        if oscillate:
            a = [one * int(i % 2 or i == cfg.horizon - 1) for i in range(cfg.horizon)]
        else:
            a = [one / 2**i for i in range(cfg.horizon)]
        mixes = np.array([(1 - t) * k.rows + t * k.codomain.weights for t in a])
        seq = fp.kernel_sequence(mixes, k.domain, k.codomain)
        metric, operators = fp.homeomorphism_reports(seq, k, TestStackReports.NORMS)
        for n, operator in zip(("1", "2", "3", "inf"), operators):
            agree = metric.converged == operator.converged
            kind = "oscillating" if oscillate else "interpolating"
            rows.append((idx, kind, n, metric.converged, operator.converged, agree))
    return tuple(rows)


@pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
@pytest.mark.parametrize("size, count, horizon", [(1, 7, 1), (2, 23, 5), (3, 13, 40), (4, 19, 33), (5, 3, 2)])
def test_homeo_audit_blocks_match_one_by_one(mode, size, count, horizon):
    # counts that leave a short last block, and blocks of one sequence
    cfg = ExperimentConfig("homeo-audit", seed=size + count, mode=mode, size=size, count=count, horizon=horizon)
    assert run_experiment(cfg).rows == _homeo_one_by_one(cfg)


class TestJointContinuity:
    def test_constant_sequences(self):
        l = fp.Kernel([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]], Q34, fp.make_space([F(5, 12), F(7, 12)], R))
        assert fp.composition_continuity_probe([HALF] * 4, [l] * 4) == 0

    def test_one_interpolating(self):
        other = _independent(HALF)
        seq_k = [_mix(HALF, other, F(1, 2) ** i) for i in range(1, 41)]
        l = fp.Kernel([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]], Q34, fp.make_space([F(5, 12), F(7, 12)], R))
        defect = fp.composition_continuity_probe(seq_k, [l] * 40, limit_k=HALF, limit_h=l)
        assert defect <= F(1, 2) ** 39

    def test_both_interpolating_long_horizon(self):
        other = _independent(HALF)
        seq_k = [_mix(HALF, other, F(1, n)) for n in range(1, 10_001)]
        l = fp.Kernel([[F(1, 3), F(2, 3)], [F(2, 3), F(1, 3)]], Q34, fp.make_space([F(5, 12), F(7, 12)], R))
        lind = _independent(l)
        seq_l = [_mix(l, lind, F(1, n)) for n in range(1, 10_001)]
        defect = fp.composition_continuity_probe(seq_k, seq_l, limit_k=HALF, limit_h=l)
        assert defect <= F(1, 1000)


class TestTwoSidedOperatorAgreement:
    def _verdicts(self, seq, limit):
        metric = fp.check_convergence(seq, limit, "two-sided")
        forward = fp.operator_pointwise_distances(seq, limit, 2)
        backward = fp.operator_pointwise_distances(
            [fp.bayes_inverse(k) for k in seq], fp.bayes_inverse(limit), 2
        )
        combined = [a + b for a, b in zip(forward, backward)]
        operator = fp.report_from_distances(combined, metric.tolerance)
        return metric.converged, operator.converged

    def test_stabilizing_idempotent_sequence(self):
        # two-sided convergence iff the L2 operators and their adjoints
        # converge pointwise; probed on idempotent sequences
        rng = rng_for(86)
        for _ in range(10):
            space = random_space(rng, 5, R, null_outcomes=1)
            fine = random_partition(rng, 5)
            coarse = fp.meet_partitions(fine, random_partition(rng, 5))
            e_fine = fp.cond_exp_kernel(space, fine).kernel
            e_coarse = fp.cond_exp_kernel(space, coarse).kernel
            seq = [e_coarse] * 2 + [e_fine] * 4
            m, o = self._verdicts(seq, e_fine)
            assert m and o

    def test_oscillating_idempotent_sequence(self):
        space = fp.make_space([F(1, 4), F(1, 4), F(1, 2)], R)
        e1 = fp.cond_exp_kernel(space, fp.Partition([(0, 1), (2,)], 3)).kernel
        e2 = fp.cond_exp_kernel(space, fp.Partition.trivial(3)).kernel
        seq = [e1 if i % 2 == 0 else e2 for i in range(10)]  # ends off the limit
        m, o = self._verdicts(seq, e1)
        assert not m and not o


class TestIdempotentLimits:
    def test_limit_of_idempotents_is_idempotent(self):
        rng = rng_for(84)
        space = random_space(rng, 6, R, null_outcomes=1)
        parts = [random_partition(rng, 6) for _ in range(3)]
        stabilized = [fp.cond_exp_kernel(space, p).kernel for p in parts] + [
            fp.cond_exp_kernel(space, parts[-1]).kernel
        ] * 3
        assert fp.is_idempotent(stabilized[-1])

    def test_closed_order(self):
        # e_n <= f_n for all n, both stabilize: the limits stay ordered
        rng = rng_for(85)
        for _ in range(10):
            space = random_space(rng, 6, R)
            fine = random_partition(rng, 6)
            coarse = fp.meet_partitions(fine, random_partition(rng, 6))
            e_seq = [fp.cond_exp_kernel(space, coarse)] * 4
            f_seq = [fp.cond_exp_kernel(space, fine)] * 4
            assert all(fp.idem_leq(e, f) for e, f in zip(e_seq, f_seq))
            assert fp.idem_leq(e_seq[-1], f_seq[-1])
