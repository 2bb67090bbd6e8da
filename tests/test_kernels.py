import math
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob.sampling import random_mp_kernel, random_mp_kernel_from, rng_for

from .oracles import bayes_all_pairs_exact, bayes_defect_exhaustive

R = fp.rational_mode()

U2 = fp.uniform_space(2, R)
Q34 = fp.make_space([F(3, 4), F(1, 4)], R)
HALF = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, Q34)


class TestConstruction:
    def test_row_sum_validation(self):
        with pytest.raises(fp.SumNotOneError):
            fp.Kernel([[F(1, 2), F(1, 4)], [0, 1]], U2, U2)

    def test_negative_entry(self):
        with pytest.raises(fp.NegativeWeightError):
            fp.Kernel([[F(3, 2), F(-1, 2)], [0, 1]], U2, U2)

    def test_float_entries_in_object_array_refused(self):
        rows = np.array([[0.5, 0.5]], dtype=object)
        with pytest.raises(fp.FinprobError, match="non-integral float 0.5"):
            fp.Kernel(rows, fp.point_space(R), U2)

    def test_object_array_converted_like_a_list(self):
        rows = [[1, 0.0]]
        from_list = fp.Kernel(rows, fp.point_space(R), U2).rows
        from_array = fp.Kernel(np.array(rows, dtype=object), fp.point_space(R), U2).rows
        assert [type(v) for v in from_array.flat] == [F, F]
        assert from_array.tolist() == from_list.tolist()

    def test_mode_mismatch(self):
        with pytest.raises(fp.SpaceMismatchError):
            fp.Kernel([[1.0, 0.0]], fp.uniform_space(1), U2)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_ragged_rows_are_size_errors(self, mode):
        space = fp.uniform_space(2, mode)
        with pytest.raises(fp.SizeMismatchError, match="row 1 has 1 entries, row 0 has 2"):
            fp.Kernel([[1, 0], [1]], space, space)


class TestKernelSequence:
    SPACE = fp.uniform_space(2)

    def stack(self, step=None, entry=None, value=None):
        rows = np.array([[[0.5, 0.5], [0.25, 0.75]]] * 4)
        if step is not None:
            rows[step][entry] = value
        return rows

    def test_slices_match_single_kernels(self):
        seq = fp.kernel_sequence(self.stack(), self.SPACE, self.SPACE)
        assert len(seq) == 4
        for k in seq:
            assert not k.rows.flags.writeable
            assert k.rows.tolist() == fp.Kernel(k.rows, self.SPACE, self.SPACE).rows.tolist()

    def test_rational_stack(self):
        rows = np.array([[[F(1), F(0)], [F(1, 2), F(1, 2)]]] * 3, dtype=object)
        seq = fp.kernel_sequence(rows, U2, Q34)
        assert all(fp.as_equal_kernels(k, HALF) for k in seq)
        assert [type(v) for v in seq[0].rows.flat] == [F] * 4

    @pytest.mark.parametrize(
        "value, error, message",
        [
            (math.nan, fp.NonFiniteError, "step 2, row 1, column 0 is nan"),
            (-0.25, fp.NegativeWeightError, "step 2, row 1, column 0 is negative"),
            (0.5, fp.SumNotOneError, "step 2, row 1 sums to 1.25"),
        ],
    )
    def test_bad_step_is_named(self, value, error, message):
        with pytest.raises(error, match=message):
            fp.kernel_sequence(self.stack(2, (1, 0), value), self.SPACE, self.SPACE)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_empty_stack(self, mode):
        space = fp.uniform_space(2, mode)
        stack = np.empty((0, 2, 2), dtype=object if mode.exact else np.float64)
        assert fp.kernel_sequence(stack, space, space) == []

    def test_shape_checked(self):
        with pytest.raises(fp.SizeMismatchError):
            fp.kernel_sequence(self.stack()[:, :1], self.SPACE, self.SPACE)


class TestCompose:
    def test_right_unit(self):
        assert fp.as_equal_kernels(fp.compose(HALF, fp.identity_kernel(Q34)), HALF)

    def test_left_unit(self):
        assert fp.as_equal_kernels(fp.compose(fp.identity_kernel(U2), HALF), HALF)

    def test_identity_matrix_example(self):
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        i = fp.identity_kernel(U2)
        assert fp.as_equal_kernels(fp.compose(k, i), k)

    def test_preserves_measure_preservation(self):
        rng = rng_for(11)
        for _ in range(25):
            k = random_mp_kernel(rng, 4, 3, R)
            l = random_mp_kernel_from(rng, k.codomain, 5)
            assert fp.is_measure_preserving(fp.compose(k, l))

    def test_associative_exact(self):
        rng = rng_for(12)
        for _ in range(20):
            k = random_mp_kernel(rng, 3, 4, R)
            l = random_mp_kernel_from(rng, k.codomain, 3)
            m = random_mp_kernel_from(rng, l.codomain, 2)
            left = fp.compose(fp.compose(k, l), m)
            right = fp.compose(k, fp.compose(l, m))
            assert [list(r) for r in left.rows] == [list(r) for r in right.rows]

    def test_associative_float_drift(self):
        rng = rng_for(13)
        for _ in range(20):
            k = random_mp_kernel(rng, 5, 4, fp.FLOAT_DEFAULT)
            l = random_mp_kernel_from(rng, k.codomain, 6)
            m = random_mp_kernel_from(rng, l.codomain, 3)
            left = fp.compose(fp.compose(k, l), m)
            right = fp.compose(k, fp.compose(l, m))
            assert np.max(np.abs(left.rows - right.rows)) <= 1e-9

    def test_middle_space_mismatch(self):
        with pytest.raises(fp.SpaceMismatchError):
            fp.compose(HALF, HALF)


class TestMeasurePreservation:
    def test_worked_example(self):
        assert fp.is_measure_preserving(HALF)

    def test_wrong_codomain_measure(self):
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        assert not fp.is_measure_preserving(k)

    def test_identity(self):
        assert fp.is_measure_preserving(fp.identity_kernel(Q34))


class TestAsEqual:
    def test_null_row_invisible(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        a = fp.Kernel([[1, 0, 0], [1, 0, 0], [0, 0, 1]], space, space)
        b = fp.Kernel([[1, 0, 0], [0, 0, 1], [0, 0, 1]], space, space)
        assert fp.as_equal_kernels(a, b)

    def test_supported_row_difference(self):
        a = fp.Kernel([[1, 0], [0, 1]], U2, U2)
        b = fp.Kernel([[0, 1], [0, 1]], U2, U2)
        assert not fp.as_equal_kernels(a, b)

    def test_canonicalize_is_as_neutral(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        k = fp.Kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], space, space)
        assert fp.as_equal_kernels(k, fp.canonicalize(k))


class TestCanonicalize:
    def test_null_row_becomes_codomain_weights(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        k = fp.Kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], space, space)
        out = fp.canonicalize(k)
        assert list(out.rows[1]) == [F(1, 2), F(0), F(1, 2)]

    def test_integer_array_in_float_mode(self):
        space = fp.make_space([0.5, 0.0, 0.5])
        out = fp.canonicalize(fp.Kernel(np.eye(3, dtype=int), space, space))
        assert out.rows.tolist() == [[1.0, 0.0, 0.0], [0.5, 0.0, 0.5], [0.0, 0.0, 1.0]]

    def test_full_support_unchanged(self):
        assert fp.canonicalize(HALF) is HALF

    def test_idempotent(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        k = fp.Kernel([[1, 0, 0], [0, 1, 0], [0, 0, 1]], space, space)
        once = fp.canonicalize(k)
        twice = fp.canonicalize(once)
        assert [list(r) for r in once.rows] == [list(r) for r in twice.rows]

    def test_requires_measure_preserving(self):
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        with pytest.raises(fp.NotMeasurePreservingError):
            fp.canonicalize(k)


class TestBayesInverse:
    def test_worked_example_and_defining_equation(self):
        kinv = fp.bayes_inverse(HALF)
        assert [list(r) for r in kinv.rows] == [[F(2, 3), F(1, 3)], [F(0), F(1)]]
        assert fp.is_measure_preserving(kinv)
        assert bayes_defect_exhaustive(HALF, kinv) == 0

    def test_identity_is_self_inverse(self):
        i = fp.identity_kernel(Q34)
        assert fp.as_equal_kernels(fp.bayes_inverse(i), i)

    def test_involution(self):
        assert fp.as_equal_kernels(fp.bayes_inverse(fp.bayes_inverse(HALF)), HALF)

    def test_defining_equation_random_exact(self):
        rng = rng_for(21)
        for _ in range(15):
            k = random_mp_kernel(rng, 4, 4, R, null_rows=1)
            assert bayes_defect_exhaustive(k, fp.bayes_inverse(k)) == 0

    def test_defining_equation_exhaustive_up_to_size_10(self):
        rng = rng_for(23)
        for nd, nc in [(10, 4), (4, 10), (8, 8), (10, 10)]:
            k = random_mp_kernel(rng, nd, nc, R, null_rows=1)
            assert bayes_all_pairs_exact(k, fp.bayes_inverse(k))

    def test_contravariance_under_composition(self):
        rng = rng_for(22)
        for _ in range(15):
            k = random_mp_kernel(rng, 3, 4, R)
            l = random_mp_kernel_from(rng, k.codomain, 3)
            lhs = fp.bayes_inverse(fp.compose(k, l))
            rhs = fp.compose(fp.bayes_inverse(l), fp.bayes_inverse(k))
            assert fp.as_equal_kernels(lhs, rhs)

    def test_permutation_inverse_is_bayes_inverse(self):
        space = fp.make_space([F(1, 6), F(1, 3), F(1, 2)], R)
        perm = [2, 0, 1]
        target = fp.make_space([space.weights[i] for i in np.argsort(perm)], R)
        k = fp.deterministic_from_function(perm, space, target)
        inverse = fp.deterministic_from_function(list(np.argsort(perm)), target, space)
        assert fp.as_equal_kernels(fp.bayes_inverse(k), inverse)

    def test_requires_measure_preserving(self):
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        with pytest.raises(fp.NotMeasurePreservingError):
            fp.bayes_inverse(k)


class TestDeterministicFromFunction:
    def test_identity_map(self):
        k = fp.deterministic_from_function([0, 1], U2, U2)
        assert fp.as_equal_kernels(k, fp.identity_kernel(U2))

    def test_block_collapse(self):
        u4 = fp.uniform_space(4, R)
        k = fp.deterministic_from_function([0, 0, 1, 1], u4, U2)
        assert [list(r) for r in k.rows] == [[1, 0], [1, 0], [0, 1], [0, 1]]

    def test_non_measure_preserving_rejected(self):
        u4 = fp.uniform_space(4, R)
        with pytest.raises(fp.NotMeasurePreservingError):
            fp.deterministic_from_function([0, 0, 0, 1], u4, U2)


class TestCoarseningKernel:
    def test_uniform_four_blocks(self):
        u4 = fp.uniform_space(4, R)
        quotient, pi, pi_dag = fp.coarsening_kernel(u4, fp.Partition([(0, 1), (2, 3)], 4))
        assert list(quotient.weights) == [F(1, 2), F(1, 2)]
        assert [list(r) for r in pi_dag.rows] == [
            [F(1, 2), F(1, 2), 0, 0],
            [0, 0, F(1, 2), F(1, 2)],
        ]

    def test_discrete_partition_gives_identity(self):
        u4 = fp.uniform_space(4, R)
        quotient, pi, _ = fp.coarsening_kernel(u4, fp.Partition.discrete(4))
        assert quotient.same_as(u4)
        assert fp.as_equal_kernels(pi, fp.identity_kernel(u4))

    def test_trivial_partition_single_row(self):
        u4 = fp.uniform_space(4, R)
        quotient, _, pi_dag = fp.coarsening_kernel(u4, fp.Partition.trivial(4))
        assert quotient.size == 1
        assert list(pi_dag.rows[0]) == [F(1, 4)] * 4


class TestAsDeterministic:
    def test_function_kernels_deterministic(self):
        u4 = fp.uniform_space(4, R)
        k = fp.deterministic_from_function([0, 0, 1, 1], u4, U2)
        assert fp.is_as_deterministic(k)

    def test_spreading_kernel_not_deterministic(self):
        # explicit roundtrip: k_inv o k = [[5/6,1/6],[1/2,1/2]] != id
        kinv = fp.bayes_inverse(HALF)
        roundtrip = fp.compose(kinv, HALF)
        assert [list(r) for r in roundtrip.rows] == [
            [F(5, 6), F(1, 6)],
            [F(1, 2), F(1, 2)],
        ]
        assert not fp.is_as_deterministic(HALF)

    def test_identity_deterministic(self):
        assert fp.is_as_deterministic(fp.identity_kernel(Q34))


class TestCoupling:
    def test_identity_diagonal(self):
        c = fp.coupling_from_kernel(fp.identity_kernel(U2))
        assert [list(r) for r in c.table] == [[F(1, 2), 0], [0, F(1, 2)]]

    def test_worked_table(self):
        c = fp.coupling_from_kernel(HALF)
        assert [list(r) for r in c.table] == [[F(1, 2), 0], [F(1, 4), F(1, 4)]]

    def test_roundtrip_on_random_kernels(self):
        rng = rng_for(31)
        for i in range(100):
            mode = R if i % 2 else fp.FLOAT_DEFAULT
            k = random_mp_kernel(rng, 4, 3, mode, null_rows=i % 3 == 0)
            back = fp.kernel_from_coupling(fp.coupling_from_kernel(k))
            assert fp.as_equal_kernels(back, k)

    def test_marginal_validation(self):
        with pytest.raises(fp.NotMeasurePreservingError):
            fp.Coupling([[F(1, 2), 0], [0, F(1, 2)]], U2, Q34)


def test_kernel_from_measure_is_expectation_row():
    k = fp.kernel_from_measure(Q34)
    assert k.domain.size == 1
    assert list(k.rows[0]) == [F(3, 4), F(1, 4)]
    assert fp.is_measure_preserving(k)
