import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finprob as fp
from finprob.kernels import _checked_marginals
from finprob.spaces import _checked_weights

R = fp.rational_mode()


class TestMakeSpace:
    def test_two_point_uniform(self):
        s = fp.make_space([0.5, 0.5])
        assert s.size == 2
        assert s.support == (0, 1)

    def test_three_point_with_null_middle(self):
        s = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        assert s.support == (0, 2)
        assert s.is_null(1)

    def test_sum_not_one_reports_deviation(self):
        with pytest.raises(fp.SumNotOneError):
            fp.make_space([0.5, 0.6])

    def test_negative_weight_rejected(self):
        with pytest.raises(fp.NegativeWeightError):
            fp.make_space([1.5, -0.5])

    def test_weights_not_renormalized(self):
        with pytest.raises(fp.SumNotOneError):
            fp.make_space([F(1, 2), F(1, 2), F(1, 2)], R)

    def test_empty_support_rejected(self):
        with pytest.raises(fp.FinprobError):
            fp.make_space([])


class TestWeightStacks:
    """The `ProbSpace` checks on a stack of weight vectors name the vector."""

    LEAD = ("sequence",)

    def test_float_stack(self):
        mode = fp.FLOAT_DEFAULT
        _checked_weights(np.array([[0.5, 0.5], [0.25, 0.75]]), None, mode, self.LEAD)
        with pytest.raises(fp.NegativeWeightError, match="sequence 1, weight 0 is negative: -0.5"):
            _checked_weights(np.array([[0.5, 0.5], [-0.5, 1.5]]), None, mode, self.LEAD)
        with pytest.raises(fp.SumNotOneError, match="sequence 1: weights sum to 1.1"):
            _checked_weights(np.array([[0.5, 0.5], [0.5, 0.6]]), None, mode, self.LEAD)

    def test_rational_stack(self):
        num, den = np.array([[1, 2], [1, 1], [3, 1]]), np.array([3, 2, 3])
        with pytest.raises(fp.SumNotOneError, match="sequence 2: weights sum to 4/3, deviation 1/3"):
            _checked_weights(num, den, R, self.LEAD)
        with pytest.raises(fp.SumNotOneError, match="sequence 0: weights have empty support"):
            _checked_weights(np.zeros((1, 2), dtype=np.int64), np.array([0]), R, self.LEAD)

    def test_coupling_marginals(self):
        table = np.array([[[0.25, 0.25], [0.25, 0.25]]] * 2)
        p = q = np.full((2, 2), 0.5)
        _checked_marginals(table, p, q, fp.FLOAT_DEFAULT, self.LEAD)
        with pytest.raises(fp.NotMeasurePreservingError, match="column marginals of sequence 1 differ from q"):
            _checked_marginals(table, p, np.array([[0.5, 0.5], [0.4, 0.6]]), fp.FLOAT_DEFAULT, self.LEAD)


class TestAsEqualRv:
    def setup_method(self):
        self.space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)

    def test_differ_only_off_support(self):
        f = fp.RandomVar([1, 7, 3], self.space)
        g = fp.RandomVar([1, 9, 3], self.space)
        assert fp.as_equal_rv(f, g)

    def test_differ_on_support(self):
        f = fp.RandomVar([1, 7, 3], self.space)
        g = fp.RandomVar([2, 7, 3], self.space)
        assert not fp.as_equal_rv(f, g)

    def test_reflexive(self):
        f = fp.RandomVar([1, 7, 3], self.space)
        assert fp.as_equal_rv(f, f)

    def test_space_mismatch(self):
        f = fp.RandomVar([1, 7, 3], self.space)
        g = fp.RandomVar([1, 2], fp.uniform_space(2, R))
        with pytest.raises(fp.SpaceMismatchError):
            fp.as_equal_rv(f, g)


class TestLnNorm:
    def test_weighted_mean(self):
        f = fp.RandomVar([1, 2, 3, 4], fp.uniform_space(4, R))
        assert fp.ln_norm(f, 1) == F(5, 2)

    def test_ess_sup_ignores_null(self):
        f = fp.RandomVar([2, 5], fp.make_space([F(1), F(0)], R))
        assert fp.ln_norm(f, math.inf) == 2

    @pytest.mark.parametrize("n", [1, 2, 3, math.inf])
    def test_zero(self, n):
        f = fp.constant_rv(fp.uniform_space(3, R), 0)
        assert fp.ln_norm(f, n) == 0

    def test_exact_when_root_is_rational(self):
        space = fp.make_space([F(1, 2), F(1, 2)], R)
        f = fp.RandomVar([F(3), F(5)], space)
        # (9 + 25)/2 = 17: irrational root comes back as a float
        assert isinstance(fp.ln_norm(f, 2), float)
        g = fp.RandomVar([F(5), F(5)], space)
        assert fp.ln_norm(g, 2) == F(5)

    def test_bad_index(self):
        f = fp.constant_rv(fp.uniform_space(2, R), 1)
        with pytest.raises(fp.FinprobError):
            fp.ln_norm(f, 0)


class TestNthRoot:
    def test_huge_exact_square(self):
        assert fp.nth_root(F(10**400), 2, R) == F(10**200)

    def test_huge_exact_cube(self):
        assert fp.nth_root(F(3**900, 7**600), 3, R) == F(3**300, 7**200)

    def test_huge_non_square_falls_back_to_float(self):
        root = fp.nth_root(F(10**400 + 1), 2, R)
        assert isinstance(root, float) and math.isclose(root, 1e200, rel_tol=1e-12)
        tiny = fp.nth_root(F(3, 10**400), 2, R)
        assert math.isclose(tiny, math.sqrt(3) * 1e-200, rel_tol=1e-12)

    def test_root_beyond_float_range(self):
        with pytest.raises(fp.TooLargeError):
            fp.nth_root(F(10**700 + 1), 2, R)

    def test_ordinary_roots_unchanged(self):
        assert fp.nth_root(F(2), 2, R) == 2**0.5
        assert fp.nth_root(F(27, 8), 3, R) == F(3, 2)
        assert fp.nth_root(F(7, 3), 3, R) == (7 / 3) ** (1.0 / 3)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_random_var_rejects(self, bad):
        with pytest.raises(fp.NonFiniteError):
            fp.RandomVar([bad, 1.0], fp.uniform_space(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_vector_random_var_rejects(self, bad):
        # a NaN used to flow into bochner_norm and come back as nan
        with pytest.raises(fp.NonFiniteError, match="outcome 1, component 0"):
            fp.VecRandomVar([[0.0, 1.0], [bad, 1.0]], fp.uniform_space(2), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_kernel_rejects(self, bad):
        # a NaN entry used to surface as "row 0 sums to nan"
        space = fp.uniform_space(2)
        with pytest.raises(fp.NonFiniteError, match="row 0, column 1"):
            fp.Kernel([[1.0, bad], [0.0, 1.0]], space, space)


class TestAsVector:
    def test_float_entries_in_object_array_refused(self):
        # such an array used to be kept as it was, then fail on `.numerator`
        values = np.array([0.5, 0.25], dtype=object)
        with pytest.raises(fp.FinprobError, match="non-integral float 0.5"):
            fp.RandomVar(values, fp.uniform_space(2, R))

    def test_object_array_converted_like_a_list(self):
        values = [F(1, 2), 1, 2.0]
        from_array = fp.RandomVar(np.array(values, dtype=object), fp.uniform_space(3, R))
        assert [type(v) for v in from_array.values] == [F, F, F]
        assert list(from_array.values) == list(fp.RandomVar(values, fp.uniform_space(3, R)).values)


@st.composite
def float_rvs(draw, size=4):
    vals = draw(
        st.lists(
            st.floats(min_value=-20, max_value=20, allow_nan=False),
            min_size=size,
            max_size=size,
        )
    )
    return fp.RandomVar(vals, fp.uniform_space(size))


class TestNormProperties:
    @given(float_rvs())
    def test_monotone_in_index(self, f):
        norms = [fp.ln_norm(f, n) for n in (1, 2, 3, math.inf)]
        for a, b in zip(norms, norms[1:]):
            assert a <= b + 1e-9

    @given(float_rvs(), float_rvs())
    def test_zero_norm_iff_as_equal(self, f, g):
        assert (fp.ln_norm(f - g, 1) <= 1e-12) == fp.as_equal_rv(
            fp.RandomVar(list(f.values), f.space), g
        ) or fp.ln_norm(f - g, 1) <= 4 * 1e-9

    def test_zero_norm_iff_as_equal_exact(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        f = fp.RandomVar([1, 5, 2], space)
        g = fp.RandomVar([1, 6, 2], space)
        h = fp.RandomVar([1, 5, 3], space)
        assert fp.ln_norm(f - g, 1) == 0 and fp.as_equal_rv(f, g)
        assert fp.ln_norm(f - h, 1) != 0 and not fp.as_equal_rv(f, h)

    @given(float_rvs(), float_rvs(), float_rvs())
    def test_equivalence_relation(self, f, g, h):
        assert fp.as_equal_rv(f, f)
        if fp.as_equal_rv(f, g):
            assert fp.as_equal_rv(g, f)
        if fp.as_equal_rv(f, g) and fp.as_equal_rv(g, h):
            # float tolerance chains at most double; equality within 2 tol
            assert all(
                abs(f.values[i] - h.values[i]) <= 2e-9 for i in f.space.support
            )


class TestVecRandomVar:
    def test_component_projection(self):
        space = fp.uniform_space(2, R)
        g = fp.VecRandomVar([[1, 0], [0, 2]], space)
        assert list(g.component(0).values) == [1, 0]
        assert list(g.component(1).values) == [0, 2]

    def test_dim_validation(self):
        space = fp.uniform_space(2, R)
        with pytest.raises(fp.FinprobError):
            fp.VecRandomVar([[1, 0], [0]], space)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_malformed_rows_are_dimension_errors(self, mode):
        space = fp.uniform_space(3, mode)
        with pytest.raises(fp.DimMismatchError, match="outcome 2 has 1 components, expected 2"):
            fp.VecRandomVar([[1, 0], [0, 1], [0]], space)
        with pytest.raises(fp.DimMismatchError, match="outcome 0 has 2 components, expected 3"):
            fp.VecRandomVar([[1, 0], [0, 1], [0, 1]], space, 3)
        with pytest.raises(fp.DimMismatchError, match="at least one component"):
            fp.VecRandomVar([[], [], []], space)

    def test_as_equal_vec(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        g = fp.VecRandomVar([[1, 2], [9, 9], [3, 4]], space)
        h = fp.VecRandomVar([[1, 2], [0, 0], [3, 4]], space)
        assert fp.as_equal_vec_rv(g, h)


class TestImmutability:
    def test_space_frozen(self):
        s = fp.uniform_space(2)
        with pytest.raises(AttributeError):
            s.weights = None
        with pytest.raises(ValueError):
            s.weights[0] = 0.3

    def test_rv_frozen(self):
        f = fp.constant_rv(fp.uniform_space(2), 1)
        with pytest.raises(ValueError):
            f.values[0] = 5.0
