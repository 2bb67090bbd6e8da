import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finprob as fp
from finprob import serialize
from finprob.kernels import _checked_marginals
from finprob.numerics import Rationals
from finprob.sampling import random_space, rng_for
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

    def test_weight_total_past_int64_is_reported(self):
        # such a total used to wrap around to -9223372036854775808
        text = "space\nmode rational\nweights 4611686018427387904 4611686018427387904\n"
        for build in (
            lambda: fp.ProbSpace([2**62, 2**62], R),
            lambda: fp.make_space([2**62, 2**62], R),
            lambda: serialize.loads_space(text),
        ):
            with pytest.raises(fp.SumNotOneError, match="^weights sum to 9223372036854775808, deviation 9223372036854775807$"):
                build()
        # a kernel row of the same entries already reported its true sum
        u2 = fp.uniform_space(2, R)
        with pytest.raises(fp.SumNotOneError, match="^row 0 sums to 9223372036854775808$"):
            fp.Kernel([[2**62, 2**62], [0, 1]], u2, u2)
        # such weights, beyond int64 one by one, used to end in a TypeError
        with pytest.raises(fp.SumNotOneError, match=f"^weights sum to {10**400 + 1}, "):
            fp.ProbSpace([10**400, 1], R)

    def test_total_past_int64_over_mixed_denominators_is_reported(self):
        # The numerators add up within int64 but not over their common
        # denominator 4: there the total 4 * (2**62 + 1) wrapped around to
        # 4, which passed as a total of one.
        a = 1537228672809129301
        weights = [a, a, a + 1, F(1, 4), F(3, 4)]
        total = f"^weights sum to {2**62 + 1}, deviation {2**62}$"
        with pytest.raises(fp.SumNotOneError, match=total):
            fp.ProbSpace(weights, R)
        with pytest.raises(fp.SumNotOneError, match=total):
            serialize.loads_space("space\nmode rational\nweights " + " ".join(map(str, weights)) + "\n")
        u2, u5 = fp.uniform_space(2, R), fp.uniform_space(5, R)
        with pytest.raises(fp.SumNotOneError, match=f"^row 0 sums to {2**62 + 1}$"):
            fp.Kernel([weights, [0, 0, 0, 0, 1]], u2, u5)
        # the same numbers handed in as int64 `Rationals`
        handed = Rationals(np.array([a, a, a + 1, 1, 3]), np.array([1, 1, 1, 4, 4]))
        with pytest.raises(fp.SumNotOneError, match=total):
            fp.ProbSpace(handed, R)
        rows = Rationals(np.array([[a, a, a + 1, 1, 3], [0, 0, 0, 0, 1]]), np.array([[1, 1, 1, 4, 4], [1] * 5]))
        with pytest.raises(fp.SumNotOneError, match=f"^row 0 sums to {2**62 + 1}$"):
            fp.Kernel(rows, u2, u5)

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_negative_size(self, mode):
        # np.ones(-1) used to raise numpy's ValueError
        with pytest.raises(fp.SizeMismatchError, match="space size must be nonnegative, got -1"):
            fp.uniform_space(-1, mode)


class TestOneConstructor:
    """A float space takes its weights from a list, from float `Rationals`
    or from integer numerators over denominators, divided once."""

    FLOAT = fp.FLOAT_DEFAULT

    @pytest.mark.parametrize(
        "nums, dens",
        [([1, 2, 1], [4, 4, 4]), ([2, 4, 2], [8, 8, 8]), ([1, 1, 1], [4, 2, 4]), ([1, 1, 1], [3, 3, 3]),
         ([2, 2, 2], [6, 6, 6]), ([3, 0, 7], [10, 1, 10]), ([6, 0, 14], [20, 20, 20])],
        ids=["quarters", "not-lowest", "mixed-dens", "thirds", "thirds-not-lowest", "null", "null-not-lowest"],
    )
    def test_float_forms_agree(self, nums, dens):
        listed = [n / d for n, d in zip(nums, dens)]
        spaces = [
            fp.ProbSpace(listed, self.FLOAT),
            fp.ProbSpace(np.array(listed), self.FLOAT),
            fp.ProbSpace(Rationals.over(np.array(listed), 1), self.FLOAT),
            fp.ProbSpace(Rationals.from_ints(nums, dens), self.FLOAT),
            fp.ProbSpace(Rationals(np.array(nums), np.array(dens)), self.FLOAT),
        ]
        for space in spaces:
            num, den = space.int_weights()
            assert space == spaces[0] and hash(space) == hash(spaces[0])
            assert num is space.weights and den == 1 and num.dtype == np.float64
            assert not num.flags.writeable and num.tobytes() == np.array(listed).tobytes()
            assert space.support == spaces[0].support

    @pytest.mark.parametrize("seed", range(12))
    def test_random_space_divides_its_draws_once(self, seed):
        size, nulls = 1 + seed % 7, seed % 3 if seed % 7 > 2 else 0
        rng = rng_for(seed)
        while True:  # the draws of `random_space`, one after another
            raw = rng.integers(1, 10, size=size)
            raw[rng.permutation(size)[:nulls]] = 0
            if raw.sum() > 0:
                break
        space = random_space(rng_for(seed), size, self.FLOAT, nulls)
        assert space.weights.tobytes() == (raw / raw.sum()).tobytes()

    def test_uniform_space_weights(self):
        for n in range(1, 65):
            assert fp.uniform_space(n).weights.tobytes() == np.array([1.0 / n] * n).tobytes()
            assert fp.uniform_space(n, R).weights.tolist() == [F(1, n)] * n

    def test_float_numerators_are_frozen_in_place(self):
        num = np.array([0.25, 0.75])
        space = fp.ProbSpace(Rationals.over(num, 1), self.FLOAT)
        assert space.weights is num and not num.flags.writeable


class TestWeightStacks:
    """The `ProbSpace` checks on a stack of weight vectors name the vector."""

    LEAD = ("sequence",)

    def test_float_stack(self):
        mode, ones = fp.FLOAT_DEFAULT, np.ones(2, dtype=np.int64)  # float weights are over 1
        _checked_weights(np.array([[0.5, 0.5], [0.25, 0.75]]), ones, mode, self.LEAD)
        with pytest.raises(fp.NegativeWeightError, match="sequence 1, weight 0 is negative: -0.5"):
            _checked_weights(np.array([[0.5, 0.5], [-0.5, 1.5]]), ones, mode, self.LEAD)
        with pytest.raises(fp.SumNotOneError, match="sequence 1: weights sum to 1.1"):
            _checked_weights(np.array([[0.5, 0.5], [0.5, 0.6]]), ones, mode, self.LEAD)
        with pytest.raises(fp.NonFiniteError, match="sequence 1, weight 1 is inf"):
            _checked_weights(np.array([[0.5, 0.5], [0.5, math.inf]]), ones, mode, self.LEAD)

    def test_rational_stack(self):
        num, den = np.array([[1, 2], [1, 1], [3, 1]]), np.array([3, 2, 3])
        with pytest.raises(fp.SumNotOneError, match="sequence 2: weights sum to 4/3, deviation 1/3"):
            _checked_weights(num, den, R, self.LEAD)
        with pytest.raises(fp.SumNotOneError, match="sequence 0: weights have empty support"):
            _checked_weights(np.zeros((1, 2), dtype=np.int64), np.array([0]), R, self.LEAD)

    def test_coupling_marginals(self):
        table = np.array([[[0.25, 0.25], [0.25, 0.25]]] * 2)
        p = q = (np.full((2, 2), 0.5), 1)
        _checked_marginals(table, 1, p, q, fp.FLOAT_DEFAULT, self.LEAD)
        with pytest.raises(fp.NotMeasurePreservingError, match="column marginals of sequence 1 differ from q"):
            _checked_marginals(table, 1, p, (np.array([[0.5, 0.5], [0.4, 0.6]]), 1), fp.FLOAT_DEFAULT, self.LEAD)

    def test_coupling_marginals_over_denominators(self):
        # numerators over 8 against weights over 2 and over 4
        table = np.array([[[2, 2], [2, 2]], [[4, 0], [2, 2]]])
        p, q = (np.array([[1, 1], [1, 1]]), 2), (np.array([[2, 2], [3, 1]]), 4)
        _checked_marginals(table, 8, p, q, R, self.LEAD)
        with pytest.raises(fp.NotMeasurePreservingError, match="^row marginals of sequence 1 differ from p$"):
            _checked_marginals(table, 8, (np.array([[2, 2], [1, 3]]), 4), q, R, self.LEAD)


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

    def test_root_index_past_the_float_exponent_range(self):
        for value, n, expected in [(F(2) ** 5999, 2000, 2 ** (5999 / 2000)), (F(1, 3) ** 5000, 1500, 3 ** (-5000 / 1500))]:
            assert math.isclose(fp.nth_root(value, n, R), expected, rel_tol=1e-12)

    def test_root_beyond_float_range(self):
        with pytest.raises(fp.TooLargeError):
            fp.nth_root(F(10**700 + 1), 2, R)

    def test_ordinary_roots_unchanged(self):
        assert fp.nth_root(F(2), 2, R) == 2**0.5
        assert fp.nth_root(F(27, 8), 3, R) == F(3, 2)
        assert fp.nth_root(F(7, 3), 3, R) == (7 / 3) ** (1.0 / 3)


class TestFloatModeRoots:
    def test_rational_past_the_float_range(self):
        # float(Fraction(10**400)) used to raise OverflowError
        for value in (F(10**400), 10**400):
            root = fp.nth_root(value, 3, fp.FLOAT_DEFAULT)
            assert isinstance(root, float) and math.isclose(root, 10 ** (400 / 3), rel_tol=1e-12)
        with pytest.raises(fp.TooLargeError):
            fp.nth_root(F(10**400), 1, fp.FLOAT_DEFAULT)

    def test_ordinary_values_unchanged(self):
        for value in (F(7, 3), 5, 2.5, F(0), 0):
            assert fp.nth_root(value, 3, fp.FLOAT_DEFAULT) == float(value) ** (1.0 / 3)
        with pytest.raises(fp.FinprobError, match="negative"):
            fp.nth_root(F(-1, 2), 2, fp.FLOAT_DEFAULT)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_random_var_rejects(self, bad):
        with pytest.raises(fp.NonFiniteError):
            fp.RandomVar([bad, 1.0], fp.uniform_space(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_vector_random_var_rejects(self, bad):
        # a NaN used to flow into the vector norm and come back as nan
        with pytest.raises(fp.NonFiniteError, match="outcome 1, component 0"):
            fp.VecRandomVar([[0.0, 1.0], [bad, 1.0]], fp.uniform_space(2), 2)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_space_rejects(self, bad):
        # a NaN weight used to surface as "weights sum to nan, deviation nan"
        with pytest.raises(fp.NonFiniteError, match=f"weight 0 is {bad}"):
            fp.make_space([bad, 1.0])
        with pytest.raises(fp.NonFiniteError, match=f"weight 1 is {bad}"):
            serialize.loads(f"space\nmode float 1e-9\nweights 0 {bad}\n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_float_kernel_rejects(self, bad):
        # a NaN entry used to surface as "row 0 sums to nan"
        space = fp.uniform_space(2)
        with pytest.raises(fp.NonFiniteError, match="row 0, column 1"):
            fp.Kernel([[1.0, bad], [0.0, 1.0]], space, space)


    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-9])
    def test_float_mode_tolerance_must_be_finite_and_positive(self, bad):
        # an infinite tolerance used to make every float check pass
        with pytest.raises(fp.FinprobError, match="finite tolerance > 0"):
            fp.float_mode(bad)


MODES = pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])


class TestOutsideInput:
    @MODES
    def test_callable_value_norm_must_be_finite_and_nonnegative(self, mode):
        # such a norm used to give a negative or nan "norm"
        g = fp.VecRandomVar([[1, 2], [3, 4]], fp.uniform_space(2, mode))
        with pytest.raises(fp.FinprobError, match="^value norm at outcome 0 is -1$") as info:
            fp.ln_norm(g, 1, lambda r: -1)
        assert type(info.value) is fp.FinprobError
        for bad in (math.nan, math.inf):
            with pytest.raises(fp.NonFiniteError, match=f"^value norm at outcome 1 is {bad}$"):
                fp.ln_norm(g, 1, lambda r: 1.0 if r[0] == 1 else bad)
        # outcomes are named in the space, past a null one
        nulled = fp.VecRandomVar([[1, 2], [3, 4], [5, 6]], fp.make_space([0, mode.one() / 2, mode.one() / 2], mode))
        with pytest.raises(fp.FinprobError, match="^value norm at outcome 2 is -0.5$"):
            fp.ln_norm(nulled, 2, lambda r: 1 if r[0] == 3 else -0.5)
        assert fp.ln_norm(nulled, 1, lambda r: 2 * abs(r[0])) == 8

    @MODES
    def test_indicator_outcome_outside_the_space(self, mode):
        # such an outcome used to be dropped silently, giving all zeros
        space = fp.uniform_space(2, mode)
        for bad in (5, 2, -1, 1.0, True):
            with pytest.raises(fp.SizeMismatchError, match=f"^indicator outcome {bad!r} is not one of 0..1$"):
                fp.indicator(space, [0, bad])
        assert list(fp.indicator(space, [1, 1]).values) == [0, 1]
        assert list(fp.indicator(space, []).values) == [0, 0]


UNREADABLE = {
    "kernel-strings": lambda s: fp.Kernel([["a", "b"], [1, 0]], s, s),
    "nested-weights": lambda s: fp.make_space([[0.5], [0.5]], s.mode),
    "nested-stack": lambda s: fp.kernel_sequence([[[1, 0], [0, 1]]], s, s),
    "zero-denominator": lambda s: fp.make_space(["1/0", "1"], s.mode),
    "huge-int": lambda s: fp.RandomVar([10**400, 1], s),
}


@pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_number_is_a_finprob_error(mode, name):
    # such input used to raise a bare ValueError, TypeError or ZeroDivisionError
    space = fp.uniform_space(2, mode)
    try:
        UNREADABLE[name](space)
    except Exception as exc:
        assert isinstance(exc, fp.FinprobError), f"{type(exc).__name__}: {exc}"
    else:
        assert mode.exact and name == "huge-int"  # an integer is a rational


class TestAsVector:
    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_caller_arrays_are_copied(self, mode):
        space = fp.uniform_space(2, mode)
        weights = np.array([F(1), F(0)], dtype=object) if mode.exact else np.array([1.0, 0.0])
        table, stack = np.array([[1, 0], [0, 1]]), np.array([[[1, 0], [0, 1]]])
        fp.ProbSpace(weights, mode)
        fp.RandomVar(weights, space)
        fp.RandomVar(table, space)
        fp.Kernel(table, space, space)
        fp.kernel_sequence(stack, space, space)
        joint = table * F(1, 2)
        fp.Coupling(joint, space, space)
        assert all(a.flags.writeable for a in (weights, table, stack, joint))

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
        assert fp.as_equal_rv(g, h)


class TestImmutability:
    def test_rational_data_frozen(self):
        space = fp.make_space([F(1, 2), F(1, 3), F(1, 6)], R)
        f = fp.RandomVar([F(1, 2), F(2, 3), F(3, 4)], space)
        mean = fp.expectation(f)
        # writing a denominator used to change the mean from 43/72 to 391/504
        for array in (f.data.num, f.data.den):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 7
        for name in ("num", "den"):
            with pytest.raises(AttributeError, match="Rationals is immutable"):
                setattr(f.data, name, np.ones(3, dtype=np.int64))
        assert fp.expectation(f) == mean

    def test_rationals_adopt_and_freeze_their_arrays(self):
        num, den = np.array([1, 2]), np.array([3, 3])
        data = Rationals(num, den)
        assert data.num is num and data.den is den
        assert not num.flags.writeable and not den.flags.writeable

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
