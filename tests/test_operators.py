import math
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob.sampling import (
    random_mp_kernel,
    random_partition,
    random_rv,
    random_space,
    random_vec_rv,
    rng_for,
)

from .oracles import bochner_norm_by_outcome, cond_expectation_by_definition, verify_cond_exp_defining

R = fp.rational_mode()

U2 = fp.uniform_space(2, R)
U4 = fp.uniform_space(4, R)
Q34 = fp.make_space([F(3, 4), F(1, 4)], R)
HALF = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, Q34)
BLOCKS = fp.Partition([(0, 1), (2, 3)], 4)


class TestApplyPullback:
    def test_measure_kernel_gives_expectation(self):
        k = fp.kernel_from_measure(Q34)
        g = fp.RandomVar([4, 8], Q34)
        pulled = fp.apply_pullback(k, g)
        assert list(pulled.values) == [F(3, 4) * 4 + F(1, 4) * 8]
        assert pulled.values[0] == fp.expectation(g)

    def test_function_kernel_is_precomposition(self):
        f_map = [0, 0, 1, 1]
        k = fp.deterministic_from_function(f_map, U4, U2)
        g = fp.RandomVar([10, 20], U2)
        pulled = fp.apply_pullback(k, g)
        assert list(pulled.values) == [g.values[f_map[x]] for x in range(4)]

    def test_identity(self):
        g = fp.RandomVar([3, 1, 4, 1], U4)
        assert fp.as_equal_rv(fp.apply_pullback(fp.identity_kernel(U4), g), g)

    def test_space_mismatch(self):
        g = fp.RandomVar([1, 2, 3, 4], U4)
        with pytest.raises(fp.SpaceMismatchError):
            fp.apply_pullback(HALF, g)

    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_exact_equals_fraction_product(self, n):
        """The integer product equals the row-by-row Fraction sums, on int64
        kernels and (at n = 32, a 34-digit denominator) Python-int kernels,
        and on values whose numerators outgrow int64."""
        rng = rng_for(5)
        k = random_mp_kernel(rng, n, n, R, null_rows=n // 4)
        if n == 32:
            assert k.num.dtype == object
        big = [F(10**30 + y, 7 + y) for y in range(n)]
        for g in (random_rv(rng, k.codomain), fp.RandomVar(big, k.codomain)):
            pulled = fp.apply_pullback(k, g)
            expected = [sum(k.rows[x][y] * g.values[y] for y in range(n)) for x in range(n)]
            assert list(pulled.values) == expected


class TestCondExpectation:
    def test_block_average(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        out = fp.cond_expectation(f, BLOCKS)
        assert list(out.values) == [F(3, 2), F(3, 2), F(7, 2), F(7, 2)]

    def test_trivial_gives_global_mean(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        out = fp.cond_expectation(f, fp.Partition.trivial(4))
        assert list(out.values) == [F(5, 2)] * 4

    def test_discrete_is_identity(self):
        f = fp.RandomVar([1, 2, 3, 4], U4)
        assert fp.as_equal_rv(fp.cond_expectation(f, fp.Partition.discrete(4)), f)

    def test_null_block_gets_global_mean(self):
        space = fp.make_space([F(1, 2), F(0), F(1, 2)], R)
        f = fp.RandomVar([1, 99, 3], space)
        out = fp.cond_expectation(f, fp.Partition([(0,), (1,), (2,)], 3))
        assert out.values[1] == F(2)

    def test_defining_property_on_random_instances(self):
        rng = rng_for(60)
        for _ in range(40):
            size = int(rng.integers(2, 9))
            mode = R if size % 2 else fp.FLOAT_DEFAULT
            space = random_space(rng, size, mode, null_outcomes=int(rng.integers(0, 2)))
            p = random_partition(rng, size)
            f = random_rv(rng, space)
            g = fp.cond_expectation(f, p)
            assert verify_cond_exp_defining(f, g, p)
            assert fp.measurable_wrt(g, p)

    def test_matches_idempotent_pullback_on_support(self):
        """Both modes, weighted spaces with and without null outcomes, and
        partitions whose blocks hold 8 or more outcomes."""
        rng = rng_for(61)
        for trial in range(40):
            mode = R if trial % 2 else fp.FLOAT_DEFAULT
            size = 6 if trial < 20 else int(rng.integers(16, 33))
            space = random_space(rng, size, mode, null_outcomes=int(rng.integers(0, 3)))
            if size == 6:
                p = random_partition(rng, size)
            else:  # two blocks, each of 8 or more outcomes in all but rare draws
                p = fp.Partition.from_labels(rng.integers(0, 2, size=size).tolist())
            f = random_rv(rng, space)
            via_kernel = fp.apply_pullback(fp.cond_exp_kernel(space, p).kernel, f)
            assert fp.as_equal_rv(via_kernel, fp.cond_expectation(f, p))

    def test_float_support_bits_match_definition_and_completion(self):
        """Float mode, on the support: the result equals the sequential-sum
        definition bit for bit, and conditioning on the null-set completion
        changes no bit of it, whatever the block sizes."""
        rng = rng_for(64)
        for trial in range(40):
            size = int(rng.integers(4, 40))
            # fully supported only with at most 3 blocks, so never discrete
            nulls = 0 if trial % 4 == 1 else int(rng.integers(1, size))
            space = random_space(rng, size, fp.FLOAT_DEFAULT, null_outcomes=nulls)
            n_labels = int(rng.integers(1, 4)) if trial % 2 else size
            p = fp.Partition.from_labels(rng.integers(0, n_labels, size=size).tolist())
            f = random_rv(rng, space)
            live = space.live_index()
            plain = fp.cond_expectation(f, p).values[live]
            completed = fp.cond_expectation(f, fp.complete_partition(p, space)).values[live]
            expected = cond_expectation_by_definition(list(space.weights), list(f.values), p.blocks)
            assert plain.tobytes() == np.array(expected)[live].tobytes()
            assert plain.tobytes() == completed.tobytes()

    def test_tower_property(self):
        rng = rng_for(62)
        for _ in range(20):
            size = int(rng.integers(3, 8))
            space = random_space(rng, size, R)
            fine = random_partition(rng, size)
            coarse = fp.meet_partitions(fine, random_partition(rng, size))
            f = random_rv(rng, space)
            towered = fp.cond_expectation(fp.cond_expectation(f, fine), coarse)
            assert fp.as_equal_rv(towered, fp.cond_expectation(f, coarse))


class TestInnerProduct:
    def test_normalization(self):
        one = fp.constant_rv(U4, 1)
        assert fp.inner_product(one, one) == 1

    @pytest.mark.parametrize("mode", [R, fp.FLOAT_DEFAULT], ids=["rational", "float"])
    def test_vector_values_pair_by_their_dot_product(self, mode):
        space = fp.uniform_space(2, mode)
        g = fp.VecRandomVar([[1, 2], [3, 4]], space)
        assert fp.inner_product(g, g) == 15  # (1 + 4 + 9 + 16) / 2
        assert fp.inner_product(g, fp.VecRandomVar([[1, 0], [0, 1]], space)) == F(5, 2)
        with pytest.raises(fp.DimMismatchError):
            fp.inner_product(g, fp.VecRandomVar([[1], [2]], space))

    def test_disjoint_indicators_orthogonal(self):
        a = fp.indicator(U4, [0, 1])
        b = fp.indicator(U4, [2, 3])
        assert fp.inner_product(a, b) == 0

    def test_half_mass_indicator(self):
        a = fp.indicator(U2, [0])
        assert fp.inner_product(a, a) == F(1, 2)


class TestAdjointness:
    def test_worked_example(self):
        f = fp.indicator(U2, [0])
        g = fp.indicator(Q34, [0])
        assert fp.inner_product(f, fp.apply_pullback(HALF, g)) == F(1, 2)
        kinv = fp.bayes_inverse(HALF)
        assert fp.inner_product(fp.apply_pullback(kinv, f), g) == F(1, 2)
        assert fp.adjointness_defect(HALF, f, g) == 0

    def test_identity_kernel(self):
        f = fp.RandomVar([2, 3], U2)
        g = fp.RandomVar([5, 7], U2)
        assert fp.adjointness_defect(fp.identity_kernel(U2), f, g) == 0

    def test_random_triples(self):
        rng = rng_for(63)
        for _ in range(60):
            k = random_mp_kernel(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)), fp.FLOAT_DEFAULT)
            f = random_rv(rng, k.domain)
            g = random_rv(rng, k.codomain)
            assert fp.adjointness_defect(k, f, g) < 1e-9

    def test_projector_self_adjoint(self):
        rng = rng_for(64)
        space = random_space(rng, 6, R, null_outcomes=1)
        e = fp.cond_exp_kernel(space, random_partition(rng, 6)).kernel
        for _ in range(10):
            f, g = random_rv(rng, space), random_rv(rng, space)
            lhs = fp.inner_product(fp.apply_pullback(e, f), g)
            rhs = fp.inner_product(f, fp.apply_pullback(e, g))
            assert lhs == rhs


class TestLipschitz:
    def test_constant_preserved(self):
        g = fp.constant_rv(Q34, 5)
        for n in (1, 2, 3, math.inf):
            pulled = fp.apply_pullback(HALF, g)
            assert fp.ln_norm(pulled, n) == fp.ln_norm(g, n)
            assert fp.lipschitz_check(HALF, g, n)

    def test_function_kernels_isometric(self):
        u4 = fp.uniform_space(4, R)
        k = fp.deterministic_from_function([0, 0, 1, 1], u4, U2)
        rng = rng_for(65)
        for n in (1, 2, 3, math.inf):
            g = random_rv(rng, U2)
            assert fp.ln_norm(fp.apply_pullback(k, g), n) == fp.ln_norm(g, n)

    def test_random_contraction(self):
        rng = rng_for(66)
        for _ in range(100):
            k = random_mp_kernel(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)), fp.FLOAT_DEFAULT)
            g = random_rv(rng, k.codomain)
            n = [1, 2, 3, math.inf][int(rng.integers(0, 4))]
            assert fp.lipschitz_check(k, g, n)


class TestFunctoriality:
    def test_contravariant_composition_exact(self):
        rng = rng_for(67)
        from finprob.sampling import random_mp_kernel_from

        for _ in range(15):
            k = random_mp_kernel(rng, 3, 4, R)
            l = random_mp_kernel_from(rng, k.codomain, 3)
            g = random_rv(rng, l.codomain)
            via_composite = fp.apply_pullback(fp.compose(k, l), g)
            via_stages = fp.apply_pullback(k, fp.apply_pullback(l, g))
            assert list(via_composite.values) == list(via_stages.values)

    def test_faithful_on_indicators(self):
        rng = rng_for(68)
        for size in range(2, 9):
            k = random_mp_kernel(rng, size, size, R, null_rows=1)
            h = fp.canonicalize(k)
            # a.s.-equal pair: pullbacks agree on every indicator
            for mask in range(1 << size):
                ind = fp.indicator(k.codomain, [y for y in range(size) if mask >> y & 1])
                assert fp.as_equal_rv(fp.apply_pullback(k, ind), fp.apply_pullback(h, ind))
            # distinct pair: some indicator separates them
            q = list(k.codomain.weights)
            other = fp.Kernel([q] * size, k.domain, k.codomain)
            if fp.as_equal_kernels(k, other):
                continue
            separated = any(
                not fp.as_equal_rv(
                    fp.apply_pullback(k, fp.indicator(k.codomain, [y])),
                    fp.apply_pullback(other, fp.indicator(k.codomain, [y])),
                )
                for y in range(size)
            )
            assert separated


class TestVectorPullback:
    def test_dim_one_reduces_to_scalar(self):
        g = fp.VecRandomVar([[3], [5]], Q34)
        pulled = fp.apply_pullback(HALF, g)
        scalar = fp.apply_pullback(HALF, g.component(0))
        assert list(pulled.component(0).values) == list(scalar.values)

    def test_identity(self):
        g = fp.VecRandomVar([[1, 2], [3, 4]], U2)
        out = fp.apply_pullback(fp.identity_kernel(U2), g)
        assert fp.as_equal_rv(out, g)

    def test_worked_example(self):
        k = fp.Kernel([[1, 0], [F(1, 2), F(1, 2)]], U2, U2)
        g = fp.VecRandomVar([[1, 0], [0, 2]], U2)
        out = fp.apply_pullback(k, g)
        assert [list(r) for r in out.values] == [[1, 0], [F(1, 2), 1]]

    def test_commutes_with_coordinate_projections(self):
        rng = rng_for(69)
        for _ in range(20):
            k = random_mp_kernel(rng, 4, 5, fp.FLOAT_DEFAULT)
            g = random_vec_rv(rng, k.codomain, 3)
            pulled = fp.apply_pullback(k, g)
            for j in range(3):
                assert fp.as_equal_rv(
                    pulled.component(j), fp.apply_pullback(k, g.component(j))
                )

    def test_lipschitz_for_bochner_norms(self):
        rng = rng_for(70)
        for _ in range(40):
            k = random_mp_kernel(rng, 4, 4, fp.FLOAT_DEFAULT)
            g = random_vec_rv(rng, k.codomain, 3)
            for n in (1, 2, math.inf):
                for vnorm in ("euclidean", "max", "sum"):
                    lhs = fp.ln_norm(fp.apply_pullback(k, g), n, vnorm)
                    assert lhs <= fp.ln_norm(g, n, vnorm) + 1e-9


    @pytest.mark.parametrize("n", [1, 4, 16, 32])
    def test_exact_matches_fraction_product(self, n):
        # at n = 32 the kernel's denominator, and with the 10**20 scale the
        # values' denominator, leave int64: the product runs on Python ints
        rng = rng_for(72 + n)
        k = random_mp_kernel(rng, n, n, R)
        assert (k.num.dtype == object) == (n == 32)
        for scale in (1, 10**20):
            nums, dens = rng.integers(-9, 10, size=(n, 3)).tolist(), rng.integers(1, 7, size=(n, 3)).tolist()
            values = [[F(a, b * scale) for a, b in zip(*row)] for row in zip(nums, dens)]
            g = fp.VecRandomVar(values, k.codomain, 3)
            rows = k.rows
            expected = [[sum(rows[x][y] * values[y][j] for y in range(n)) for j in range(3)] for x in range(n)]
            assert [list(row) for row in fp.apply_pullback(k, g).values] == expected


class TestBochnerNorm:
    def test_constant_vector(self):
        g = fp.VecRandomVar([[3, 4], [3, 4]], U2)
        for n in (1, 2, 3, math.inf):
            assert fp.ln_norm(g, n) == 5

    def test_dim_one_equals_scalar_norm(self):
        g = fp.VecRandomVar([[-3], [5]], Q34)
        for n in (1, 2, math.inf):
            assert fp.ln_norm(g, n) == fp.ln_norm(g.component(0), n)

    def test_worked_example(self):
        g = fp.VecRandomVar([[3, 4], [0, 0]], U2)
        assert fp.ln_norm(g, 1) == F(5, 2)

    def test_norm_selectors(self):
        g = fp.VecRandomVar([[3, -4], [0, 0]], U2)
        assert fp.ln_norm(g, 1, "max") == 2
        assert fp.ln_norm(g, 1, "sum") == F(7, 2)
        assert fp.ln_norm(g, 1, lambda v: 2 * abs(v[0])) == 3

    def test_rational_norm_is_exact_when_the_root_is_rational(self):
        # E|g|^2 = 9 and 1: a root of the exact sum of squares, not a power of per-outcome float roots
        for rows, expected in (([[0, 0], [3, 3]], 3), ([[0, 0], [1, 1]], 1)):
            norm = fp.ln_norm(fp.VecRandomVar(rows, U2), 2)
            assert type(norm) is F and norm == expected

    def test_every_small_rational_instance_matches_the_reference(self):
        # all 2x2 instances with entries 0..7: exact exactly when the reference is
        exact = 0
        for entries in np.ndindex(8, 8, 8, 8):
            g = fp.VecRandomVar([entries[:2], entries[2:]], U2)
            for n in (2, 4, math.inf):
                expected = bochner_norm_by_outcome(g, n)
                norm = fp.ln_norm(g, n)
                assert type(norm) is type(expected) and norm == expected
                exact += n == 2 and type(norm) is F
        assert exact == 181  # the instances whose E|g|^2 is a rational square

    def test_odd_norm_beyond_the_float_range(self):
        # sums of squares over 10**400: the per-outcome roots cannot go through one float division
        g = fp.VecRandomVar([[F(1, 10**200), F(1, 10**200)]], fp.point_space(R))
        assert math.isclose(fp.ln_norm(g, 1), 2**0.5 * 1e-200, rel_tol=1e-12)
        assert fp.ln_norm(g, 2) == fp.nth_root(F(2, 10**400), 2, R)

    def test_norm_monotone_in_index(self):
        rng = rng_for(71)
        for _ in range(30):
            space = random_space(rng, 5, fp.FLOAT_DEFAULT)
            g = random_vec_rv(rng, space, 2)
            norms = [fp.ln_norm(g, n) for n in (1, 2, 3, math.inf)]
            for a, b in zip(norms, norms[1:]):
                assert a <= b + 1e-9
