"""Whole-array kernel operations against entry-by-entry definitions.

Random exact kernels of sizes 1-12, with and without null domain rows and
null codomain columns, are checked in rational mode (exact equality) and
through their float image (bit equality where the arithmetic is the same
per entry, 1e-15 where a sum's order may differ). Both images must also
reach the same verdicts.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

import finprob as fp
from finprob.experiments import _slide_block
from finprob.numerics import fraction_array
from finprob import sampling
from finprob.idempotents import _conditioning
from finprob.sampling import random_mp_kernel, random_mp_kernel_from, random_mp_stack, random_partition, random_space, rng_for

from .oracles import (
    as_equal_by_rows,
    bayes_inverse_by_definition,
    canonicalize_by_definition,
    compose_by_definition,
    cond_exp_kernel_by_definition,
    coupling_roundtrip_by_definition,
    float_bayes_inverse_rows,
    float_canonical_rows,
    float_conditioning_rows,
    float_kernel_from_coupling_rows,
    float_mp_kernel_from_rows,
    float_mp_stack_rows,
    galois_roundtrips_by_kernels,
    idem_leq_by_definition,
    invariant_blocks_union_find,
    kernel_block,
    mix_weights,
    one_sided_distance_by_definition,
    operator_distances_by_definition,
    random_mp_kernel_by_fractions,
    random_mp_kernel_from_by_fractions,
)

R = fp.rational_mode()
FL = fp.FLOAT_DEFAULT
SIZES = range(1, 13)
DISTANCE_TOL = 1e-15


def _stochastic(rng, n):
    raw = rng.integers(1, 5, size=n)
    return [F(int(v), int(raw.sum())) for v in raw]


def exact_instance(rng, nrows, ncols, nulls):
    """Measure-preserving exact kernel from a random integer joint table.

    With `nulls`, about a quarter of the rows and columns of the table are
    zeroed, so both spaces can have null outcomes; null rows of the kernel
    get arbitrary stochastic rows.
    """
    table = rng.integers(0, 6, size=(nrows, ncols))
    if nulls:
        table[rng.random(nrows) < 0.25] = 0
        table[:, rng.random(ncols) < 0.25] = 0
    if table.sum() == 0:
        table[rng.integers(nrows), rng.integers(ncols)] = 1
    total = int(table.sum())
    p = [F(int(s), total) for s in table.sum(axis=1)]
    q = [F(int(s), total) for s in table.sum(axis=0)]
    rows = [
        [F(int(v), int(row.sum())) for v in row] if row.sum() else _stochastic(rng, ncols)
        for row in table
    ]
    return fp.Kernel(rows, fp.make_space(p, R), fp.make_space(q, R))


def float_image(k):
    """The same kernel with every number converted to the nearest double."""
    dom = fp.make_space([float(w) for w in k.domain.weights], FL)
    cod = fp.make_space([float(w) for w in k.codomain.weights], FL)
    return fp.Kernel([[float(v) for v in row] for row in k.rows], dom, cod)


def instances(seed, endo=False):
    """(rational kernel, its float image) pairs over every size, with and
    without null outcomes. An endo-kernel keeps the rows and takes the
    domain as its codomain too; it need not be measure-preserving."""
    rng = rng_for(seed)
    out = []
    for nulls in (False, True):
        for n in SIZES:
            k = exact_instance(rng, n, n if endo else int(rng.integers(1, 13)), nulls)
            if endo:
                k = fp.Kernel(k.rows, k.domain, k.domain)
            out.append((k, float_image(k)))
    return out


def bits(rows):
    return np.array([[float(v) for v in row] for row in rows]).view(np.int64)


def same_entries(actual, expected, exact):
    if exact:
        return [list(r) for r in actual] == [list(r) for r in expected]
    return np.array_equal(bits(actual), bits(expected))


def parallel_sequence(rng, k):
    """Kernels with k's domain and codomain: k itself, k canonicalized,
    slides towards the independent kernel and one arbitrary stochastic
    kernel (not measure-preserving)."""
    q = k.codomain.weights
    seq = [k, fp.canonicalize(k)]
    for a in (F(1), F(1, 2), F(1, 8)):
        seq.append(fp.Kernel((1 - a) * k.rows + a * q, k.domain, k.codomain))
    free = [_stochastic(rng, k.codomain.size) for _ in range(k.domain.size)]
    seq.append(fp.Kernel(free, k.domain, k.codomain))
    return seq


def to_float(k, like):
    return fp.Kernel([[float(v) for v in row] for row in k.rows], like.domain, like.codomain)


class TestAgainstDefinition:
    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_bayes_inverse(self, exact):
        for k_exact, k_float in instances(1):
            k = k_exact if exact else k_float
            inv = fp.bayes_inverse(k)
            assert same_entries(inv.rows, bayes_inverse_by_definition(k), exact)

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_canonicalize(self, exact):
        for k_exact, k_float in instances(2):
            k = k_exact if exact else k_float
            assert same_entries(fp.canonicalize(k).rows, canonicalize_by_definition(k), exact)

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_coupling_roundtrip(self, exact):
        for k_exact, k_float in instances(3):
            k = k_exact if exact else k_float
            back = fp.kernel_from_coupling(fp.coupling_from_kernel(k))
            assert same_entries(back.rows, coupling_roundtrip_by_definition(k), exact)

    def test_one_sided_distance(self):
        rng = rng_for(4)
        for k_exact, k_float in instances(4):
            seq = parallel_sequence(rng, k_exact)
            for h in seq:
                expected = one_sided_distance_by_definition(h, k_exact)
                assert fp.one_sided_distance(h, k_exact) == expected
                h_float = to_float(h, k_float)
                got = fp.one_sided_distance(h_float, k_float)
                assert abs(got - one_sided_distance_by_definition(h_float, k_float)) <= DISTANCE_TOL
                assert (got == 0) == (expected == 0)

    def test_check_convergence_step_by_step(self):
        # the one-sided distances of a whole sequence come from one stacked
        # difference; each step must still match the pair definition
        rng = rng_for(8)
        for k_exact, k_float in instances(8):
            seq = parallel_sequence(rng, k_exact)
            got = fp.check_convergence(seq, k_exact).step_distances
            assert list(got) == [one_sided_distance_by_definition(h, k_exact) for h in seq]
            seq_float = [to_float(h, k_float) for h in seq]
            got_float = fp.check_convergence(seq_float, k_float).step_distances
            expected = [one_sided_distance_by_definition(h, k_float) for h in seq_float]
            assert np.abs(np.subtract(got_float, expected)).max() <= DISTANCE_TOL

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_slide_sequence_rows(self, exact):
        # the stacked builder performs the pair form's operations per entry
        for k_exact, k_float in instances(9):
            k = k_exact if exact else k_float
            one, zero = k.mode.one(), k.mode.zero()
            a = [one / 2**i if exact else 0.5**i for i in range(6)] + [one, zero]
            limit, _, q = kernel_block([k])
            data, dens = _slide_block(k.mode, limit, q, mix_weights([a], exact))
            steps = [fraction_array(num, den) for num, den in zip(data[0], dens[0])] if exact else data[0]
            assert len(steps) == len(a)
            for step, t in zip(steps, a):
                assert same_entries(step, (1 - t) * k.rows + t * k.codomain.weights, exact)

    @pytest.mark.parametrize("n", [1, 2, 3, math.inf])
    def test_operator_pointwise_distances(self, n):
        # Codomains of 7-10 outcomes are left out only to keep the exact
        # subset enumeration short; beyond 10 the singletons are used.
        rng = rng_for(5)
        for k_exact, k_float in instances(5):
            if 7 <= k_exact.codomain.size <= 10:
                continue
            seq = parallel_sequence(rng, k_exact)
            expected = operator_distances_by_definition(
                seq, k_exact, n, lambda t, m: fp.nth_root(t, m, R)
            )
            got = fp.operator_pointwise_distances(seq, k_exact, n)
            assert got == expected
            seq_float = [to_float(h, k_float) for h in seq]
            got_float = fp.operator_pointwise_distances(seq_float, k_float, n)
            expected_float = operator_distances_by_definition(
                seq_float, k_float, n, lambda t, m: t ** (1.0 / m)
            )
            assert np.abs(np.subtract(got_float, expected_float)).max() <= DISTANCE_TOL
            assert [d == 0 for d in got_float] == [d == 0 for d in got]

    @pytest.mark.parametrize("exact", [True, False], ids=["rational", "float"])
    def test_invariant_partition_of_any_relation(self, exact):
        # The components are a graph property, so any endo-kernel serves.
        for k_exact, k_float in instances(6, endo=True):
            e = fp.IdempotentKernel(k_exact if exact else k_float, validate=False)
            expected = fp.Partition(invariant_blocks_union_find(e), e.space.size)
            assert fp.invariant_partition(e) == expected

    def test_invariant_partition_of_idempotents(self):
        rng = rng_for(7)
        for k_exact, k_float in instances(7, endo=True):
            part = random_partition(rng, k_exact.domain.size)
            e = fp.cond_exp_kernel(k_exact.domain, part)
            e_float = fp.cond_exp_kernel(k_float.domain, part)
            expected = fp.Partition(invariant_blocks_union_find(e), e.space.size)
            assert fp.invariant_partition(e) == expected
            assert fp.invariant_partition(e_float) == expected


class TestSameVerdicts:
    def test_kernel_verdicts_agree_across_modes(self):
        rng = rng_for(8)
        for k_exact, k_float in instances(8):
            for k in (k_exact, k_float):
                assert fp.as_equal_kernels(fp.canonicalize(k), k)
                assert fp.as_equal_kernels(fp.bayes_inverse(fp.bayes_inverse(k)), k)
            assert fp.is_as_deterministic(k_exact) == fp.is_as_deterministic(k_float)
            h = parallel_sequence(rng, k_exact)[-1]
            assert fp.as_equal_kernels(h, k_exact) == fp.as_equal_kernels(
                to_float(h, k_float), k_float
            )

    def test_deterministic_kernels_agree_across_modes(self):
        rng = rng_for(9)
        for k_exact, k_float in instances(9):
            space_exact, space_float = k_exact.domain, k_float.domain
            part = random_partition(rng, space_exact.size)
            _, pi, _ = fp.coarsening_kernel(space_exact, part)
            _, pi_float, _ = fp.coarsening_kernel(space_float, part)
            assert fp.is_as_deterministic(pi) and fp.is_as_deterministic(pi_float)
            assert same_entries(pi_float.rows, pi.rows, exact=False)

    def test_constructions_agree_across_modes(self):
        # identity, measure, composite and outcome-map kernels: the float
        # image of the rational construction, and the same verdicts
        rng = rng_for(10)
        for k_exact, k_float in instances(10):
            pairs = [
                (fp.identity_kernel(k_exact.domain), fp.identity_kernel(k_float.domain)),
                (fp.kernel_from_measure(k_exact.codomain), fp.kernel_from_measure(k_float.codomain)),
                (fp.compose(fp.identity_kernel(k_exact.domain), k_exact), fp.compose(fp.identity_kernel(k_float.domain), k_float)),
            ]
            for exact, flt in pairs:
                assert same_entries(flt.rows, exact.rows, exact=False)
                assert fp.is_measure_preserving(exact) and fp.is_measure_preserving(flt)
            roundtrip = fp.compose(k_exact, fp.bayes_inverse(k_exact))
            roundtrip_float = fp.compose(k_float, fp.bayes_inverse(k_float))
            assert np.abs(roundtrip_float.rows - roundtrip.rows.astype(float)).max() <= DISTANCE_TOL
            assert fp.is_measure_preserving(roundtrip) and fp.is_measure_preserving(roundtrip_float)
            n, m = k_exact.domain.size, k_exact.codomain.size
            for f in (list(range(n)), rng.integers(0, m, size=n).tolist()):
                codomains = (k_exact.domain, k_float.domain) if f == list(range(n)) else (k_exact.codomain, k_float.codomain)
                verdicts = []
                for domain, codomain in zip((k_exact.domain, k_float.domain), codomains):
                    try:
                        verdicts.append(fp.deterministic_from_function(f, domain, codomain).rows.tolist())
                    except fp.NotMeasurePreservingError:
                        verdicts.append("not measure-preserving")
                assert verdicts[0] == verdicts[1]

    def test_measure_preservation_agrees_across_modes(self):
        rng = rng_for(11)
        failures = 0
        for k_exact, k_float in instances(11):
            free = parallel_sequence(rng, k_exact)[-1]  # arbitrary stochastic rows
            verdict = fp.is_measure_preserving(free)
            assert verdict == fp.is_measure_preserving(to_float(free, k_float))
            failures += not verdict
        assert failures > len(SIZES)  # most such kernels do not preserve the measure


class TestKernelErrorWitness:
    def test_non_finite_names_row_and_column(self):
        u2 = fp.uniform_space(2)
        with pytest.raises(fp.NonFiniteError, match="row 1, column 0 is nan"):
            fp.Kernel([[0.5, 0.5], [math.nan, 1.0]], u2, u2)

    @pytest.mark.parametrize("mode", [R, FL], ids=["rational", "float"])
    def test_negative_entry_names_row_and_column(self, mode):
        u3 = fp.uniform_space(3, mode)
        rows = [[1, 0, 0], [F(1, 2), F(3, 4), F(-1, 4)], [F(-1, 2), F(3, 2), 0]]
        if not mode.exact:
            rows = [[float(v) for v in row] for row in rows]
        with pytest.raises(fp.NegativeWeightError, match="row 1, column 2 is negative"):
            fp.Kernel(rows, u3, u3)

    @pytest.mark.parametrize("mode", [R, FL], ids=["rational", "float"])
    def test_bad_row_sum_names_first_row(self, mode):
        u3 = fp.uniform_space(3, mode)
        rows = [[1, 0, 0], [F(1, 2), F(1, 4), 0], [F(1, 2), 0, 0]]
        if not mode.exact:
            rows = [[float(v) for v in row] for row in rows]
        expected = "row 1 sums to 3/4" if mode.exact else "row 1 sums to 0.75"
        with pytest.raises(fp.SumNotOneError, match=expected):
            fp.Kernel(rows, u3, u3)


def coprime_space(p, q):
    """Four outcomes, one null, with weights over the coprime denominators p and q."""
    return fp.make_space([F(1, p), F(1, q), 1 - F(1, p) - F(1, q), F(0)], R)


class TestPythonIntPath:
    """Weights over large coprime denominators. With p, q near 1e6 the
    weight denominator p*q fits int64 but a product of two kernel
    denominators does not; near 1e10 the denominators themselves do not."""

    SPACES = [coprime_space(1_000_003, 999_983), coprime_space(10**10 + 19, 10**10 + 33)]

    @pytest.mark.parametrize("space", SPACES, ids=["products-widen", "held-as-objects"])
    def test_kernel_operations_against_fractions(self, space):
        rng = rng_for(12)
        k = random_mp_kernel_from(rng, space, 3)
        l = random_mp_kernel_from(rng, k.codomain, 4)
        parts = list(fp.all_partitions(space.size))
        e = fp.cond_exp_kernel(space, parts[5]).kernel
        assert e.den**2 * space.size > 2**63
        composite = fp.compose(k, l)
        assert composite.rows.tolist() == compose_by_definition(k, l)
        assert fp.compose(e, e).rows.tolist() == compose_by_definition(e, e)
        inverse = fp.bayes_inverse(k)
        assert inverse.rows.tolist() == bayes_inverse_by_definition(k)
        for a, b in [(k, k), (k, fp.canonicalize(k)), (e, fp.identity_kernel(space))]:
            assert fp.as_equal_kernels(a, b) == as_equal_by_rows(space, a.rows, b.rows)
        assert fp.as_equal_kernels(fp.bayes_inverse(inverse), k)

    @pytest.mark.parametrize("space", SPACES, ids=["products-widen", "held-as-objects"])
    def test_order_and_audit_against_fractions(self, space):
        idems = [fp.cond_exp_kernel(space, p) for p in fp.all_partitions(space.size)]
        for e1 in idems:
            for e2 in idems:
                assert fp.idem_leq(e1, e2) == idem_leq_by_definition(e1, e2)
        report = fp.galois_roundtrips(space)
        assert report.all_ok and report == galois_roundtrips_by_kernels(space)


class TestIntegerSampling:
    """The sampled rational kernels equal those built entry by entry from
    Fractions, out of the same draws in the same order."""

    DOMAINS = [fp.uniform_space(1, R), fp.uniform_space(5, R), fp.make_space([F(1, 2), F(0), F(1, 3), F(1, 6)], R)]

    def test_random_mp_kernel(self):
        for seed in range(20):
            nrows, ncols = 1 + seed % 7, 1 + seed % 5
            nulls = min(seed % 3, nrows - 1)
            rng, ref = rng_for(seed), rng_for(seed)
            k = random_mp_kernel(rng, nrows, ncols, R, null_rows=nulls)
            expected = random_mp_kernel_by_fractions(ref, nrows, ncols, nulls)
            assert k.domain == expected.domain and k.codomain == expected.codomain
            assert k.rows.tolist() == expected.rows.tolist()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mode", [R, FL], ids=["rational", "float"])
    def test_random_mp_stack_is_a_loop_of_random_mp_kernel(self, mode):
        # the same kernels and spaces, bit for bit, and the same RNG state after
        for seed, (count, nrows, ncols, nulls) in enumerate(
            [(1, 1, 1, 0), (5, 3, 4, 1), (13, 4, 4, 0), (7, 6, 2, 3), (3, 12, 12, 0), (2, 33, 20, 5)]
        ):
            rng, ref = rng_for(seed), rng_for(seed)
            (data, den), (p, pden), (q, qden) = random_mp_stack(rng, count, nrows, ncols, mode, nulls)
            if not mode.exact:  # float rows and weights over denominators of 1
                assert den.tolist() == pden.tolist() == qden.tolist() == [1] * count
            for s in range(count):
                k = random_mp_kernel(ref, nrows, ncols, mode, nulls)
                assert (data[s].tolist(), int(den[s])) == (k.num.tolist(), k.den)
                assert (p[s].tolist(), int(pden[s])) == (k.domain.int_weights()[0].tolist(), k.domain.int_weights()[1])
                assert (q[s].tolist(), int(qden[s])) == (k.codomain.int_weights()[0].tolist(), k.codomain.int_weights()[1])
                if not mode.exact:
                    assert data[s].tolist() == k.rows.tolist()
                    assert p[s].tolist() == k.domain.weights.tolist()
                    assert q[s].tolist() == k.codomain.weights.tolist()
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("mode", [R, FL], ids=["rational", "float"])
    def test_random_mp_stack_error_names_the_sequence(self, mode, monkeypatch):
        tables = iter([np.ones((3, 2), dtype=np.int64)] * 2 + [np.array([[-2, -2], [1, 4], [3, 3]])])
        monkeypatch.setattr(sampling, "random_joint_table", lambda *args: next(tables))
        with pytest.raises(fp.NegativeWeightError, match="sequence 2, weight 0 is negative"):
            random_mp_stack(rng_for(0), 3, 3, 2, mode)

    def test_rational_stack_checks_its_marginals(self, monkeypatch):
        # the second table's row weights, swapped, are still weights but no
        # longer its row marginals
        lowest = sampling._lowest

        def swapped(num, den):
            num, den = lowest(num, den)
            num = num.copy()
            num[1, [0, 1]] = num[1, [1, 0]]
            return num, den

        tables = iter([np.ones((3, 2), dtype=np.int64), np.array([[1, 0], [2, 3], [0, 1]])])
        monkeypatch.setattr(sampling, "random_joint_table", lambda *args: next(tables))
        monkeypatch.setattr(sampling, "_lowest", swapped)
        with pytest.raises(fp.NotMeasurePreservingError, match="row marginals of sequence 1 differ from p"):
            random_mp_stack(rng_for(0), 2, 3, 2, R)

    @pytest.mark.parametrize("mode", [R, FL], ids=["rational", "float"])
    def test_all_rows_null_is_refused(self, mode):
        for nulls in (2, 3):
            with pytest.raises(ValueError, match="at least one outcome must carry mass"):
                random_mp_kernel(rng_for(0), 2, 3, mode, null_rows=nulls)
            with pytest.raises(ValueError, match="at least one outcome must carry mass"):
                random_space(rng_for(0), 2, mode, null_outcomes=nulls)

    def test_random_mp_kernel_from(self):
        for seed in range(20):
            domain, ncols = self.DOMAINS[seed % 3], 1 + seed % 5
            rng, ref = rng_for(seed), rng_for(seed)
            k = random_mp_kernel_from(rng, domain, ncols)
            expected = random_mp_kernel_from_by_fractions(ref, domain, ncols)
            assert k.codomain == expected.codomain
            assert k.rows.tolist() == expected.rows.tolist()
            assert rng.bit_generator.state == ref.bit_generator.state


class TestOneDisintegration:
    """The six row conditionings (the dagger, conditioning on a coupling's
    first marginal, canonical null rows, the conditioning kernels of
    partitions and the two samplers) on instances with null rows: float
    rows bit for bit those of the float expression each wrote before they
    shared one body, rational rows those of the Fraction definitions."""

    SEEDS = range(50, 56)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dagger_coupling_and_canonical_rows(self, seed):
        for k_exact, k_float in instances(seed):
            c = fp.coupling_from_kernel(k_float)
            for got, expected in [
                (fp.bayes_inverse(k_float), float_bayes_inverse_rows(k_float)),
                (fp.kernel_from_coupling(c), float_kernel_from_coupling_rows(c)),
                (fp.canonicalize(k_float), float_canonical_rows(k_float)),
            ]:
                assert got.num.flags.c_contiguous and got.num.tobytes() == expected.tobytes()
            assert fp.bayes_inverse(k_exact).rows.tolist() == bayes_inverse_by_definition(k_exact)
            back = fp.kernel_from_coupling(fp.coupling_from_kernel(k_exact))
            assert back.rows.tolist() == coupling_roundtrip_by_definition(k_exact)
            assert fp.canonicalize(k_exact).rows.tolist() == canonicalize_by_definition(k_exact)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conditioning_kernels_of_partitions(self, seed):
        rng = rng_for(seed)
        for size in (1, 2, 5, 9, 14):
            parts = [random_partition(rng, size) for _ in range(7)]
            for mode in (R, FL):
                space = random_space(rng, size, mode, null_outcomes=int(rng.integers(0, size)))
                kernels = _conditioning(space, parts)
                if mode.exact:
                    for k, p in zip(kernels, parts):
                        assert k.rows.tolist() == cond_exp_kernel_by_definition(list(space.weights), p.blocks)
                else:
                    got = np.stack([k.num for k in kernels])
                    assert got.tobytes() == float_conditioning_rows(space, parts).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_kernels(self, seed):
        count, nrows, ncols = 4, 2 + seed % 5, 1 + seed % 4
        nulls = 1 + seed % (nrows - 1) if nrows > 2 else 1
        rng, ref = rng_for(seed), rng_for(seed)
        (data, _), _, _ = random_mp_stack(rng, count, nrows, ncols, FL, nulls)
        assert data.tobytes() == float_mp_stack_rows(ref, count, nrows, ncols, nulls).tobytes()
        domain = random_space(rng, nrows, FL, null_outcomes=nulls)
        random_space(ref, nrows, FL, null_outcomes=nulls)
        k = random_mp_kernel_from(rng, domain, ncols)
        assert k.num.tobytes() == float_mp_kernel_from_rows(ref, domain, ncols).tobytes()
        (data, den), _, _ = random_mp_stack(rng, count, nrows, ncols, R, nulls)
        for s in range(count):
            expected = random_mp_kernel_by_fractions(ref, nrows, ncols, nulls)
            assert fraction_array(data[s], int(den[s])).tolist() == expected.rows.tolist()
        domain = random_space(rng, nrows, R, null_outcomes=nulls)
        random_space(ref, nrows, R, null_outcomes=nulls)
        k = random_mp_kernel_from(rng, domain, ncols)
        assert k.rows.tolist() == random_mp_kernel_from_by_fractions(ref, domain, ncols).rows.tolist()
        assert rng.bit_generator.state == ref.bit_generator.state
