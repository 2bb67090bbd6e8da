"""The integer-numerator core of rational mode against Fraction-by-definition
sums (tests/oracles.py), over uniform and weighted spaces with null
outcomes, including the Python-int path for denominators beyond int64.
R^d-valued random variables are checked against the per-component and
per-outcome references, and their float images against the exact results."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import finprob as fp
from finprob.sampling import (
    random_coarsening_chain,
    random_mp_kernel_from,
    random_partition,
    random_refining_chain,
    random_space,
    random_vec_rv,
    rng_for,
)

from .oracles import (
    as_equal_by_definition,
    as_measurable_by_definition,
    bochner_norm_by_outcome,
    completion_by_definition,
    cond_expectation_by_definition,
    ln_total_by_definition,
    vector_cond_expectation_by_components,
    vector_pullback_by_fractions,
    weighted_total,
)

R = fp.rational_mode()
NORMS = (1, 2, 3, math.inf)


@st.composite
def instances(draw):
    """(weights, values, labels of p, labels of q) on 1 to 64 outcomes."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(["uniform", "uniform-with-nulls", "weighted"]))
    if kind == "uniform":
        raw = [1] * n
    else:
        top = 1 if kind == "uniform-with-nulls" else 9
        raw = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
        if not any(raw):
            raw[draw(st.integers(0, n - 1))] = 1
    total = sum(raw)
    weights = [F(r, total) for r in raw]
    fractions = st.builds(F, st.integers(-50, 50), st.integers(1, 12))
    values = draw(st.lists(fractions, min_size=n, max_size=n))
    labels = st.integers(1, n).flatmap(
        lambda k: st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    )
    return weights, values, draw(labels), draw(labels)


def check_against_definition(weights, values, p, q):
    space = fp.make_space(weights, R)
    f = fp.RandomVar(values, space)
    # g has one denominator per block of q: the path that takes block lcms
    g = fp.cond_expectation(f, q)
    assert list(g.values) == cond_expectation_by_definition(weights, values, q.blocks)
    for h in (f, g):
        hv = list(h.values)
        cond = fp.cond_expectation(h, p)
        assert list(cond.values) == cond_expectation_by_definition(weights, hv, p.blocks)
        assert fp.expectation(h) == weighted_total(weights, hv)
        products = [a * b for a, b in zip(hv, values)]
        assert fp.inner_product(h, f) == weighted_total(weights, products)
        for n in NORMS:
            total = ln_total_by_definition(weights, hv, n)
            expected = total if n in (1, math.inf) else fp.nth_root(total, n, R)
            assert fp.ln_norm(h, n) == expected
        assert fp.as_measurable_wrt(h, p) == as_measurable_by_definition(weights, hv, p.blocks)
        ones = [1] * len(weights)
        assert fp.measurable_wrt(h, p) == as_measurable_by_definition(ones, hv, p.blocks)
        assert fp.as_equal_rv(h, cond) == as_equal_by_definition(weights, hv, list(cond.values))
        assert list((h - f).values) == [a - b for a, b in zip(hv, values)]
        assert list((h + f).values) == [a + b for a, b in zip(hv, values)]
    completed = fp.complete_partition(p, space)
    assert set(map(frozenset, completed.blocks)) == completion_by_definition(weights, p.blocks)
    return f, g


class TestAgainstDefinition:
    @given(instances())
    def test_random_instances(self, instance):
        weights, values, p_labels, q_labels = instance
        p, q = fp.Partition.from_labels(p_labels), fp.Partition.from_labels(q_labels)
        check_against_definition(weights, values, p, q)

    def test_zero_mass_block_gets_global_mean(self):
        weights = [F(1, 2), F(0), F(0), F(1, 2)]
        values = [F(1), F(5, 3), F(-7, 2), F(3)]
        p = fp.Partition([(0, 3), (1, 2)], 4)
        q = fp.Partition([(0, 1), (2, 3)], 4)
        _, g = check_against_definition(weights, values, p, q)
        cond = fp.cond_expectation(fp.RandomVar(values, fp.make_space(weights, R)), p)
        assert cond.values[1] == cond.values[2] == F(2)  # the mean, (1 + 3) / 2

    def test_huge_denominators_take_the_python_int_path(self):
        n = 12
        raw = [(1 << 66) + 7 * i + 1 for i in range(n)]
        raw[4] = 0
        weights = [F(r, sum(raw)) for r in raw]
        values = [F(i * 3 - 17, (1 << 70) + 2 * i + 1) for i in range(n)]
        p = fp.Partition([(0, 1, 2), (3, 4), (5,), (6, 7, 8, 9, 10, 11)], n)
        q = fp.Partition([(0, 5), (1, 2, 3, 4), (6, 7), (8, 9, 10, 11)], n)
        f, g = check_against_definition(weights, values, p, q)
        assert f._exact.num.dtype == object and f._exact.den.dtype == object
        assert g._exact.num.dtype == object
        assert f.space.int_weights()[0].dtype == object

    def test_small_values_stay_int64(self):
        space = fp.uniform_space(8, R)
        f = fp.RandomVar([F(i, 3) for i in range(8)], space)
        g = fp.cond_expectation(f, fp.Partition([(0, 1, 2), (3, 4, 5, 6, 7)], 8))
        assert f._exact.num.dtype == g._exact.num.dtype == np.int64
        assert f._exact.common_den() == 3  # one common denominator
        assert g._exact.common_den() is None  # one per block: 9 and 15


class TestBoundary:
    def test_values_and_weights_are_read_only_fractions(self):
        space = fp.uniform_space(4, R)
        f = fp.RandomVar([1, F(1, 2), 0, 3], space)
        for arr in (f.values, space.weights, (f - f).values):
            assert all(isinstance(v, F) for v in arr)
            assert not arr.flags.writeable

    def test_spaces_from_fractions_and_integers_are_equal(self):
        built = fp.make_space([F(1, 4)] * 4, R)
        assert built == fp.uniform_space(4, R)
        assert hash(built) == hash(fp.uniform_space(4, R))
        assert built != fp.make_space([F(1, 2), F(1, 2), F(0), F(0)], R)

    def test_complete_partition_without_nulls_is_identity(self):
        p = fp.Partition([(0, 2), (1, 3)], 4)
        assert fp.complete_partition(p, fp.uniform_space(4, R)) is p

    def test_loads_rv_reads_integers_exactly(self):
        from finprob import serialize

        rv = serialize.loads_rv("rv\nmode rational\nweights 1/2 2/4 0\nvalues -3/6 7 1.25\n")
        assert list(rv.space.weights) == [F(1, 2), F(1, 2), F(0)]
        assert list(rv.values) == [F(-1, 2), F(7), F(5, 4)]


VNORMS = ("euclidean", "max", "sum")
SIZES = (1, 2, 3, 5, 8, 13, 32, 64)


def vector_instances(seed, count=24):
    """(g, p): R^d-valued RVs with d in 1..4 on 1 to 2^6 outcomes, most with
    null outcomes, and a partition in which the null outcomes form a block
    of zero mass of their own; every other instance has values over
    denominators beyond int64."""
    rng = rng_for(seed)
    for i in range(count):
        n = SIZES[i % len(SIZES)]
        nulls = int(rng.integers(0, n)) if n > 1 and i % 3 else 0
        space = random_space(rng, n, R, null_outcomes=nulls)
        g = random_vec_rv(rng, space, 1 + i % 4)
        if i % 2:
            g = fp.VecRandomVar(g.values * F(3**40 + 1, 3**40), space)
        labels = random_partition(rng, n).labels.copy()
        labels[[x for x in range(n) if space.is_null(x)]] = n
        yield g, fp.Partition.from_labels(labels.tolist())


def assert_norms_match(got, expected):
    """Exact and equal when the reference is exact; otherwise both floats, close."""
    assert type(got) is F if isinstance(expected, F) else isinstance(got, float)
    assert got == expected if isinstance(expected, F) else math.isclose(got, expected, rel_tol=1e-12)


def float_image(g, scale=1):
    """The float-mode RV of the same weights and values, times `scale`."""
    space = fp.make_space([float(w) for w in g.space.weights], fp.FLOAT_DEFAULT)
    return fp.VecRandomVar(np.array(g.values, dtype=np.float64) * scale, space)


def assert_close_to_exact(got, exact):
    """A float result within the tolerance, scaled by the values' size, of an exact one."""
    exact = np.array(exact, dtype=np.float64)
    scale = max(1.0, float(np.abs(exact).max(initial=0.0)))
    assert np.abs(np.asarray(got, dtype=np.float64) - exact).max(initial=0.0) <= 1e-9 * scale


class TestVectorAgainstReferences:
    def test_conditioning_expectation_and_equality(self):
        for g, p in vector_instances(301):
            cond = fp.cond_expectation(g, p)
            rows = cond.values.tolist()
            assert rows == vector_cond_expectation_by_components(g, p)
            weights, columns = list(g.space.weights), g.values.T.tolist()
            by_definition = [cond_expectation_by_definition(weights, c, p.blocks) for c in columns]
            assert rows == [list(r) for r in zip(*by_definition)]
            assert list(fp.expectation(g)) == [weighted_total(weights, c) for c in columns]
            assert fp.as_equal_rv(g, cond) == as_equal_by_definition(weights, g.values.tolist(), rows)
            assert fp.as_equal_rv(fp.cond_expectation(cond, p), cond)

    def test_pullback(self):
        rng = rng_for(302)
        for i, n in enumerate(SIZES):
            domain = random_space(rng, n, R, null_outcomes=n // 3)
            k = random_mp_kernel_from(rng, domain, SIZES[-1 - i])
            g = random_vec_rv(rng, k.codomain, 1 + i % 4)
            assert fp.apply_pullback(k, g).values.tolist() == vector_pullback_by_fractions(k, g)

    def test_norms(self):
        for g, _ in vector_instances(303):
            for vnorm in VNORMS:
                for n in (1, 2, 3, 4, math.inf):
                    assert_norms_match(fp.ln_norm(g, n, vnorm), bochner_norm_by_outcome(g, n, vnorm))


class TestVectorModeAgreement:
    def test_float_images_agree_within_the_scaled_tolerance(self):
        rng = rng_for(304)
        for g, p in vector_instances(305):
            h = float_image(g)
            assert_close_to_exact(fp.cond_expectation(h, p).values, fp.cond_expectation(g, p).values)
            assert_close_to_exact(fp.expectation(h), fp.expectation(g))
            for vnorm in VNORMS:
                for n in (1, 2, 3, math.inf):
                    assert_close_to_exact(fp.ln_norm(h, n, vnorm), fp.ln_norm(g, n, vnorm))
            k = random_mp_kernel_from(rng, g.space, 5)
            k_float = fp.Kernel(
                np.array(k.rows, dtype=np.float64), h.space,
                fp.make_space([float(w) for w in k.codomain.weights], fp.FLOAT_DEFAULT),
            )
            values = random_vec_rv(rng, k.codomain, g.dim)
            pulled = fp.apply_pullback(k_float, fp.VecRandomVar(np.array(values.values, dtype=np.float64), k_float.codomain))
            assert_close_to_exact(pulled.values, fp.apply_pullback(k, values).values)

    @pytest.mark.parametrize("scale", [1, 1e3, 1e6, 1e9, 1e12])
    def test_bochner_levy_verdicts_agree_at_every_value_scale(self, scale):
        rng = rng_for(306)
        for i, (g, _) in enumerate(vector_instances(307, count=16)):
            n = g.space.size
            chain = (random_refining_chain if i % 2 else random_coarsening_chain)(rng, n, 5)
            direction = "increasing" if i % 2 else "decreasing"
            exact_f = fp.Filtration(chain, direction, g.space)
            h = float_image(g, scale)
            float_f = fp.Filtration(chain, direction, h.space)
            for vnorm in VNORMS:
                for norm_index in (1, 2, math.inf):
                    exact = fp.bochner_levy_report(g, exact_f, norm_index, vnorm)
                    got = fp.bochner_levy_report(h, float_f, norm_index, vnorm)
                    assert (got.converged, got.stabilization_index) == (
                        exact.converged, exact.stabilization_index
                    )
