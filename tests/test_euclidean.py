import math
import time

import numpy as np
import pytest

import finprob as fp
from finprob.euclidean import DEFAULT_TOL, _all_close, _require_subspace_chain

from .oracles import (
    chain_inf_by_svd,
    closest_point_sampled,
    colimit_seminorm_recursive,
    levi_residuals_by_loop,
    truncation_maps_dense,
)


def axes(*idx, dim=3):
    eye = np.eye(dim)
    return fp.Subspace(eye[:, list(idx)], dim)


class TestProjector:
    def test_coordinate_axis(self):
        p = fp.orthogonal_projector(fp.Subspace(np.array([[1.0], [0.0]])))
        assert np.allclose(p.matrix, [[1, 0], [0, 0]])

    def test_diagonal_line(self):
        u = np.array([[1.0], [1.0]]) / math.sqrt(2)
        p = fp.orthogonal_projector(fp.Subspace(u))
        assert np.allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]])

    def test_full_space_identity(self):
        p = fp.orthogonal_projector(fp.Subspace.full(3))
        assert np.allclose(p.matrix, np.eye(3))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(fp.NotOrthonormalError):
            fp.Subspace(np.array([[1.0], [1.0]]))

    def test_projector_validation(self):
        with pytest.raises(fp.NotOrthonormalError):
            fp.Projector(np.array([[1.0, 0.5], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected(self, bad):
        # np.allclose counts equal infinities as close, so without the
        # finiteness check [[inf]] passed as symmetric and idempotent
        with pytest.raises(fp.NonFiniteError, match=r"entry at \(0, 0\)"):
            fp.Projector(np.array([[bad]]))
        with pytest.raises(fp.NonFiniteError, match=r"entry at \(1, 0\)"):
            fp.Subspace(np.array([[1.0], [bad]]))

    def test_closeness_rule_matches_numpy(self):
        # perturbed projectors on both sides of the tolerance: the helper
        # decides exactly as np.allclose(a, b, atol=tol) does
        rng = np.random.default_rng(7)
        base = fp.orthogonal_projector(
            fp.Subspace(np.linalg.qr(rng.normal(size=(40, 40)))[0][:, :17])
        ).matrix
        decisions = set()
        for _ in range(3000):
            m = base + 10 ** rng.uniform(-10, -6) * rng.normal(size=base.shape)
            for a, b in ((m, m.T), (m @ m, m)):
                got = _all_close(a, b, DEFAULT_TOL)
                assert got == np.allclose(a, b, atol=DEFAULT_TOL)
                decisions.add(got)
        assert decisions == {True, False}

    def test_bijection_roundtrip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            s = fp.Subspace.from_spanning(rng.normal(size=(4, 2)).T.tolist() + [rng.normal(size=4)])
            p = fp.orthogonal_projector(s)
            back = fp.projector_image(p)
            assert np.allclose(
                fp.orthogonal_projector(back).matrix, p.matrix, atol=1e-8
            )

    def test_gram_schmidt_rank_decision(self):
        v = np.array([1.0, 2.0, 3.0])
        s = fp.Subspace.from_spanning([v, 2 * v, v + 1e-12 * np.array([1.0, 0, 0])])
        assert s.dim == 1

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            s = fp.Subspace.from_spanning(rng.normal(size=(5, 2)).T.tolist())
            p = fp.orthogonal_projector(s)
            x = rng.normal(size=5)
            residual = x - p(x)
            for j in range(s.dim):
                assert abs(residual @ s.basis[:, j]) < 1e-9


class TestProjectorOrder:
    def test_axis_below_plane(self):
        assert fp.projector_leq(
            fp.orthogonal_projector(axes(0)), fp.orthogonal_projector(axes(0, 1))
        )

    def test_distinct_axes_incomparable(self):
        p0 = fp.orthogonal_projector(axes(0))
        p1 = fp.orthogonal_projector(axes(1))
        assert not fp.projector_leq(p0, p1)
        assert not fp.projector_leq(p1, p0)

    def test_everything_below_identity(self):
        identity = fp.orthogonal_projector(fp.Subspace.full(3))
        for s in (axes(0), axes(1, 2), fp.Subspace.full(3)):
            assert fp.projector_leq(fp.orthogonal_projector(s), identity)

    def test_witness_transposes(self):
        # comparable projectors: connecting maps are transposes of each other
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
            s1 = fp.Subspace(q[:, :1])
            s2 = fp.Subspace(q[:, :3])
            p1, p2 = fp.orthogonal_projector(s1), fp.orthogonal_projector(s2)
            assert fp.projector_leq(p1, p2)
            f = s2.basis.T @ s1.basis  # A1 -> A2 in coordinates
            g = s1.basis.T @ s2.basis
            assert np.allclose(f, g.T)
            assert np.allclose(s2.basis @ f, s1.basis)  # iota2 . f = iota1
            assert np.allclose(g @ s2.basis.T, s1.basis.T)  # g . pi2 = pi1
            assert np.allclose(g @ f, np.eye(s1.dim))

    def test_condition_equivalence_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            q = np.linalg.qr(rng.normal(size=(5, 5)))[0]
            d1, d2 = sorted(rng.integers(1, 5, size=2))
            pick = rng.permutation(5)
            s1 = fp.Subspace(q[:, pick[:d1]])
            s2 = fp.Subspace(q[:, pick[:d2]])
            p1, p2 = fp.orthogonal_projector(s1), fp.orthogonal_projector(s2)
            cond1 = fp.projector_leq(p1, p2)
            cond2 = np.allclose(p2.matrix @ s1.basis, s1.basis, atol=1e-8)
            assert cond1 == cond2 == True  # noqa: E712  (nested chains always comparable)


class TestClosestPoint:
    def test_point_inside_subspace(self):
        s = axes(0, 1)
        assert fp.closest_point_defect(s, [1.0, 2.0, 0.0]) < 1e-12

    def test_orthogonal_point(self):
        s = axes(0)
        x = [0.0, 0.0, 3.0]
        p = fp.orthogonal_projector(s)
        assert np.linalg.norm(x - p(x)) == 3.0
        assert fp.closest_point_defect(s, x) < 1e-12

    def test_pythagoras_example(self):
        s = fp.Subspace(np.array([[1.0], [0.0]]))
        x = [1.0, 1.0]
        p = fp.orthogonal_projector(s)
        assert abs(np.linalg.norm(x - p(x)) - 1.0) < 1e-12
        assert fp.closest_point_defect(s, x) < 1e-12

    def test_sampled_points_never_beat_projection(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = fp.Subspace.from_spanning(rng.normal(size=(4, 2)).T.tolist())
            x = rng.normal(size=4, scale=3)
            p = fp.orthogonal_projector(s)
            dist = float(np.linalg.norm(x - p(x)))
            assert dist <= closest_point_sampled(s.basis, x, rng) + 1e-9
            assert fp.closest_point_defect(s, x) < 1e-9


class TestChains:
    def test_increasing_axes_fill_space(self):
        chain = [axes(0), axes(0, 1), axes(0, 1, 2)]
        assert fp.chain_sup(chain).dim == 3

    def test_decreasing_to_zero(self):
        chain = [axes(0, 1, 2), axes(1, 2), axes(2,)]
        inf = fp.chain_inf(chain)
        assert inf.dim == 1
        chain.append(fp.Subspace.zero(3))
        assert fp.chain_inf(chain).dim == 0

    def test_constant_chain(self):
        s = axes(0, 2)
        assert np.allclose(
            fp.orthogonal_projector(fp.chain_sup([s, s])).matrix,
            fp.orthogonal_projector(s).matrix,
        )
        assert np.allclose(
            fp.orthogonal_projector(fp.chain_inf([s, s])).matrix,
            fp.orthogonal_projector(s).matrix,
        )

    def test_not_a_chain(self):
        with pytest.raises(fp.NotAChainError):
            fp.chain_sup([axes(0), axes(1)])

    def test_sup_matches_gram_schmidt_of_union(self):
        rng = np.random.default_rng(61)
        dim = 9
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        for dims in ([1, 3, 3, 6], [2, 5, 9], [4]):
            # each element gets its own rotated basis of the nested span
            chain = []
            for d in dims:
                turn = np.linalg.qr(rng.normal(size=(d, d)))[0]
                chain.append(fp.Subspace(basis[:, :d] @ turn, dim))
            union = [s.basis[:, j] for s in chain for j in range(s.dim)]
            expected = fp.orthogonal_projector(fp.Subspace.from_spanning(union, dim)).matrix
            got = fp.orthogonal_projector(fp.chain_sup(chain)).matrix
            assert np.allclose(got, expected, atol=1e-9)

    def test_inf_matches_svd_of_stacked_complements(self):
        rng = np.random.default_rng(62)
        dim = 9
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        for dims in ([6, 3, 3, 1], [9, 5, 2], [4], [3, 0]):
            # each element gets its own rotated basis of the nested span
            chain = []
            for d in dims:
                turn = np.linalg.qr(rng.normal(size=(d, d)))[0]
                chain.append(fp.Subspace(basis[:, :d] @ turn, dim))
            expected = fp.orthogonal_projector(chain_inf_by_svd(chain)).matrix
            got = fp.orthogonal_projector(fp.chain_inf(chain)).matrix
            assert np.allclose(got, expected, atol=1e-9)

    def test_optima_in_projector_order_coordinate_lattice(self):
        # exhaustive over coordinate subspaces of R^4: sup/inf are the
        # least upper / greatest lower bounds in the projector order
        import itertools

        dim = 4
        subsets = list(itertools.chain.from_iterable(
            itertools.combinations(range(dim), r) for r in range(dim + 1)
        ))
        spaces = {s: axes(*s, dim=dim) if s else fp.Subspace.zero(dim) for s in subsets}
        projs = {s: fp.orthogonal_projector(v) for s, v in spaces.items()}
        for a in subsets:
            for b in subsets:
                if set(a) <= set(b):
                    chain = [spaces[a], spaces[b]]
                    sup = fp.chain_sup(chain)
                    inf = fp.chain_inf(list(reversed(chain)))
                    p_sup, p_inf = fp.orthogonal_projector(sup), fp.orthogonal_projector(inf)
                    for s in subsets:
                        cand = projs[s]
                        if fp.projector_leq(projs[a], cand) and fp.projector_leq(projs[b], cand):
                            assert fp.projector_leq(p_sup, cand)
                        if fp.projector_leq(cand, projs[a]) and fp.projector_leq(cand, projs[b]):
                            assert fp.projector_leq(cand, p_inf)


class TestLeviDemos:
    def test_increasing_axes_residuals(self):
        chain = [axes(0), axes(0, 1), axes(0, 1, 2)]
        report = fp.levi_up_demo(chain, [[1.0, 1.0, 1.0]])
        assert report.converged
        assert np.allclose(report.residuals[0], [math.sqrt(2), 1.0, 0.0])

    def test_probe_already_inside(self):
        chain = [axes(0), axes(0, 1)]
        report = fp.levi_up_demo(chain, [[2.0, 0.0, 0.0]])
        assert np.allclose(report.residuals[0], [0.0, 0.0])

    def test_decreasing_probe_orthogonal_to_intersection(self):
        chain = [axes(0, 1, 2), axes(1, 2), axes(2,)]
        report = fp.levi_down_demo(chain, [[1.0, 1.0, 0.0]])
        assert report.converged
        distances = report.residuals[0]
        assert all(b <= a + 1e-12 for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 1e-12


class TestChainCheck:
    @staticmethod
    def tilted(offset):
        # span(e1, v) with v = e0 tilted by `offset` towards e2: its second
        # basis column sits offset / sqrt(1 + offset^2) outside span(e0, e1)
        v = np.array([1.0, 0.0, offset]) / math.hypot(1.0, offset)
        return fp.Subspace(np.stack([np.eye(3)[:, 1], v], axis=1), 3)

    def test_column_outside_by_2e8_rejected(self):
        small, big = self.tilted(2e-8), axes(0, 1)
        with pytest.raises(fp.NotAChainError, match="increasing"):
            _require_subspace_chain([small, big], increasing=True)
        with pytest.raises(fp.NotAChainError, match="decreasing"):
            fp.chain_inf([big, small])

    def test_column_outside_by_5e9_accepted(self):
        small, big = self.tilted(5e-9), axes(0, 1)
        _require_subspace_chain([small, big], increasing=True)
        assert fp.chain_sup([small, big]) is big
        assert fp.chain_inf([big, small]) is small

    def test_zero_dimensional_smaller_subspace(self):
        zero = fp.Subspace.zero(3)
        _require_subspace_chain([zero, axes(1)], increasing=True)
        _require_subspace_chain([axes(1), zero], increasing=False)
        _require_subspace_chain([zero, zero], increasing=True)
        with pytest.raises(fp.NotAChainError):
            _require_subspace_chain([axes(1), zero], increasing=True)

    def test_mixed_ambient_dimensions(self):
        with pytest.raises(fp.DimMismatchError):
            fp.chain_sup([axes(0, dim=2), axes(0, 1)])


class TestStackedResiduals:
    """The residual table of the levi demos against the per-probe loop.

    The stacked pass sums in another order, so the two differ by float64
    rounding: a few ulps of norms below 10. The bound of 1e-12 absolute was
    set from that before comparing."""

    BOUND = 1e-12

    @staticmethod
    def nested(rng, dim, dims):
        basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        return [fp.Subspace(basis[:, :k], dim) for k in dims]

    @staticmethod
    def probes(rng, dim, count=5):
        return [np.zeros(dim)] + list(np.eye(dim)) + [rng.normal(size=dim) for _ in range(count)]

    def check(self, report, expected):
        assert report.probe_count == len(expected)
        assert all(type(r) is float for row in report.residuals for r in row)
        assert [len(row) for row in report.residuals] == [len(row) for row in expected]
        gap = np.abs(np.array(report.residuals) - np.array(expected))
        assert gap.max() <= self.BOUND

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_increasing_matches_loop(self, dim):
        rng = np.random.default_rng(300 + dim)
        chain = self.nested(rng, dim, range(1, dim + 1))
        probes = self.probes(rng, dim)
        report = fp.levi_up_demo(chain, probes)
        self.check(report, levi_residuals_by_loop(chain, probes, chain[-1]))
        assert report.converged
        assert report.residuals[0] == (0.0,) * dim  # the zero probe

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_decreasing_matches_loop(self, dim):
        rng = np.random.default_rng(400 + dim)
        chain = self.nested(rng, dim, range(dim, dim // 3 - 1, -1))
        probes = self.probes(rng, dim)
        report = fp.levi_down_demo(chain, probes)
        self.check(report, levi_residuals_by_loop(chain, probes, chain_inf_by_svd(chain)))
        assert report.converged
        assert report.residuals[0] == (0.0,) * len(chain)

    def test_benchmark_size(self):
        # the levi-hilbert experiment at size = length = 40: 104 probes
        rng = np.random.default_rng(40)
        chain = self.nested(rng, 40, range(1, 41))
        probes = list(np.eye(40)) + [rng.normal(size=40) for _ in range(64)]
        report = fp.levi_up_demo(chain, probes)
        self.check(report, levi_residuals_by_loop(chain, probes, chain[-1]))
        assert report.probe_count == 104 and report.converged


class TestVectorInputs:
    """A vector of the wrong length, a non-finite one, or a chain map that
    cannot act, fails fast with an error that names it."""

    CALLS = {
        "contains": lambda s, x: s.contains(x),
        "closest_point_defect": fp.closest_point_defect,
        "projector": lambda s, x: fp.orthogonal_projector(s)(x),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_wrong_length_names_the_vector(self, call):
        # these used to raise numpy's matmul core-dimension ValueError
        with pytest.raises(fp.DimMismatchError, match=r"vector has shape \(3,\), expected \(2,\)"):
            self.CALLS[call](fp.Subspace.full(2), [1, 2, 3])

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_finite_vector_names_its_entry(self, call):
        with pytest.raises(fp.NonFiniteError, match=r"vector entry at \(1,\) is nan"):
            self.CALLS[call](fp.Subspace.full(2), [1.0, math.nan])

    def test_chain_maps_of_mismatched_shapes(self):
        with pytest.raises(fp.DimMismatchError, match=r"chain map 1 of shape \(3, 3\)"):
            fp.colimit_seminorm([np.eye(2), np.eye(3)], [1.0, 0.0])
        with pytest.raises(fp.DimMismatchError, match=r"chain map 0 of shape \(3,\)"):
            fp.colimit_seminorm([np.ones(3)], [1.0, 0.0])
        with pytest.raises(fp.DimMismatchError, match=r"chain map 2 of shape \(1, 1, 1\)"):
            fp.colimit_seminorm([np.eye(1), np.eye(1), np.ones((1, 1, 1))], [1.0], start=1)

    def test_non_finite_chain_map(self):
        # a NaN map used to stop the SVD of the operator norm with LinAlgError
        with pytest.raises(fp.NonFiniteError, match=r"chain map 0 entry at \(0, 1\) is nan"):
            fp.colimit_seminorm([np.array([[1.0, math.nan], [0.0, 1.0]])], [1.0, 0.0])
        with pytest.raises(fp.NonFiniteError, match=r"chain map 0 entry at \(1, 0\) is -inf"):
            fp.colimit_seminorm([np.array([[1.0, 0.0], [-math.inf, 1.0]])], [1.0, 0.0], norm="sup")
        with pytest.raises(fp.NonFiniteError, match=r"chain map 1 entry at \(0,\) is inf"):
            fp.colimit_seminorm([np.ones(2), np.array([math.inf, 1.0])], [1.0, 0.0], norm="sup")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_vector(self, bad):
        # it used to give a NaN seminorm without an error
        with pytest.raises(fp.NonFiniteError, match=r"start vector entry at \(1,\)"):
            fp.colimit_seminorm(fp.truncation_maps(3)[:2], [1.0, bad, 1.0], norm="sup")

    def test_start_must_be_a_vector(self):
        with pytest.raises(fp.DimMismatchError, match=r"start vector has shape \(1, 2\), expected \(2,\)"):
            fp.colimit_seminorm([np.eye(2)], [[1.0, 0.0]])

    def test_non_finite_banach_probe(self):
        # it used to report NaN norms, with a RuntimeWarning
        with pytest.raises(fp.NonFiniteError, match=r"probe entry at \(0,\) is nan"):
            fp.banach_counterexample(3, probe=[math.nan, 1.0, 1.0])
        with pytest.raises(fp.DimMismatchError, match=r"probe has shape \(2,\), expected \(3,\)"):
            fp.banach_counterexample(3, probe=[1.0, 1.0])

    @pytest.mark.parametrize(
        "make", [fp.Subspace.zero, fp.Subspace.full, fp.truncation_maps, lambda d: fp.Subspace.from_spanning([], d)]
    )
    def test_negative_dimension(self, make):
        with pytest.raises(fp.DimMismatchError, match="must be nonnegative, got -1"):
            make(-1)


class TestProbeValidation:
    chain = [axes(0), axes(0, 1)]

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0], [[1.0, 0.0, 0.0]], 1.0])
    def test_wrong_shape_names_the_probe(self, bad):
        with pytest.raises(fp.DimMismatchError, match=r"probe 1 has shape"):
            fp.levi_up_demo(self.chain, [[1.0, 2.0, 3.0], bad])
        with pytest.raises(fp.DimMismatchError, match=r"probe 1 has shape"):
            fp.levi_down_demo(self.chain[::-1], [[1.0, 2.0, 3.0], bad])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_names_the_probe(self, bad):
        probes = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.0, bad, 0.0]]
        with pytest.raises(fp.NonFiniteError, match=r"probe 2 entry 1 is"):
            fp.levi_up_demo(self.chain, probes)
        with pytest.raises(fp.NonFiniteError, match=r"probe 2 entry 1 is"):
            fp.levi_down_demo(self.chain[::-1], probes)

    def test_no_probes_converge(self):
        for report in (fp.levi_up_demo(self.chain, []), fp.levi_down_demo(self.chain[::-1], [])):
            assert report.converged
            assert report.residuals == ()
            assert report.probe_count == 0


class TestBanachCounterexample:
    def test_n5_plateau_then_zero(self):
        report = fp.banach_counterexample(5)
        assert report.sup_norms == (1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        assert report.sup_plateau

    def test_finitely_supported_probe_drops_immediately(self):
        report = fp.banach_counterexample(5, probe=[1.0, 0.0, 0.0, 0.0, 0.0])
        assert report.sup_norms[0] == 1.0
        assert report.sup_norms[1] == 0.0

    def test_euclidean_contrast_decays(self):
        report = fp.banach_counterexample(5)
        assert report.euclidean_decays
        assert np.allclose(
            report.euclidean_norms, [math.sqrt(5 - i) for i in range(5)] + [0.0]
        )

    def test_seminorm_is_one_not_zero(self):
        report = fp.banach_counterexample(16)
        assert report.seminorm_all_ones == 1.0


class TestColimitSeminorm:
    def test_truncation_all_ones(self):
        maps = fp.truncation_maps(6)[:5]
        assert fp.colimit_seminorm(maps, np.ones(6), norm="sup") == 1.0

    def test_zero_vector(self):
        maps = fp.truncation_maps(4)[:3]
        assert fp.colimit_seminorm(maps, np.zeros(4), norm="sup") == 0.0

    def test_projection_chain_kills_orthogonal_part(self):
        # euclidean chain of projections: residual of a vector orthogonal to
        # the intersection goes to zero
        p1 = fp.orthogonal_projector(axes(1, 2)).matrix
        p2 = fp.orthogonal_projector(axes(2,)).matrix
        value = fp.colimit_seminorm([p1, p2], [1.0, 1.0, 0.0], norm="euclidean")
        assert value < 1e-12

    def test_not_lipschitz_rejected(self):
        with pytest.raises(fp.NotLipschitzError):
            fp.colimit_seminorm([2.0 * np.eye(2)], [1.0, 0.0])

    def test_orthogonal_chain_at_large_norm(self):
        # at a norm near 3e12 one rounding step exceeds the absolute
        # tolerance; a norm-preserving chain must pass at every seed
        for seed in range(200):
            rng = np.random.default_rng(seed)
            q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
            x = rng.standard_normal(8)
            x *= 3e12 / np.linalg.norm(x)
            value = fp.colimit_seminorm([q, q.T, q, q.T], x)
            assert abs(value - 3e12) <= 1e-12 * 3e12

    def test_seminorm_laws(self):
        rng = np.random.default_rng(5)
        maps = fp.truncation_maps(5)[:3]
        for _ in range(20):
            a, b = rng.normal(size=5), rng.normal(size=5)
            c = float(rng.normal())
            na = fp.colimit_seminorm(maps, a, norm="sup")
            nb = fp.colimit_seminorm(maps, b, norm="sup")
            nab = fp.colimit_seminorm(maps, a + b, norm="sup")
            nca = fp.colimit_seminorm(maps, c * a, norm="sup")
            assert nab <= na + nb + 1e-12
            assert abs(nca - abs(c) * na) < 1e-12

    def test_masks_are_read_only_rows(self):
        masks = fp.truncation_maps(4)
        assert masks.shape == (4, 4) and not masks.flags.writeable
        assert masks.tolist() == [[0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0]]

    def test_long_chain_has_no_recursion_limit(self):
        # the chain is longer than the interpreter's recursion limit; diagonal
        # and dense maps alternate in it
        rot = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        maps = [np.array([1.0, 1.0, 0.5]) if i % 2 else rot for i in range(1100)]
        x = np.array([1.0, 2.0, 3.0])
        expected = x.copy()
        for m in maps:
            expected = m @ expected if m.ndim == 2 else m * expected
        started = time.perf_counter()
        value = fp.colimit_seminorm(maps, x, norm="sup")
        assert time.perf_counter() - started < 0.5
        assert value == float(np.max(np.abs(expected))) == 2.0

    def test_mixed_chain_matches_dense_form(self):
        p1 = fp.orthogonal_projector(axes(1, 2)).matrix
        maps = [np.array([1.0, -0.5, 1.0]), p1, np.array([0.25, 1.0, 1.0])]
        dense = [np.diag(m) if m.ndim == 1 else m for m in maps]
        for norm in ("sup", "euclidean", "sum"):
            value = fp.colimit_seminorm(maps, [3.0, -2.0, 1.0], norm=norm)
            assert value == colimit_seminorm_recursive(dense, [3.0, -2.0, 1.0], norm=norm)

    def test_broken_composite_is_reported(self, monkeypatch):
        # the start-index check is the only route through the composites, so
        # a composite that drops its outer factor must surface there
        monkeypatch.setattr(fp.euclidean, "_compose", lambda outer, inner: inner)
        with pytest.raises(fp.NotAChainError, match="starting index"):
            fp.colimit_seminorm(fp.truncation_maps(6)[:5], np.ones(6))


class TestColimitSeminormOracle:
    """Masks and the single pass against dense matrices and the recursion."""

    @staticmethod
    def outcome(seminorm, maps, probe, start, norm):
        try:
            return seminorm(maps, probe, start=start, norm=norm)
        except fp.NotLipschitzError:
            return "NotLipschitzError"

    @pytest.mark.parametrize("norm", ["sup", "euclidean", "sum"])
    def test_equals_recursive_definition(self, norm):
        rng = np.random.default_rng(2024)
        raised = 0
        for n in range(2, 33):
            masks = fp.truncation_maps(n)
            diagonals = rng.uniform(-1.0, 1.0, size=(n, n))
            diagonals /= np.abs(diagonals).max(axis=1, keepdims=True)
            if n % 2:
                diagonals[rng.integers(n)] *= 1.01
            chains = [
                (masks, truncation_maps_dense(n)),
                (masks[: n - 1], truncation_maps_dense(n)[: n - 1]),
                (diagonals, [np.diag(d) for d in diagonals]),
            ]
            for diag, dense in chains:
                probe = rng.normal(size=n) * rng.uniform(0.1, 10.0)
                start = int(rng.integers(len(dense) + 1))
                got = self.outcome(fp.colimit_seminorm, diag, probe, start, norm)
                want = self.outcome(colimit_seminorm_recursive, dense, probe, start, norm)
                assert got == want, (n, start)
                raised += want == "NotLipschitzError"
        assert 0 < raised < 31
