"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either exact (rational mode) or checked against the
stated float tolerance; stated runtime budgets are asserted as well.
"""

import gc
import math
import time
from fractions import Fraction as F

import numpy as np

import finprob as fp
from finprob.config import demo_config
from finprob.experiments import run, run_experiment
from finprob.sampling import (
    random_coarsening_chain,
    random_mp_kernel,
    random_mp_kernel_from,
    random_partition,
    random_rv,
    random_space,
    random_vec_rv,
    rng_for,
)

from .oracles import bayes_all_pairs_exact, bayes_defect_sampled

R = fp.rational_mode()
FLOAT = fp.FLOAT_DEFAULT


def budgeted_start() -> float:
    gc.collect()  # do not bill earlier tests' garbage to a budgeted criterion
    return time.perf_counter()


def report(number: int, label: str, ok: bool, elapsed: float, budget=None) -> None:
    verdict = "PASS" if ok else "FAIL"
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"criterion {number:02d} {label}: {verdict} in {elapsed:.2f}s{budget_note}")
    assert ok, f"criterion {number} failed"
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s: {elapsed:.2f}s"


def test_criterion_01_galois_connection_audit():
    start = budgeted_start()
    rng = rng_for(1001)
    ok = True
    sizes = [3, 4, 5, 6] * 5
    for i, size in enumerate(sizes):
        nulls = 1 if i % 2 == 0 else 0
        space = random_space(rng, size, R, null_outcomes=nulls)
        audit = fp.galois_roundtrips(space)
        ok = ok and audit.all_ok and audit.n_partitions == fp.bell_number(size)
    report(1, "galois connection audit", ok, time.perf_counter() - start, budget=10)


def test_criterion_02_splitting_theorem():
    start = budgeted_start()
    rng = rng_for(1002)
    worst = 0.0
    for i in range(500):
        size = int(rng.integers(2, 33))
        space = random_space(rng, size, FLOAT, null_outcomes=int(i % 3 == 0))
        e = fp.cond_exp_kernel(space, random_partition(rng, size))
        s = fp.split(e)
        left = fp.compose(s.pi_dag, s.pi).rows - np.eye(s.quotient.size)
        right = fp.compose(s.pi, s.pi_dag).rows - e.kernel.rows
        live_q = list(s.quotient.support)
        live_x = list(space.support)
        worst = max(
            worst,
            float(np.max(np.abs(left[live_q, :]))),
            float(np.max(np.abs(right[live_x, :]))),
        )
    report(2, "splitting theorem", worst < 1e-9, time.perf_counter() - start, budget=5)


def test_criterion_03_dagger_laws():
    start = time.perf_counter()
    rng = rng_for(1003)
    ok = True
    for i in range(250):  # rational half: exhaustive subset pairs
        nd, nc = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        k = random_mp_kernel(rng, nd, nc, R, null_rows=int(i % 4 == 0))
        kinv = fp.bayes_inverse(k)
        ok = ok and bayes_all_pairs_exact(k, kinv)
        ok = ok and fp.as_equal_kernels(fp.bayes_inverse(kinv), k)
        l = random_mp_kernel_from(rng, k.codomain, int(rng.integers(2, 5)))
        lhs = fp.bayes_inverse(fp.compose(k, l))
        rhs = fp.compose(fp.bayes_inverse(l), kinv)
        ok = ok and fp.as_equal_kernels(lhs, rhs)
    for i in range(250):  # float half: sampled subset pairs
        nd, nc = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        k = random_mp_kernel(rng, nd, nc, FLOAT, null_rows=int(i % 4 == 0))
        kinv = fp.bayes_inverse(k)
        ok = ok and bayes_defect_sampled(k, kinv, rng, pairs=100) < 1e-9
        ok = ok and fp.as_equal_kernels(fp.bayes_inverse(kinv), k)
        l = random_mp_kernel_from(rng, k.codomain, int(rng.integers(2, 9)))
        lhs = fp.bayes_inverse(fp.compose(k, l))
        rhs = fp.compose(fp.bayes_inverse(l), kinv)
        ok = ok and fp.as_equal_kernels(lhs, rhs)
    report(3, "dagger laws (500 kernels)", ok, time.perf_counter() - start)


def test_criterion_04_l2_adjointness():
    start = time.perf_counter()
    rng = rng_for(1004)
    worst = 0.0
    for _ in range(500):
        k = random_mp_kernel(rng, int(rng.integers(2, 17)), int(rng.integers(2, 17)), FLOAT)
        f = random_rv(rng, k.domain)
        g = random_rv(rng, k.codomain)
        worst = max(worst, fp.adjointness_defect(k, f, g))
    report(4, "L2 adjointness (500 triples)", worst < 1e-9, time.perf_counter() - start)


def test_criterion_05_lipschitz_and_norm_monotonicity():
    start = time.perf_counter()
    rng = rng_for(1005)
    norms = (1, 2, 3, math.inf)
    ok = True
    for _ in range(1000):
        k = random_mp_kernel(rng, int(rng.integers(2, 13)), int(rng.integers(2, 13)), FLOAT)
        g = random_rv(rng, k.codomain)
        n = norms[int(rng.integers(0, 4))]
        pulled = fp.apply_pullback(k, g)
        ok = ok and fp.ln_norm(pulled, n) <= fp.ln_norm(g, n) + 1e-12
        ladder = [fp.ln_norm(g, m) for m in norms]
        ok = ok and all(a <= b + 1e-12 for a, b in zip(ladder, ladder[1:]))
    report(5, "1-Lipschitz pullback + norm monotonicity", ok, time.perf_counter() - start)


def _levy_dyadic_ok(levels: int, mode, rng, runs: int) -> bool:
    """L^2 distances nonincreasing (monotone radicands, exact in rational
    mode) and zero at the final level. Integer-valued terminal RVs keep the
    exact denominators dyadic."""
    space = fp.dyadic_space(levels, mode)
    filtration = fp.dyadic_filtration(levels, mode)
    for _ in range(runs):
        values = rng.integers(-8, 9, size=space.size)
        f = fp.RandomVar([int(v) for v in values], space)
        m = fp.martingale_from_terminal(f, filtration)
        rep = fp.levy_report(m, 2)
        if not rep.converged:
            return False
        if mode.exact:
            limit_rv = m.rvs[-1]
            radicands = [
                fp.inner_product(rv - limit_rv, rv - limit_rv) for rv in m.rvs
            ]
            if any(b > a for a, b in zip(radicands, radicands[1:])):
                return False
            if radicands[levels] != 0 or rep.step_distances[levels] != 0:
                return False
        else:
            dists = rep.step_distances
            if any(b > a + 1e-12 for a, b in zip(dists, dists[1:])):
                return False
            if not dists[levels] <= 1e-9:
                return False
    return True


def test_criterion_06_levy_upward():
    start = budgeted_start()
    rng = rng_for(1006)
    ok = _levy_dyadic_ok(10, R, rng, 10) and _levy_dyadic_ok(10, FLOAT, rng, 40)
    report(6, "Levy upward on 2^10 atoms", ok, time.perf_counter() - start, budget=5)


def test_criterion_07_levy_downward():
    start = time.perf_counter()
    rng = rng_for(1007)
    ok = True
    for i in range(50):
        mode = R if i % 2 == 0 else FLOAT
        size = int(rng.integers(4, 65))
        length = int(rng.integers(2, 11))
        space = random_space(rng, size, mode, null_outcomes=int(i % 3 == 0))
        chain = random_coarsening_chain(rng, size, length)
        filtration = fp.Filtration(chain, fp.DECREASING, space)
        m = fp.martingale_from_terminal(random_rv(rng, space), filtration)
        rep = fp.levy_report(m, 1)
        ok = ok and rep.converged
        dists = rep.step_distances
        slack = 0 if mode.exact else 1e-12
        ok = ok and all(b <= a + slack for a, b in zip(dists, dists[1:]))
        ok = ok and all(d == 0 for d in dists[rep.stabilization_index:])
    report(7, "Levy downward / backward martingales", ok, time.perf_counter() - start)


def test_criterion_08_noncauchy_counterexample():
    start = time.perf_counter()
    levels = 12
    m, diag = fp.nonintegrable_example(levels, R)
    ok = diag.l1_norms == (F(1),) * (levels + 1)
    ok = ok and diag.increment_l1_norms == (F(1),) * levels
    ok = ok and fp.is_martingale(m, all_pairs=False)
    report(8, "non-uniformly-integrable martingale (K=12)", ok, time.perf_counter() - start)


def test_criterion_09_banach_counterexample():
    start = time.perf_counter()
    rep = fp.banach_counterexample(16)
    ok = rep.sup_norms[:16] == (1.0,) * 16
    ok = ok and rep.sup_norms[16] == 0.0
    ok = ok and rep.euclidean_decays
    ok = ok and rep.seminorm_all_ones == 1.0
    result = run_experiment(demo_config("banach-counterexample"))
    ok = ok and result.verdict == "STABILIZED" and len(result.rows) == 17
    report(9, "sup-norm truncation counterexample (N=16)", ok, time.perf_counter() - start)


def test_criterion_10_homeomorphism_agreement():
    start = time.perf_counter()
    rng = rng_for(1010)
    disagreements = 0
    for i in range(200):
        size = int(rng.integers(2, 6))
        k = random_mp_kernel(rng, size, size, FLOAT)
        q = list(k.codomain.weights)
        other = fp.Kernel([q] * size, k.domain, k.codomain)
        if i % 4 == 3:
            seq = [other if j % 2 else k for j in range(16)]
            seq[-1] = other
        else:
            seq = []
            for j in range(40):
                a = 0.5**j
                rows = (1 - a) * k.rows + a * other.rows
                seq.append(fp.Kernel(rows, k.domain, k.codomain))
        metric = fp.check_convergence(seq, k, "one-sided")
        for n in (1, 2, 3, math.inf):
            distances = fp.operator_pointwise_distances(seq, k, n)
            operator = fp.report_from_distances(distances, metric.tolerance)
            if metric.converged != operator.converged:
                disagreements += 1
    report(10, "metric vs operator convergence (200 sequences)", disagreements == 0,
           time.perf_counter() - start)


def test_criterion_11_idempotent_levi_property():
    start = time.perf_counter()
    rng = rng_for(1011)
    ok = True
    for i in range(100):
        size = int(rng.integers(4, 65))
        length = int(rng.integers(2, 13))
        increasing = bool(i % 2)
        space = random_space(rng, size, FLOAT, null_outcomes=int(i % 3 == 0))
        chain = fp.sampling.random_idempotent_chain(rng, space, length, increasing)
        rep = fp.levi_property_check(chain)
        ok = ok and rep.converged
        dists = rep.step_distances
        ok = ok and all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
        ok = ok and all(d == 0.0 for d in dists[rep.stabilization_index:])
        # closed order: pair the chain with its join against a fixed partition
        parts = [fp.invariant_partition(e) for e in chain]
        bump = random_partition(rng, size)
        mates = [fp.cond_exp_kernel(space, fp.join_partitions(p, bump)) for p in parts]
        ok = ok and all(fp.idem_leq(e, f) for e, f in zip(chain, mates))
        lim_e = (fp.sup_idempotents if increasing else fp.inf_idempotents)(chain)
        lim_f = (fp.sup_idempotents if increasing else fp.inf_idempotents)(mates)
        ok = ok and fp.idem_leq(lim_e, lim_f)
    report(11, "idempotent Levi property (100 chains)", ok, time.perf_counter() - start)


def test_criterion_12_bochner_martingale():
    start = time.perf_counter()
    rng = rng_for(1012)
    levels, dim = 8, 3
    filtration = fp.dyadic_filtration(levels, R)
    space = filtration.space
    ok = True
    for _ in range(20):
        g = random_vec_rv(rng, space, dim)
        rep = fp.levy_report(fp.martingale_from_terminal(g, filtration), 1)
        ok = ok and rep.converged and rep.step_distances[levels] == 0
        for j in range(dim):
            scalar = fp.levy_report(
                fp.martingale_from_terminal(g.component(j), filtration), 1
            )
            steps = [fp.cond_expectation(g, p).component(j) for p in filtration.partitions]
            expected = [fp.cond_expectation(g.component(j), p) for p in filtration.partitions]
            ok = ok and all(
                list(a.values) == list(b.values) for a, b in zip(steps, expected)
            )
            ok = ok and scalar.converged and scalar.step_distances[levels] == 0
    report(12, "Bochner martingale (2^8 atoms, d=3)", ok, time.perf_counter() - start)


def test_criterion_13_cli_determinism(tmp_path):
    start = time.perf_counter()
    ok = True
    for name in ("levy-up", "levy-down", "levi-kernel", "noncauchy-l1", "galois-audit"):
        cfg = demo_config(name)
        code1, p1, v1 = run(cfg, outdir=str(tmp_path / "a" / name))
        code2, p2, v2 = run(cfg, outdir=str(tmp_path / "b" / name))
        ok = ok and code1 == code2 == 0 and v1 == v2
        ok = ok and p1.read_bytes() == p2.read_bytes()
    for name in ("levi-hilbert", "banach-counterexample", "homeo-audit"):
        cfg = demo_config(name)
        code1, _, v1 = run(cfg, outdir=str(tmp_path / "a" / name))
        code2, _, v2 = run(cfg, outdir=str(tmp_path / "b" / name))
        ok = ok and code1 == code2 == 0 and v1 == v2
    report(13, "CLI determinism", ok, time.perf_counter() - start)
