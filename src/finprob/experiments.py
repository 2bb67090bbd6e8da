"""Experiment implementations behind the CLI: build seeded instances, run
the relevant checks, and emit plot-ready CSV tables with one-line verdicts.

Verdicts: CONVERGED / STABILIZED / STABILIZED-NONCAUCHY / PASS on success,
VIOLATION with the first offending step otherwise. Every CSV carries a
header row and a trailing '#' comment naming the fact it exercises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .config import ExperimentConfig, resolve_output
from .errors import ConfigError, FinprobError
from .numerics import int_array, magnitude, rational_mode, widen
from .euclidean import Subspace, banach_counterexample, levi_up_demo
from .idempotents import galois_roundtrips
from .kernels import _rows
from .martingales import (
    DECREASING,
    Filtration,
    dyadic_filtration,
    dyadic_partition,
    levi_property_check,
    levy_report,
    martingale_from_terminal,
    nonintegrable_example,
)
from .metrics import _block_reports, _sequences_per_block
from .spaces import RandomVar
from .sampling import (
    random_coarsening_chain,
    random_idempotent_chain,
    random_mp_stack,
    random_rv,
    random_space,
    rng_for,
)
from . import serialize
from .serialize import fmt_number


@dataclass(frozen=True)
class ExperimentResult:
    columns: tuple
    rows: tuple
    verdict: str
    footer: str

    @property
    def ok(self) -> bool:
        return not self.verdict.startswith("VIOLATION")


def _fmt(value, cfg: ExperimentConfig) -> str:
    # The exact built-in types first: this runs once per CSV cell, and
    # isinstance against Fraction goes through the ABC machinery.
    kind = type(value)
    if kind is float:
        return "inf" if value == math.inf else repr(value)
    if kind is int or kind is str or kind is bool:
        return str(value)
    if isinstance(value, (bool, int, str)):
        return str(value)
    if value == math.inf:
        return "inf"
    if isinstance(value, Fraction):
        return fmt_number(value, cfg.mode if cfg.mode.exact else rational_mode())
    return repr(float(value))


def write_csv(result: ExperimentResult, path: Path, cfg: ExperimentConfig) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        for row in result.rows:
            writer.writerow([_fmt(v, cfg) for v in row])
        fh.write(f"# exercises: {result.footer}\n")
        fh.write(f"# verdict: {result.verdict}\n")


def _norm_token(n) -> str:
    return "inf" if n == math.inf else str(int(n))


def _load_terminal_rv(cfg: ExperimentConfig, expected_size: int):
    """Terminal RV from a serialized file; its own space becomes the base.

    A file that cannot be read or holds invalid data is a configuration
    error, not a violation.
    """
    try:
        rv = serialize.load(cfg.input)
    except (FinprobError, OSError) as exc:
        raise ConfigError(f"input {cfg.input!r}: {exc}") from exc
    if not isinstance(rv, RandomVar) or rv.dim is not None:
        raise ConfigError(f"input {cfg.input!r} does not hold a real-valued random variable")
    if rv.space.size != expected_size:
        raise ConfigError(
            f"input RV has {rv.space.size} outcomes, experiment needs {expected_size}"
        )
    if rv.space.mode != cfg.mode:
        raise ConfigError("input RV numeric mode differs from the configured mode")
    return rv


def _levy_rows(cfg: ExperimentConfig, filtration: Filtration, rng, terminal=None) -> ExperimentResult:
    rows = []
    verdict = "CONVERGED"
    runs = 1 if terminal is not None else cfg.count
    for idx in range(runs):
        f = terminal if terminal is not None else random_rv(rng, filtration.space)
        martingale = martingale_from_terminal(f, filtration)
        report = levy_report(martingale, cfg.norm_index)
        stab = report.stabilization_index
        for step, d in enumerate(report.step_distances):
            stabilized = stab is not None and step >= stab
            rows.append((idx, step, d, _norm_token(cfg.norm_index), stabilized))
        if verdict == "CONVERGED" and not report.converged:
            verdict = f"VIOLATION step {len(report.step_distances) - 1} (rv {idx}): no stabilization"
    return ExperimentResult(
        ("rv", "step", "ln_distance", "n", "stabilized"),
        tuple(rows),
        verdict,
        "",
    )


def _run_levy_up(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    terminal = None
    if cfg.input is not None:
        terminal = _load_terminal_rv(cfg, 1 << cfg.levels)
        filtration = Filtration(
            [dyadic_partition(cfg.levels, lv) for lv in range(cfg.levels + 1)],
            "increasing",
            terminal.space,
        )
    else:
        filtration = dyadic_filtration(cfg.levels, cfg.mode)
    result = _levy_rows(cfg, filtration, rng, terminal)
    return ExperimentResult(
        result.columns,
        result.rows,
        result.verdict,
        "upward martingale convergence in mean along the dyadic filtration",
    )


def _run_levy_down(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    terminal = None
    if cfg.input is not None:
        terminal = _load_terminal_rv(cfg, cfg.size)
        space = terminal.space
    else:
        space = random_space(rng, cfg.size, cfg.mode, null_outcomes=1 if cfg.size > 2 else 0)
    chain = random_coarsening_chain(rng, cfg.size, cfg.length)
    filtration = Filtration(chain, DECREASING, space)
    result = _levy_rows(cfg, filtration, rng, terminal)
    return ExperimentResult(
        result.columns,
        result.rows,
        result.verdict,
        "backward martingale convergence in mean along a coarsening filtration",
    )


def _run_levi_kernel(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    space = random_space(rng, cfg.size, cfg.mode, null_outcomes=1 if cfg.size > 2 else 0)
    chain = random_idempotent_chain(rng, space, cfg.length, increasing=True)
    report = levi_property_check(chain)
    rows = [
        (step, d, "one-sided", report.tolerance, report.converged)
        for step, d in enumerate(report.step_distances)
    ]
    verdict = "CONVERGED"
    if not report.converged:
        verdict = f"VIOLATION step {len(report.step_distances) - 1}: chain does not reach its supremum"
    else:
        slack = 0 if cfg.mode.exact else 1e-12
        for step in range(1, len(report.step_distances)):
            if report.step_distances[step] > report.step_distances[step - 1] + slack:
                verdict = f"VIOLATION step {step}: distance increased"
                break
    return ExperimentResult(
        ("step", "distance", "metric", "tol", "converged"),
        tuple(rows),
        verdict,
        "monotone idempotent chains converge to their optimum in the kernel metric",
    )


def _run_levi_hilbert(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    dim = cfg.size
    steps = min(cfg.length, dim)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    chain = [Subspace(basis[:, : i + 1], dim) for i in range(steps)]
    probes = list(np.eye(dim))  # the unit vectors, as views of one identity matrix
    probes += [rng.normal(size=dim) for _ in range(64)]
    report = levi_up_demo(chain, probes)
    rows = []
    for probe_id, residuals in enumerate(report.residuals):
        for step, r in enumerate(residuals):
            rows.append((step, probe_id, r, report.norm_kind))
    verdict = "CONVERGED" if report.converged else "VIOLATION step last: residuals above tolerance"
    return ExperimentResult(
        ("step", "probe_id", "residual_norm", "norm_kind"),
        tuple(rows),
        verdict,
        "increasing subspace chains: projectors converge pointwise to the span's projector",
    )


def _run_noncauchy(cfg: ExperimentConfig) -> ExperimentResult:
    martingale, diag = nonintegrable_example(cfg.levels, cfg.mode)
    one = cfg.mode.one()
    rows = []
    ok = True
    for level, norm in enumerate(diag.l1_norms):
        inc = diag.increment_l1_norms[level] if level < len(diag.increment_l1_norms) else ""
        rows.append((level, norm, inc))
        if not cfg.mode.close(norm, one):
            ok = False
    for inc in diag.increment_l1_norms:
        if not cfg.mode.close(inc, one):
            ok = False
    verdict = "STABILIZED-NONCAUCHY" if ok else "VIOLATION step 0: norms drifted from 1"
    return ExperimentResult(
        ("level", "l1_norm", "increment_l1"),
        tuple(rows),
        verdict,
        "mass-escaping martingale: unit level norms with unit increments, never Cauchy in L1",
    )


def _run_banach(cfg: ExperimentConfig) -> ExperimentResult:
    report = banach_counterexample(cfg.size)
    rows = [
        (i, s, e)
        for i, (s, e) in enumerate(zip(report.sup_norms, report.euclidean_norms))
    ]
    ok = (
        report.sup_plateau
        and report.euclidean_decays
        and report.seminorm_all_ones == 1.0
    )
    verdict = "STABILIZED" if ok else "VIOLATION step 0: expected plateau/decay pattern broken"
    footer = (
        "sup-norm truncation chain plateaus at 1 (colimit seminorm "
        f"{report.seminorm_all_ones!r}) while the euclidean norms decay to 0"
    )
    return ExperimentResult(
        ("step", "sup_norm", "euclidean_norm"), tuple(rows), verdict, footer
    )


def _run_galois(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    rows = []
    verdict = "PASS"
    for space_idx in range(cfg.count):
        nulls = 1 if cfg.size >= 3 else 0
        space = random_space(rng, cfg.size, cfg.mode, null_outcomes=nulls)
        report = galois_roundtrips(space)
        rows.append(
            (
                space_idx,
                report.n_partitions,
                not report.adjunction_failures,
                not report.roundtrip_failures,
                not report.completion_failures,
                not report.monotonicity_failures,
            )
        )
        if not report.all_ok and verdict == "PASS":
            verdict = f"VIOLATION step {space_idx}: order correspondence failed"
    return ExperimentResult(
        (
            "space",
            "partitions",
            "adjunction_ok",
            "idempotent_roundtrip_ok",
            "completion_ok",
            "monotone_ok",
        ),
        tuple(rows),
        verdict,
        "order correspondence between partitions and conditioning idempotents, exhaustively",
    )


def _slide_block(mode, limit: tuple, q: tuple, a: tuple) -> tuple:
    """Convex mixes (1 - a[s, t]) k_s + a[s, t] i_s of each limit k_s with
    its independent kernel i_s, whose every row is its codomain weights q_s,
    built with one expression and checked as one (S, T, n, m) stack, in the
    form `metrics._block_reports` takes; an error names the sequence, step,
    row and column. `a` is a pair of (S, T) arrays, numerators over integer
    denominators (float numerators over ones), and each step is over a's
    denominator times the lcm of k's and q's, which are scaled to it only
    where they differ."""
    (k, kden), (w, qden), (an, ad) = limit, q, a
    common = kden
    if not (kden == qden).all():
        kden, qden = widen(magnitude(kden) * magnitude(qden), kden, qden)
        common = np.lcm(kden, qden)
        k, w = k * (common // kden)[:, None, None], w * (common // qden)[:, None]
    bound = (magnitude(ad) + 2 * magnitude(an)) * magnitude(common)  # a numerator, also for a outside [0, 1]
    an, ad, common, k, w = widen(bound, an, ad, common, k, w)
    num = (ad - an)[..., None, None] * k[:, None] + an[..., None, None] * w[:, None, None]
    return _rows(num, ad * common[:, None], mode, ("sequence", "step"))


def _run_homeo(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    rows = []
    verdict = "PASS"
    norms = (1, 2, 3, math.inf)
    mode, horizon = cfg.mode, cfg.horizon
    steps = np.arange(horizon)
    flip = (steps % 2 == 1) | (steps == horizon - 1)  # ends off k, for a clean verdict
    if mode.exact:  # a geometric slide towards k, top / bottom: distances halve each step
        top, bottom = 1, int_array([1 << t for t in steps.tolist()], 1 << (horizon - 1))
    else:
        top, bottom = np.ldexp(1.0, -steps), np.ones(horizon, dtype=np.int64)
    block = _sequences_per_block(horizon, cfg.size, cfg.size)
    for lo in range(0, cfg.count, block):
        seqs = np.arange(lo, min(lo + block, cfg.count))
        oscillate = (seqs % 5 == 4)[:, None]  # k and the independent kernel in turn
        a = np.where(oscillate, flip, top), np.where(oscillate, 1, bottom)
        limit, p, q = random_mp_stack(rng, len(seqs), cfg.size, cfg.size, mode)
        reports = _block_reports(*_slide_block(mode, limit, q, a), limit, p, norms, mode.tolerance)
        metric, *operators = ((stable < horizon).tolist() for _, stable in reports)
        for s, idx in enumerate(seqs.tolist()):
            kind = "oscillating" if oscillate[s, 0] else "interpolating"
            for n, operator in zip(norms, operators):
                agree = metric[s] == operator[s]
                rows.append((idx, kind, _norm_token(n), metric[s], operator[s], agree))
                if not agree and verdict == "PASS":
                    verdict = f"VIOLATION step {idx}: metric and operator verdicts disagree"
    return ExperimentResult(
        ("sequence", "kind", "n", "metric_converged", "operator_converged", "agree"),
        tuple(rows),
        verdict,
        "kernel-metric convergence coincides with pointwise operator convergence",
    )


_RUNNERS = {
    "levy-up": _run_levy_up,
    "levy-down": _run_levy_down,
    "levi-kernel": _run_levi_kernel,
    "levi-hilbert": _run_levi_hilbert,
    "noncauchy-l1": _run_noncauchy,
    "banach-counterexample": _run_banach,
    "galois-audit": _run_galois,
    "homeo-audit": _run_homeo,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    runner = _RUNNERS.get(cfg.experiment)
    if runner is None:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    return runner(cfg)


def run(cfg: ExperimentConfig, outdir: Optional[str] = None) -> tuple[int, Path, str]:
    """Run an experiment, write its CSV, and return (exit code, path, verdict)."""
    result = run_experiment(cfg)
    path = resolve_output(cfg, outdir)
    write_csv(result, path, cfg)
    return (0 if result.ok else 1), path, result.verdict
