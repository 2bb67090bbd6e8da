"""Experiment implementations behind the CLI: build seeded instances, run
the relevant checks, and emit plot-ready CSV tables with one-line verdicts.

Verdicts: CONVERGED / STABILIZED / STABILIZED-NONCAUCHY / PASS on success,
VIOLATION with the first offending step otherwise. Every CSV carries a
header row and a trailing '#' comment naming the fact it exercises.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
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
    INCREASING,
    Filtration,
    dyadic_partition,
    dyadic_space,
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
    """An experiment's table, held by column: `columns` names the columns
    and `cells` holds one sequence of values per column, all of one length."""

    columns: tuple
    cells: tuple  # tuples (or ranges), so a result's table cannot change
    verdict: str
    footer: str

    @property
    def ok(self) -> bool:
        return not self.verdict.startswith("VIOLATION")

    @property
    def rows(self) -> tuple:
        """The table row by row, as tuples of cell values."""
        return tuple(zip(*self.cells))


def _fmt(value, cfg: ExperimentConfig) -> str:
    """One cell as CSV text: ints, bools and strs as `str` spells them,
    Fractions as `num/den`, every other number as the shortest repr of its
    float (`inf`, `-inf` and `nan` included)."""
    if isinstance(value, (bool, int, str)):
        return str(value)
    if isinstance(value, Fraction):
        return fmt_number(value, cfg.mode if cfg.mode.exact else rational_mode())
    return repr(float(value))


_MAY_QUOTE = re.compile('[,"\r\n]').search
_BLOCK = 1000  # rows joined into one write


def _quoted(text: str) -> str:
    """A str cell as `csv.writer` writes it under minimal quoting, which
    quotes a cell holding a comma, a double quote or a newline (and, on some
    Python versions, a carriage return); such cells are rare, so csv.writer
    spells them itself."""
    if not _MAY_QUOTE(text):
        return text
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def _column_text(cells, cfg: ExperimentConfig) -> list:
    """One column's cells as CSV text, with one rule picked for the whole
    column: `repr` over Python floats; over ints, bools or strs, each
    distinct value spelled once (cells of one such type are equal exactly
    when they spell alike, which -0.0 and nan rule out for floats); and
    `_fmt` cell by cell for any other column (Fractions, numpy scalars,
    mixed types)."""
    kinds = set(map(type, cells))
    if kinds <= {float}:
        return list(map(repr, cells))
    if len(kinds) == 1 and kinds <= {int, bool, str}:
        spelled = {v: _quoted(str(v)) for v in set(cells)}
        return list(map(spelled.__getitem__, cells))
    return [_quoted(_fmt(v, cfg)) for v in cells]


def write_csv(result: ExperimentResult, path: Path, cfg: ExperimentConfig) -> None:
    """The table as CSV, header first, then the footer comments: the bytes
    `csv.writer(lineterminator="\\n")` writes over `_fmt` of every cell,
    formatted a column at a time and written a block of rows at a time."""
    fields = [
        [_quoted(name), *_column_text(cells, cfg)]
        for name, cells in zip(result.columns, result.cells)
    ]
    lines = map(",".join, zip(*fields))
    if len(fields) == 1:  # csv.writer quotes a lone empty field, which would read as a blank line
        lines = (line or '""' for line in lines)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        while block := list(islice(lines, _BLOCK)):
            fh.write("\n".join(block))
            fh.write("\n")
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


def _levy_table(cfg: ExperimentConfig, filtration: Filtration, rng, terminal, footer: str) -> ExperimentResult:
    rv, step, distance, stabilized = [], [], [], []
    verdict = "CONVERGED"
    runs = 1 if terminal is not None else cfg.count
    for idx in range(runs):
        f = terminal if terminal is not None else random_rv(rng, filtration.space)
        martingale = martingale_from_terminal(f, filtration)
        report = levy_report(martingale, cfg.norm_index)
        steps, stab = len(report.step_distances), report.stabilization_index
        rv += [idx] * steps
        step += range(steps)
        distance += report.step_distances
        stabilized += [stab is not None and t >= stab for t in range(steps)]
        if verdict == "CONVERGED" and not report.converged:
            verdict = f"VIOLATION step {steps - 1} (rv {idx}): no stabilization"
    n = (_norm_token(cfg.norm_index),) * len(rv)
    cells = (tuple(rv), tuple(step), tuple(distance), n, tuple(stabilized))
    return ExperimentResult(("rv", "step", "ln_distance", "n", "stabilized"), cells, verdict, footer)


def _run_levy_up(cfg: ExperimentConfig) -> ExperimentResult:
    terminal = None if cfg.input is None else _load_terminal_rv(cfg, 1 << cfg.levels)
    space = dyadic_space(cfg.levels, cfg.mode) if terminal is None else terminal.space
    parts = [dyadic_partition(cfg.levels, lv) for lv in range(cfg.levels + 1)]
    filtration = Filtration(parts, INCREASING, space)
    footer = "upward martingale convergence in mean along the dyadic filtration"
    return _levy_table(cfg, filtration, rng_for(cfg.seed), terminal, footer)


def _run_levy_down(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    terminal = None
    if cfg.input is not None:
        terminal = _load_terminal_rv(cfg, cfg.size)
        space = terminal.space
    else:
        space = random_space(rng, cfg.size, cfg.mode, null_outcomes=1 if cfg.size > 2 else 0)
    filtration = Filtration(random_coarsening_chain(rng, cfg.size, cfg.length), DECREASING, space)
    footer = "backward martingale convergence in mean along a coarsening filtration"
    return _levy_table(cfg, filtration, rng, terminal, footer)


def _run_levi_kernel(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    space = random_space(rng, cfg.size, cfg.mode, null_outcomes=1 if cfg.size > 2 else 0)
    chain = random_idempotent_chain(rng, space, cfg.length, increasing=True)
    report = levi_property_check(chain)
    steps = len(report.step_distances)
    verdict = "CONVERGED"
    if not report.converged:
        verdict = f"VIOLATION step {steps - 1}: chain does not reach its supremum"
    else:
        slack = 0 if cfg.mode.exact else 1e-12
        for step in range(1, steps):
            if report.step_distances[step] > report.step_distances[step - 1] + slack:
                verdict = f"VIOLATION step {step}: distance increased"
                break
    return ExperimentResult(
        ("step", "distance", "metric", "tol", "converged"),
        (
            range(steps),
            report.step_distances,
            ("one-sided",) * steps,
            (report.tolerance,) * steps,
            (report.converged,) * steps,
        ),
        verdict,
        "monotone idempotent chains converge to their optimum in the kernel metric",
    )


def _run_levi_hilbert(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    dim = cfg.size
    steps = min(cfg.length, dim)
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    subspaces = [Subspace(basis[:, : i + 1], dim) for i in range(steps)]
    probes = list(np.eye(dim))  # the unit vectors, as views of one identity matrix
    probes += [rng.normal(size=dim) for _ in range(64)]
    report = levi_up_demo(subspaces, probes)
    count = len(probes)
    verdict = "CONVERGED" if report.converged else "VIOLATION step last: residuals above tolerance"
    return ExperimentResult(
        ("step", "probe_id", "residual_norm", "norm_kind"),
        (  # probe-major, as report.residuals[probe][step]
            tuple(range(steps)) * count,
            tuple(chain.from_iterable((probe,) * steps for probe in range(count))),
            tuple(chain.from_iterable(report.residuals)),
            (report.norm_kind,) * (count * steps),
        ),
        verdict,
        "increasing subspace chains: projectors converge pointwise to the span's projector",
    )


def _run_noncauchy(cfg: ExperimentConfig) -> ExperimentResult:
    martingale, diag = nonintegrable_example(cfg.levels, cfg.mode)
    one = cfg.mode.one()
    norms, increments = diag.l1_norms, diag.increment_l1_norms
    ok = all(cfg.mode.close(v, one) for v in norms + increments)
    levels = len(norms)
    verdict = "STABILIZED-NONCAUCHY" if ok else "VIOLATION step 0: norms drifted from 1"
    return ExperimentResult(
        ("level", "l1_norm", "increment_l1"),
        (range(levels), norms, (increments + ("",) * levels)[:levels]),
        verdict,
        "mass-escaping martingale: unit level norms with unit increments, never Cauchy in L1",
    )


def _run_banach(cfg: ExperimentConfig) -> ExperimentResult:
    report = banach_counterexample(cfg.size)
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
    cells = (range(len(report.sup_norms)), report.sup_norms, report.euclidean_norms)
    return ExperimentResult(("step", "sup_norm", "euclidean_norm"), cells, verdict, footer)


def _run_galois(cfg: ExperimentConfig) -> ExperimentResult:
    rng = rng_for(cfg.seed)
    reports = []
    verdict = "PASS"
    for space_idx in range(cfg.count):
        nulls = 1 if cfg.size >= 3 else 0
        space = random_space(rng, cfg.size, cfg.mode, null_outcomes=nulls)
        report = galois_roundtrips(space)
        reports.append(report)
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
        (
            range(cfg.count),
            tuple(r.n_partitions for r in reports),
            tuple(not r.adjunction_failures for r in reports),
            tuple(not r.roundtrip_failures for r in reports),
            tuple(not r.completion_failures for r in reports),
            tuple(not r.monotonicity_failures for r in reports),
        ),
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
    norms = (1, 2, 3, math.inf)
    mode, horizon = cfg.mode, cfg.horizon
    steps = np.arange(horizon)
    flip = (steps % 2 == 1) | (steps == horizon - 1)  # ends off k, for a clean verdict
    if mode.exact:  # a geometric slide towards k, top / bottom: distances halve each step
        top, bottom = 1, int_array([1 << t for t in steps.tolist()], 1 << (horizon - 1))
    else:
        top, bottom = np.ldexp(1.0, -steps), np.ones(horizon, dtype=np.int64)
    oscillating = np.arange(cfg.count) % 5 == 4  # k and the independent kernel in turn
    block = _sequences_per_block(horizon, cfg.size, cfg.size)
    converged = []  # per block, (sequences, 1 + norms): the metric's verdict, then the operators'
    for lo in range(0, cfg.count, block):
        oscillate = oscillating[lo : lo + block, None]
        a = np.where(oscillate, flip, top), np.where(oscillate, 1, bottom)
        limit, p, q = random_mp_stack(rng, len(oscillate), cfg.size, cfg.size, mode)
        reports = _block_reports(*_slide_block(mode, limit, q, a), limit, p, norms, mode.tolerance)
        converged.append(np.stack([stable < horizon for _, stable in reports], axis=-1))
    table = np.concatenate(converged)
    operator = table[:, 1:]  # one CSV row per (sequence, norm)
    metric = np.broadcast_to(table[:, :1], operator.shape)
    agree = metric == operator
    disagree = ~agree.all(axis=-1)
    verdict = "PASS"
    if disagree.any():
        verdict = f"VIOLATION step {disagree.argmax()}: metric and operator verdicts disagree"
    kind = np.where(oscillating, "oscillating", "interpolating")
    return ExperimentResult(
        ("sequence", "kind", "n", "metric_converged", "operator_converged", "agree"),
        (
            tuple(np.repeat(np.arange(cfg.count), len(norms)).tolist()),
            tuple(np.repeat(kind, len(norms)).tolist()),
            tuple(map(_norm_token, norms)) * cfg.count,
            tuple(metric.ravel().tolist()),
            tuple(operator.ravel().tolist()),
            tuple(agree.ravel().tolist()),
        ),
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
    return _RUNNERS[cfg.experiment](cfg)  # a constructed config names a known experiment


def run(cfg: ExperimentConfig, outdir: Optional[str] = None) -> tuple[int, Path, str]:
    """Run an experiment, write its CSV, and return (exit code, path, verdict)."""
    result = run_experiment(cfg)
    path = resolve_output(cfg, outdir)
    write_csv(result, path, cfg)
    return (0 if result.ok else 1), path, result.verdict
