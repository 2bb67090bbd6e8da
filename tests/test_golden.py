"""Golden outputs: the exact bytes of rational-mode CSVs, of float Levy
CSVs, of the float banach-counterexample CSVs and of the homeo-audit CSVs.

Rerun determinism (criterion 13) cannot tell a changed number from an
unchanged one; these files pin the bytes themselves. The rational files were
written by the Fraction-per-element implementation that preceded the
integer-numerator representation, so any change of arithmetic that moves a
single rational shows up here. The serialized inputs are rebuilt from closed
formulas. The banach files were written when the truncation chain was n dense
matrices and its seminorm a recursion over start indices. The homeo-audit
files were written when every kernel of a sequence was built, validated and
measured one step at a time; the two "blocks" files were written when each
sequence was still drawn, built and measured on its own. The levi-kernel
files, float at the benchmark's shapes and one rational case, were written
when a float kernel held its rows over no denominator and every kernel
operation had a float body and a rational one. The float Levy files were
written when a float random variable held its values beside an empty
rational slot and every random-variable operation had a float body and a
rational one. The levi-hilbert files, float at the benchmark's size = length
= 40 (4,160 rows) and one chain longer than its dimension (12 steps, not 20),
were written when the CSV writer formatted its table one row and one cell at
a time.
"""

import math
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

import finprob as fp
from finprob import serialize
from finprob.config import ExperimentConfig, demo_config
from finprob.experiments import run

GOLDEN = Path(__file__).parent / "golden"


def _mixed_levy_up_rv() -> fp.RandomVar:
    """64 uniform atoms; values over denominators 1..13 and 2**k."""
    n = 64
    dens = [1 + i % 13 if i % 5 else 1 << (i % 7) for i in range(n)]
    values = [F((i * 37) % 41 - 20, d) for i, d in enumerate(dens)]
    return fp.RandomVar(values, fp.dyadic_space(6))


def _weighted_levy_down_rv() -> fp.RandomVar:
    """12 outcomes of unequal weight, outcome 5 null, mixed denominators."""
    raw = [3, 1, 4, 1, 5, 0, 2, 6, 5, 3, 5, 8]
    total = sum(raw)
    space = fp.make_space([F(w, total) for w in raw], fp.rational_mode())
    values = [F((i * 11) % 17 - 8, 1 + (i * 5) % 7) for i in range(len(raw))]
    return fp.RandomVar(values, space)


def _input_config(experiment, rv, tmp_path, **fields) -> ExperimentConfig:
    path = tmp_path / f"{experiment}.rv.txt"
    serialize.dump(rv, path)
    return ExperimentConfig(experiment=experiment, input=str(path), **fields)


CASES = {
    "levy-up-demo": lambda tmp: demo_config("levy-up"),
    "levy-down-demo": lambda tmp: demo_config("levy-down"),
    "noncauchy-l1-demo": lambda tmp: demo_config("noncauchy-l1"),
    "galois-audit-demo": lambda tmp: demo_config("galois-audit"),
    "levy-up-mixed-n1": lambda tmp: _input_config(
        "levy-up", _mixed_levy_up_rv(), tmp, levels=6, norm_index=1
    ),
    "levy-up-mixed-n2": lambda tmp: _input_config(
        "levy-up", _mixed_levy_up_rv(), tmp, levels=6, norm_index=2
    ),
    "levy-up-mixed-inf": lambda tmp: _input_config(
        "levy-up", _mixed_levy_up_rv(), tmp, levels=6, norm_index=math.inf
    ),
    "levy-down-null-n1": lambda tmp: _input_config(
        "levy-down", _weighted_levy_down_rv(), tmp, size=12, length=6, seed=7, norm_index=1
    ),
    "levy-down-null-n3": lambda tmp: _input_config(
        "levy-down", _weighted_levy_down_rv(), tmp, size=12, length=6, seed=7, norm_index=3
    ),
    "levy-up-float-n1": lambda tmp: replace(demo_config("levy-up"), mode=fp.float_mode()),
    "levy-up-float-inf": lambda tmp: replace(
        demo_config("levy-up"), mode=fp.float_mode(), norm_index=math.inf
    ),
    # the levy-down demo space has a null outcome
    "levy-down-float-n1": lambda tmp: replace(demo_config("levy-down"), mode=fp.float_mode()),
    "levy-down-float-n3": lambda tmp: replace(
        demo_config("levy-down"), mode=fp.float_mode(), norm_index=3
    ),
    "noncauchy-l1-float": lambda tmp: replace(demo_config("noncauchy-l1"), mode=fp.float_mode()),
    # the euclidean-float workload's shape, and a chain cut at size steps
    "levi-hilbert-float-40": lambda tmp: ExperimentConfig(
        experiment="levi-hilbert", size=40, length=40, seed=1, mode=fp.float_mode()
    ),
    "levi-hilbert-float-past-size": lambda tmp: ExperimentConfig(
        experiment="levi-hilbert", size=12, length=20, seed=3, mode=fp.float_mode()
    ),
}


BANACH_CASES = {
    "banach-counterexample-demo": demo_config("banach-counterexample"),
    "banach-counterexample-160": ExperimentConfig(
        experiment="banach-counterexample", size=160, mode=fp.float_mode()
    ),
    "banach-counterexample-256": ExperimentConfig(
        experiment="banach-counterexample", size=256, mode=fp.float_mode()
    ),
}


HOMEO_CASES = {
    "homeo-audit-demo": demo_config("homeo-audit"),
    "homeo-audit-bench": ExperimentConfig(
        experiment="homeo-audit", size=4, count=200, horizon=40, seed=1, mode=fp.float_mode()
    ),
    "homeo-audit-rational": replace(demo_config("homeo-audit"), mode=fp.rational_mode()),
    # counts that leave a short last block of sequences (12 and 6 per block)
    "homeo-audit-blocks-float": ExperimentConfig(
        experiment="homeo-audit", size=3, count=41, horizon=36, seed=11, mode=fp.float_mode()
    ),
    "homeo-audit-blocks-rational": ExperimentConfig(
        experiment="homeo-audit", size=3, count=9, horizon=70, seed=12, mode=fp.rational_mode()
    ),
}


LEVI_CASES = {
    "levi-kernel-float-160": ExperimentConfig(
        experiment="levi-kernel", size=160, length=12, seed=1, mode=fp.float_mode()
    ),
    "levi-kernel-float-96": ExperimentConfig(
        experiment="levi-kernel", size=96, length=24, seed=2, mode=fp.float_mode()
    ),
    "levi-kernel-rational": ExperimentConfig(
        experiment="levi-kernel", size=40, length=12, seed=5, mode=fp.rational_mode()
    ),
}


def produce(cfg: ExperimentConfig, name: str, tmp_path: Path) -> bytes:
    _, path, _ = run(replace(cfg, output=f"{name}.csv"), outdir=str(tmp_path))
    return path.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_rational_csv_matches_golden(name, tmp_path):
    cfg = CASES[name](tmp_path)
    assert produce(cfg, name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(BANACH_CASES))
def test_banach_csv_matches_golden(name, tmp_path):
    produced = produce(BANACH_CASES[name], name, tmp_path)
    assert produced == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(HOMEO_CASES))
def test_homeo_csv_matches_golden(name, tmp_path):
    produced = produce(HOMEO_CASES[name], name, tmp_path)
    assert produced == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(LEVI_CASES))
def test_levi_kernel_csv_matches_golden(name, tmp_path):
    produced = produce(LEVI_CASES[name], name, tmp_path)
    assert produced == (GOLDEN / f"{name}.csv").read_bytes()
