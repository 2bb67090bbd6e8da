"""The four benchmark workloads and the inputs each one generates from a seed.

A workload is a fixed list of experiment configs. Everything random about
it (the terminal random variables written as `serialize` files, and the
`seed =` value of every config) is drawn from the benchmark's own
`random.Random(seed)`, so the program under test only ever sees the
generated files. This module uses the standard library only: the parent
process that writes the inputs never imports `finprob`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

# Sizes were measured on the seed code as a few seconds per round; change
# them only to keep a run steady, never to keep a defect out of view.
LEVY_UP_LEVELS = 12
LEVY_DOWN_SIZE = 256
LEVY_DOWN_LENGTH = 64
NONCAUCHY_LEVELS = 12
GALOIS_SIZE = 6
GALOIS_COUNT = 4
HOMEO_SIZE = 4
HOMEO_COUNT = 200
HOMEO_HORIZON = 40
BANACH_SIZE = 160
HILBERT_SIZE = 40
HILBERT_LENGTH = 40


@dataclass
class RunSpec:
    """One experiment run of a workload: a config file and, for the Levy
    runs, the terminal random variable it reads."""

    id: str
    experiment: str
    mode: str
    sizes: dict
    seed: int
    extra: dict = field(default_factory=dict)
    weights: Optional[list] = None  # terminal RV space, as Fractions
    values: Optional[list] = None  # terminal RV values, as Fractions

    def config_text(self, input_path: Optional[str]) -> str:
        lines = [
            "[experiment]",
            f"name = {self.experiment}",
            f"seed = {self.seed}",
            f"mode = {self.mode}",
            f"output = {self.id}.csv",
        ]
        lines += [f"{k} = {v}" for k, v in self.extra.items()]
        if input_path is not None:
            lines.append(f"input = {input_path}")
        lines.append("")
        lines.append("[sizes]")
        lines += [f"{k} = {v}" for k, v in self.sizes.items()]
        return "\n".join(lines) + "\n"

    def rv_text(self) -> str:
        return (
            "rv\nmode rational\n"
            f"weights {' '.join(map(_fmt, self.weights))}\n"
            f"values {' '.join(map(_fmt, self.values))}\n"
        )


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _rational_values(rng: random.Random, n: int) -> list:
    return [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(n)]


def _config_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _levy_exact(rng):
    atoms = 1 << LEVY_UP_LEVELS
    up = RunSpec(
        "levy-up", "levy-up", "rational", {"levels": LEVY_UP_LEVELS}, _config_seed(rng),
        extra={"n": 1},
        weights=[Fraction(1, atoms)] * atoms,
        values=_rational_values(rng, atoms),
    )
    raw = [rng.randint(1, 9) for _ in range(LEVY_DOWN_SIZE)]
    raw[rng.randrange(LEVY_DOWN_SIZE)] = 0
    total = sum(raw)
    down = RunSpec(
        "levy-down", "levy-down", "rational",
        {"size": LEVY_DOWN_SIZE, "length": LEVY_DOWN_LENGTH}, _config_seed(rng),
        extra={"n": 1},
        weights=[Fraction(w, total) for w in raw],
        values=_rational_values(rng, LEVY_DOWN_SIZE),
    )
    noncauchy = RunSpec(
        "noncauchy-l1", "noncauchy-l1", "rational", {"levels": NONCAUCHY_LEVELS}, _config_seed(rng)
    )
    return [up, down, noncauchy]


def _kernel_float(rng):
    return [
        RunSpec("levi-kernel-160", "levi-kernel", "float", {"size": 160, "length": 12}, _config_seed(rng)),
        RunSpec("levi-kernel-96", "levi-kernel", "float", {"size": 96, "length": 24}, _config_seed(rng)),
    ]


def _audit_small(rng):
    return [
        RunSpec(
            "galois-audit", "galois-audit", "rational",
            {"size": GALOIS_SIZE, "count": GALOIS_COUNT}, _config_seed(rng),
        ),
        RunSpec(
            "homeo-audit", "homeo-audit", "float",
            {"size": HOMEO_SIZE, "count": HOMEO_COUNT}, _config_seed(rng),
            extra={"horizon": HOMEO_HORIZON},
        ),
    ]


def _euclidean_float(rng):
    return [
        RunSpec(
            "banach-counterexample", "banach-counterexample", "float",
            {"size": BANACH_SIZE}, _config_seed(rng),
        ),
        RunSpec(
            "levi-hilbert", "levi-hilbert", "float",
            {"size": HILBERT_SIZE, "length": HILBERT_LENGTH}, _config_seed(rng),
        ),
    ]


WORKLOADS = {
    "levy-exact": _levy_exact,
    "kernel-float": _kernel_float,
    "audit-small": _audit_small,
    "euclidean-float": _euclidean_float,
}


def build(name: str, seed: int) -> list:
    """The workload's runs for a seed; the same seed gives the same runs."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def workdir(root: Path, name: str) -> Path:
    return root / ".bench_out" / name


def write_inputs(root: Path, name: str, runs: list) -> list:
    """Write each run's config (and terminal RV) under the workload's
    directory; return the config paths, relative to `root`."""
    base = workdir(root, name)
    base.mkdir(parents=True, exist_ok=True)
    configs = []
    for spec in runs:
        input_path = None
        if spec.values is not None:
            rv = base / f"{spec.id}.rv.txt"
            rv.write_text(spec.rv_text(), encoding="ascii")
            input_path = str(rv.relative_to(root))
        cfg = base / f"{spec.id}.ini"
        cfg.write_text(spec.config_text(input_path), encoding="ascii")
        configs.append(str(cfg.relative_to(root)))
    return configs
