"""Experiment configuration: a small INI dialect with one nesting level.

Two sections: [experiment] (name, seed, mode, tolerance, horizon, norm
index, output, input) and [sizes] (levels, size, length, count). Unknown
sections, keys, or experiment names are rejected; near-miss experiment
names come back with suggestions. The seed fully determines every random
draw an experiment makes.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .errors import ConfigError, ConfigParseError, FinprobError
from .numerics import NumericMode, float_mode, rational_mode

# Canonical config of `finprob demo <name>` for every experiment; its keys
# are the experiment registry.
_DEMO_OVERRIDES = {
    "levy-up": dict(levels=10, seed=1),
    "levy-down": dict(size=16, length=8, seed=2),
    "levi-kernel": dict(size=16, length=8, seed=3),
    "levi-hilbert": dict(size=8, length=6, seed=4, mode=float_mode()),
    "noncauchy-l1": dict(levels=8),
    "banach-counterexample": dict(size=16, mode=float_mode()),
    "galois-audit": dict(size=5, seed=5),
    "homeo-audit": dict(count=50, size=4, horizon=16, seed=6, mode=float_mode()),
}

EXPERIMENTS = tuple(_DEMO_OVERRIDES)

# Largest accepted values. Each cap bounds what one run allocates before it
# starts: 2**levels atoms with levels + 1 random variables over them, count
# instances one after another, horizon kernels per generated sequence, and
# n-th powers of exact values, whose digits grow with the norm index n.
_CAPS = {"levels": 16, "size": 1024, "count": 10_000, "horizon": 1024, "n": 256}

# Tighter size caps, where memory or work grows faster than linearly in size:
# size**3 floats (levi-hilbert bases), up to size kernels of size**2 entries
# (levi-kernel), horizon kernels of size**2 entries (homeo-audit), Bell(size)
# idempotents compared pairwise (galois).
_SIZE_CAPS = {
    "galois-audit": 8,
    "homeo-audit": 64,
    "levi-kernel": 192,
    "levi-hilbert": 256,
}

_EXPERIMENT_KEYS = {"name", "seed", "mode", "tolerance", "horizon", "n", "output", "input"}
_SIZE_KEYS = {"levels", "size", "length", "count"}


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    seed: int = 0
    mode: NumericMode = field(default_factory=rational_mode)
    horizon: int = 64
    norm_index: float = 1
    output: Optional[str] = None
    input: Optional[str] = None
    levels: int = 8
    size: int = 16
    length: int = 8
    count: int = 1

    def __post_init__(self):
        problems = validate_config(self)
        if problems:
            raise ConfigError("; ".join(problems))


def _unknown_experiment(name: str) -> str:
    """The problem an unknown experiment name makes, with near misses."""
    import difflib

    hints = difflib.get_close_matches(name, EXPERIMENTS, n=3)
    suffix = f" (did you mean: {', '.join(hints)}?)" if hints else ""
    return f"unknown experiment {name!r}{suffix}"


def validate_config(cfg) -> list[str]:
    """Invariant report for a config; empty means valid."""
    problems = []
    if cfg.experiment not in EXPERIMENTS:
        problems.append(_unknown_experiment(cfg.experiment))
    if not isinstance(cfg.seed, int) or cfg.seed < 0:
        problems.append(f"seed must be a nonnegative integer, got {cfg.seed!r}")
    if cfg.horizon < 1:
        problems.append(f"horizon must be positive, got {cfg.horizon}")
    elif cfg.horizon > _CAPS["horizon"]:
        problems.append(f"horizon must be at most {_CAPS['horizon']}, got {cfg.horizon}")
    n = cfg.norm_index
    valid_n = n == math.inf or (float(n).is_integer() and n >= 1)
    if not valid_n:
        problems.append(f"norm index must be a positive integer or inf, got {n!r}")
    elif n != math.inf and n > _CAPS["n"]:
        problems.append(f"norm index must be at most {_CAPS['n']} or inf, got {n}")
    for name in ("levels", "size", "length", "count"):
        v = getattr(cfg, name)
        if not isinstance(v, int) or v < 1:
            problems.append(f"{name} must be a positive integer, got {v!r}")
            continue
        cap = _SIZE_CAPS.get(cfg.experiment, _CAPS[name]) if name == "size" else _CAPS.get(name)
        if cap is not None and v > cap:
            problems.append(f"{name} must be at most {cap} for {cfg.experiment}, got {v}")
    if cfg.experiment == "noncauchy-l1" and isinstance(cfg.levels, int) and cfg.levels < 2:
        problems.append("noncauchy-l1 needs at least 2 levels")
    if cfg.experiment == "banach-counterexample" and isinstance(cfg.size, int) and cfg.size < 2:
        problems.append("banach-counterexample needs size at least 2")
    if cfg.input is not None and cfg.experiment not in ("levy-up", "levy-down"):
        problems.append("a terminal-RV input file is only supported by levy-up and levy-down")
    return problems


def _parse_norm_index(token: str):
    if token.strip().lower() in ("inf", "infinity"):
        return math.inf
    return int(token)


def _parse_int(token: str, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ConfigParseError(f"field {key!r}: expected an integer, got {token!r}") from None


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; parse failures carry line/field info."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=str(path))
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigParseError(f"cannot parse {path}: {exc}") from None

    for section in parser.sections():
        if section not in ("experiment", "sizes"):
            raise ConfigParseError(f"unknown section [{section}]")
    if not parser.has_section("experiment"):
        raise ConfigParseError("missing [experiment] section")

    exp = dict(parser.items("experiment"))
    sizes = dict(parser.items("sizes")) if parser.has_section("sizes") else {}
    for key in exp:
        if key not in _EXPERIMENT_KEYS:
            raise ConfigParseError(f"unknown key {key!r} in [experiment]")
    for key in sizes:
        if key not in _SIZE_KEYS:
            raise ConfigParseError(f"unknown key {key!r} in [sizes]")
    if "name" not in exp:
        raise ConfigParseError("field 'name': missing from [experiment]")

    mode_token = exp.get("mode", "rational").strip().lower()
    if mode_token == "rational":
        if "tolerance" in exp:
            raise ConfigParseError("field 'tolerance': not allowed in rational mode")
        mode = rational_mode()
    elif mode_token == "float":
        token = exp.get("tolerance", "1e-9")
        try:
            mode = float_mode(float(token))
        except (ValueError, FinprobError):  # not a number, or not finite and positive
            raise ConfigParseError(
                f"field 'tolerance': expected a finite positive number, got {token!r}"
            ) from None
    else:
        raise ConfigParseError(f"field 'mode': expected rational or float, got {mode_token!r}")

    try:
        norm_index = _parse_norm_index(exp.get("n", "1"))
    except ValueError:
        raise ConfigParseError(f"field 'n': expected a norm index, got {exp['n']!r}") from None

    kwargs = dict(
        experiment=exp["name"].strip(),
        seed=_parse_int(exp.get("seed", "0"), "seed"),
        mode=mode,
        horizon=_parse_int(exp.get("horizon", "64"), "horizon"),
        norm_index=norm_index,
        output=exp.get("output"),
        input=exp.get("input"),
    )
    for key in _SIZE_KEYS:
        if key in sizes:
            kwargs[key] = _parse_int(sizes[key], key)
    return ExperimentConfig(**kwargs)


def demo_config(name: str, output: Optional[str] = None) -> ExperimentConfig:
    """Built-in canonical config for `finprob demo <name>`."""
    if name not in EXPERIMENTS:
        raise ConfigError(_unknown_experiment(name))
    overrides = dict(_DEMO_OVERRIDES[name])
    cfg = ExperimentConfig(experiment=name, **overrides)
    if output is not None:
        cfg = replace(cfg, output=output)
    return cfg


def resolve_output(cfg: ExperimentConfig, outdir: Optional[str] = None) -> Path:
    """Output CSV path: explicit config path, else '<experiment>.csv', both
    relative to the FINPROB_OUTDIR override (or the cwd)."""
    import os

    name = cfg.output or f"{cfg.experiment.replace('-', '_')}.csv"
    base = outdir or os.environ.get("FINPROB_OUTDIR") or "."
    path = Path(name)
    if not path.is_absolute():
        path = Path(base) / path
    return path
