"""Output checks for every experiment run of the benchmark.

Each check reads the CSV the program wrote and compares it with a value the
benchmark computes on its own from the generated inputs, or with a
property the result must have; none of them replays a stored output. A
reference is computed once per process (`reference`) and every round's CSV
is compared with it (`check`), which returns a list of problems.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction
from pathlib import Path

from workloads import (
    BANACH_SIZE,
    GALOIS_COUNT,
    GALOIS_SIZE,
    HILBERT_LENGTH,
    HILBERT_SIZE,
    HOMEO_COUNT,
    LEVY_DOWN_LENGTH,
    NONCAUCHY_LEVELS,
    RunSpec,
)

FLOAT_SLACK = 1e-12  # rounding allowance for float monotonicity and sqrt checks
HILBERT_TOL = 1e-8  # euclidean.DEFAULT_TOL, the tolerance levi-hilbert promises
HOMEO_NORMS = ("1", "2", "3", "inf")


def read_csv(path: Path) -> tuple[list[dict], str]:
    """Data rows as dicts and the verdict from the trailing comment."""
    with open(path, encoding="ascii", newline="") as fh:
        lines = fh.read().splitlines()
    body = [line for line in lines if not line.startswith("#")]
    verdicts = [line[len("# verdict: "):] for line in lines if line.startswith("# verdict: ")]
    rows = list(csv.DictReader(body))
    return rows, verdicts[-1] if verdicts else ""


def _bell(n: int) -> int:
    """Bell number by the recurrence B(m+1) = sum_k C(m, k) B(k)."""
    bell = [1]
    for m in range(n):
        bell.append(sum(math.comb(m, k) * bell[k] for k in range(m + 1)))
    return bell[n]


def _levy_up_distances(values: list) -> list:
    """Exact L1 distance of each dyadic level's block means to the RV itself.

    With every value over a common denominator D, a block of b atoms has
    mean S / (D b), so |mean - f(x)| = |S - b a_x| / (D b) in integers.
    """
    den = math.lcm(*(v.denominator for v in values))
    nums = [int(v * den) for v in values]
    atoms = len(nums)
    levels = atoms.bit_length() - 1
    out = []
    for level in range(levels + 1):
        b = atoms >> level
        total = 0
        for start in range(0, atoms, b):
            block = nums[start:start + b]
            s = sum(block)
            total += sum(abs(s - b * a) for a in block)
        out.append(Fraction(total, den * b * atoms))
    return out


def reference(spec: RunSpec):
    if spec.experiment == "levy-up":
        return _levy_up_distances(spec.values)
    if spec.experiment == "levy-down":
        return sum(w * abs(v) for w, v in zip(spec.weights, spec.values))  # E|f|
    if spec.experiment == "galois-audit":
        return _bell(GALOIS_SIZE)
    return None


def _zero_tail_flags(distances: list) -> list:
    flags, tail = [], True
    for d in reversed(distances):
        tail = tail and d == 0
        flags.append(tail)
    return [str(f) for f in reversed(flags)]


def _nonincreasing(values: list, slack=0) -> bool:
    return all(b <= a + slack for a, b in zip(values, values[1:]))


def _check_levy_up(rows, ref):
    problems = []
    got = [Fraction(r["ln_distance"]) for r in rows]
    if got != ref:
        bad = next((i for i, (g, e) in enumerate(zip(got, ref)) if g != e), min(len(got), len(ref)))
        problems.append(f"step {bad}: distance differs from the exact block-mean value")
    if [r["stabilized"] for r in rows] != _zero_tail_flags(got):
        problems.append("stabilized flags do not match the zero tail")
    return problems


def _check_levy_down(rows, expected_abs_mean):
    problems = []
    got = [Fraction(r["ln_distance"]) for r in rows]
    if len(got) != LEVY_DOWN_LENGTH:
        problems.append(f"{len(got)} steps, expected {LEVY_DOWN_LENGTH}")
    if not _nonincreasing(got):
        problems.append("distances increase")
    if not got or got[-1] != 0:
        problems.append("last distance is not exactly 0")
    if got and got[0] > 2 * expected_abs_mean:
        problems.append(f"step 0 distance {got[0]} exceeds 2 E|f| = {2 * expected_abs_mean}")
    if [r["stabilized"] for r in rows] != _zero_tail_flags(got):
        problems.append("stabilized flags do not match the zero tail")
    return problems


def _check_noncauchy(rows, _):
    problems = []
    if len(rows) != NONCAUCHY_LEVELS + 1:
        problems.append(f"{len(rows)} levels, expected {NONCAUCHY_LEVELS + 1}")
    if any(Fraction(r["l1_norm"]) != 1 for r in rows):
        problems.append("a level norm is not exactly 1")
    if any(Fraction(r["increment_l1"]) != 1 for r in rows[:-1]) or rows[-1]["increment_l1"]:
        problems.append("an increment norm is not exactly 1")
    return problems


def _check_levi_kernel(rows, _):
    problems = []
    got = [float(r["distance"]) for r in rows]
    if not got:
        return ["no steps"]
    if not _nonincreasing(got, FLOAT_SLACK):
        problems.append("distances increase by more than rounding")
    if got[-1] != 0.0:
        problems.append(f"last distance is {got[-1]!r}, not 0")
    if got[0] > 2:
        problems.append(f"first distance {got[0]!r} exceeds 2")
    return problems


def _check_galois(rows, bell):
    problems = []
    if len(rows) != GALOIS_COUNT:
        problems.append(f"{len(rows)} spaces, expected {GALOIS_COUNT}")
    for r in rows:
        if int(r["partitions"]) != bell:
            problems.append(f"space {r['space']}: {r['partitions']} partitions, Bell = {bell}")
        bad = [k for k, v in r.items() if k.endswith("_ok") and v != "True"]
        if bad:
            problems.append(f"space {r['space']}: {', '.join(bad)} false")
    return problems


def _check_homeo(rows, _):
    problems = []
    if len(rows) != HOMEO_COUNT * len(HOMEO_NORMS):
        problems.append(f"{len(rows)} rows, expected {HOMEO_COUNT * len(HOMEO_NORMS)}")
    expected = {"oscillating": "False", "interpolating": "True"}
    for r in rows:
        if r["agree"] != "True":
            problems.append(f"sequence {r['sequence']} n={r['n']}: notions disagree")
        want = expected.get(r["kind"])
        if want is None or r["metric_converged"] != want or r["operator_converged"] != want:
            problems.append(f"sequence {r['sequence']} ({r['kind']}) n={r['n']}: wrong convergence")
    if {r["kind"] for r in rows} != set(expected):
        problems.append("both sequence kinds must occur")
    return problems[:5]


def _check_banach(rows, _):
    n = BANACH_SIZE
    problems = []
    if len(rows) != n + 1:
        return [f"{len(rows)} steps, expected {n + 1}"]
    for i, r in enumerate(rows):
        sup, euc = float(r["sup_norm"]), float(r["euclidean_norm"])
        if sup != (1.0 if i < n else 0.0):
            problems.append(f"step {i}: sup norm {sup!r}")
        if abs(euc - math.sqrt(n - i)) > FLOAT_SLACK:
            problems.append(f"step {i}: euclidean norm {euc!r}, expected sqrt({n - i})")
    return problems[:5]


def _check_levi_hilbert(rows, _):
    steps = min(HILBERT_SIZE, HILBERT_LENGTH)
    probes = HILBERT_SIZE + 64
    by_probe: dict = {}
    for r in rows:
        by_probe.setdefault(int(r["probe_id"]), []).append((int(r["step"]), float(r["residual_norm"])))
    problems = []
    if len(by_probe) != probes:
        problems.append(f"{len(by_probe)} probes, expected {probes}")
    for pid, seq in by_probe.items():
        residuals = [v for _, v in sorted(seq)]
        if len(residuals) != steps:
            problems.append(f"probe {pid}: {len(residuals)} steps, expected {steps}")
        elif not _nonincreasing(residuals, FLOAT_SLACK):
            problems.append(f"probe {pid}: residuals increase")
        elif residuals[-1] > HILBERT_TOL:
            problems.append(f"probe {pid}: last residual {residuals[-1]!r} above {HILBERT_TOL}")
    return problems[:5]


_CHECKS = {
    "levy-up": (_check_levy_up, "CONVERGED"),
    "levy-down": (_check_levy_down, "CONVERGED"),
    "noncauchy-l1": (_check_noncauchy, "STABILIZED-NONCAUCHY"),
    "levi-kernel": (_check_levi_kernel, "CONVERGED"),
    "galois-audit": (_check_galois, "PASS"),
    "homeo-audit": (_check_homeo, "PASS"),
    "banach-counterexample": (_check_banach, "STABILIZED"),
    "levi-hilbert": (_check_levi_hilbert, "CONVERGED"),
}


def check(spec: RunSpec, path: Path, ref) -> list:
    """Problems with one run's CSV; empty when the output is correct."""
    check_rows, verdict = _CHECKS[spec.experiment]
    rows, got = read_csv(path)
    problems = [] if got == verdict else [f"verdict {got!r}, expected {verdict!r}"]
    return problems + check_rows(rows, ref)
