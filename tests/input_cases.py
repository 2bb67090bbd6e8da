"""Pinned results of reading numbers into finprob objects.

Every case hands one input to one of the six constructors that read
numbers from outside (`ProbSpace`, `RandomVar`, `VecRandomVar`, `Kernel`,
`kernel_sequence`, `Coupling`), in one numeric mode, or one text document
to `serialize.loads`. Its record is the value it builds, every number
written exactly as a "num/den" string, or the class and message of the
error it raises. `tests/test_input_pins.py` replays every case against
`tests/golden/inputs.json`.

Regenerate the file (only when a change of behaviour is intended, and
say which cases changed) with

    PYTHONPATH=src python tests/input_cases.py
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np

import finprob as fp
from finprob import serialize

GOLDEN = Path(__file__).parent / "golden" / "inputs.json"
MODES = {"rational": fp.rational_mode(), "float": fp.FLOAT_DEFAULT}
NAN, INF = math.nan, math.inf


def _ratio(x) -> str:
    f = F(x)
    return f"{f.numerator}/{f.denominator}"


def _ratios(values) -> list:
    """Nested lists of "num/den" strings for an array of numbers."""
    return np.frompyfunc(_ratio, 1, 1)(np.asarray(values, dtype=object)).tolist()


def describe(obj):
    """JSON form of a built object: its kind and every number in it."""
    if isinstance(obj, list):
        return [describe(o) for o in obj]
    if isinstance(obj, fp.ProbSpace):
        return {"space": _ratios(obj.weights)}
    if isinstance(obj, fp.RandomVar):
        return {"rv": _ratios(obj.values), "dim": obj.dim, "space": _ratios(obj.space.weights)}
    if isinstance(obj, fp.Kernel):
        return {"kernel": _ratios(obj.rows), "domain": _ratios(obj.domain.weights),
                "codomain": _ratios(obj.codomain.weights)}
    if isinstance(obj, fp.Coupling):
        return {"coupling": _ratios(obj.table)}
    raise TypeError(f"no description for {type(obj).__name__}")


def record(build) -> dict:
    """The value `build()` returns, or the class and message of what it
    raises, under the warning filters of the test suite."""
    with warnings.catch_warnings():
        for category in (RuntimeWarning, DeprecationWarning, PendingDeprecationWarning):
            warnings.simplefilter("error", category)
        try:
            return {"value": describe(build())}
        except Exception as exc:  # every outcome is pinned, errors included
            return {"error": type(exc).__name__, "message": str(exc)}


# -- inputs ----------------------------------------------------------------

def _obj(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def _obj2(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        out[i, :] = row
    return out


# One number per outcome of a two-outcome space.
VECTORS = {
    "list-float": lambda: [0.5, 0.5],
    "list-int": lambda: [1, 0],
    "list-fraction": lambda: [F(1, 3), F(2, 3)],
    "list-mixed": lambda: [F(1, 2), 0.5],
    "tuple": lambda: (0.25, 0.75),
    "strings-fraction": lambda: ["1/2", "1/2"],
    "strings-decimal": lambda: ["0.5", "0.5"],
    "strings-bad": lambda: ["a", "1"],
    "string-whole": lambda: "10",
    "bools": lambda: [True, False],
    "integral-floats": lambda: [1.0, 0.0],
    "nonintegral-floats": lambda: [0.25, 0.75],
    "numpy-scalars": lambda: [np.float64(0.5), np.float64(0.5)],
    "numpy-ints": lambda: [np.int64(1), np.int64(0)],
    "nan": lambda: [NAN, 1.0],
    "inf": lambda: [INF, 0.0],
    "minus-inf": lambda: [-INF, 1.0],
    "negative": lambda: [-0.5, 1.5],
    "short-sum": lambda: [0.5, 0.25],
    "negative-strings": lambda: ["-1/2", "3/2"],
    "short-sum-strings": lambda: ["1/2", "1/4"],
    "zeros": lambda: [0, 0],
    "huge-ints": lambda: [2**62, 2**62],
    "huge-total": lambda: [2**63 - 1, -(2**63 - 2)],
    "very-huge": lambda: [10**400, 1],
    "empty": lambda: [],
    "one": lambda: [1],
    "three": lambda: [F(1, 3)] * 3,
    "nested": lambda: [[0.5], [0.5]],
    "one-row": lambda: [[0.5, 0.5]],
    "scalar": lambda: 0.5,
    "none": lambda: None,
    "array-float64": lambda: np.array([0.5, 0.5]),
    "array-float32": lambda: np.array([0.5, 0.5], dtype=np.float32),
    "array-int64": lambda: np.array([1, 0]),
    "array-uint8": lambda: np.array([1, 0], dtype=np.uint8),
    "array-bool": lambda: np.array([True, False]),
    "array-object-fraction": lambda: _obj([F(1, 4), F(3, 4)]),
    "array-object-int": lambda: _obj([1, 0]),
    "array-object-float": lambda: _obj([0.5, 0.5]),
    "array-object-integral-float": lambda: _obj([1.0, 0.0]),
    "array-strings": lambda: np.array(["1/2", "1/2"]),
    "array-complex": lambda: np.array([0.5 + 0j, 0.5]),
    "array-nan": lambda: np.array([NAN, 1.0]),
    "array-empty": lambda: np.array([]),
    "array-0d": lambda: np.array(0.5),
    "array-2d": lambda: np.array([[0.5, 0.5]]),
    "array-column": lambda: np.array([[0.5], [0.5]]),
    "array-3d": lambda: np.full((2, 1, 1), 0.5),
}

# One row of numbers per outcome of a two-outcome space.
MATRICES = {
    "list-identity": lambda: [[1, 0], [0, 1]],
    "list-float": lambda: [[0.5, 0.5], [0.25, 0.75]],
    "list-fraction": lambda: [[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]],
    "tuples": lambda: ((0.5, 0.5), (1.0, 0.0)),
    "strings": lambda: [["1/2", "1/2"], ["1", "0"]],
    "strings-bad": lambda: [["a", "b"], [1, 0]],
    "bools": lambda: [[True, False], [False, True]],
    "nonintegral-floats": lambda: [[0.25, 0.75], [0.5, 0.5]],
    "nan": lambda: [[NAN, 1.0], [0.5, 0.5]],
    "inf": lambda: [[0.5, 0.5], [INF, 0.0]],
    "negative": lambda: [[1.5, -0.5], [0.5, 0.5]],
    "short-row": lambda: [[0.5, 0.25], [0.5, 0.5]],
    "negative-strings": lambda: [["3/2", "-1/2"], ["1/2", "1/2"]],
    "short-row-strings": lambda: [["1", "0"], ["1/2", "1/4"]],
    "halves": lambda: [[0.25, 0.25], [0.25, 0.25]],
    "huge": lambda: [[2**62, 2**62], [0, 1]],
    "very-huge": lambda: [[10**400, 1], [0, 1]],
    "ragged": lambda: [[1, 0], [1]],
    "ragged-long": lambda: [[1, 0], [0, 1, 0]],
    "row-number": lambda: [[1, 0], 1],
    "flat": lambda: [1, 0],
    "empty": lambda: [],
    "empty-rows": lambda: [[], []],
    "three-deep": lambda: [[[1, 0]], [[0, 1]]],
    "wide": lambda: [[1, 0, 0], [0, 1, 0]],
    "scalar": lambda: 1.0,
    "array-float64": lambda: np.array([[0.5, 0.5], [0.25, 0.75]]),
    "array-int64": lambda: np.array([[1, 0], [0, 1]]),
    "array-bool": lambda: np.array([[True, False], [False, True]]),
    "array-object-fraction": lambda: _obj2([[F(1, 3), F(2, 3)], [F(1, 2), F(1, 2)]]),
    "array-object-float": lambda: _obj2([[0.5, 0.5], [0.25, 0.75]]),
    "array-object-int": lambda: _obj2([[1, 0], [0, 1]]),
    "array-nan": lambda: np.array([[0.5, 0.5], [NAN, 1.0]]),
    "array-negative": lambda: np.array([[0.5, 0.5], [-1.0, 2.0]]),
    "array-1d": lambda: np.array([0.5, 0.5]),
    "array-3d": lambda: np.full((1, 2, 2), 0.5),
    "array-empty": lambda: np.zeros((0, 2)),
    "array-wide": lambda: np.eye(2, 3),
}

# A stack of two-by-two row matrices.
STACKS = {
    "array-float64": lambda: np.array([[[0.5, 0.5], [0.25, 0.75]], [[1.0, 0.0], [0.0, 1.0]]]),
    "array-int64": lambda: np.array([[[1, 0], [0, 1]]]),
    "array-object-fraction": lambda: np.array([[[F(1, 2), F(1, 2)], [F(1, 3), F(2, 3)]]], dtype=object),
    "array-object-float": lambda: np.array([[[0.5, 0.5], [1.0, 0.0]]], dtype=object),
    "array-bool": lambda: np.array([[[True, False], [False, True]]]),
    "array-nan": lambda: np.array([[[0.5, 0.5], [NAN, 1.0]]]),
    "array-negative": lambda: np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.5], [-1.0, 2.0]]]),
    "array-int-negative": lambda: np.array([[[1, 0], [0, 1]], [[1, 0], [-1, 2]]]),
    "array-int-short-row": lambda: np.array([[[1, 0], [0, 1]], [[1, 0], [0, 2]]]),
    "array-short-row": lambda: np.array([[[1.0, 0.0], [0.0, 1.0]], [[0.5, 0.25], [0.5, 0.5]]]),
    "array-empty": lambda: np.zeros((0, 2, 2)),
    "array-2d": lambda: np.array([[1.0, 0.0], [0.0, 1.0]]),
    "array-wrong-shape": lambda: np.ones((1, 1, 2)) / 2,
    "list-nested": lambda: [[[1, 0], [0, 1]]],
    "list-empty": lambda: [],
    "list-of-arrays": lambda: [np.eye(2)],
}

# A joint table on two outcomes times two outcomes, marginals (1/2, 1/2).
TABLES = {
    "list-diagonal": lambda: [[0.5, 0], [0, 0.5]],
    "list-fraction": lambda: [[F(1, 4), F(1, 4)], [F(1, 4), F(1, 4)]],
    "strings": lambda: [["1/4", "1/4"], ["1/4", "1/4"]],
    "nonintegral-floats": lambda: [[0.25, 0.25], [0.25, 0.25]],
    "bad-rows": lambda: [[0.5, 0.25], [0.0, 0.25]],
    "bad-columns": lambda: [[0.5, 0.0], [0.5, 0.0]],
    "negative": lambda: [[0.75, -0.25], [-0.25, 0.75]],
    "bad-rows-strings": lambda: [["1/2", "1/4"], ["0", "1/4"]],
    "bad-columns-strings": lambda: [["1/2", "0"], ["1/2", "0"]],
    "negative-strings": lambda: [["3/4", "-1/4"], ["-1/4", "3/4"]],
    "nan": lambda: [[NAN, 0.0], [0.0, 0.5]],
    "huge": lambda: [[2**62, 0], [0, 2**62]],
    "ragged": lambda: [[0.5, 0.0], [0.5]],
    "empty": lambda: [],
    "flat": lambda: [0.5, 0.5],
    "array-float64": lambda: np.array([[0.5, 0.0], [0.0, 0.5]]),
    "array-int64": lambda: np.array([[1, 0], [0, 0]]),
    "array-object-fraction": lambda: _obj2([[F(1, 2), F(0)], [F(0), F(1, 2)]]),
    "array-3d": lambda: np.full((1, 2, 2), 0.25),
}


def _space(mode, n=2):
    return fp.uniform_space(n, mode)


def constructor_cases() -> dict:
    """{case id: build()} for the six constructors in both modes."""
    cases = {}
    for mname, mode in MODES.items():
        for name, make in VECTORS.items():
            cases[f"ProbSpace/{name}/{mname}"] = lambda make=make, mode=mode: fp.ProbSpace(make(), mode)
            cases[f"RandomVar/{name}/{mname}"] = lambda make=make, mode=mode: fp.RandomVar(make(), _space(mode))
        for name, make in MATRICES.items():
            for ctor in ("RandomVar", "VecRandomVar"):
                cases[f"{ctor}/{name}/{mname}"] = (
                    lambda make=make, mode=mode, ctor=ctor: getattr(fp, ctor)(make(), _space(mode)))
            cases[f"Kernel/{name}/{mname}"] = lambda make=make, mode=mode: fp.Kernel(make(), _space(mode), _space(mode))
            cases[f"Kernel-to-3/{name}/{mname}"] = (
                lambda make=make, mode=mode: fp.Kernel(make(), _space(mode), _space(mode, 3)))
        for dim in (2, 3):
            cases[f"VecRandomVar-dim{dim}/list-float/{mname}"] = (
                lambda mode=mode, dim=dim: fp.VecRandomVar(MATRICES["list-float"](), _space(mode), dim))
        for name, make in STACKS.items():
            cases[f"kernel_sequence/{name}/{mname}"] = (
                lambda make=make, mode=mode: fp.kernel_sequence(make(), _space(mode), _space(mode)))
        for name, make in TABLES.items():
            cases[f"Coupling/{name}/{mname}"] = lambda make=make, mode=mode: fp.Coupling(make(), _space(mode), _space(mode))
        cases[f"make_space/huge-ints/{mname}"] = lambda mode=mode: fp.make_space([2**62, 2**62], mode)
    return cases


# Tokens put in the last place of each kind of number line.
TOKENS = [
    "x", "nan", "inf", "-inf", "1/0", "1/-2", "-1/2", "+1/2", "1/", "/2", "1/2/3",
    "1.5", "1e3", "0x1", "1_0", "--1", "0.5e-1", "3/4",
]
LINES = {
    "weights": "space\nmode {mode}\nweights 0.5 {token}\n",
    "values": "rv\nmode {mode}\nweights 0.5 0.5\nvalues 1 {token}\n",
    "vec": "vecrv\nmode {mode}\nweights 0.5 0.5\nvec 1 2\nvec 3 {token}\n",
    "domain": "kernel\nmode {mode}\ndomain 0.5 {token}\ncodomain 1\nrow 1\nrow 1\n",
    "codomain": "kernel\nmode {mode}\ndomain 0.5 0.5\ncodomain 0.5 {token}\nrow 0.5 0.5\nrow 0.5 0.5\n",
    "row": "kernel\nmode {mode}\ndomain 0.5 0.5\ncodomain 0.5 0.5\nrow 0.5 0.5\nrow 0.5 {token}\n",
    "row-first": "kernel\nmode {mode}\ndomain 0.5 0.5\ncodomain 0.5 0.5\nrow {token} 0.5\nrow 0.5 0.5\n",
}
KERNEL_BODIES = {
    "ragged": "row 1 0\nrow 1\n",
    "ragged-then-bad": "row 1 0\nrow 1\nrow x 0\n",
    "no-rows": "",
    "one-row": "row 1 0\n",
    "three-rows": "row 1 0\nrow 0 1\nrow 1 0\n",
    "empty-row": "row\nrow\n",
    "wide": "row 1 0 0\nrow 0 1 0\n",
    "fractions": "row 1/3 2/3\nrow 2/3 1/3\n",
    "big-fractions": f"row 1/{2**70} {2**70 - 1}/{2**70}\nrow 0 1\n",
    "not-stochastic": "row 0.5 0.25\nrow 0.5 0.5\n",
    "negative": "row 1.5 -0.5\nrow 0.5 0.5\n",
    "huge": f"row {2**62} {2**62}\nrow 0 1\n",
}
WHOLE = {
    "space-huge": "space\nmode {mode}\nweights 4611686018427387904 4611686018427387904\n",
    "space-empty": "space\nmode {mode}\nweights\n",
    "rv-empty-values": "rv\nmode {mode}\nweights 1\nvalues\n",
    "vecrv-ragged": "vecrv\nmode {mode}\nweights 0.5 0.5\nvec 1 2\nvec 3\n",
    "vecrv-no-rows": "vecrv\nmode {mode}\nweights 1\n",
    "vecrv-huge": "vecrv\nmode {mode}\nweights 0.5 0.5\nvec 4611686018427387904 1\nvec 4611686018427387904 1\n",
}


# mode lines, each under a one-outcome space document
MODE_LINES = ["rational", "rational 0", "float", "float 1e-09", "float 0.5", "float x", "float 1/2",
              "float nan", "float inf", "float -inf", "float 1e400", "float 0", "float -1e-09",
              "float 1e-09 junk", "exact", ""]


def document_cases() -> dict:
    """{case id: build()} for text documents in both modes, and for mode lines."""
    cases = {
        f"loads/mode/{line}": lambda text=f"space\nmode {line}\nweights 1\n": serialize.loads(text)
        for line in MODE_LINES
    }
    for mname, mode in (("rational", "rational"), ("float", "float 1e-09")):
        for line, template in LINES.items():
            for i, token in enumerate(TOKENS):
                text = template.format(mode=mode, token=token)
                cases[f"loads/{line}/{i}-{token}/{mname}"] = lambda text=text: serialize.loads(text)
            text = template.format(mode=mode, token="").rstrip() + "\n"
            cases[f"loads/{line}/missing/{mname}"] = lambda text=text: serialize.loads(text)
        head = f"kernel\nmode {mode}\ndomain 0.5 0.5\ncodomain 0.5 0.5\n"
        for name, body in KERNEL_BODIES.items():
            cases[f"loads/kernel-{name}/{mname}"] = lambda text=head + body: serialize.loads(text)
        for name, template in WHOLE.items():
            cases[f"loads/{name}/{mname}"] = lambda text=template.format(mode=mode): serialize.loads(text)
    return cases


def all_cases() -> dict:
    return {**constructor_cases(), **document_cases()}


def main() -> int:
    records = {name: record(build) for name, build in all_cases().items()}
    GOLDEN.write_text(json.dumps(records, indent=0, sort_keys=True) + "\n", encoding="ascii")
    print(f"{len(records)} cases written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
