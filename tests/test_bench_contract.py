"""Every function the benchmark traces by name is one the tracer wraps.

`bench/measure.py` stops a traced run when a `per_layer` metric of
BENCHMARK.json names no traced function. A name that only exists is not
enough: the tracer wraps the module-level functions defined in that
module, and the classes with an `__init__` of their own, among the
`finprob` modules that `bench/worker.py` has loaded. This reads
BENCHMARK.json and bench/spans.py without changing them, and lists what
the tracer would wrap in a fresh interpreter that imports `finprob.cli`,
as the worker does.
"""

import functools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_LIST_TARGETS = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1] + "/src")
import finprob.cli
spec = importlib.util.spec_from_file_location("bench_spans", sys.argv[1] + "/bench/spans.py")
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
print(json.dumps({"counter": spans.FRACTION_NEW, "targets": [t[0] for t in spans._targets()]}))
"""


@functools.lru_cache(maxsize=None)
def _tracer() -> dict:
    """The tracer's own counter name and the span names it would install."""
    out = subprocess.run(
        [sys.executable, "-c", _LIST_TARGETS, str(ROOT)],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return json.loads(out.stdout)


def _traced_names() -> list:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pattern = re.compile(r"^(\w+)\.(\w+)\.(self_s|calls)$")
    names = {m.group(1, 2) for m in map(pattern.match, (x["name"] for x in metrics)) if m}
    return sorted(n for n in names if ".".join(n) != _tracer()["counter"])


def test_some_names_are_traced():
    assert len(_traced_names()) > 20


@pytest.mark.parametrize("module, name", _traced_names(), ids=".".join)
def test_traced_name_resolves(module, name):
    assert f"{module}.{name}" in _tracer()["targets"]
