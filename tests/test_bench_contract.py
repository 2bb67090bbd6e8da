"""Every function the benchmark traces by name still exists.

`bench/measure.py` stops a traced run when a `per_layer` metric of
BENCHMARK.json names no traced function, so removing or renaming one of
them breaks the benchmark. This reads BENCHMARK.json and bench/spans.py
without changing them.
"""

import importlib
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tracer_counter() -> str:
    """Name of the counter the tracer records itself (Fraction constructions)."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FRACTION_NEW


def _traced_names() -> list:
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    pattern = re.compile(r"^(\w+)\.(\w+)\.(self_s|calls)$")
    names = {m.group(1, 2) for m in map(pattern.match, (x["name"] for x in metrics)) if m}
    return sorted(n for n in names if ".".join(n) != _tracer_counter())


def test_some_names_are_traced():
    assert len(_traced_names()) > 20


@pytest.mark.parametrize("module, name", _traced_names(), ids=".".join)
def test_traced_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"finprob.{module}"), name)
