"""Replay of `tests/golden/inputs.json`: every way in for numbers (the six
constructors, in both modes, and the text documents) gives the pinned
value or the pinned error class and message. See `tests/input_cases.py`."""

import json

import pytest

from .input_cases import GOLDEN, all_cases, record

PINNED = json.loads(GOLDEN.read_text(encoding="ascii"))
CASES = all_cases()


def test_every_case_is_pinned():
    assert sorted(CASES) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(CASES))
def test_input_replays(name):
    assert record(CASES[name]) == PINNED[name]
