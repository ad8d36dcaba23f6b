"""Fuzzed loaders: on any JSON value a `*_from_json` loader returns or raises a GptwError.

Two kinds of input: arbitrary JSON values, and near misses, valid files with
one nested entry replaced or deleted.  An input error must stay a `GptwError`
(the CLI turns it into exit code 2 and one line); anything else escapes as a
traceback.  Runs are derandomized, so tier-1 sees the same examples each time.
"""
from __future__ import annotations

import copy
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gptw import quantum as q
from gptw import serialize as ser
from gptw.errors import GptwError

SAMPLES = Path(__file__).resolve().parents[1] / "samples"

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**7), 10**7)
    | st.floats()  # NaN and infinities included
    | st.text(max_size=6)
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=24,
)


@st.composite
def near_miss(draw, valid):
    """`valid` with one entry, at a drawn depth, replaced by a JSON value or deleted."""
    data = copy.deepcopy(valid)
    node = data
    while isinstance(node, (dict, list)) and node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.integers(0, 4)) == 0:
            del node[key]
        else:
            node[key] = draw(JSON)
        break
    return data


def _sample(name: str):
    return json.loads((SAMPLES / name).read_text())


VALID = {
    "box": [_sample("pr_box.json"), _sample("shared_bit_box.json")],
    "theory": [_sample("qubit_theory.json")],
    "state": [_sample("state_zero.json"), _sample("random_two_qubit.json")],
    "povm": [_sample("z_basis.json")],
    "channel": [ser.channel_to_json(q.random_channel(2, 2, 2, np.random.default_rng(0)))],
    "model": [_sample("classical_bit_model.json")],
    "matrix": [_sample("state_zero.json")["matrix"]],
}
LOADERS = {
    "box": ser.box_from_json,
    "theory": ser.theory_from_json,
    "state": ser.state_from_json,
    "povm": ser.povm_from_json,
    "channel": ser.channel_from_json,
    "model": ser.model_from_json,
    "matrix": ser.matrix_from_json,
}
FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_loader_returns_or_raises_gptw_error(kind):
    inputs = JSON | st.one_of([near_miss(v) for v in VALID[kind]])

    @FUZZ
    @given(inputs)
    def check(data):
        try:
            LOADERS[kind](data)
        except GptwError:
            pass

    check()


@pytest.mark.parametrize("kind", sorted(LOADERS))
def test_valid_samples_load(kind):
    for data in VALID[kind]:
        LOADERS[kind](data)
