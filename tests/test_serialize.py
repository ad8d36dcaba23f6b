"""JSON round trips and loader re-validation."""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from gptw import quantum as q
from gptw import serialize as ser
from gptw.errors import DimensionMismatchError, ValidationError
from gptw.ontic import validate_model

from test_theory import small_theory
from test_ontic import classical_bit_model


def test_theory_round_trip(tmp_path, qubit_theory):
    path = tmp_path / "theory.json"
    ser.save_theory(qubit_theory, path)
    loaded = ser.load_theory(path)
    assert loaded.preparations == qubit_theory.preparations
    assert loaded.transformations == qubit_theory.transformations
    for key, row in qubit_theory.rows():
        assert np.allclose(loaded._table[key], row, atol=0)


def test_box_round_trip(tmp_path, singlet_optimal_box):
    path = tmp_path / "box.json"
    ser.save_box(singlet_optimal_box, path)
    loaded = ser.load_box(path)
    assert loaded.settings == singlet_optimal_box.settings
    assert np.array_equal(loaded.table, singlet_optimal_box.table)


def test_state_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    state = q.ginibre_state(4, rng, dims=(2, 2))
    path = tmp_path / "state.json"
    ser.save_state(state, path)
    loaded = ser.load_state(path)
    assert loaded.dims == (2, 2)
    assert np.allclose(loaded.matrix, state.matrix, atol=0)


def test_povm_and_channel_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    povm = q.random_povm(2, 3, rng)
    chan = q.random_channel(2, 4, 2, rng)
    ppath, cpath = tmp_path / "p.json", tmp_path / "c.json"
    ser.save_povm(povm, ppath)
    ser.save_channel(chan, cpath)
    lp, lc = ser.load_povm(ppath), ser.load_channel(cpath)
    for a, b in zip(lp.elements, povm.elements):
        assert np.allclose(a, b, atol=0)
    assert lc.output_dims == chan.output_dims
    probe = q.ginibre_state(2, rng).matrix
    assert np.allclose(lc.apply(probe), chan.apply(probe), atol=1e-14)


def test_model_round_trip(tmp_path):
    model = classical_bit_model()
    path = tmp_path / "model.json"
    ser.save_model(model, path)
    loaded = ser.load_model(path)
    assert validate_model(loaded) == []
    assert loaded.ontic_states == model.ontic_states
    assert np.allclose(loaded.mu["pu"], model.mu["pu"], atol=0)


def test_parse_error_carries_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"parties": 2,\n  "settings": [2 2]}')
    with pytest.raises(ser.ParseError, match=r"line 2 column"):
        ser.load_box(path)


def test_loader_revalidates_normalization(tmp_path):
    path = tmp_path / "bad_theory.json"
    data = ser.theory_to_json(small_theory())
    data["table"][0]["probs"] = [0.9, 0.9]
    path.write_text(json.dumps(data))
    with pytest.raises(Exception):
        ser.load_theory(path)


def test_missing_key_reported(tmp_path):
    path = tmp_path / "nokey.json"
    path.write_text('{"parties": 2}')
    with pytest.raises(ser.ParseError, match="settings"):
        ser.load_box(path)


def test_non_numeric_probs_reported(tmp_path):
    path = tmp_path / "strings.json"
    path.write_text(
        '{"parties": 1, "settings": [1], "outcomes": [2], "table": {"0": ["a", "b"]}}'
    )
    with pytest.raises(ser.ParseError, match="numbers"):
        ser.load_box(path)


@pytest.mark.parametrize(
    "kraus, message",
    [
        ([[[1.0, 0.0], [0.0, 1.0]]], "re, im"),  # real rows, not [re, im] pairs
        ([[[[1.0, 0.0, 0.0]]]], "re, im"),  # triples
        ([[[["a", 0.0]]]], "numbers"),
        ([[[[float("nan"), 0.0]]]], "finite"),
    ],
)
def test_bad_kraus_operator_names_the_file(tmp_path, kraus, message):
    path = tmp_path / "bad_channel.json"
    path.write_text(json.dumps({"kraus": kraus}))
    with pytest.raises(ser.ParseError, match=message) as info:
        ser.load_channel(path)
    assert str(info.value).startswith(f"{path}: ")


def _encoded(*mats):
    return [ser.matrix_to_json(m) for m in mats]


# one constructor defect per loader, and a parse error that already names the file
CONSTRUCTOR_DEFECTS = [
    pytest.param(ser.load_state, {"dims": [-1, -2], "matrix": _encoded(np.eye(2) / 2)[0]},
                 DimensionMismatchError, id="state-dims"),
    pytest.param(ser.load_povm, {"elements": _encoded([[1.0, 0.5], [0.0, 0.0]], [[0.0, -0.5], [0.0, 1.0]])},
                 ValidationError, id="povm-non-hermitian"),
    pytest.param(ser.load_channel, {"kraus": _encoded(np.diag([1.0, 0.5]))}, ValidationError,
                 id="channel-not-trace-preserving"),
    pytest.param(ser.load_state, {"dim": 2, "matrix": [[[float("nan"), 0.0]]]}, ser.ParseError,
                 id="state-parse-error"),
]


@pytest.mark.parametrize("load, data, error", CONSTRUCTOR_DEFECTS)
def test_quantum_loader_errors_name_the_file_once(tmp_path, load, data, error):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(error) as info:
        load(path)
    message = str(info.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1


SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def _sample(name):
    return lambda: json.loads((SAMPLES / name).read_text())


# (loader, valid data, path to an integer field of that data whose value is 2)
INTEGER_FIELDS = [
    pytest.param(ser.box_from_json, _sample("pr_box.json"), ["parties"], id="parties"),
    pytest.param(ser.box_from_json, _sample("pr_box.json"), ["settings", 0], id="settings"),
    pytest.param(ser.box_from_json, _sample("pr_box.json"), ["outcomes", 1], id="outcomes"),
    pytest.param(ser.state_from_json, _sample("random_two_qubit.json"), ["dims", 0], id="dims"),
    pytest.param(ser.state_from_json, lambda: {"dim": 2, "matrix": _sample("state_zero.json")()["matrix"]},
                 ["dim"], id="dim"),
    pytest.param(ser.theory_from_json, _sample("qubit_theory.json"), ["measurements", 0, "arity"], id="arity"),
    pytest.param(ser.channel_from_json, lambda: ser.channel_to_json(q.Channel.identity(2)), ["output_dims", 0],
                 id="output_dims"),
]


@pytest.mark.parametrize("loader, make, path", INTEGER_FIELDS)
def test_integer_field_takes_integral_floats_only(loader, make, path):
    def load(value):
        data = make()
        node = data
        for key in path[:-1]:
            node = node[key]
        assert node[path[-1]] == 2
        node[path[-1]] = value
        return loader(data)

    load(2.0)
    with pytest.raises(ser.ParseError, match="expected an integer, got 2.5"):
        load(2.5)


@pytest.mark.parametrize("parties", [17, 40])
def test_box_with_more_axes_than_numpy_allows_is_refused(parties):
    # a one-setting, one-outcome table of 40 parties has 80 axes: numpy raised ValueError
    data = {"parties": parties, "settings": [1] * parties, "outcomes": [1] * parties,
            "table": {",".join(["0"] * parties): [1.0]}}
    with pytest.raises(ser.ParseError, match="16 parties"):
        ser.box_from_json(data)


def test_complex_matrix_encoding_is_re_im_pairs():
    mat = np.array([[1 + 2j, 0], [0, -1j]])
    encoded = ser.matrix_to_json(mat)
    assert encoded[0][0] == [1.0, 2.0]
    assert encoded[1][1] == [0.0, -1.0]
    assert np.allclose(ser.matrix_from_json(encoded), mat, atol=0)
