"""CLI subcommands: reports, exit codes, determinism, and error handling."""
from __future__ import annotations

import json

import numpy as np
import pytest

from gptw import quantum as q
from gptw import serialize as ser
from gptw.cli import main

from conftest import pr_table, shared_bit_table, singlet_optimal_settings
from test_game import full_qubit_theory
from test_ontic import classical_bit_model
from gptw.correlations import CorrelationBox


@pytest.fixture
def files(tmp_path):
    """Write the standard input files once per test."""
    paths = {}

    box = CorrelationBox((2, 2), (2, 2), pr_table())
    paths["pr"] = tmp_path / "pr.json"
    ser.save_box(box, paths["pr"])

    alice, bob = singlet_optimal_settings()
    paths["singlet_box"] = tmp_path / "singlet_opt.json"
    ser.save_box(q.bipartite_box(q.singlet(), alice, bob), paths["singlet_box"])

    paths["shared_bit"] = tmp_path / "shared_bit.json"
    ser.save_box(CorrelationBox((2, 2, 2), (2, 2, 2), shared_bit_table()), paths["shared_bit"])

    paths["theory"] = tmp_path / "qubit.json"
    ser.save_theory(full_qubit_theory(), paths["theory"])

    paths["state"] = tmp_path / "state.json"
    ser.save_state(q.ginibre_state(4, np.random.default_rng(5), dims=(2, 2)), paths["state"])
    for name, povm in (("m", q.random_povm(2, 2, np.random.default_rng(6))), ("o", q.z_basis())):
        paths[name] = tmp_path / f"{name}.json"
        ser.save_povm(povm, paths[name])

    paths["s0"] = tmp_path / "s0.json"
    paths["s1"] = tmp_path / "s1.json"
    ser.save_povm(alice[0], paths["s0"])
    ser.save_povm(alice[1], paths["s1"])
    paths["b0"] = tmp_path / "b0.json"
    paths["b1"] = tmp_path / "b1.json"
    ser.save_povm(bob[0], paths["b0"])
    ser.save_povm(bob[1], paths["b1"])
    paths["singlet"] = tmp_path / "singlet.json"
    ser.save_state(q.singlet(), paths["singlet"])

    paths["zero"] = tmp_path / "zero.json"
    ser.save_state(q.DensityMatrix.pure(q.KET0), paths["zero"])
    paths["plus"] = tmp_path / "plus.json"
    ser.save_state(q.DensityMatrix.pure(q.KET_PLUS), paths["plus"])
    paths["diag"] = tmp_path / "diag.json"
    ser.save_state(q.DensityMatrix(np.diag([0.3, 0.7])), paths["diag"])

    paths["model"] = tmp_path / "model.json"
    ser.save_model(classical_bit_model(), paths["model"])
    bad = classical_bit_model()
    bad.trans["flip"] = np.array([[0.0, 1.0], [0.9, 0.0]])
    paths["bad_model"] = tmp_path / "bad_model.json"
    ser.save_model(bad, paths["bad_model"])
    return paths


def run(capsys, argv) -> tuple[int, list[dict]]:
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.strip().splitlines() if line]


def test_chsh_pr_box(files, capsys):
    code, reports = run(capsys, ["chsh", "--box", files["pr"]])
    assert code == 0
    (rep,) = reports
    assert rep["check"] == "chsh"
    assert rep["value"] == 4.0
    assert rep["bound"] == 2.0
    assert rep["pass"] is True
    assert len(rep["inputs"]["box"]) == 64


def test_chsh_explicit_settings(files, capsys):
    code, reports = run(capsys, ["chsh", "--box", files["pr"], "--a0", "0", "--a1", "1", "--b0", "0", "--b1", "1"])
    assert code == 0
    assert reports[0]["value"] == 4.0


def test_nosignal(files, capsys):
    code, reports = run(capsys, ["nosignal", "--box", files["pr"]])
    assert code == 0
    assert reports[0]["pass"] is True


def test_monogamy_strong_shared_bit(files, capsys):
    code, reports = run(capsys, ["monogamy", "strong", "--box", files["shared_bit"]])
    assert code == 0
    assert abs(reports[0]["value"] - 8.0) < 1e-9


def test_monogamy_ns(files, capsys):
    code, reports = run(capsys, ["monogamy", "ns", "--box", files["shared_bit"]])
    assert code == 0
    assert abs(reports[0]["value"] - 4.0) < 1e-9


def test_local_model_feasible_and_not(files, capsys):
    code, reports = run(capsys, ["local-model", "--box", files["pr"]])
    assert code == 1
    assert reports[0]["pass"] is False
    assert reports[0]["certificate"] is None

    code, reports = run(capsys, ["local-model", "--box", files["singlet_box"]])
    assert code == 1


def test_verify_cj(files, capsys):
    code, reports = run(
        capsys, ["verify-cj", "--state", files["state"], "--povm", files["m"], "--povm", files["o"]]
    )
    assert code == 0
    assert reports[0]["value"] < 1e-8


def test_verify_cj_converse_with_channel(files, capsys, tmp_path):
    chan_path = tmp_path / "chan.json"
    ser.save_channel(q.random_channel(2, 2, 2, np.random.default_rng(3)), chan_path)
    code, reports = run(
        capsys,
        [
            "verify-cj", "--state", files["zero"],
            "--povm", files["m"], "--povm", files["o"],
            "--channel", chan_path,
        ],
    )
    assert code == 0
    assert reports[0]["value"] < 1e-8
    assert "channel" in reports[0]["inputs"]


def test_broadcast_commuting(files, capsys):
    code, reports = run(capsys, ["broadcast", "--state", files["zero"], "--state", files["diag"]])
    assert code == 0
    assert reports[0]["commuting"] is True
    assert reports[0]["interference"] is False


def test_broadcast_non_commuting(files, capsys):
    code, reports = run(capsys, ["broadcast", "--state", files["zero"], "--state", files["plus"]])
    assert code == 1
    assert reports[0]["commuting"] is False
    assert reports[0]["interference"] is True
    assert abs(reports[0]["value"] - 0.5) < 1e-12


def test_theorem1_demonstrates_violation(files, capsys):
    code, reports = run(capsys, ["theorem1", "--box", files["singlet_box"]])
    assert code == 1  # the violation is the point: the monogamy check fails
    rep = reports[0]
    assert abs(rep["value"] - 16.0) < 1e-6
    assert rep["bound"] == 8.0
    assert rep["pass"] is False


def test_game_with_quantum_strategy(files, capsys):
    argv = [
        "game", "--state", files["singlet"],
        "--povm", files["s0"], "--povm", files["s1"],
        "--povm", files["b0"], "--povm", files["b1"],
        "--seed", "9", "--rounds", "5000",
    ]
    code, reports = run(capsys, argv)
    assert code == 0
    rep = reports[0]
    for key in ("exact_rate", "empirical_rate", "rounds", "seed", "bound", "pass"):
        assert key in rep
    assert abs(rep["exact_rate"] - np.cos(np.pi / 8) ** 2) < 1e-9
    assert rep["rounds"] == 5000 and rep["seed"] == 9


def test_game_with_box(files, capsys):
    code, reports = run(capsys, ["game", "--box", files["pr"], "--seed", "1", "--rounds", "100"])
    assert code == 1  # PR box exceeds the quantum cap
    assert reports[0]["exact_rate"] == 1.0


def test_game_seed_reproducible(files, capsys):
    argv = ["game", "--box", files["pr"], "--seed", "77", "--rounds", "400"]
    _, r1 = run(capsys, argv)
    _, r2 = run(capsys, argv)
    r1[0].pop("wall_time_s")
    r2[0].pop("wall_time_s")
    assert r1 == r2


def test_uncertainty(files, capsys):
    code, reports = run(capsys, ["uncertainty", "--theory", files["theory"], "--m1", "X", "--m2", "Z"])
    assert code == 0
    rep = reports[0]
    assert abs(rep["value"] - 1.7071067811865475) < 1e-9
    assert abs(rep["bound"] - 1.7071067811865475) < 1e-12
    assert rep["pass"] is True
    assert rep["saturated"] is True


def test_validate_model_good_and_bad(files, capsys):
    code, reports = run(capsys, ["validate-model", "--model", files["model"]])
    assert code == 0
    assert reports[0]["value"] == 0

    code, reports = run(capsys, ["validate-model", "--model", files["bad_model"]])
    assert code == 1
    assert reports[0]["value"] == 1
    assert reports[0]["violations"][0]["condition"] == 5


def test_dim(files, capsys):
    code, reports = run(capsys, ["dim", "--theory", files["theory"]])
    assert code == 0
    assert reports[0]["value"] == 3
    assert reports[0]["claimed_dimension"] == 2


def test_parse_error_exits_two(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["chsh", "--box", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


def assert_input_error(capsys, argv) -> str:
    """The CLI exits 2 with one `error:` line on stderr and prints no report."""
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    return line


@pytest.mark.parametrize("command", ["nosignal", "chsh"])
def test_nan_box_exits_two(capsys, tmp_path, command):
    data = ser.box_to_json(CorrelationBox((2, 2), (2, 2), pr_table()))
    data["table"]["0,0"][0] = float("nan")
    bad = tmp_path / "nan_box.json"
    bad.write_text(json.dumps(data))  # json writes the bare token NaN
    assert "finite" in assert_input_error(capsys, [command, "--box", bad])


def _set(path, value):
    def mutate(data):
        *outer, last = path
        for key in outer:
            data = data[key]
        data[last] = value

    return mutate


MALFORMED = [
    pytest.param("pr", _set(["settings"], ["two", 2]), id="settings-string"),
    pytest.param("pr", _set(["settings"], [None, 2]), id="settings-null"),
    pytest.param("pr", _set(["settings"], [2.5, 2]), id="settings-fraction"),
    pytest.param("pr", _set(["settings"], 2), id="settings-scalar"),
    pytest.param("pr", _set(["settings"], [0, 2]), id="settings-zero"),
    pytest.param("pr", _set(["outcomes"], [2, "x"]), id="outcomes-string"),
    pytest.param("pr", _set(["parties"], "two"), id="parties-string"),
    pytest.param("pr", _set(["table"], 0.25), id="box-table-number"),
    pytest.param("model", _set(["preparations"], [[1.0, 0.0]]), id="model-preparations-array"),
    pytest.param("model", _set(["preparations", "p0", 0], float("nan")), id="model-nan"),
    pytest.param("theory", _set(["measurements", 0, "arity"], "two"), id="theory-arity-string"),
    pytest.param("theory", _set(["table", 0, "probs", 0], float("nan")), id="theory-nan"),
    pytest.param("zero", _set(["dims"], ["a"]), id="state-dims-string"),
    pytest.param("zero", _set(["matrix", 0, 0, 0], float("nan")), id="state-nan"),
    pytest.param("o", _set(["elements", 0, 0, 0, 0], float("inf")), id="povm-inf"),
]
COMMANDS = {
    "pr": ["chsh", "--box", "{}"],
    "model": ["validate-model", "--model", "{}"],
    "theory": ["dim", "--theory", "{}"],
    "zero": ["broadcast", "--state", "{}", "--state", "{diag}"],
    "o": ["verify-cj", "--state", "{state}", "--povm", "{}", "--povm", "{m}"],
}


@pytest.mark.parametrize("name, mutate", MALFORMED)
def test_malformed_input_exits_two(files, capsys, tmp_path, name, mutate):
    data = json.loads(files[name].read_text())
    mutate(data)
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data))
    argv = [a.format(bad, **files) for a in COMMANDS[name]]
    assert_input_error(capsys, argv)


def test_missing_file_exits_two(capsys, tmp_path):
    code = main(["chsh", "--box", str(tmp_path / "absent.json")])
    assert code == 2


def test_seed_must_fit_64_bits(files, capsys):
    code = main(["game", "--box", str(files["pr"]), "--seed", str(2**64), "--rounds", "10"])
    assert code == 2
    assert "64-bit" in capsys.readouterr().err


def test_deterministic_reports(files, capsys):
    _, r1 = run(capsys, ["chsh", "--box", files["pr"]])
    _, r2 = run(capsys, ["chsh", "--box", files["pr"]])
    r1[0].pop("wall_time_s")
    r2[0].pop("wall_time_s")
    assert r1 == r2


def test_env_tolerance_override(files, capsys, monkeypatch):
    monkeypatch.setenv("GPTW_DEFAULT_TOL", "3.0")
    # with tol = 3, |B| > 2 + 3 never holds: even the PR box reports pass=false
    code, reports = run(capsys, ["chsh", "--box", files["pr"]])
    assert code == 1
    assert reports[0]["tol"] == 3.0
    monkeypatch.setenv("GPTW_DEFAULT_TOL", "1e-9")
    code, reports = run(capsys, ["chsh", "--box", files["pr"]])
    assert code == 0


def test_explicit_tol_beats_env(files, capsys, monkeypatch):
    monkeypatch.setenv("GPTW_DEFAULT_TOL", "3.0")
    code, reports = run(capsys, ["chsh", "--box", files["pr"], "--tol", "1e-9"])
    assert code == 0
    assert reports[0]["tol"] == 1e-9


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_non_finite_or_negative_tol_exits_two(files, capsys, monkeypatch, tol):
    assert "tolerance" in assert_input_error(capsys, ["chsh", "--box", files["pr"], "--tol", tol])
    monkeypatch.setenv("GPTW_DEFAULT_TOL", tol)
    assert "tolerance" in assert_input_error(capsys, ["nosignal", "--box", files["pr"]])


def test_pretty_output(files, capsys):
    code = main(["chsh", "--box", str(files["pr"]), "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("[PASS] chsh:")
