"""CLI subcommands: reports, exit codes, determinism, and error handling."""
from __future__ import annotations

import json

import numpy as np
import pytest

from gptw import quantum as q
from gptw import serialize as ser
from gptw.cli import DEFAULT_TOLS, main
from gptw.reports import file_digest

from conftest import isotropic_table, pr_table, shared_bit_table, singlet_optimal_settings
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

    paths["channel"] = tmp_path / "channel.json"
    ser.save_channel(q.random_channel(2, 2, 2, np.random.default_rng(3)), paths["channel"])

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


@pytest.mark.parametrize("flag, value", [("--a0", "5"), ("--a0", "-1"), ("--b1", "2")])
def test_chsh_explicit_settings_out_of_range_exit_two(files, capsys, flag, value):
    settings = {"--a0": "0", "--a1": "1", "--b0": "0", "--b1": "1", flag: value}
    argv = ["chsh", "--box", files["pr"]] + [a for item in settings.items() for a in item]
    assert "out of range" in assert_input_error(capsys, argv)


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


def test_local_model_reports_its_method(files, capsys, tmp_path):
    code, reports = run(capsys, ["local-model", "--box", files["singlet_box"]])
    (rep,) = reports
    assert code == 1 and rep["pass"] is False
    assert rep["method"] == "chsh" and rep["value"] is None and rep["certificate"] is None
    assert rep["a_settings"] == [0, 1] and rep["b_settings"] == [0, 1]
    assert abs(rep["margin"] - (2 * np.sqrt(2) - 2 - 16e-7)) < 1e-12

    path = tmp_path / "isotropic_half.json"
    ser.save_box(CorrelationBox((2, 2), (2, 2), isotropic_table(0.5)), path)
    code, reports = run(capsys, ["local-model", "--box", path])
    (rep,) = reports
    assert code == 0 and rep["method"] == "lp" and rep["value"] <= 1e-7
    assert "margin" not in rep


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


@pytest.mark.parametrize("rounds", ["0", "-5"])
def test_game_non_positive_rounds_exit_two(files, capsys, rounds):
    assert "rounds" in assert_input_error(capsys, ["game", "--box", files["pr"], "--rounds", rounds])


def test_game_default_rounds(files, capsys):
    code, reports = run(capsys, ["game", "--box", files["pr"], "--seed", "3"])
    assert reports[0]["rounds"] == 10000


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


def _one_row_box(n_settings):
    """A box claiming n_settings settings per party whose table holds a single row."""

    def mutate(data):
        data["settings"] = [n_settings, n_settings]
        data["table"] = {"0,0": data["table"]["0,0"]}

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
    pytest.param("pr", _one_row_box(10**6), id="box-settings-1e6-one-row"),  # a 29 TiB table
    pytest.param("pr", _one_row_box(3000), id="box-settings-3000-one-row"),
    pytest.param("pr", _set(["outcomes"], [10**6, 10**6]), id="box-outcomes-1e6"),
    pytest.param("model", _set(["preparations"], [[1.0, 0.0]]), id="model-preparations-array"),
    pytest.param("model", _set(["preparations", "p0", 0], float("nan")), id="model-nan"),
    pytest.param("theory", _set(["measurements", 0, "arity"], "two"), id="theory-arity-string"),
    pytest.param("theory", _set(["table", 0, "probs", 0], float("nan")), id="theory-nan"),
    pytest.param("zero", _set(["dims"], ["a"]), id="state-dims-string"),
    pytest.param("zero", _set(["matrix", 0, 0, 0], float("nan")), id="state-nan"),
    # both products equal the matrix dimension 2 in int64 arithmetic: 3 * 6148914691236517206 wraps
    pytest.param("zero", _set(["dims"], [3, 6148914691236517206]), id="state-dims-int64-wrap"),
    pytest.param("zero", _set(["dims"], [-1, -2]), id="state-dims-negative"),
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


# a file rejected by the object's constructor, not by the parser, given second of its kind
CONSTRUCTOR_ERRORS = [
    pytest.param("zero", _set(["dims"], [-1, -2]), ["broadcast", "--state", "{zero}", "--state", "{}"],
                 id="second-state-negative-dims"),
    pytest.param("o", _set(["elements", 0, 0, 1], [0.5, 0.0]),
                 ["game", "--state", "{singlet}", "--povm", "{s0}", "--povm", "{}", "--povm", "{b0}",
                  "--povm", "{b1}"], id="second-povm-non-hermitian"),
]


@pytest.mark.parametrize("name, mutate, command", CONSTRUCTOR_ERRORS)
def test_constructor_error_names_the_file(files, capsys, tmp_path, name, mutate, command):
    data = json.loads(files[name].read_text())
    mutate(data)
    bad = tmp_path / "constructor_error.json"
    bad.write_text(json.dumps(data))
    line = assert_input_error(capsys, [a.format(bad, **files) for a in command])
    assert line.startswith(f"error: {bad}: ")


@pytest.mark.parametrize(
    "settings, command",
    [
        pytest.param((1, 1), ["chsh"], id="chsh-1x1"),
        pytest.param((1, 1), ["theorem1"], id="theorem1-1x1"),
        pytest.param((1, 2, 2), ["monogamy", "ns"], id="monogamy-ns-1x2x2"),
        pytest.param((1, 2, 2), ["monogamy", "strong"], id="monogamy-strong-1x2x2"),
    ],
)
def test_one_setting_box_exits_two(capsys, tmp_path, settings, command):
    n = len(settings)
    path = tmp_path / "one_setting.json"
    ser.save_box(CorrelationBox(settings, (2,) * n, np.full(settings + (2,) * n, 0.5**n)), path)
    assert "two settings" in assert_input_error(capsys, [*command, "--box", path])


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


# One invocation per subcommand (both monogamy kinds); "{name}" is a file of the `files` fixture
SUBCOMMANDS = {
    "chsh": ["chsh", "--box", "{pr}"],
    "nosignal": ["nosignal", "--box", "{pr}"],
    "monogamy-ns": ["monogamy", "ns", "--box", "{shared_bit}"],
    "monogamy-strong": ["monogamy", "strong", "--box", "{shared_bit}"],
    "local-model": ["local-model", "--box", "{singlet_box}"],
    "verify-cj": ["verify-cj", "--state", "{state}", "--povm", "{m}", "--povm", "{o}"],
    "broadcast": ["broadcast", "--state", "{zero}", "--state", "{diag}"],
    "theorem1": ["theorem1", "--box", "{singlet_box}"],
    "game": ["game", "--state", "{singlet}", "--povm", "{s0}", "--povm", "{s1}", "--povm", "{b0}",
             "--povm", "{b1}", "--rounds", "100"],
    "uncertainty": ["uncertainty", "--theory", "{theory}", "--m1", "X", "--m2", "Z"],
    "validate-model": ["validate-model", "--model", "{model}"],
    "dim": ["dim", "--theory", "{theory}"],
}
BOX = [("box", "pr")]
INPUTS = [
    pytest.param(SUBCOMMANDS["chsh"], BOX, id="chsh"),
    pytest.param(SUBCOMMANDS["nosignal"], BOX, id="nosignal"),
    pytest.param(SUBCOMMANDS["monogamy-ns"], [("box", "shared_bit")], id="monogamy-ns"),
    pytest.param(SUBCOMMANDS["local-model"], [("box", "singlet_box")], id="local-model"),
    pytest.param(SUBCOMMANDS["theorem1"], [("box", "singlet_box")], id="theorem1"),
    pytest.param(SUBCOMMANDS["verify-cj"], [("state", "state"), ("povm0", "m"), ("povm1", "o")], id="verify-cj"),
    pytest.param(
        ["verify-cj", "--state", "{zero}", "--povm", "{m}", "--povm", "{o}", "--channel", "{channel}"],
        [("state", "zero"), ("povm0", "m"), ("povm1", "o"), ("channel", "channel")],
        id="verify-cj-channel",
    ),
    pytest.param(SUBCOMMANDS["broadcast"], [("state0", "zero"), ("state1", "diag")], id="broadcast"),
    pytest.param(
        SUBCOMMANDS["game"],
        [("state", "singlet"), ("povm0", "s0"), ("povm1", "s1"), ("povm2", "b0"), ("povm3", "b1")],
        id="game-state",
    ),
    # --box wins, so the stray --state is never read and names no input
    pytest.param(["game", "--box", "{pr}", "--state", "{absent}", "--rounds", "100"], BOX, id="game-box"),
    pytest.param(SUBCOMMANDS["uncertainty"], [("theory", "theory")], id="uncertainty"),
    pytest.param(SUBCOMMANDS["validate-model"], [("model", "model")], id="validate-model"),
    pytest.param(SUBCOMMANDS["dim"], [("theory", "theory")], id="dim"),
]


@pytest.mark.parametrize("template, inputs", INPUTS)
def test_one_report_line_with_inputs_in_flag_order(files, capsys, tmp_path, template, inputs):
    main([a.format(**files, absent=tmp_path / "absent.json") for a in template])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    digests = json.loads(lines[0])["inputs"]
    assert list(digests.items()) == [(key, file_digest(files[name])) for key, name in inputs]


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_tolerance_default_and_env(files, capsys, monkeypatch, name):
    argv = [a.format(**files) for a in SUBCOMMANDS[name]]
    monkeypatch.delenv("GPTW_DEFAULT_TOL", raising=False)
    _, (rep,) = run(capsys, argv)
    assert rep["tol"] == DEFAULT_TOLS[argv[0]]
    monkeypatch.setenv("GPTW_DEFAULT_TOL", "1e-5")
    _, (rep,) = run(capsys, argv)
    assert rep["tol"] == 1e-5
