"""CLI subcommands: reports, exit codes, determinism, and error handling."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from gptw import ontic
from gptw import quantum as q
from gptw import serialize as ser
from gptw.cli import DEFAULT_TOLS, main
from gptw.reports import file_digest

from conftest import isotropic_table, local_draws, pr_table, shared_bit_table, singlet_optimal_settings
from test_correlations import random_signalling_box
from test_game import full_qubit_theory
from test_ontic import classical_bit_model, product_box
from gptw.correlations import MAX_CHSH_ENTRIES, CorrelationBox, check_no_signalling, is_bell_nonlocal
from gptw.theory import RANK_RTOL

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


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
    paths["qutrit"] = tmp_path / "qutrit.json"
    ser.save_state(q.DensityMatrix.maximally_mixed(3), paths["qutrit"])
    paths["qutrit_povm"] = tmp_path / "qutrit_povm.json"
    ser.save_povm(q.Povm([np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 1.0])]), paths["qutrit_povm"])
    paths["one_outcome"] = tmp_path / "one_outcome.json"
    ser.save_povm(q.Povm([np.eye(2)]), paths["one_outcome"])
    paths["box3x2"] = tmp_path / "box3x2.json"
    ser.save_box(CorrelationBox((3, 2), (2, 2), np.full((3, 2, 2, 2), 0.25)), paths["box3x2"])
    for name, n in (("ternary", 2), ("ternary3", 3)):  # three outcomes for the first party, two for the others
        paths[name] = tmp_path / f"{name}.json"
        outcomes = (3,) + (2,) * (n - 1)
        ser.save_box(CorrelationBox((2,) * n, outcomes, np.full((2,) * n + outcomes, 1 / math.prod(outcomes))),
                     paths[name])

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


def test_nosignal_fails_on_a_signalling_box_with_int_settings(capsys, tmp_path):
    box = random_signalling_box((2, 3, 2), np.random.default_rng(0))
    path = tmp_path / "signalling.json"
    ser.save_box(box, path)
    code, (rep,) = run(capsys, ["nosignal", "--box", path])
    assert (code, rep["pass"]) == (1, False)
    # the report prints the witnesses' settings with no JSON fallback, so they must be Python ints
    settings = [v.subset_settings + v.complement_settings_a + v.complement_settings_b
                for v in check_no_signalling(box).violations]
    assert settings and all(type(s) is int for row in settings for s in row)
    printed = [w["subset_settings"] + w["complement_settings"][0] + w["complement_settings"][1]
               for w in rep["violations"]]
    assert printed == [list(row) for row in settings[:8]]


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


def test_local_model_certificate_of_the_twelve_outcome_sample_sums_to_one(capsys):
    # two-digit outcomes: one certificate key per strategy, so no weight is lost to a repeated key
    code, (rep,) = run(capsys, ["local-model", "--box", SAMPLES / "twelve_outcome_box.json"])
    assert (code, rep["method"]) == (0, "lp")
    assert abs(sum(rep["certificate"].values()) - 1) <= 1e-12


@pytest.mark.parametrize("sample, code", [("isotropic_half_box.json", 0), ("singlet_opt_box.json", 1)])
def test_local_model_scans_the_chsh_table_once(monkeypatch, capsys, sample, code):
    # the handler's CHSH gate is the only one: a box it does not refute goes straight to the LP
    from gptw import correlations

    builds = []
    build = correlations._chsh_table
    monkeypatch.setattr(correlations, "_chsh_table", lambda *args: builds.append(args) or build(*args))
    assert run(capsys, ["local-model", "--box", str(SAMPLES / sample)])[0] == code
    assert len(builds) == 1


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


def test_broadcast_tests_commutation_once_at_the_given_tol(capsys, tmp_path):
    # [diag(0.7, 0.3), |psi><psi|] has entries 0.4 sin(t) cos(t) ~ 4e-6: commuting at 1e-3, not at 1e-9
    diag, tilted = tmp_path / "diag.json", tmp_path / "tilted.json"
    ser.save_state(q.DensityMatrix(np.diag([0.7, 0.3])), diag)
    ser.save_state(q.DensityMatrix.pure([np.cos(1e-5), np.sin(1e-5)]), tilted)
    for tol, commuting in (("1e-3", True), ("1e-9", False)):
        _, (rep,) = run(capsys, ["broadcast", "--state", diag, "--state", tilted, "--tol", tol])
        assert (rep["commuting"], rep["interference"]) == (commuting, not commuting)
    _, (rep,) = run(capsys, ["broadcast", "--state", tilted, "--tol", "0"])
    assert (rep["commuting"], rep["interference"]) == (True, False)  # one state commutes vacuously


def test_theorem1_demonstrates_violation(files, capsys):
    code, reports = run(capsys, ["theorem1", "--box", files["singlet_box"]])
    assert code == 1  # the violation is the point: the monogamy check fails
    rep = reports[0]
    assert abs(rep["value"] - 16.0) < 1e-6
    assert rep["bound"] == 8.0
    assert rep["pass"] is False


def test_theorem1_needs_a_box_that_does_not_signal(capsys, tmp_path):
    table = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        table[x, y, y, y ^ (x & y)] = 1.0  # a = y, b = a xor xy: |B| = 4
    path = tmp_path / "signalling.json"
    ser.save_box(CorrelationBox((2, 2), (2, 2), table), path)
    assert "signals" in assert_input_error(capsys, ["theorem1", "--box", path])
    # the no-signalling check runs at EPS_NORM, not at --tol: float rounding in the sample passes at tol 0
    code, (rep,) = run(capsys, ["theorem1", "--box", SAMPLES / "singlet_opt_box.json", "--tol", "0"])
    assert code == 1 and abs(rep["value"] - 16.0) < 1e-9


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


@pytest.mark.parametrize("rounds", ["0", "-5", "1000000000000", "100000000000000000000000"])
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


def test_validate_model_names_a_negative_transformation_entry(capsys, tmp_path):
    model = classical_bit_model()
    model.trans["flip"] = np.array([[1.5, 1.0], [-0.5, 0.0]])  # columns still sum to 1
    path = tmp_path / "negative.json"
    ser.save_model(model, path)
    code, (rep,) = run(capsys, ["validate-model", "--model", path])
    assert (code, rep["value"]) == (1, 1)
    (violation,) = rep["violations"]
    assert (violation["condition"], violation["where"]) == (5, [["flip", "negative entry"]])


def test_dim(files, capsys):
    code, reports = run(capsys, ["dim", "--theory", files["theory"]])
    assert code == 0
    assert reports[0]["value"] == 3
    assert reports[0]["claimed_dimension"] == 2


def test_dim_and_uncertainty_need_measurements(capsys, tmp_path):
    path = tmp_path / "no_measurements.json"
    path.write_text(json.dumps({"preparations": ["p"], "transformations": ["I"], "measurements": [], "table": []}))
    for argv in (["dim"], ["uncertainty", "--m1", "X", "--m2", "Z"]):
        assert "no measurements" in assert_input_error(capsys, [*argv, "--theory", path])


def test_dim_tol_is_the_rank_threshold(capsys, tmp_path):
    # the cardinal qubit states plus one tilted off the X-Z plane by 1e-5: one tiny singular direction
    states = {name: q.DensityMatrix.pure(vec) for name, vec in
              (("zero", q.KET0), ("one", q.KET1), ("plus", q.KET_PLUS), ("minus", q.KET_MINUS))}
    states["tilt"] = q.DensityMatrix.pure([np.cos(0.3), np.sin(0.3) * np.exp(1e-5j)])
    path = tmp_path / "tilted_theory.json"
    ser.save_theory(q.born_table(states, {"X": q.x_basis(), "Y": q.y_basis(), "Z": q.z_basis()}), path)
    for argv, tol, count in (([], RANK_RTOL, 3), (["--tol", "1e-3"], 1e-3, 2)):
        code, (rep,) = run(capsys, ["dim", "--theory", path, *argv])
        assert (code, rep["tol"], rep["value"]) == (0, tol, count)
        assert rep["claimed_dimension"] == (2 if count == 3 else None)
    assert DEFAULT_TOLS["dim"] == RANK_RTOL


def test_chsh_verdict_at_tol_zero_is_exact(capsys, tmp_path):
    box = list(local_draws(273))[272]
    nonlocal_, witness = is_bell_nonlocal(box, 0.0)
    assert not nonlocal_ and abs(witness.value) > 2.0  # its float |B| reads above 2, its exact one does not
    path = tmp_path / "draw272.json"
    ser.save_box(box, path)
    settings = [f"--{k}" for k in ("a0", "a1", "b0", "b1")]
    explicit = [a for flag, s in zip(settings, witness.a_settings + witness.b_settings) for a in (flag, str(s))]
    for argv in (["chsh", "--box", path, "--tol", "0"], ["chsh", "--box", path, "--tol", "0", *explicit]):
        code, (rep,) = run(capsys, argv)
        assert (code, rep["pass"]) == (1, False)


def test_chsh_reports_the_exact_margin(files, capsys, tmp_path):
    # draw 0's float |B| is 2.0, while its stored table's exact |B| exceeds 2 by about 1e-16
    box = next(iter(local_draws(1)))
    path = tmp_path / "draw0.json"
    ser.save_box(box, path)
    _, witness = is_bell_nonlocal(box, 0.0)
    settings = [f"--{k}" for k in ("a0", "a1", "b0", "b1")]
    explicit = [a for flag, s in zip(settings, witness.a_settings + witness.b_settings) for a in (flag, str(s))]
    for argv in (["chsh", "--box", path, "--tol", "0"], ["chsh", "--box", path, "--tol", "0", *explicit]):
        code, (rep,) = run(capsys, argv)
        assert (code, rep["value"], rep["pass"]) == (0, 2.0, True)
        assert 0.0 < rep["margin"] < 1e-15
    code, (rep,) = run(capsys, ["chsh", "--box", path])  # tol 1e-9: no witness exceeds 2 + tol
    assert (code, rep["pass"], rep["margin"]) == (1, False, None)
    code, (rep,) = run(capsys, ["chsh", "--box", files["pr"]])
    assert (code, rep["value"], rep["margin"]) == (0, 4.0, 2.0 - 1e-9)


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


def _rename_row(old, new):
    """Move a box's setting row to a key that names no setting tuple."""

    def mutate(data):
        data["table"][new] = data["table"].pop(old)

    return mutate


def _repeat_first(key):
    """Append a copy of the first entry of the list `key`."""
    return lambda data: data[key].append(data[key][0])


def _repeated_key(key, first_value):
    """Write `key` twice in its object: first with `first_value`, then with the file's own value."""

    def mutate(data):
        text, field = json.dumps(data), json.dumps(key) + ": "
        assert text.count(field) == 1
        return text.replace(field, f"{field}{json.dumps(first_value)}, {field}")

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
    pytest.param("pr", _set(["settings"], [2, 2, 2]), id="box-three-settings-two-parties"),
    pytest.param("pr", _set(["outcomes"], [2]), id="box-one-outcome-entry-two-parties"),
    pytest.param("pr", _rename_row("1,1", "2,2"), id="box-missing-setting-row"),
    pytest.param("channel", _set(["kraus", 0], [[1.0, 0.0], [0.0, 0.0]]), id="channel-kraus-not-matrix"),
    pytest.param("theory", lambda data: data.update(preparations=[], table=[]), id="theory-no-preparations"),
    # json.loads would keep the last of a repeated key: the real PR-box row, or a valid preparation
    pytest.param("pr", _repeated_key("0,0", [0.25, 0.25, 0.25, 0.25]), id="box-repeated-row"),
    pytest.param("model", _repeated_key("p0", [0.5, 0.5]), id="model-repeated-preparation"),
]
COMMANDS = {
    "pr": ["chsh", "--box", "{}"],
    "model": ["validate-model", "--model", "{}"],
    "theory": ["dim", "--theory", "{}"],
    "zero": ["broadcast", "--state", "{}", "--state", "{diag}"],
    "o": ["verify-cj", "--state", "{state}", "--povm", "{}", "--povm", "{m}"],
    "channel": ["verify-cj", "--state", "{zero}", "--povm", "{m}", "--povm", "{o}", "--channel", "{}"],
}


@pytest.mark.parametrize("name, mutate", MALFORMED)
def test_malformed_input_exits_two(files, capsys, tmp_path, name, mutate):
    data = json.loads(files[name].read_text())
    text = mutate(data)  # a mutation that cannot be made on a dict returns the file's text
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(data) if text is None else text)
    argv = [a.format(bad, **files) for a in COMMANDS[name]]
    assert_input_error(capsys, argv)


# a file rejected by the object's constructor, not by the parser, given second of its kind
CONSTRUCTOR_ERRORS = [
    pytest.param("zero", _set(["dims"], [-1, -2]), ["broadcast", "--state", "{zero}", "--state", "{}"],
                 id="second-state-negative-dims"),
    pytest.param("o", _set(["elements", 0, 0, 1], [0.5, 0.0]),
                 ["game", "--state", "{singlet}", "--povm", "{s0}", "--povm", "{}", "--povm", "{b0}",
                  "--povm", "{b1}"], id="second-povm-non-hermitian"),
    pytest.param("pr", _set(["table", "0,0"], [0.4, 0.0, 0.0, 0.5]), ["chsh", "--box", "{}"],
                 id="box-row-sums-to-0.9"),
    pytest.param("theory", _set(["table", 0, "probs"], [0.4, 1.0]), ["dim", "--theory", "{}"],
                 id="theory-row-sums-to-1.4"),
    pytest.param("model", _set(["ontic_states"], ["l0"]), ["validate-model", "--model", "{}"],
                 id="model-one-ontic-state"),
    pytest.param("model", _set(["ontic_states"], ["l0", "l0"]), ["validate-model", "--model", "{}"],
                 id="model-repeated-ontic-state"),
    pytest.param("model", _set(["ontic_states"], []), ["validate-model", "--model", "{}"],
                 id="model-no-ontic-states"),
    pytest.param("model", _set(["measurements", "read"], [[1.0, 0.0, 0.0]]), ["validate-model", "--model", "{}"],
                 id="model-xi-wrong-shape"),
    pytest.param("model", _set(["transformations", "flip"], [[0.0, 1.0]]), ["validate-model", "--model", "{}"],
                 id="model-trans-wrong-shape"),
    pytest.param("theory", _repeat_first("preparations"), ["dim", "--theory", "{}"], id="theory-repeated-preparation"),
    pytest.param("theory", _repeat_first("transformations"), ["dim", "--theory", "{}"],
                 id="theory-repeated-transformation"),
    pytest.param("theory", _repeat_first("measurements"), ["dim", "--theory", "{}"], id="theory-repeated-measurement"),
    pytest.param("theory", _set(["table", 0, "trans"], "T"), ["dim", "--theory", "{}"],
                 id="theory-row-unknown-transformation"),
    pytest.param("theory", _set(["table", 0, "meas"], "Q"), ["dim", "--theory", "{}"],
                 id="theory-row-unknown-measurement"),
    pytest.param("theory", _set(["table", 0, "probs"], [0.5, 0.5, 0.0]), ["dim", "--theory", "{}"],
                 id="theory-row-wrong-arity"),
    pytest.param("o", _set(["elements"], []), ["verify-cj", "--state", "{state}", "--povm", "{}", "--povm", "{m}"],
                 id="povm-no-elements"),
    pytest.param("channel", _set(["kraus"], []), COMMANDS["channel"], id="channel-no-kraus"),
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


# a usage the handler or the check refuses; each file of the `files` fixture is valid on its own
GAME_NEEDS = "game needs --box, or --state plus four --povm files (S0 S1 M1 M2)"
USAGE_ERRORS = [
    pytest.param("chsh --box {pr} --a0 0 --a1 1", "give all of --a0 --a1 --b0 --b1 or none",
                 id="chsh-partial-settings"),
    pytest.param("chsh --box {shared_bit}", "the CHSH witness search needs a bipartite box, got 3 parties",
                 id="chsh-tripartite"),
    pytest.param("local-model --box {shared_bit}", "the local-model LP needs a bipartite box, got 3 parties",
                 id="local-model-tripartite"),
    pytest.param("theorem1 --box {shared_bit}", "the CHSH witness search needs a bipartite box, got 3 parties",
                 id="theorem1-tripartite"),
    pytest.param("chsh --box {ternary}", "the CHSH witness search needs two-outcome parties, got outcomes (3, 2)",
                 id="chsh-three-outcomes"),
    pytest.param("monogamy ns --box {pr}", "monogamy checks need a tripartite box", id="monogamy-bipartite"),
    pytest.param("monogamy strong --box {ternary3}", "monogamy checks need two-outcome parties",
                 id="monogamy-three-outcomes"),
    pytest.param("verify-cj --state {state} --povm {m}", "verify-cj needs 2 or 3 --povm files (one per party)",
                 id="verify-cj-one-povm"),
    pytest.param("verify-cj --state {state} --povm {m} --povm {o} --povm {o}", "one POVM per party required",
                 id="verify-cj-three-povms-two-parties"),
    pytest.param("verify-cj --state {zero} --povm {m} --povm {o} --povm {o} --channel {channel}",
                 "one output --povm per channel output factor required after the first",
                 id="verify-cj-channel-povm-count"),
    pytest.param("verify-cj --state {state} --povm {qutrit_povm} --povm {o}", "party 0: POVM dim 3 != system dim 2",
                 id="verify-cj-povm-dim"),
    pytest.param("verify-cj --state {zero} --povm {qutrit_povm} --povm {o} --channel {channel}",
                 "state and POVM dimensions differ", id="verify-cj-channel-first-povm-dim"),
    pytest.param("verify-cj --state {zero} --povm {m} --povm {qutrit_povm} --channel {channel}",
                 "output 0: POVM dim 3 != factor dim 2", id="verify-cj-channel-output-povm-dim"),
    pytest.param("verify-cj --state {qutrit} --povm {qutrit_povm} --povm {o} --channel {channel}",
                 "branch state does not match channel input", id="verify-cj-channel-input-dim"),
    pytest.param("game", GAME_NEEDS, id="game-no-strategy"),
    pytest.param("game --state {singlet} --povm {s0}", GAME_NEEDS, id="game-one-povm"),
    pytest.param("game --box {box3x2}", "the game needs a 2-setting 2-outcome bipartite box", id="game-box-3x2"),
    pytest.param("game --state {zero} --povm {s0} --povm {s1} --povm {b0} --povm {b1}",
                 "a two-party box needs a state with two factors, got dims (2,)", id="game-one-factor-state"),
    pytest.param("game --state {singlet} --povm {s0} --povm {one_outcome} --povm {b0} --povm {b1}",
                 "party 0: settings must share one outcome arity", id="game-mixed-arity"),
    pytest.param("game --state {singlet} --povm {s0} --povm {s1} --povm {qutrit_povm} --povm {b1}",
                 "party 1: POVM dim 3 != system dim 2", id="game-povm-dim"),
    # UnknownIdError is a KeyError, whose str() would quote the message
    pytest.param("uncertainty --theory {theory} --m1 Q --m2 Z", "unknown measurement 'Q'",
                 id="uncertainty-unknown-measurement"),
    pytest.param("broadcast --state {zero} --state {qutrit}", "states have mixed dimensions",
                 id="broadcast-mixed-dimensions"),
]


@pytest.mark.parametrize("command, message", USAGE_ERRORS)
def test_usage_error_exits_two(files, capsys, command, message):
    assert assert_input_error(capsys, [a.format(**files) for a in command.split()]) == f"error: {message}"


@pytest.fixture
def over_cap(tmp_path):
    """Boxes under 1 MB on file whose CHSH tables exceed `MAX_CHSH_ENTRIES`."""
    paths = {}
    for name, settings in (("wide", (2, 4097)), ("wide3", (2, 2, 2049))):
        outcomes = (2,) * len(settings)
        paths[name] = tmp_path / f"{name}.json"
        ser.save_box(CorrelationBox(settings, outcomes, np.full(settings + outcomes, 0.5 ** len(settings))),
                     paths[name])
    return paths


@pytest.mark.parametrize("command, entries", [
    pytest.param("chsh --box {wide}", 2 * 4097 * 4096, id="chsh"),
    # the CHSH gate refuses it before the LP is built
    pytest.param("local-model --box {wide}", 2 * 4097 * 4096, id="local-model"),
    pytest.param("theorem1 --box {wide}", 2 * 4097 * 4096, id="theorem1"),
    pytest.param("monogamy ns --box {wide3}", 2 * 2 * 2049 * 2048, id="monogamy-ns"),  # middle party 0, wing 2
    pytest.param("monogamy strong --box {wide3}", 2 * 2 * 2049 * 2048, id="monogamy-strong"),
])
def test_chsh_table_over_the_cap_exits_two(over_cap, capsys, command, entries):
    line = assert_input_error(capsys, [a.format(**over_cap) for a in command.split()])
    assert line == f"error: the CHSH table's {entries} entries exceed the {MAX_CHSH_ENTRIES} cap"


@pytest.mark.parametrize("n_y", [1024, 2048])
def test_local_model_certificate_over_the_cap_exits_two_before_the_lp(capsys, monkeypatch, tmp_path, n_y):
    # a local box the CHSH gate passes on to the LP, whose certificate would hold 4 (n_y + 1) n_y 2 cells
    path = tmp_path / "wide_local.json"
    ser.save_box(product_box((2, n_y), (2, 2), seed=3), path)
    monkeypatch.setattr(ontic, "_local_lp", lambda *args: pytest.fail("the LP was built"))
    line = assert_input_error(capsys, ["local-model", "--box", path])
    cells = 4 * (n_y + 1) * n_y * 2
    assert line == f"error: the certificate's {cells} strategy cells exceed the {ontic.MAX_CERTIFICATE_CELLS} cap"


def test_local_model_solver_failure_exits_two(capsys, monkeypatch):
    # a box the CHSH gate passes on to the LP, whose every solve stops at HiGHS's iteration limit
    solve = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", lambda *lp, options=None: solve(*lp, options={"simplex_iteration_limit": 1}))
    line = assert_input_error(capsys, ["local-model", "--box", SAMPLES / "isotropic_half_box.json"])
    assert line == "error: LP solver failed: HiGHS model status 14: Iteration limit reached"


def test_non_numeric_env_tolerance_exits_two(files, capsys, monkeypatch):
    monkeypatch.setenv("GPTW_DEFAULT_TOL", "abc")
    line = assert_input_error(capsys, ["chsh", "--box", files["pr"]])
    assert line == "error: GPTW_DEFAULT_TOL='abc' is not a number"


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
