"""Malformed input to the library ends in a named GptwError, and a NaN tolerance passes no check.

`test_input_error` is one table of (call, error type, message): each row
reaches an input check that no other test reaches.  `test_nan_tol_passes_no_check`
holds one row per function whose verdict compares a value with `tol`; each
comparison is written so that NaN fails it.
"""
from __future__ import annotations

import math
import runpy
import sys
from functools import partial

import numpy as np
import pytest

from gptw import broadcast, duality, game, ontic, quantum as q, theory as th
from gptw.correlations import CorrelationBox, check_no_signalling
from gptw.errors import ArityError, DimensionMismatchError, PreconditionError, UnknownIdError, ValidationError

from conftest import SAMPLES, pr_table


def partial_theory() -> th.OperationalTheory:
    """Preparations p and q, a transformation T with a row for p only, and a three-outcome measurement."""
    return th.OperationalTheory(
        ["p", "q"], ["I", "T"], [("m", 2), ("t", 3)],
        {("p", "I", "m"): [0.5, 0.5], ("q", "I", "m"): [1.0, 0.0], ("p", "T", "m"): [0.0, 1.0],
         ("p", "I", "t"): [1.0, 0.0, 0.0], ("q", "I", "t"): [0.0, 1.0, 0.0]},
    )


def box3() -> CorrelationBox:
    return CorrelationBox((2, 2, 2), (2, 2, 2), np.full((2,) * 6, 0.125))


def one_party_scenario() -> duality.SpatialScenario:
    """A scenario built directly, not by `spatial_scenario`, so its one party is not refused on the way."""
    state = q.DensityMatrix.maximally_mixed(2)
    return duality.SpatialScenario(state, (q.z_basis(),), th.JointDistribution([("M1", 2)], [0.5, 0.5]))


def noisy_x() -> q.Povm:
    return q.Povm([0.9 * e + 0.05 * np.eye(2) for e in q.x_basis().elements])


def three_outcome_qubit() -> q.Povm:
    return q.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])])


MIXED2 = q.DensityMatrix.maximally_mixed(2)
ZZ = [[q.z_basis()], [q.z_basis()]]

INPUT_ERRORS = {
    "box table shape": (lambda: CorrelationBox((2, 2), (2, 2), np.full((2, 2, 2), 0.5)),
                        ValidationError, r"box entries have shape \(2, 2, 2\), expected \(2, 2, 2, 2\)"),
    "prob setting count": (lambda: CorrelationBox((2, 2), (2, 2), pr_table()).prob((0,)),
                           ArityError, "expected 2 settings"),
    "marginal spectator count": (lambda: box3().marginal((0, 1), (0, 0)), ArityError, "one spectator setting"),
    "spatial one party": (lambda: duality.spatial_scenario(MIXED2, [q.z_basis()]),
                          DimensionMismatchError, "2 or 3 parties"),
    "temporal povm count": (lambda: duality.temporal_scenario(
        th.EnsemblePreparation([1.0], [MIXED2]), q.Channel.identity(2), [q.z_basis(), q.z_basis()]),
        DimensionMismatchError, "one POVM per channel output"),
    "spatial_to_temporal one party": (lambda: duality.spatial_to_temporal(one_party_scenario()),
                                      DimensionMismatchError, "2 or 3 parties"),
    "max_sum_state qutrit": (lambda: game.max_sum_state(q.random_povm(3, 2, np.random.default_rng(0)), q.z_basis()),
                             PreconditionError, "qubit measurements"),
    "a3 three outcomes": (lambda: game.a3_strategy(q.z_basis(), three_outcome_qubit()),
                          PreconditionError, "two-outcome qubit"),
    "a3 second not projective": (lambda: game.a3_strategy(q.z_basis(), noisy_x()),
                                 PreconditionError, "second measurement is not projective"),
    "triples three outcomes": (lambda: game.triples_from_theory(partial_theory(), "m", "m", "t"),
                               ArityError, "two-outcome"),
    "ontic non-finite": (lambda: ontic.OnticModel(["l"], {"p": [np.nan]}, {}, {}), ValidationError, "non-finite"),
    "ontic complex array": (lambda: ontic.OnticModel(["l"], {"p": np.array([1 + 1j])}, {}, {}),
                            ValidationError, r"mu\['p'\] must be real"),
    "ontic complex list": (lambda: ontic.OnticModel(["l"], {}, {"m": [[1j]]}, {}),
                           ValidationError, r"xi\['m'\] must be real"),
    "ontic strings": (lambda: ontic.OnticModel(["l"], {}, {}, {"t": [["a"]]}),
                      ValidationError, r"trans\['t'\] must be real"),
    "ontic ragged": (lambda: ontic.OnticModel(["l", "m"], {"p": [[1.0], [0.5, 0.5]]}, {}, {}),
                     DimensionMismatchError, r"mu\['p'\] have mixed dimensions"),
    "ontic huge int": (lambda: ontic.OnticModel(["l"], {"p": [10**400]}, {}, {}),
                       ValidationError, r"mu\['p'\] must be real"),
    "pure zero vector": (lambda: q.DensityMatrix.pure([0, 0]), ValidationError, "nonzero finite"),
    "pure infinite vector": (lambda: q.DensityMatrix.pure([np.inf, 0]), ValidationError, "nonzero finite"),
    "pure huge vector": (lambda: q.DensityMatrix.pure([1e308, 1e308]), ValidationError, "nonzero finite"),
    "pure NaN vector": (lambda: q.DensityMatrix.pure([np.nan, 1]), ValidationError, "nonzero finite"),
    "channel input shape": (lambda: q.Channel.identity(2).apply(np.eye(3)),
                            DimensionMismatchError, "2x2 input"),
    "choi dimension": (lambda: q.ChoiState(q.DensityMatrix.maximally_mixed(4), 2, 3),
                       DimensionMismatchError, "Choi state dimension"),
    "choi not trace preserving": (lambda: q.ChoiState(q.DensityMatrix.pure([1, 0, 0, 0]), 2, 2),
                                  ValidationError, "does not reduce"),
    "partial_trace keep order": (lambda: q.partial_trace(np.eye(4) / 4, (2, 2), (1, 0)),
                                 PreconditionError, "ascending"),
    "partial_trace repeated keep": (lambda: q.partial_trace(np.eye(4) / 4, (2, 2), (0, 0)),
                                    PreconditionError, "strictly ascending"),
    "partial_trace keep past the last": (lambda: q.partial_trace(np.eye(4) / 4, (2, 2), (2,)),
                                         PreconditionError, r"lie in 0\.\.1"),
    "partial_trace negative keep": (lambda: q.partial_trace(np.eye(4) / 4, (2, 2), (-1,)),
                                    PreconditionError, r"lie in 0\.\.1"),
    "partial_trace dims": (lambda: q.partial_trace(np.eye(4) / 4, (3, 2), (0,)),
                           DimensionMismatchError, r"dims \(3, 2\) do not factor"),
    "partial_trace negative dims": (lambda: q.partial_trace(np.eye(4) / 4, (-2, -2), (0,)),
                                    DimensionMismatchError, "do not factor"),
    "trace_distance shapes": (lambda: q.trace_distance(np.eye(2), np.eye(3)),
                              DimensionMismatchError, "square matrices of one shape"),
    "trace_distance not square": (lambda: q.trace_distance(np.ones((2, 3)), np.ones((2, 3))),
                                  DimensionMismatchError, "square matrices of one shape"),
    "mat_sqrt not PSD": (lambda: q.mat_sqrt(np.diag([1.0, -1.0])), ValidationError, "not PSD"),
    "born_table empty": (lambda: q.born_table({}, {"z": q.z_basis()}), ValidationError, "at least one state"),
    "born_table state dims": (lambda: q.born_table({"a": MIXED2, "b": q.DensityMatrix.maximally_mixed(3)},
                                                   {"z": q.z_basis()}),
                              DimensionMismatchError, "state 'b' has dim 3"),
    "born_table reserved I": (lambda: q.born_table({"a": MIXED2}, {"z": q.z_basis()}, {"I": q.Channel.identity(2)}),
                              ValidationError, "reserved"),
    "born_table channel dims": (lambda: q.born_table({"a": MIXED2}, {"z": q.z_basis()},
                                                     {"T": q.random_channel(2, 3, 1, np.random.default_rng(0))}),
                                DimensionMismatchError, "must be 2->2"),
    "multipartite list count": (lambda: q.multipartite_box(q.bell_phi_plus(), ZZ + ZZ[:1]),
                                DimensionMismatchError, "3 measurement lists"),
    "multipartite one party": (lambda: q.multipartite_box(MIXED2, ZZ[:1]),
                               DimensionMismatchError, "2- and 3-party"),
    "multipartite no settings": (lambda: q.multipartite_box(q.bell_phi_plus(), [[q.z_basis()], []]),
                                 ValidationError, "party 1 has no measurement settings"),
    "conditional_channel one factor": (lambda: q.conditional_channel(MIXED2),
                                       DimensionMismatchError, ">= 2 factors"),
    "outcome_distribution missing row": (lambda: th.outcome_distribution(partial_theory(), "q", "T", "m"),
                                         UnknownIdError, "no table row"),
    "absorb unknown transformation": (lambda: th.absorb_transformation(partial_theory(), "U", "m"),
                                      UnknownIdError, "unknown transformation 'U'"),
    "absorb missing row": (lambda: th.absorb_transformation(partial_theory(), "T", "m"),
                           UnknownIdError, "cannot absorb"),
    "ensemble_joint unknown branch": (lambda: th.ensemble_joint(
        partial_theory(), th.EnsemblePreparation([1.0], ["r"]), ["I"], ["m"]), UnknownIdError, "branch 'r'"),
    "operationally_equivalent unknown": (lambda: th.operationally_equivalent(partial_theory(), "p", "r"),
                                         UnknownIdError, "unknown preparation 'r'"),
}
RAGGED = [[0.5], [0.25, 0.25]]
STRINGS = [["a"]]
TABLE_CONSTRUCTORS = {  # each refuses a ragged list or strings in its cast, before any shape check
    "box": (lambda x: CorrelationBox((2,), (2,), x), "box entries"),
    "ensemble": (lambda x: th.EnsemblePreparation(x, ["p", "q"]), "ensemble weights"),
    "joint": (lambda x: th.JointDistribution([("x", 2)], x), "joint distribution entries"),
    "theory row": (lambda x: th.OperationalTheory(["p"], ["I"], [("m", 2)], {("p", "I", "m"): x}),
                   r"row \('p', 'I', 'm'\): probabilities"),
}
QUANTUM_CONSTRUCTORS = {
    "density": (q.DensityMatrix, "density matrix entries"),
    "pure": (q.DensityMatrix.pure, "pure state amplitudes"),
    "povm": (q.Povm, "POVM elements"),
    "channel": (q.Channel, "Kraus operators"),
    "partial_trace": (lambda x: q.partial_trace(x, (1,), (0,)), "matrix entries"),
    "trace_distance": (lambda x: q.trace_distance(x, x), "matrix entries"),
}
for kind, (build, what) in TABLE_CONSTRUCTORS.items():
    INPUT_ERRORS[f"{kind} ragged"] = (partial(build, RAGGED), DimensionMismatchError, f"{what} have mixed dimensions")
    INPUT_ERRORS[f"{kind} strings"] = (partial(build, STRINGS), ValidationError, f"{what} must be real numbers")
for kind, (build, what) in QUANTUM_CONSTRUCTORS.items():
    INPUT_ERRORS[f"{kind} ragged"] = (partial(build, RAGGED), DimensionMismatchError, f"{what} have mixed dimensions")
    INPUT_ERRORS[f"{kind} strings"] = (partial(build, STRINGS), ValidationError, f"{what} must be numbers")
    INPUT_ERRORS[f"{kind} numeric strings"] = (partial(build, [["1"]]), ValidationError, f"{what} must be numbers")
COUNTS = {  # a count is an integer: int() would truncate a float and read a bool as 1
    "box setting float": (lambda: CorrelationBox((2.9, 2), (2, 2), pr_table()), "setting count"),
    "box outcome bool": (lambda: CorrelationBox((2, 2), (True, 2), pr_table()), "outcome count"),
    "density dims float": (lambda: q.DensityMatrix(np.eye(4) / 4, dims=(2.9, 2.2)), "dims entry"),
    "channel output_dims float": (lambda: q.Channel([np.eye(2)], output_dims=(2.5,)), "output dim"),
    "joint axis float": (lambda: th.JointDistribution([("a", 2.7)], [0.5, 0.5]), "axis 'a': size"),
    "measurement arity float": (lambda: th.Measurement("M", 2.5), "arity"),
    "measurement arity bool": (lambda: th.Measurement("M", True), "arity"),
    "measurement arity string": (lambda: th.Measurement("M", "2"), "arity"),
    "maximally_mixed float": (lambda: q.DensityMatrix.maximally_mixed(2.0), "dimension"),
    "partial_trace dims float": (lambda: q.partial_trace(np.eye(4) / 4, (2.0, 2.0), (0,)), "dims entry"),
    "partial_trace keep float": (lambda: q.partial_trace(np.eye(4) / 4, (2, 2), (0.0,)), "keep entry"),
    "identity channel float": (lambda: q.Channel.identity(2.5), "dimension"),
    "ginibre_state float": (lambda: q.ginibre_state(2.5, np.random.default_rng(0)), "dimension"),
    "haar_unitary float": (lambda: q.haar_unitary(2.5, np.random.default_rng(0)), "dimension"),
    "random_povm dimension float": (lambda: q.random_povm(2.5, 2, np.random.default_rng(0)), "dimension"),
    "random_povm outcomes float": (lambda: q.random_povm(2, 2.0, np.random.default_rng(0)), "outcome count"),
    "random_channel dim_in float": (lambda: q.random_channel(2.0, 2, 2, np.random.default_rng(0)), "dim_in"),
    "random_channel dim_out float": (lambda: q.random_channel(2, 2.0, 2, np.random.default_rng(0)), "dim_out"),
    "random_channel kraus float": (lambda: q.random_channel(2, 2, 1.5, np.random.default_rng(0)), "kraus_count"),
}
for name, (call, what) in COUNTS.items():
    INPUT_ERRORS[f"count {name}"] = (call, ValidationError, f"{what} must be an integer, got")
INPUT_ERRORS["maximally_mixed negative"] = (partial(q.DensityMatrix.maximally_mixed, -1), ValidationError, ">= 1")
RANGES = {  # a count below 1 is refused before NumPy sees it
    "identity channel negative": (lambda: q.Channel.identity(-1), "dimension"),
    "ginibre_state zero": (lambda: q.ginibre_state(0, np.random.default_rng(0)), "dimension"),
    "haar_unitary zero": (lambda: q.haar_unitary(0, np.random.default_rng(0)), "dimension"),
    "random_povm no outcomes": (lambda: q.random_povm(2, 0, np.random.default_rng(0)), "outcome count"),
    "random_channel zero dim_in": (lambda: q.random_channel(0, 2, 1, np.random.default_rng(0)), "dim_in"),
    "random_channel zero dim_out": (lambda: q.random_channel(2, 0, 3, np.random.default_rng(0)), "dim_out"),
    "random_channel no Kraus": (lambda: q.random_channel(1, 1, 0, np.random.default_rng(0)), "kraus_count"),
}
for name, (call, what) in RANGES.items():
    INPUT_ERRORS[f"range {name}"] = (call, ValidationError, f"{what} must be >= 1, got")
INPUT_ERRORS["random_channel too few Kraus"] = (partial(q.random_channel, 3, 2, 1, np.random.default_rng(0)),
                                                PreconditionError, r"kraus_count \* dim_out >= 3, got 1 \* 2")
EXPORTED_CASTS = {  # exported quantum functions cast through `number_array` and check the shape
    "commutator_norm ragged": (partial(broadcast.commutator_norm, RAGGED, np.eye(2)), DimensionMismatchError,
                               "mixed dimensions"),
    "commutator_norm shapes": (partial(broadcast.commutator_norm, np.eye(2), np.eye(3)), DimensionMismatchError,
                               "square matrices of one shape"),
    "commutator_norm empty": (partial(broadcast.commutator_norm, np.zeros((0, 0)), np.zeros((0, 0))),
                              DimensionMismatchError, "non-empty"),
    "mat_sqrt strings": (partial(q.mat_sqrt, STRINGS), ValidationError, "must be numbers"),
    "mat_sqrt ragged": (partial(q.mat_sqrt, RAGGED), DimensionMismatchError, "mixed dimensions"),
    "mat_sqrt not square": (partial(q.mat_sqrt, np.ones((2, 3))), ValidationError, "square matrix"),
    "mat_sqrt empty": (partial(q.mat_sqrt, np.zeros((0, 0))), ValidationError, "non-empty square matrix"),
    "mat_sqrt one triangle": (partial(q.mat_sqrt, [[1, 1j], [0, 1]]), ValidationError,
                              "matrix is not finite and Hermitian"),
    "mat_sqrt NaN": (partial(q.mat_sqrt, [[np.nan, 0], [0, 1]]), ValidationError, "matrix is not finite and Hermitian"),
    "mat_sqrt overflowing spectrum": (partial(q.mat_sqrt, np.full((2, 2), np.finfo(float).max)), ValidationError,
                                      "finite spectrum"),
    "trace_distance NaN": (partial(q.trace_distance, [[np.nan]], [[1.0]]), ValidationError,
                           "matrix difference is not finite and Hermitian"),
    "trace_distance not Hermitian": (partial(q.trace_distance, [[1, 1], [0, 1]], np.eye(2)), ValidationError,
                                     "matrix difference is not finite and Hermitian"),
    "trace_distance overflowing difference": (partial(q.trace_distance, [[1e308]], [[-1e308]]), ValidationError,
                                              "matrix difference is not finite"),
    "trace_distance empty": (partial(q.trace_distance, np.zeros((0, 0)), np.zeros((0, 0))), DimensionMismatchError,
                             "non-empty square matrices"),
    "commutator_norm NaN": (partial(broadcast.commutator_norm, [[np.nan]], [[1.0]]), ValidationError, "finite"),
    "commutator_norm infinite": (partial(broadcast.commutator_norm, np.diag([np.inf, 0.0]), np.zeros((2, 2))),
                                 ValidationError, "finite"),
    "commutator_norm overflow": (partial(broadcast.commutator_norm, [[1e200]], [[1e200]]), ValidationError,
                                 "finite commutator"),
    "channel apply strings": (partial(q.Channel.identity(1).apply, STRINGS), ValidationError,
                              "channel input entries must be numbers"),
    "povm_from_observable ragged": (partial(q.povm_from_observable, RAGGED), DimensionMismatchError,
                                    "observable entries have mixed dimensions"),
    "povm_from_observable strings": (partial(q.povm_from_observable, STRINGS), ValidationError,
                                     "observable entries must be numbers"),
    "povm_from_observable not square": (partial(q.povm_from_observable, np.ones((3, 2))), ValidationError,
                                        "square matrix"),
}
INPUT_ERRORS.update(EXPORTED_CASTS)
INPUT_ERRORS["density object"] = (partial(q.DensityMatrix, [[object()]]), ValidationError, "must be numbers")
INPUT_ERRORS["channel huge int"] = (partial(q.Channel, [[[10**400]]]), ValidationError, "must be numbers")


@pytest.mark.parametrize("name", sorted(INPUT_ERRORS))
def test_input_error(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error, match=message):
        call()


def test_numpy_integer_counts_pass_as_ints():
    box = CorrelationBox((np.int64(2), 2), (2, np.uint8(2)), pr_table())
    arity = th.Measurement("M", np.int32(3)).arity
    assert box.settings == box.outcomes == (2, 2) and arity == 3
    assert all(type(n) is int for n in box.settings + box.outcomes + (arity,))


def test_marginal_spectators_default_to_setting_zero():
    rng = np.random.default_rng(28)
    table = rng.dirichlet(np.ones(8), size=(2, 2, 2)).reshape((2,) * 6)  # a signalling box
    box = CorrelationBox((2, 2, 2), (2, 2, 2), table)
    assert np.array_equal(box.marginal((0, 2)).table, box.marginal((0, 2), (0,)).table)
    assert not np.array_equal(box.marginal((0, 2)).table, box.marginal((0, 2), (1,)).table)


def test_cli_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.delitem(sys.modules, "gptw.cli", raising=False)  # else runpy warns that it runs a loaded module
    monkeypatch.setattr(sys, "argv", ["gptw", "dim", "--theory", str(SAMPLES / "qubit_theory.json")])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("gptw.cli", run_name="__main__", alter_sys=True)
    assert exit_.value.code == 0
    assert '"value": 3' in capsys.readouterr().out


def invalid_model() -> ontic.OnticModel:
    """A model that fails conditions 1, 3, 4 and 5 at the default tol."""
    return ontic.OnticModel(
        ["a", "b"], {"p": [1.5, -0.5]}, {"m": [[1.2, 0.0], [0.0, 0.5]]}, {"t": [[1.0, -0.1], [0.0, 1.0]]}
    )


def signalling_box() -> CorrelationBox:
    table = np.zeros((2, 2, 2, 2))
    table[:, 0, 0, 0] = 1.0
    table[:, 1, 1, 0] = 1.0  # Alice's outcome follows Bob's setting
    return CorrelationBox((2, 2), (2, 2), table)


NAN = math.nan
UNIFORM = CorrelationBox((2, 2), (2, 2), np.full((2,) * 4, 0.25))
NAN_CHECKS = {
    "validate_model": lambda: [v.condition for v in ontic.validate_model(invalid_model(), NAN)] == [1, 2, 3, 4, 5],
    "find_local_model": lambda: ontic.find_local_model(UNIFORM, NAN) is None,
    "check_no_signalling": lambda: not check_no_signalling(signalling_box(), NAN).satisfied,
    "pairwise_commuting": lambda: not broadcast.pairwise_commuting(
        [q.DensityMatrix.pure(q.KET0), q.DensityMatrix.pure(q.KET_PLUS)], NAN),
    "operationally_equivalent": lambda: not th.operationally_equivalent(partial_theory(), "p", "p", NAN),
    "spatial_to_temporal": lambda: pytest.raises(
        ValidationError, duality.spatial_to_temporal, duality.spatial_scenario(q.bell_phi_plus(), ZZ[0] * 2), NAN
    ) is not None,
}


@pytest.mark.parametrize("name", sorted(NAN_CHECKS))
def test_nan_tol_passes_no_check(name):
    assert NAN_CHECKS[name]()


def test_nan_tol_solves_the_local_model_lp_once(monkeypatch):
    solves = []
    linprog = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", lambda *lp, options=None: solves.append(options) or linprog(*lp, options=options))
    assert ontic.find_local_model(UNIFORM, NAN) is None
    assert solves == [None]  # no re-solve at tight tolerances: no t* is within a NaN tol


def test_nan_tol_certifies_no_model_even_a_valid_one():
    valid = ontic.OnticModel(["a"], {"p": [1.0]}, {"m": [[1.0]]}, {"t": [[1.0]]})
    assert ontic.validate_model(valid) == []
    assert [(v.condition, v.where) for v in ontic.validate_model(valid, NAN)] == [
        (1, (("p", 0),)),
        (2, (("p", 1.0),)),
        (3, (("m", 0, 0),)),
        (4, (("m", 0, 1.0),)),
        (5, (("t", "negative entry"), ("t", "column 0"))),
    ]
