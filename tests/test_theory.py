"""Theory-table data model and its operations."""
from __future__ import annotations

import numpy as np
import pytest

from gptw import quantum as q
from gptw.errors import ArityError, UnknownIdError, ValidationError
from gptw.theory import (
    EnsemblePreparation,
    JointDistribution,
    Measurement,
    OperationalTheory,
    RANK_RTOL,
    SubtheoryDimension,
    absorb_transformation,
    affine_dimension,
    are_orthogonal,
    ensemble_joint,
    operationally_equivalent,
    outcome_distribution,
)

from conftest import cardinal_qubit_states, tomographic_povms


def small_theory() -> OperationalTheory:
    """Classical bit: preparations are distributions, one readout measurement."""
    table = {
        ("p0", "I", "read"): [1.0, 0.0],
        ("p1", "I", "read"): [0.0, 1.0],
        ("pu", "I", "read"): [0.5, 0.5],
        ("p0", "flip", "read"): [0.0, 1.0],
        ("p1", "flip", "read"): [1.0, 0.0],
        ("pu", "flip", "read"): [0.5, 0.5],
    }
    return OperationalTheory(
        ["p0", "p1", "pu"], ["I", "flip"], [Measurement("read", 2)], table
    )


# -- construction invariants ---------------------------------------------------


def test_rejects_unnormalized_row():
    with pytest.raises(ValidationError):
        OperationalTheory(["p"], ["I"], [("m", 2)], {("p", "I", "m"): [0.6, 0.6]})


def test_rejects_out_of_range_probability():
    with pytest.raises(ValidationError):
        OperationalTheory(["p"], ["I"], [("m", 2)], {("p", "I", "m"): [1.2, -0.2]})
    with pytest.raises(ValidationError, match="finite"):
        OperationalTheory(["p"], ["I"], [("m", 2)], {("p", "I", "m"): [np.nan, 1.0]})


def test_rejects_missing_identity_row():
    with pytest.raises(ValidationError):
        OperationalTheory(
            ["p", "r"], ["I"], [("m", 2)], {("p", "I", "m"): [1.0, 0.0]}
        )


def test_rejects_missing_identity_transformation():
    with pytest.raises(ValidationError):
        OperationalTheory(["p"], ["T"], [("m", 2)], {("p", "T", "m"): [1.0, 0.0]})


def test_joint_distribution_validates():
    with pytest.raises(ValidationError):
        JointDistribution([("a", 2)], np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        JointDistribution([("a", 2)], np.array([0.5, 0.5, 0.0]))
    with pytest.raises(ValidationError, match="finite"):
        JointDistribution([("a", 2)], np.array([np.nan, 1.0]))
    # unchecked, numpy's min raises "zero-size array to reduction operation minimum"
    with pytest.raises(ValidationError, match="joint distribution entries are empty"):
        JointDistribution([("a", 0)], np.zeros(0))


def test_ensemble_preparation_validates():
    with pytest.raises(ValidationError):
        EnsemblePreparation([0.7, 0.7], ["a", "b"])
    with pytest.raises(ValidationError):
        EnsemblePreparation([0.5, 0.5], ["a", "a"])
    with pytest.raises(ValidationError, match="finite"):
        EnsemblePreparation([np.nan, 1.0], ["a", "b"])
    with pytest.raises(ValidationError, match="ensemble weights are empty"):
        EnsemblePreparation([], [])


def test_array_records_compare_by_identity():
    # array fields make a field-wise == ambiguous; equality is identity and hashing works
    for make in (
        lambda: EnsemblePreparation([0.5, 0.5], ["a", "b"]),
        lambda: JointDistribution([("a", 2)], np.array([0.5, 0.5])),
    ):
        first, second = make(), make()
        assert first == first and first != second
        assert len({hash(first), hash(second), hash(first)}) == 2


def test_subtheory_dimension_consistency():
    with pytest.raises(ValidationError):
        SubtheoryDimension(4, claimed_dimension=2)


# -- outcome_distribution --------------------------------------------------------


def test_eigenstate_row(qubit_theory):
    row = outcome_distribution(qubit_theory, "zero", "I", "Z")
    assert np.allclose(row, [1.0, 0.0], atol=1e-12)


def test_born_rule_row(qubit_theory):
    # oracle: Tr((I +/- X)/2 |0><0|) = 1/2 each
    expected = [
        np.trace((np.eye(2) + q.PAULI_X) / 2 @ np.diag([1.0, 0.0])).real,
        np.trace((np.eye(2) - q.PAULI_X) / 2 @ np.diag([1.0, 0.0])).real,
    ]
    assert expected == [0.5, 0.5]
    row = outcome_distribution(qubit_theory, "zero", "I", "X")
    assert np.allclose(row, expected, atol=1e-12)


def test_identity_shorthand_matches_explicit_identity_rows():
    theory = small_theory()
    for p in theory.preparations:
        direct = outcome_distribution(theory, p, "I", "read")
        same, absorbed = absorb_transformation(theory, "I", "read")
        assert same is theory and absorbed == "read"
        assert np.array_equal(direct, outcome_distribution(theory, p, "I", absorbed))


def test_unknown_ids_raise():
    theory = small_theory()
    with pytest.raises(UnknownIdError):
        outcome_distribution(theory, "nope", "I", "read")
    with pytest.raises(UnknownIdError):
        outcome_distribution(theory, "p0", "nope", "read")
    with pytest.raises(UnknownIdError):
        outcome_distribution(theory, "p0", "I", "nope")


# -- absorb_transformation ---------------------------------------------------------


def x_gate_theory() -> OperationalTheory:
    states = {"zero": q.DensityMatrix.pure(q.KET0), "one": q.DensityMatrix.pure(q.KET1)}
    chans = {"X": q.Channel.unitary(q.PAULI_X)}
    return q.born_table(states, {"Z": q.z_basis()}, chans)


def test_absorb_swaps_z_outcomes():
    theory, new_id = absorb_transformation(x_gate_theory(), "X", "Z")
    # oracle: Tr(Z_x X|s><s|X) swaps the eigenstate outcome
    assert np.allclose(outcome_distribution(theory, "zero", "I", new_id), [0.0, 1.0], atol=1e-12)
    assert np.allclose(outcome_distribution(theory, "one", "I", new_id), [1.0, 0.0], atol=1e-12)


def test_absorb_idempotent_and_immutable():
    theory = x_gate_theory()
    rows = {key: row.copy() for key, row in theory.rows()}
    first, id1 = absorb_transformation(theory, "X", "Z")
    second, id2 = absorb_transformation(theory, "X", "Z")
    assert id1 == id2 and first is not theory
    assert first.measurements == second.measurements
    assert {k: v.tolist() for k, v in first.rows()} == {k: v.tolist() for k, v in second.rows()}
    # the input is untouched: same measurements, same rows, no new id
    assert [m.id for m in theory.measurements] == ["Z"]
    assert {k: v.tolist() for k, v in theory.rows()} == {k: v.tolist() for k, v in rows.items()}
    with pytest.raises(UnknownIdError):
        theory.arity(id1)


def test_absorb_rows_are_exact_copies():
    theory = x_gate_theory()
    extended, new_id = absorb_transformation(theory, "X", "Z")
    for p in theory.preparations:
        original = outcome_distribution(theory, p, "X", "Z")
        absorbed = outcome_distribution(extended, p, "I", new_id)
        assert np.array_equal(original, absorbed)


def test_absorb_avoids_id_collisions():
    states = {"zero": q.DensityMatrix.pure(q.KET0), "one": q.DensityMatrix.pure(q.KET1)}
    povms = {"Z": q.z_basis(), "Z@X": q.x_basis()}  # user already owns the natural name
    theory = q.born_table(states, povms, {"X": q.Channel.unitary(q.PAULI_X)})
    extended, new_id = absorb_transformation(theory, "X", "Z")
    assert new_id not in ("Z", "Z@X")
    assert extended.arity(new_id) == 2


# -- ensemble_joint -------------------------------------------------------------


def test_ensemble_joint_collapsed(qubit_theory):
    ens = EnsemblePreparation([1.0, 0.0], ["zero", "one"])
    joint = ensemble_joint(qubit_theory, ens, ["I"], ["Z"])
    expected = outcome_distribution(qubit_theory, "zero", "I", "Z")
    assert np.allclose(joint.probabilities[0], expected, atol=1e-12)
    assert np.allclose(joint.probabilities[1], 0.0)


def test_ensemble_joint_uniform_diag(qubit_theory):
    ens = EnsemblePreparation([0.5, 0.5], ["zero", "one"])
    joint = ensemble_joint(qubit_theory, ens, ["I"], ["Z"])
    assert np.allclose(joint.probabilities, np.diag([0.5, 0.5]), atol=1e-12)


def test_ensemble_joint_three_branch_shape():
    states = {
        "a": q.DensityMatrix.pure(q.KET0),
        "b": q.DensityMatrix.pure(q.KET1),
        "c": q.DensityMatrix.maximally_mixed(2),
    }
    three = q.Povm(
        [np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])]
    )
    theory = q.born_table(states, {"M3": three})
    ens = EnsemblePreparation([0.2, 0.3, 0.5], ["a", "b", "c"])
    joint = ensemble_joint(theory, ens, ["I"], ["M3"])
    assert joint.probabilities.shape == (3, 3)
    assert abs(joint.probabilities.sum() - 1.0) < 1e-9


def test_ensemble_joint_two_channel_outputs(qubit_theory):
    """Two independent outputs: entries factor as p(i) * p(x2|Q_i) * p(x3|Q_i)."""
    ens = EnsemblePreparation([0.25, 0.75], ["zero", "plus"])
    joint = ensemble_joint(qubit_theory, ens, ["I", "I"], ["Z", "X"])
    assert joint.probabilities.shape == (2, 2, 2)
    for i, (w, prep) in enumerate(zip(ens.weights, ens.branches)):
        pz = outcome_distribution(qubit_theory, prep, "I", "Z")
        px = outcome_distribution(qubit_theory, prep, "I", "X")
        assert np.allclose(joint.probabilities[i], w * np.outer(pz, px), atol=1e-12)


def test_ensemble_joint_arity_mismatch(qubit_theory):
    ens = EnsemblePreparation([0.5, 0.5], ["zero", "one"])
    with pytest.raises(ArityError):
        ensemble_joint(qubit_theory, ens, ["I", "I"], ["Z"])


# -- operational equivalence ----------------------------------------------------


def test_equivalence_reflexive(qubit_theory):
    assert operationally_equivalent(qubit_theory, "plus", "plus", tol=0.0)


def test_equivalence_of_two_mixing_procedures():
    # I/2 prepared as |0>/|1> coarse-grained vs |+>/|-> coarse-grained
    states = dict(cardinal_qubit_states())
    states["mix_z"] = q.DensityMatrix((states["zero"].matrix + states["one"].matrix) / 2)
    states["mix_x"] = q.DensityMatrix((states["plus"].matrix + states["minus"].matrix) / 2)
    theory = q.born_table(states, tomographic_povms())
    assert operationally_equivalent(theory, "mix_z", "mix_x")


def test_inequivalent_preparations_detected(qubit_theory):
    assert not operationally_equivalent(qubit_theory, "zero", "plus")


def test_equivalence_is_symmetric_and_transitive_at_zero_tol():
    theory = small_theory()
    preps = theory.preparations
    for a in preps:
        for b in preps:
            assert operationally_equivalent(theory, a, b, tol=0.0) == operationally_equivalent(
                theory, b, a, tol=0.0
            )
    for a in preps:
        for b in preps:
            for c in preps:
                if operationally_equivalent(theory, a, b, tol=0.0) and operationally_equivalent(
                    theory, b, c, tol=0.0
                ):
                    assert operationally_equivalent(theory, a, c, tol=0.0)


# -- affine dimension ------------------------------------------------------------


def test_affine_dimension_qubit(qubit_theory):
    dim = affine_dimension(qubit_theory)
    assert dim.affine_parameter_count == 3
    assert dim.claimed_dimension == 2


def test_affine_dimension_single_preparation():
    theory = OperationalTheory(
        ["p"], ["I"], [("m", 2)], {("p", "I", "m"): [0.5, 0.5]}
    )
    dim = affine_dimension(theory)
    assert dim.affine_parameter_count == 0
    assert dim.claimed_dimension is None


def test_affine_dimension_classical_bit():
    # rank oracle: statistics live on the segment (p, 1-p), affine rank 1
    theory = small_theory()
    dim = affine_dimension(theory)
    assert dim.affine_parameter_count == 1
    assert dim.claimed_dimension is None


def test_affine_dimension_invariant_under_duplication(qubit_theory):
    base = affine_dimension(qubit_theory)
    states = dict(cardinal_qubit_states())
    states["zero_copy"] = q.DensityMatrix.pure(q.KET0)
    povms = dict(tomographic_povms())
    povms["Z2"] = q.z_basis()
    doubled = q.born_table(states, povms)
    assert affine_dimension(doubled) == base


def test_identical_preparations_have_a_zero_spectrum():
    # two copies of one state: the centered statistics are exactly zero, and so is every singular value
    states = {"zero": q.DensityMatrix.pure(q.KET0), "zero_copy": q.DensityMatrix.pure(q.KET0)}
    theory = q.born_table(states, tomographic_povms())
    for rtol in (RANK_RTOL, 0.0):
        assert affine_dimension(theory, rtol) == SubtheoryDimension(0, None)
    assert not are_orthogonal(theory, "X", "Z")


# -- orthogonality ---------------------------------------------------------------


def test_orthogonal_x_z(qubit_theory):
    assert are_orthogonal(qubit_theory, "X", "Z")


def test_measurement_not_orthogonal_to_itself(qubit_theory):
    assert not are_orthogonal(qubit_theory, "Z", "Z")


def test_relabeled_measurement_not_orthogonal(qubit_theory):
    states = cardinal_qubit_states()
    povms = dict(tomographic_povms())
    povms["Zr"] = q.Povm([q.z_basis().elements[1], q.z_basis().elements[0]])
    theory = q.born_table(states, povms)
    assert not are_orthogonal(theory, "Z", "Zr")


def test_orthogonality_rejects_wider_arity():
    states = {"a": q.DensityMatrix.pure(q.KET0)}
    three = q.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5]), np.diag([0.0, 0.5])])
    theory = q.born_table(states, {"M3": three, "Z": q.z_basis()})
    with pytest.raises(ArityError):
        are_orthogonal(theory, "M3", "Z")
