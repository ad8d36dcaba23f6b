"""Regenerate the sample input files in this directory.

Usage: python3 samples/make_samples.py
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from gptw import quantum as q
from gptw import serialize as ser
from gptw.correlations import CorrelationBox
from gptw.ontic import OnticModel

HERE = Path(__file__).parent


def pr_box() -> CorrelationBox:
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                t[x, y, a, a ^ (x & y)] = 0.5
    return CorrelationBox((2, 2), (2, 2), t)


def isotropic_half_box() -> CorrelationBox:
    """The PR box at visibility 1/2 in white noise: |CHSH| = 2 exactly, local, so `local-model` solves an LP."""
    return CorrelationBox((2, 2), (2, 2), 0.5 * pr_box().table + 0.125)


def twelve_outcome_box() -> CorrelationBox:
    """Alice's outcomes {1, 11} at x = 0 and {10, 0} at x = 1 of 12; Bob has one setting and one outcome.

    Its local-model certificate holds the strategies (1, 10) and (11, 0), whose labels must differ.
    """
    t = np.zeros((2, 1, 12, 1))
    t[0, 0, 1, 0], t[0, 0, 11, 0] = 0.6, 0.4
    t[1, 0, 10, 0], t[1, 0, 0, 0] = 0.3, 0.7
    return CorrelationBox((2, 1), (12, 1), t)


def singlet_optimal_box() -> CorrelationBox:
    alice = [q.z_basis(), q.x_basis()]
    bob = [
        q.povm_from_observable(-(q.PAULI_Z + q.PAULI_X) / np.sqrt(2)),
        q.povm_from_observable((q.PAULI_X - q.PAULI_Z) / np.sqrt(2)),
    ]
    return q.bipartite_box(q.singlet(), alice, bob)


def shared_bit_box() -> CorrelationBox:
    t = np.zeros((2, 2, 2, 2, 2, 2))
    for bit in range(2):
        t[:, :, :, bit, bit, bit] = 0.5
    return CorrelationBox((2, 2, 2), (2, 2, 2), t)


def qubit_theory():
    sat_obs = (q.PAULI_X + q.PAULI_Z) / np.sqrt(2)
    _, vecs = np.linalg.eigh(sat_obs)
    states = {
        "zero": q.DensityMatrix.pure(q.KET0),
        "one": q.DensityMatrix.pure(q.KET1),
        "plus": q.DensityMatrix.pure(q.KET_PLUS),
        "minus": q.DensityMatrix.pure(q.KET_MINUS),
        "y+": q.DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]])),
        "y-": q.DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
        "sat": q.DensityMatrix.pure(vecs[:, -1]),
    }
    return q.born_table(states, {"X": q.x_basis(), "Y": q.y_basis(), "Z": q.z_basis()})


def classical_bit_model() -> OnticModel:
    return OnticModel(
        ["l0", "l1"],
        mu={"p0": [1.0, 0.0], "p1": [0.0, 1.0], "pu": [0.5, 0.5]},
        xi={"read": np.array([[1.0, 0.0], [0.0, 1.0]])},
        trans={"I": np.eye(2), "flip": np.array([[0.0, 1.0], [1.0, 0.0]])},
    )


def documents() -> dict[str, dict]:
    """The JSON document of every sample file, by file name."""
    rng = np.random.default_rng(7)
    return {
        "pr_box.json": ser.box_to_json(pr_box()),
        "isotropic_half_box.json": ser.box_to_json(isotropic_half_box()),
        "singlet_opt_box.json": ser.box_to_json(singlet_optimal_box()),
        "twelve_outcome_box.json": ser.box_to_json(twelve_outcome_box()),
        "shared_bit_box.json": ser.box_to_json(shared_bit_box()),
        "qubit_theory.json": ser.theory_to_json(qubit_theory()),
        "classical_bit_model.json": ser.model_to_json(classical_bit_model()),
        "singlet.json": ser.state_to_json(q.singlet()),
        "random_two_qubit.json": ser.state_to_json(q.ginibre_state(4, rng, dims=(2, 2))),
        "z_basis.json": ser.povm_to_json(q.z_basis()),
        "x_basis.json": ser.povm_to_json(q.x_basis()),
        "b0.json": ser.povm_to_json(q.povm_from_observable(-(q.PAULI_Z + q.PAULI_X) / np.sqrt(2))),
        "b1.json": ser.povm_to_json(q.povm_from_observable((q.PAULI_X - q.PAULI_Z) / np.sqrt(2))),
        "state_zero.json": ser.state_to_json(q.DensityMatrix.pure(q.KET0)),
        "state_plus.json": ser.state_to_json(q.DensityMatrix.pure(q.KET_PLUS)),
        "state_diag.json": ser.state_to_json(q.DensityMatrix(np.diag([0.3, 0.7]))),
    }


def main() -> None:
    for name, doc in documents().items():
        # as `gptw.serialize` saves them: states and POVMs on one line, tables one entry per line
        one_line = "matrix" in doc or "elements" in doc
        (HERE / name).write_text(json.dumps(doc, indent=None if one_line else 1))
    print(f"wrote samples into {HERE}")


if __name__ == "__main__":
    main()
