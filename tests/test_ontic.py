"""Ontological-model validity, prediction, and the local-model LP."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptw
from gptw import ontic
from gptw import quantum as q
from gptw.correlations import CorrelationBox, is_bell_nonlocal
from gptw.errors import SizeLimitError, UnknownIdError
from gptw.ontic import (
    OnticModel,
    certificate_to_ontic_model,
    find_local_model,
    noncontextual_chsh_bound,
    predict,
    validate_model,
    strategy_table,
)
from gptw.theory import outcome_distribution


def classical_bit_model() -> OnticModel:
    """Two ontic states mirroring the classical bit; reproduces its theory exactly."""
    return OnticModel(
        ["l0", "l1"],
        mu={"p0": [1.0, 0.0], "p1": [0.0, 1.0], "pu": [0.5, 0.5]},
        xi={"read": np.array([[1.0, 0.0], [0.0, 1.0]])},
        trans={"I": np.eye(2), "flip": np.array([[0.0, 1.0], [1.0, 0.0]])},
    )


def test_single_state_deterministic_model_valid():
    model = OnticModel(
        ["l"], mu={"p": [1.0]}, xi={"m": np.array([[1.0], [0.0]])}, trans={"I": np.eye(1)}
    )
    assert validate_model(model) == []


def test_classical_bit_model_valid_and_predictive():
    model = classical_bit_model()
    assert validate_model(model) == []
    # against the generating table
    from test_theory import small_theory

    theory = small_theory()
    for p in theory.preparations:
        for t in theory.transformations:
            want = outcome_distribution(theory, p, t, "read")
            got = predict(model, p, t, "read")
            assert np.max(np.abs(want - got)) < 1e-12


def test_column_substochastic_transformation_reported():
    model = classical_bit_model()
    model.trans["flip"] = np.array([[0.0, 1.0], [0.9, 0.0]])
    violations = validate_model(model)
    assert len(violations) == 1
    assert violations[0].condition == 5


@pytest.mark.parametrize(
    "condition,mutate",
    [
        (1, lambda m: m.mu.__setitem__("pu", np.array([1.1, -0.1]))),
        (2, lambda m: m.mu.__setitem__("pu", np.array([0.5, 0.4]))),
        (3, lambda m: m.xi.__setitem__("read", np.array([[1.2, 0.0], [-0.2, 1.0]]))),
        (4, lambda m: m.xi.__setitem__("read", np.array([[0.9, 0.0], [0.0, 1.0]]))),
        (5, lambda m: m.trans.__setitem__("flip", np.array([[0.5, 1.0], [0.4, 0.0]]))),
    ],
)
def test_each_condition_breaks_alone(condition, mutate):
    model = classical_bit_model()
    mutate(model)
    violations = validate_model(model)
    assert [v.condition for v in violations] == [condition]


def test_predict_deterministic_single_state():
    model = OnticModel(
        ["l"], mu={"p": [1.0]}, xi={"m": np.array([[0.0], [1.0]])}, trans={"I": np.eye(1)}
    )
    assert np.allclose(predict(model, "p", "I", "m"), [0.0, 1.0])


def test_predict_uniform_symmetry():
    model = OnticModel(
        ["l0", "l1"],
        mu={"p": [0.5, 0.5]},
        xi={"m": np.array([[1.0, 0.0], [0.0, 1.0]])},
        trans={"I": np.eye(2)},
    )
    assert np.allclose(predict(model, "p", "I", "m"), [0.5, 0.5])


def test_predict_unknown_id():
    model = classical_bit_model()
    with pytest.raises(UnknownIdError):
        predict(model, "nope", "I", "read")


# -- find_local_model ---------------------------------------------------------------


def test_deterministic_box_single_strategy(deterministic_box):
    cert = find_local_model(deterministic_box)
    assert cert is not None
    assert cert.residual <= 1e-12
    assert len(cert.weights) == 1
    ((strategy, weight),) = cert.weights.items()
    assert strategy == ((0, 0), (0, 0))
    assert abs(weight - 1.0) < 1e-12


def test_pr_box_infeasible(pr_box):
    assert find_local_model(pr_box) is None


def test_isotropic_half_feasible(isotropic_half):
    cert = find_local_model(isotropic_half)
    assert cert is not None
    assert cert.residual <= 1e-7


@pytest.mark.parametrize("module", ["gptw", "gptw.cli"])
def test_import_leaves_scipy_optimize_unloaded(module):
    # the LP solver loads on the first solve; the other checks never pay for it
    src = str(Path(gptw.__file__).resolve().parents[1])
    code = f"import sys, {module}; print('scipy.optimize' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_find_local_model_looks_up_linprog_at_call_time(monkeypatch, isotropic_half):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs["method"])
        return solve(*args, **kwargs)

    solve = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", recording)
    cert = find_local_model(isotropic_half)
    assert calls == ["highs"]
    assert cert is not None and cert.residual <= 1e-7


def test_reconstruction_is_entrywise(isotropic_half):
    cert = find_local_model(isotropic_half)
    recon = sum(w * strategy_table(isotropic_half, s) for s, w in cert.weights.items())
    assert np.max(np.abs(recon - isotropic_half.table)) <= 1e-7


def test_certificate_reinterpreted_as_ontic_model(isotropic_half):
    cert = find_local_model(isotropic_half)
    model = certificate_to_ontic_model(isotropic_half, cert)
    assert validate_model(model) == []
    for x in range(2):
        for y in range(2):
            got = predict(model, "source", "I", f"s{x},{y}")
            want = isotropic_half.table[x, y].reshape(-1)
            assert np.max(np.abs(got - want)) < 1e-9


def test_strategy_cap():
    # 8 outcomes, 4 settings per side: 8^4 * 8^4 = 2^24 strategies > 2^20
    table = np.full((4, 4, 8, 8), 1.0 / 64)
    box = CorrelationBox((4, 4), (8, 8), table)
    with pytest.raises(SizeLimitError):
        find_local_model(box)


# -- noncontextual_chsh_bound ----------------------------------------------------------


def test_verdict_isotropic_half(isotropic_half):
    verdict = noncontextual_chsh_bound(isotropic_half)
    assert verdict.local_model_exists
    assert abs(verdict.max_abs_chsh - 2.0) < 1e-9
    assert verdict.consistent


def test_verdict_singlet_optimal(singlet_optimal_box):
    verdict = noncontextual_chsh_bound(singlet_optimal_box)
    assert not verdict.local_model_exists
    assert abs(verdict.max_abs_chsh - 2 * np.sqrt(2)) < 1e-9
    assert verdict.consistent


def test_verdict_product_box():
    rng = np.random.default_rng(12)
    state = q.DensityMatrix(
        np.kron(q.ginibre_state(2, rng).matrix, q.ginibre_state(2, rng).matrix), dims=(2, 2)
    )
    box = q.bipartite_box(
        state,
        [q.random_projective_qubit(rng) for _ in range(2)],
        [q.random_projective_qubit(rng) for _ in range(2)],
    )
    verdict = noncontextual_chsh_bound(box)
    assert verdict.local_model_exists
    assert verdict.max_abs_chsh <= 2.0 + 1e-9
    assert verdict.consistent


# -- LP duality cross-check --------------------------------------------------------------


def no_signalling_vertices() -> list[np.ndarray]:
    """The 8 PR-variants and 16 local deterministic vertices of the 2222 NS polytope."""
    vertices = []
    for mu in range(2):
        for nu in range(2):
            for sigma in range(2):
                t = np.zeros((2, 2, 2, 2))
                for x in range(2):
                    for y in range(2):
                        for a in range(2):
                            b = a ^ (x & y) ^ (mu & x) ^ (nu & y) ^ sigma
                            t[x, y, a, b] = 0.5
                vertices.append(t)
    for a0 in range(2):
        for a1 in range(2):
            for b0 in range(2):
                for b1 in range(2):
                    t = np.zeros((2, 2, 2, 2))
                    amap, bmap = (a0, a1), (b0, b1)
                    for x in range(2):
                        for y in range(2):
                            t[x, y, amap[x], bmap[y]] = 1.0
                    vertices.append(t)
    return vertices


def test_lp_matches_chsh_facets_on_random_ns_boxes():
    rng = np.random.default_rng(404)
    vertices = no_signalling_vertices()
    for _ in range(40):
        weights = rng.dirichlet(np.full(len(vertices), 0.3))
        table = sum(w * v for w, v in zip(weights, vertices))
        box = CorrelationBox((2, 2), (2, 2), table)
        cert = find_local_model(box)
        _, witness = is_bell_nonlocal(box)
        if cert is None:
            assert abs(witness.value) > 2.0 + 1e-7
        else:
            assert abs(witness.value) <= 2.0 + 1e-7
