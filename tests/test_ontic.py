"""Ontological-model validity, prediction, and the local-model LP."""
from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
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
    # the LP solver and its sparse matrices load on the first solve; the other checks never pay for them
    src = str(Path(gptw.__file__).resolve().parents[1])
    code = f"import sys, {module}; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
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


# -- the one-column-per-strategy LP as the reference ---------------------------------


def fraction_residual(box: CorrelationBox, weights: dict) -> float:
    """Max reconstruction error in rational arithmetic (the reference for `_exact_residual`)."""
    recon: dict[tuple[int, int, int, int], Fraction] = {}
    for (a_map, b_map), w in weights.items():
        for x in range(box.settings[0]):
            for y in range(box.settings[1]):
                key = (x, y, a_map[x], b_map[y])
                recon[key] = recon.get(key, Fraction(0)) + Fraction(w)
    worst = Fraction(0)
    for key in np.ndindex(*box.table.shape):
        worst = max(worst, abs(recon.get(key, Fraction(0)) - Fraction(float(box.table[key]))))
    return float(worst)


def reference_local_model(box: CorrelationBox, tol: float = ontic.LP_TOL):
    """(optimum, certificate or None) of the sup-norm fit with one dense column per strategy pair."""
    from scipy.optimize import linprog

    (n_x, n_y), (n_a, n_b) = box.settings, box.outcomes
    strategies = [(a, b) for a in product(range(n_a), repeat=n_x) for b in product(range(n_b), repeat=n_y)]
    columns = np.stack([strategy_table(box, s).reshape(-1) for s in strategies], axis=1)
    target = box.table.reshape(-1)
    n = len(strategies)
    c = np.zeros(n + 1)
    c[-1] = 1.0
    ones_t = np.ones((target.size, 1))
    res = linprog(
        c,
        A_ub=np.block([[columns, -ones_t], [-columns, -ones_t]]),
        b_ub=np.concatenate([target, -target]),
        A_eq=np.concatenate([np.ones(n), [0.0]]).reshape(1, -1),
        b_eq=[1.0],
        method="highs",
    )
    assert res.status == 0
    raw = np.clip(res.x[:n], 0.0, None)
    raw /= raw.sum()
    weights = {s: float(w) for s, w in zip(strategies, raw) if w > 1e-12}
    residual = fraction_residual(box, weights)
    return res.fun, (weights if residual <= tol else None)


def seeded_boxes(settings, outcomes, rng):
    """(kind, box): a mixture of 4 deterministic strategies, a random signalling box and a
    noisy correlated box, b = a + x y (mod k) on k = min(n_a, n_b) outcomes under white noise."""
    (n_x, n_y), (n_a, n_b) = settings, outcomes
    shape = settings + outcomes
    local = np.zeros(shape)
    for w in rng.dirichlet(np.ones(4)):
        a_map, b_map = rng.integers(0, n_a, n_x), rng.integers(0, n_b, n_y)
        local[np.arange(n_x)[:, None], np.arange(n_y), a_map[:, None], b_map] += w
    yield "local", CorrelationBox(settings, outcomes, local)
    raw = rng.random(shape)
    yield "signalling", CorrelationBox(settings, outcomes, raw / raw.sum(axis=(2, 3), keepdims=True))
    k = min(n_a, n_b)
    corr = np.zeros(shape)
    for x, y, a in np.ndindex(n_x, n_y, k):
        corr[x, y, a, (a + x * y) % k] = 1 / k
    v = rng.uniform(0.3, 1.0)
    yield "noisy", CorrelationBox(settings, outcomes, v * corr + (1 - v) / (n_a * n_b))


LP_SHAPES = [((2, 2), (2, 2)), ((2, 3), (2, 2)), ((3, 2), (2, 3)), ((3, 3), (3, 3)), ((4, 4), (2, 2)), ((6, 6), (2, 2))]


@pytest.mark.parametrize("settings, outcomes", LP_SHAPES)
def test_lp_matches_reference_lp(monkeypatch, settings, outcomes):
    optima = []

    def recording(*args, **kwargs):
        res = solve(*args, **kwargs)
        optima.append(res.fun)
        return res

    solve = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", recording)
    rng = np.random.default_rng(sum(settings) * 10 + sum(outcomes))
    for _ in range(2):
        for kind, box in seeded_boxes(settings, outcomes, rng):
            cert = find_local_model(box)
            want, reference = reference_local_model(box)
            assert abs(optima[-1] - want) <= 1e-9, kind
            assert (cert is None) == (reference is None), kind
            if kind != "noisy":
                assert (cert is None) == (kind == "signalling"), kind
            if cert is not None:
                weights = np.array(list(cert.weights.values()))
                assert weights.min() > 1e-12 and abs(weights.sum() - 1.0) <= 1e-12
                recon = sum(w * strategy_table(box, s) for s, w in cert.weights.items())
                assert np.max(np.abs(recon - box.table)) <= 1e-12
                assert cert.residual == fraction_residual(box, cert.weights)


def test_exact_residual_equals_fraction_residual():
    rng = np.random.default_rng(31)
    for settings, outcomes in LP_SHAPES:
        (n_x, n_y), (n_a, n_b) = settings, outcomes
        for _ in range(8):
            table = rng.random(settings + outcomes) ** 3
            box = CorrelationBox(settings, outcomes, table / table.sum(axis=(2, 3), keepdims=True))
            n = int(rng.integers(1, 12))
            weights = rng.dirichlet(np.full(n, 0.5)) * rng.choice([1.0, 1 - 1e-9, 1e-6], size=n)
            cert = {
                (tuple(rng.integers(0, n_a, n_x).tolist()), tuple(rng.integers(0, n_b, n_y).tolist())): float(w)
                for w in weights
            }
            assert ontic._exact_residual(box, cert) == fraction_residual(box, cert)


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
