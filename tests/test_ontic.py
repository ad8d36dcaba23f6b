"""Ontological-model validity, prediction, and the local-model LP."""
from __future__ import annotations

import dataclasses
import importlib.machinery
import json
import math
import sys
import threading
import warnings
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.sparse import csc_array

from gptw import ontic
from gptw import quantum as q
from gptw.correlations import CorrelationBox, is_bell_nonlocal
from gptw.errors import SizeLimitError, SolverError, UnknownIdError
from gptw.ontic import (
    LocalModelCertificate,
    OnticModel,
    certificate_to_ontic_model,
    find_local_model,
    noncontextual_chsh_bound,
    predict,
    validate_model,
    strategy_table,
)
from gptw.serialize import load_box
from gptw.theory import outcome_distribution

from conftest import SAMPLES, isotropic_table, run_src, singlet_optimal_settings


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
    code = f"import sys, {module}; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert run_src(code) == ["False"]


def test_chsh_refuted_local_model_leaves_scipy_unloaded():
    # the CHSH gate settles the singlet sample, so a `gptw local-model` process never imports scipy
    code = (
        "import sys; from gptw.cli import main; "
        "code = main(['local-model', '--box', sys.argv[1]]); "
        "print(code, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    report, verdict = run_src(code, str(SAMPLES / "singlet_opt_box.json"))
    assert '"method": "chsh"' in report
    assert verdict == "1 False"


ISOTROPIC_HALF = str(SAMPLES / "isotropic_half_box.json")


@pytest.fixture(scope="module")
def core_registers_itself() -> bool:
    """Whether CPython itself puts HiGHS's extension in sys.modules when it is loaded from its file.

    It does for a single-phase-init build (pybind11 before 3.0).  The wheel of
    scipy 1.17 (pybind11 3) hands back one module object per process and stays
    out of sys.modules.  Loaded here without `_highs_core`, so the answer does
    not depend on what gptw does.
    """
    code = (
        "import importlib.util, sys; from gptw import ontic; "
        "spec = importlib.util.spec_from_file_location(ontic.HIGHS_CORE, ontic._highs_core_file()); "
        "spec.loader.exec_module(importlib.util.module_from_spec(spec)); print(ontic.HIGHS_CORE in sys.modules)"
    )
    return run_src(code) == ["True"]


def test_lp_solving_local_model_leaves_scipy_optimize_unloaded(core_registers_itself):
    # HiGHS's extension is loaded from its file, so scipy.optimize's package init never runs,
    # and gptw does not register the module under its package name
    code = (
        "import sys; from gptw import ontic; from gptw.cli import main; "
        "code = main(['local-model', '--box', sys.argv[1]]); "
        "print(code, 'scipy.optimize' in sys.modules, ontic.HIGHS_CORE in sys.modules)"
    )
    report, verdict = run_src(code, ISOTROPIC_HALF)
    assert '"method": "lp"' in report
    assert verdict == f"0 False {core_registers_itself}"


def test_highs_core_falls_back_to_the_package_import(monkeypatch, isotropic_half):
    lp = ontic._local_lp(isotropic_half)
    want = ontic.linprog(*lp)
    lookups = []

    def no_file():
        lookups.append(True)
        return None

    monkeypatch.setattr(ontic, "_highs_core_file", no_file)
    monkeypatch.delitem(sys.modules, ontic.HIGHS_CORE, raising=False)
    ontic._highs_core.cache_clear()
    try:
        got = ontic.linprog(*lp)
    finally:
        ontic._highs_core.cache_clear()  # later tests load by file location again
    assert lookups and ontic.HIGHS_CORE in sys.modules  # the package import registered the module
    assert (got.status, got.fun, got.nit) == (want.status, want.fun, want.nit)
    assert np.array_equal(got.x, want.x)


def test_highs_core_file_is_none_without_a_matching_extension(monkeypatch):
    assert ontic._highs_core_file() is not None
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".absent"])
    assert ontic._highs_core_file() is None


@pytest.mark.parametrize("order", ["before", "after"])
def test_linprog_matches_scipy_linprog_in_either_import_order(order):
    # `import scipy.optimize` before the first solve, or after it: one `_core` module, the same pivots
    code = """
import json, sys
from gptw import ontic, serialize
lp = ontic._local_lp(serialize.load_box(sys.argv[2]))
if sys.argv[1] == "before":
    import scipy.optimize
got = ontic.linprog(*lp)
core = ontic._highs_core()
from scipy.optimize import linprog
from scipy.optimize._highspy import _core
from scipy.sparse import csc_array
A = csc_array(tuple(lp.A), shape=(len(lp.row_lower), len(lp.c)))
want = linprog(lp.c, A_ub=A[:-1], b_ub=lp.row_upper[:-1], A_eq=A[[-1]].toarray(), b_eq=lp.row_upper[-1:],
               options={"presolve": False}, method="highs")
print(json.dumps([[got.x.tolist(), got.fun, got.nit], [want.x.tolist(), want.fun, want.nit], core is _core]))
"""
    got, want, one_module = json.loads(run_src(code, order, ISOTROPIC_HALF)[0])
    assert got == want
    assert one_module


@pytest.mark.parametrize("order", ["before", "after"])
def test_attribute_path_reaches_the_loaded_core_in_either_import_order(order, core_registers_itself):
    # the file-loaded module is the one scipy's package binds, so the attribute path resolves; a
    # self-registering build is in sys.modules before its package, which then never binds it
    code = """
import sys
from gptw import ontic, serialize
lp = ontic._local_lp(serialize.load_box(sys.argv[2]))
if sys.argv[1] == "before":
    import scipy.optimize
ontic.linprog(*lp)
import scipy.optimize._highspy
from scipy.optimize._highspy import _core
bound = getattr(scipy.optimize._highspy, "_core", None)
print(_core is ontic._highs_core(), bound is ontic._highs_core() and bound._Highs.__name__)
"""
    unbound = order == "after" and core_registers_itself
    assert run_src(code, order, ISOTROPIC_HALF) == ["True False" if unbound else "True _Highs"]


def test_two_threads_solving_first_at_once_share_one_core(core_registers_itself):
    # both threads may miss the cache and load the file; each load must give the one module object
    code = """
import importlib.util, sys, threading
from gptw import ontic, serialize
lp = ontic._local_lp(serialize.load_box(sys.argv[1]))
loaded, results, start = [], [], threading.Barrier(2)
module_from_spec = importlib.util.module_from_spec
importlib.util.module_from_spec = lambda spec: loaded.append(module_from_spec(spec)) or loaded[-1]

def first_solve():
    start.wait()
    results.append(ontic.linprog(*lp).fun)

threads = [threading.Thread(target=first_solve) for _ in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join()
core = ontic._highs_core()
print(bool(loaded) and all(m is core for m in loaded), results[0] == results[1], ontic.HIGHS_CORE in sys.modules)
"""
    assert run_src(code, ISOTROPIC_HALF) == [f"True True {core_registers_itself}"]


def test_find_local_model_looks_up_linprog_at_call_time(monkeypatch, isotropic_half):
    calls = []

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    solve = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", recording)
    cert = find_local_model(isotropic_half)
    assert len(calls) == 1
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


def test_certificate_model_reads_each_party_own_outcome():
    # three outcomes for Alice and two for Bob, with Alice's and Bob's maps unrelated
    rng = np.random.default_rng(65)
    strategies = sorted({(tuple(rng.integers(0, 3, 2).tolist()), tuple(rng.integers(0, 2, 3).tolist()))
                         for _ in range(6)})
    weights = rng.random(len(strategies))
    cert = LocalModelCertificate(dict(zip(strategies, (weights / weights.sum()).tolist())), 0.0)
    table = np.zeros((2, 3, 3, 2))
    for (a_map, b_map), w in cert.weights.items():
        for x, y in np.ndindex(2, 3):
            table[x, y, a_map[x], b_map[y]] += w
    box = CorrelationBox((2, 3), (3, 2), table)
    model = certificate_to_ontic_model(box, cert)
    assert validate_model(model) == []
    for x, y in np.ndindex(2, 3):
        got = predict(model, "source", "I", f"s{x},{y}")
        assert np.max(np.abs(got - table[x, y].reshape(-1))) < 1e-12


def test_certificate_labels_stay_distinct_past_ten_outcomes():
    # strategies (1, 10) and (11, 0) joined digit by digit would both read "110"
    table = np.zeros((2, 1, 12, 1))
    table[0, 0, 1, 0], table[0, 0, 11, 0] = 0.6, 0.4
    table[1, 0, 10, 0], table[1, 0, 0, 0] = 0.3, 0.7
    box = CorrelationBox((2, 1), (12, 1), table)
    cert = find_local_model(box)
    assert {((1, 10), (0,)), ((11, 0), (0,))} <= set(cert.weights)
    assert abs(sum(cert.as_json_dict().values()) - 1.0) <= 1e-12
    labels = certificate_to_ontic_model(box, cert).ontic_states
    assert len(set(labels)) == len(labels) == len(cert.weights)
    assert "1,10|0" in labels and "11,0|0" in labels


def test_single_digit_certificate_labels_join_the_digits(isotropic_half):
    cert = find_local_model(isotropic_half)
    assert set(cert.as_json_dict()) == {"".join(map(str, a)) + "|" + "".join(map(str, b)) for a, b in cert.weights}


def test_strategy_cap():
    # 8 outcomes, 4 settings per side: 8^4 * 4 * 8 conditional weights in 2 * 4 fit rows each = 2^20 > 2^19
    table = np.full((4, 4, 8, 8), 1.0 / 64)
    box = CorrelationBox((4, 4), (8, 8), table)
    with pytest.raises(SizeLimitError):
        find_local_model(box)


class Solved(Exception):
    """Raised by a fake `linprog`: the call got past every size check."""


def refuse_to_solve(*args, **kwargs):
    raise Solved


@pytest.mark.parametrize("m, admitted", [(10, True), (11, False)])
def test_cap_counts_lp_nonzeros(monkeypatch, m, admitted):
    # binary, m settings per side: 2^m * m * 2 conditional weights in 2m fit rows; 409,600 at m=10, 991,232 at m=11
    table = np.zeros((m, m, 2, 2))
    table[..., 0, 0] = 1.0
    monkeypatch.setattr(ontic, "linprog", refuse_to_solve)
    with pytest.raises(Solved if admitted else SizeLimitError):
        find_local_model(CorrelationBox((m, m), (2, 2), table))


def product_box(settings: tuple[int, int], outcomes: tuple[int, int], seed: int) -> CorrelationBox:
    """A seeded local box: Alice and Bob answer independently, each from one distribution per setting."""
    rng = np.random.default_rng(seed)
    alice = rng.dirichlet(np.ones(outcomes[0]), settings[0])
    bob = rng.dirichlet(np.ones(outcomes[1]), settings[1])
    return CorrelationBox(settings, outcomes, np.einsum("xa,yb->xyab", alice, bob))


@pytest.mark.parametrize("settings, outcomes, admitted", [
    ((2, 511), (2, 2), True),  # 4 * 512 pieces * 511 * 2 = 2,093,056 certificate cells
    ((2, 512), (2, 2), False),  # 4 * 513 * 512 * 2 = 2,101,248
    ((1, 1), (1, 1448), True),  # 1448 pieces * 1447 cut outcomes = 2,095,256
    ((1, 1), (1, 1449), False),  # 1449 * 1448 = 2,098,152: within MAX_LP_NONZEROS, not this cap
])
def test_cap_counts_certificate_cells(monkeypatch, settings, outcomes, admitted):
    monkeypatch.setattr(ontic, "linprog", refuse_to_solve)
    with pytest.raises(Solved if admitted else SizeLimitError, match=None if admitted else "certificate"):
        find_local_model(product_box(settings, outcomes, seed=5))


def count_solves(monkeypatch) -> list:
    """Record each `ontic.linprog` call; the solve still runs."""
    calls = []
    solve = ontic.linprog

    def recording(*args, **kwargs):
        calls.append(kwargs)
        return solve(*args, **kwargs)

    monkeypatch.setattr(ontic, "linprog", recording)
    return calls


# -- the CHSH gate ------------------------------------------------------------------------


def test_chsh_gate_runs_before_the_cap(monkeypatch):
    calls = count_solves(monkeypatch)
    alice, bob = singlet_optimal_settings()
    tsirelson = q.bipartite_box(q.singlet(), alice * 6, bob * 6)
    assert find_local_model(tsirelson) is None
    assert calls == []
    local, _, _ = seeded_boxes((12, 12), (2, 2), np.random.default_rng(12))
    assert local[0] == "local"
    with pytest.raises(SizeLimitError):
        find_local_model(local[1])


def i3322_box() -> CorrelationBox:
    """A box that violates I3322 but no CHSH inequality (3 settings, 2 outcomes per party).

    Half is the qubit I3322 optimum: the maximally entangled state, both
    parties measuring in one plane at angles 0, -pi/3, pi/3, so E(x, y) is
    the cosine of the angle difference and I3322 = 1/4.  The other half is
    four deterministic strategies on the I3322 facet, which pull every CHSH
    value down to at most 7/4 while I3322 stays at 1/8 > 0.
    """
    e = np.array([[1.0, 0.5, 0.5], [0.5, 1.0, -0.5], [0.5, -0.5, 1.0]])
    quantum = (1 + e[:, :, None, None] * np.array([[1, -1], [-1, 1]])) / 4
    base = CorrelationBox((3, 3), (2, 2), quantum)
    facet = [((0, 1, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 1, 1)), ((1, 1, 1), (1, 0, 1))]
    return CorrelationBox((3, 3), (2, 2), quantum / 2 + sum(strategy_table(base, s) for s in facet) / 8)


def i3322(table: np.ndarray) -> float:
    """Collins-Gisin I3322 on outcome 0 (J. Phys. A 37, 1775, 2004): <= 0 on every local box."""
    p_a, p_b, p_ab = table[:, 0, 0, :].sum(axis=-1), table[0, :, :, 0].sum(axis=-1), table[:, :, 0, 0]
    joint = np.array([[1, 1, 1], [1, 1, -1], [1, -1, 0]])
    return float((joint * p_ab).sum() - 2 * p_a[0] - p_a[1] - p_b[0])


def test_chsh_local_i3322_violator_keeps_the_lp(monkeypatch):
    box = i3322_box()
    _, witness = is_bell_nonlocal(box)
    assert abs(witness.value) == 1.75 and i3322(box.table) == 0.125
    for facet in ((0, 1, 0), (0, 0, 0)), ((1, 1, 1), (1, 0, 1)):
        assert i3322(strategy_table(box, facet)) == 0.0
    calls = count_solves(monkeypatch)
    assert ontic.chsh_gate(box, ontic.LP_TOL) is None
    assert find_local_model(box) is None
    assert len(calls) == 1


@pytest.mark.parametrize("excess, gated", [(4, False), (32, True)])
def test_chsh_gate_threshold_on_isotropic_boxes(monkeypatch, excess, gated):
    # |B| = 2 + excess * tol, and the closest local box is (|B| - 2) / 16 = excess * tol / 16 away
    # (HiGHS reports that optimum only to its 1e-7 feasibility tolerance, so the residual is checked)
    tol = ontic.LP_TOL
    box = CorrelationBox((2, 2), (2, 2), isotropic_table((2 + excess * tol) / 4))
    distance = (abs(is_bell_nonlocal(box)[1].value) - 2) / 16
    calls = count_solves(monkeypatch)
    cert = find_local_model(box, tol)
    assert (cert is None, len(calls)) == ((True, 0) if gated else (False, 1))
    if cert is not None:
        assert distance - 1e-15 <= cert.residual <= tol
    monkeypatch.setattr(ontic, "chsh_gate", lambda box, tol: None)
    assert (find_local_model(box, tol) is None) == gated


def fraction_chsh_margin(box: CorrelationBox, tol: float) -> Fraction:
    """|B| - 2 - 16 tol of the box's float-best witness, in rational arithmetic."""
    _, witness = is_bell_nonlocal(box)
    (a0, a1), (b0, b1) = witness.a_settings, witness.b_settings

    def e(x, y):
        return sum((-1) ** (a + b) * Fraction(float(box.table[x, y, a, b])) for a in range(2) for b in range(2))

    value = e(a0, b0) + e(a0, b1) + e(a1, b0) - e(a1, b1)
    return abs(value) - 2 - 16 * Fraction(tol)


def test_chsh_gate_margin_is_exact():
    rng = np.random.default_rng(61)
    for settings, tol in product([(2, 2), (3, 2), (4, 4)], [0.0, 1e-7, 1e-3, 0.05]):
        for _, box in seeded_boxes(settings, (2, 2), rng):
            refutation = ontic.chsh_gate(box, tol)
            margin = fraction_chsh_margin(box, tol)
            assert (refutation is not None) == (margin > 0)
            if refutation is not None:
                assert refutation.margin == float(margin)
                assert refutation.witness == is_bell_nonlocal(box)[1]


def test_chsh_gate_scales_tol_by_sixteen_exactly(pr_box, deterministic_box):
    # |B| = 2 + 32 t exactly at t = 2**-1074, the smallest subnormal: E(1, 1) = 1 - 32 t
    t = 2.0**-1074
    table = deterministic_box.table.copy()
    table[1, 1, 0, 1] = 32 * t
    box = CorrelationBox((2, 2), (2, 2), table)
    assert abs(is_bell_nonlocal(box)[1].value) == 2.0  # the float |B| cannot tell
    refutation = ontic.chsh_gate(box, t)
    assert refutation.margin == float(fraction_chsh_margin(box, t)) == 16 * t
    assert ontic.chsh_gate(box, 2 * t) is None  # a tie: |B| = 2 + 16 (2 t)
    # 16 tol overflows to inf: the box goes to the LP, and no exact check sees an infinite tol
    assert ontic.chsh_gate(pr_box, 1e308) is None


def test_chsh_gate_leaves_other_boxes_to_the_lp(pr_box, deterministic_box):
    # a tie, |B| = 2 + 16 tol exactly, is not a refutation
    assert ontic.chsh_gate(deterministic_box, 0.0) is None
    assert find_local_model(deterministic_box, 0.0).residual == 0.0
    assert ontic.chsh_gate(pr_box, math.inf) is None
    assert ontic.chsh_gate(pr_box, -math.inf) is None
    one_setting = CorrelationBox((1, 2), (2, 2), np.full((1, 2, 2, 2), 0.25))
    assert ontic.chsh_gate(one_setting, ontic.LP_TOL) is None
    assert find_local_model(one_setting) is not None
    rng = np.random.default_rng(62)
    for _, box in seeded_boxes((2, 2), (3, 3), rng):
        assert ontic.chsh_gate(box, ontic.LP_TOL) is None


SWEEP_SHAPES = {(2, 2): 12, (3, 3): 8, (4, 4): 6, (6, 6): 3, (2, 3): 6, (3, 2): 6}


def sweep_boxes(rng):
    """(kind, box): `seeded_boxes` (local, signalling, noisy PR) and two noisy Tsirelson boxes.

    The Tsirelson boxes are the singlet under the optimal settings on x, y in
    {0, 1} and random projective ones elsewhere, so max |B| = 2 sqrt 2 v;
    one has v in [0.75, 1] (|B| > 2.1), the other |B| within 12 tol of the gate's
    threshold 2 + 16 tol, on either side.
    """
    tol = ontic.LP_TOL
    alice, bob = singlet_optimal_settings()
    offsets = iter([-12, -4, 4, 12] * 12)
    for (n_x, n_y), count in SWEEP_SHAPES.items():
        for _ in range(count):
            yield from seeded_boxes((n_x, n_y), (2, 2), rng)
            singlet = q.bipartite_box(
                q.singlet(),
                alice + [q.random_projective_qubit(rng) for _ in range(n_x - 2)],
                bob + [q.random_projective_qubit(rng) for _ in range(n_y - 2)],
            )
            near = (2 + (16 + next(offsets)) * tol) / (2 * np.sqrt(2))
            for kind, v in (("tsirelson", rng.uniform(0.75, 1.0)), ("threshold", near)):
                table = v * singlet.table + (1 - v) / 4
                yield kind, CorrelationBox((n_x, n_y), (2, 2), table)


def test_chsh_gate_agrees_with_the_lp_only_path(monkeypatch):
    seen = set()
    count = 0
    for kind, box in sweep_boxes(np.random.default_rng(63)):
        gated = ontic.chsh_gate(box, ontic.LP_TOL) is not None
        cert = find_local_model(box)
        with monkeypatch.context() as lp_only:
            lp_only.setattr(ontic, "chsh_gate", lambda box, tol: None)
            reference = find_local_model(box)
        assert (cert is None) == (reference is None), kind
        if cert is not None:
            assert cert == reference
        if kind in ("local", "signalling", "tsirelson"):
            assert (cert is None) == (kind != "local"), kind
        seen.add((kind, gated))
        count += 1
    assert count >= 200
    # near the threshold the gate both fires and leaves the box to the LP
    assert {("threshold", True), ("threshold", False), ("tsirelson", True), ("local", False)} <= seen


@pytest.mark.parametrize("settings, outcomes", [((2, 2), (2, 2)), ((3, 3), (3, 3)), ((6, 6), (2, 2)), ((2, 2), (3, 1))])
def test_local_lp_has_one_mass_column_per_alice_strategy(settings, outcomes):
    # columns z[alpha, y, b < n_b - 1], w[alpha], t; one equality row; rows: two fit blocks, then z <= w
    # (left out when Bob has one outcome: there is no z, and the rows would only restate w >= 0)
    (n_x, n_y), (n_a, n_b) = settings, outcomes
    rng = np.random.default_rng(n_x * 10 + n_a)
    box = next(seeded_boxes(settings, outcomes, rng))[1]
    lp = ontic._local_lp(box)
    n_alpha, n_fit = n_a**n_x, box.table.size
    n_cols = n_alpha * (1 + n_y * (n_b - 1)) + 1
    n_bound = n_alpha * n_y if n_b > 1 else 0
    n_ub = 2 * n_fit + n_bound
    assert n_cols == 449 or settings != (6, 6)
    assert lp_matrix(lp).has_canonical_format  # sorted row indices: the entry order scipy's linprog passes
    assert lp.c.shape == (n_cols,) and lp.row_lower.shape == lp.row_upper.shape == (n_ub + 1,)
    assert lp.c[-1] == 1.0 and not lp.c[:-1].any()
    # a random point: masses w and Bob's conditionals q[alpha, y, :] of mass w[alpha]
    w = rng.dirichlet(np.ones(n_alpha))
    q = w[:, None, None] * rng.dirichlet(np.ones(n_b), size=(n_alpha, n_y))
    model = np.zeros(box.table.shape)
    for alpha, a_map in enumerate(ontic._alice_maps(n_x, n_a)):
        for x, y in np.ndindex(n_x, n_y):
            model[x, y, a_map[x]] += q[alpha, y]
    x = np.concatenate([q[:, :, :-1].ravel(), w, [0.25]])
    rows = lp_matrix(lp) @ x
    assert np.allclose(rows[:n_fit], model.ravel() - 0.25) and np.allclose(rows[n_fit:2 * n_fit], -model.ravel() - 0.25)
    if n_bound:
        assert np.allclose(rows[2 * n_fit:n_ub], -q[:, :, -1].ravel())  # sum_b z - w = -(last weight)
    assert np.allclose(rows[n_ub], 1.0)  # the masses, in the equality row
    b_ub = np.concatenate([box.table.ravel(), -box.table.ravel(), np.zeros(n_bound)])
    assert np.array_equal(lp.row_upper, np.concatenate([b_ub, [1.0]]))
    assert np.array_equal(lp.row_lower, np.concatenate([np.full(n_ub, -np.inf), [1.0]]))


def test_highs_options_are_recognised():
    # scipy ignores an option name it does not know, with only an OptimizeWarning
    from scipy.optimize import OptimizeWarning

    box = CorrelationBox((2, 2), (2, 2), isotropic_table(0.5))
    lp = ontic._local_lp(box)
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimizeWarning)
        for options in (None, ontic.TIGHT_TOLERANCES):
            assert ontic.linprog(*lp, options=options).status == 0


def test_boxes_within_tol_get_a_certificate(monkeypatch):
    # at t* near tol, HiGHS's 1e-7 feasibility tolerance can leave a split that misses tol: solved again
    from scipy.optimize import OptimizeWarning

    tol = ontic.LP_TOL
    options = []
    solve = ontic.linprog

    def recording(*args, **kwargs):
        options.append(kwargs["options"] or {})  # the first solve passes none
        return solve(*args, **kwargs)

    monkeypatch.setattr(ontic, "linprog", recording)
    near = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimizeWarning)
        for kind, box in sweep_boxes(np.random.default_rng(63)):
            if kind in ("signalling", "tsirelson"):
                continue  # each is far from the local polytope
            if reference_local_model(box)[0] < 0.9 * tol:
                near += 1
                assert find_local_model(box, tol) is not None, kind
    assert near == 71
    assert any("primal_feasibility_tolerance" in o for o in options)


def test_local_lp_of_the_twelve_outcome_sample():
    # 2 x 12 x 2 fit rows and the mass row: none of the 144 bound rows of a one-outcome Bob
    box = load_box(SAMPLES / "twelve_outcome_box.json")
    lp = ontic._local_lp(box)
    assert (len(lp.row_lower), len(lp.c)) == (49, 145)
    assert ontic.linprog(*lp).fun == 0.0


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
    """(kind, box): a mixture of 4 deterministic strategies, a random box and a noisy correlated
    box, b = a + x y (mod k) on k = min(n_a, n_b) outcomes under white noise.

    The random box is "signalling" where the shape lets a marginal move, Alice's with y or Bob's
    with x; otherwise it is "random", and local like every box of that shape."""
    (n_x, n_y), (n_a, n_b) = settings, outcomes
    shape = settings + outcomes
    local = np.zeros(shape)
    for w in rng.dirichlet(np.ones(4)):
        a_map, b_map = rng.integers(0, n_a, n_x), rng.integers(0, n_b, n_y)
        local[np.arange(n_x)[:, None], np.arange(n_y), a_map[:, None], b_map] += w
    yield "local", CorrelationBox(settings, outcomes, local)
    raw = rng.random(shape)
    kind = "signalling" if (n_y >= 2 and n_a >= 2) or (n_x >= 2 and n_b >= 2) else "random"
    yield kind, CorrelationBox(settings, outcomes, raw / raw.sum(axis=(2, 3), keepdims=True))
    k = min(n_a, n_b)
    corr = np.zeros(shape)
    for x, y, a in np.ndindex(n_x, n_y, k):
        corr[x, y, a, (a + x * y) % k] = 1 / k
    v = rng.uniform(0.3, 1.0)
    yield "noisy", CorrelationBox(settings, outcomes, v * corr + (1 - v) / (n_a * n_b))


LP_SHAPES = [((2, 2), (2, 2)), ((2, 3), (2, 2)), ((3, 2), (2, 3)), ((3, 3), (3, 3)), ((4, 4), (2, 2)), ((6, 6), (2, 2)),
             ((2, 2), (3, 1)), ((3, 2), (4, 1)), ((2, 1), (12, 1))]  # one Bob outcome: no z columns and no bound rows


@pytest.mark.parametrize("settings, outcomes", LP_SHAPES)
def test_lp_matches_reference_lp(settings, outcomes):
    rng = np.random.default_rng(sum(settings) * 10 + sum(outcomes))
    for _ in range(2):
        for kind, box in seeded_boxes(settings, outcomes, rng):
            cert = find_local_model(box)
            want, reference = reference_local_model(box)
            # the one-party LP itself, solved even where the CHSH gate skips it
            assert abs(ontic.linprog(*ontic._local_lp(box)).fun - want) <= 1e-9, kind
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
            a_maps, b_maps = (np.array([s[i] for s in cert]) for i in (0, 1))
            kept = np.array(list(cert.values()))
            assert ontic._exact_residual(box, a_maps, b_maps, kept) == fraction_residual(box, cert)


# -- the solve loop: one solve, and a tight re-solve of a split refused at t <= tol -------


def scripted_linprog(monkeypatch, results: list) -> list:
    """Make `ontic.linprog` return `results` in turn; the returned list gets each call's options."""
    calls = []

    def scripted(*lp, options=None):
        calls.append(options)
        return results[len(calls) - 1]

    monkeypatch.setattr(ontic, "linprog", scripted)
    return calls


@pytest.fixture
def one_shape_solves():
    """(a local box, its LP's result, a signalling box's LP result), of one shape the CHSH gate passes on."""
    boxes = dict(seeded_boxes((3, 2), (2, 3), np.random.default_rng(70)))
    local, signalling = (ontic.linprog(*ontic._local_lp(boxes[kind])) for kind in ("local", "signalling"))
    assert local.fun <= ontic.LP_TOL < signalling.fun
    return boxes["local"], local, signalling


def test_solve_loop_returns_a_certificate_that_holds_after_one_solve(monkeypatch, one_shape_solves):
    box, local, _ = one_shape_solves
    calls = scripted_linprog(monkeypatch, [local])
    assert find_local_model(box) is not None
    assert calls == [None]


def test_solve_loop_answers_none_after_one_solve_when_t_exceeds_tol(monkeypatch, one_shape_solves):
    box, _, signalling = one_shape_solves  # the signalling box's solution does not reconstruct the local box
    calls = scripted_linprog(monkeypatch, [signalling])
    assert find_local_model(box) is None
    assert calls == [None]


@pytest.mark.parametrize("second_holds", [True, False])
def test_solve_loop_solves_a_refused_split_once_more_at_tight_tolerances(monkeypatch, one_shape_solves, second_holds):
    box, local, signalling = one_shape_solves
    refused = dataclasses.replace(signalling, fun=0.0)  # HiGHS reports t <= tol, the exact re-check refuses
    calls = scripted_linprog(monkeypatch, [refused, local if second_holds else refused])
    assert (find_local_model(box) is not None) == second_holds
    assert calls == [None, ontic.TIGHT_TOLERANCES]


def test_solve_loop_raises_when_the_tight_solve_fails(monkeypatch, one_shape_solves):
    box, _, signalling = one_shape_solves
    failed = ontic.LpResult(1, "HiGHS model status 14: Iteration limit reached", None, None, 1)
    calls = scripted_linprog(monkeypatch, [dataclasses.replace(signalling, fun=0.0), failed])
    with pytest.raises(SolverError, match="^LP solver failed: HiGHS model status 14: Iteration limit reached$"):
        find_local_model(box)
    assert calls == [None, ontic.TIGHT_TOLERANCES]


# -- `ontic.linprog` on HiGHS against `scipy.optimize.linprog` --------------------------


def lp_matrix(lp: ontic.HighsLp) -> csc_array:
    return csc_array(tuple(lp.A), shape=(len(lp.row_lower), len(lp.c)))


def scipy_linprog_args(lp: ontic.HighsLp, options: dict | None) -> dict:
    """`scipy.optimize.linprog` arguments of a `HighsLp` whose rows are <= rows, then one equality row."""
    assert (lp.row_lower[:-1] == -np.inf).all() and lp.row_lower[-1] == lp.row_upper[-1]
    matrix = lp_matrix(lp)
    return dict(c=lp.c, A_ub=matrix[:-1], b_ub=lp.row_upper[:-1], A_eq=matrix[[-1]].toarray(),
                b_eq=lp.row_upper[-1:], options={"presolve": False, **(options or {})}, method="highs")


@pytest.mark.parametrize("settings, outcomes", LP_SHAPES)
def test_linprog_matches_scipy_linprog_bit_for_bit(settings, outcomes):
    # the same HiGHS model and options as `scipy.optimize.linprog(method="highs")`, so the same pivots
    from scipy.optimize import linprog

    rng = np.random.default_rng(sum(settings) * 10 + sum(outcomes) + 1)
    for kind, box in seeded_boxes(settings, outcomes, rng):
        lp = ontic._local_lp(box)
        for options in (None, ontic.TIGHT_TOLERANCES):
            got = ontic.linprog(*lp, options=options)
            want = linprog(**scipy_linprog_args(lp, options))
            assert (got.status, got.fun, got.nit) == (want.status, want.fun, want.nit), kind
            assert np.array_equal(got.x, want.x), kind


def test_linprog_reports_highs_status_on_an_iteration_limit(monkeypatch):
    box = CorrelationBox((3, 3), (2, 2), np.full((3, 3, 2, 2), 0.25))
    lp = ontic._local_lp(box)
    options = {"simplex_iteration_limit": 1}
    res = ontic.linprog(*lp, options=options)
    assert (res.status, res.x, res.nit) == (1, None, 1)
    solve = ontic.linprog
    monkeypatch.setattr(ontic, "linprog", lambda *args, **kwargs: solve(*lp, options=options))
    with pytest.raises(SolverError, match="HiGHS model status 14: Iteration limit reached"):
        find_local_model(box)


def tiny_lp() -> ontic.HighsLp:
    """min x0 s.t. -x0 <= -0.01, x0 + x1 = 1, x >= 0, in `_local_lp`'s layout."""
    a = ontic.ColumnMatrix(np.array([-1.0, 1.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3]))
    return ontic.HighsLp(np.array([1.0, 0.0]), a, np.array([-np.inf, 1.0]), np.array([-0.01, 1.0]))


@pytest.mark.parametrize("feasibility, status", [(1e-3, 0), (0.05, 4)])
def test_linprog_post_solve_check(monkeypatch, isotropic_half, feasibility, status):
    # at a 0.05 feasibility tolerance HiGHS calls x = (0, 1) optimal; its slack of -0.01 misses 10 sqrt(1e-9)
    from scipy.optimize import linprog

    lp, options = tiny_lp(), {"primal_feasibility_tolerance": feasibility}
    res, want = ontic.linprog(*lp, options=options), linprog(**scipy_linprog_args(lp, options))
    assert (res.status, res.fun, res.nit) == (want.status, want.fun, want.nit) and res.status == status
    assert np.array_equal(res.x, want.x)
    if status:
        solve = ontic.linprog
        monkeypatch.setattr(ontic, "linprog", lambda *args, **kwargs: solve(*lp, options=options))
        with pytest.raises(SolverError, match="misses the constraints"):
            find_local_model(isotropic_half)


@pytest.mark.parametrize("options", [{"no_such_option": 1}, {"presolve": "sometimes"}, {"time_limit": "soon"}])
def test_linprog_rejects_options_highs_does_not_know(options):
    # `scipy.optimize.linprog` drops such an option with only an OptimizeWarning
    with pytest.raises(ValueError, match="HiGHS rejects the option"):
        ontic.linprog(*tiny_lp(), options=options)


@pytest.mark.parametrize("name, value, message", [
    ("c", np.zeros(3), "matching lengths"),
    pytest.param("row_upper", np.zeros(3), "matching lengths", id="row_upper-length"),
    pytest.param("row_lower", np.zeros(1), "matching lengths", id="row_lower-length"),
    pytest.param("A", ontic.ColumnMatrix(np.array([-1.0, 1.0]), np.array([0, 1, 1]), np.array([0, 2, 3])),
                 "matching lengths", id="data-shorter-than-indices"),
    pytest.param("A", ontic.ColumnMatrix(np.array([-1.0, 1.0, 1.0]), np.array([0, 1, 1]), np.array([0, 3])),
                 "matching lengths", id="indptr-length"),
    pytest.param("A", ontic.ColumnMatrix(np.array([-1.0, 1.0, 1.0]), np.array([0, 5, 1]), np.array([0, 2, 3])),
                 "LP's matrix", id="row-index-out-of-range"),
])
def test_linprog_checks_arrays_before_handing_them_to_highs(name, value, message):
    # HiGHS reads each array up to the lengths it is given, and rejects a row index outside the matrix
    with pytest.raises(ValueError, match=message):
        ontic.linprog(*tiny_lp()._replace(**{name: value}))


# -- the per-shape LP and the per-thread solver ------------------------------------------


def test_lp_shape_arrays_are_read_only():
    a_maps, lp = ontic._lp_shape((3, 3), (2, 3))
    for array in (a_maps, lp.c, *lp.A, lp.row_lower, lp.row_upper):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_boxes_of_one_shape_share_all_but_row_upper():
    rng = np.random.default_rng(64)
    (_, first), (_, second), _ = seeded_boxes((3, 2), (2, 3), rng)
    one, two = ontic._local_lp(first), ontic._local_lp(second)
    assert one.c is two.c and one.A is two.A and one.row_lower is two.row_lower
    assert one.row_upper is not two.row_upper and not np.array_equal(one.row_upper, two.row_upper)
    tail = ontic._lp_shape((3, 2), (2, 3))[1].row_upper[2 * first.table.size :]
    for box, lp in ((first, one), (second, two)):
        assert lp.row_upper.flags.writeable  # the one array built per box
        assert np.array_equal(lp.row_upper, np.concatenate([box.table.ravel(), -box.table.ravel(), tail]))


def test_lp_shape_cache_is_bounded_and_holds_the_benchmark_sweep():
    maxsize = ontic._lp_shape.cache_info().maxsize
    assert 4 <= maxsize < 64
    for n_y in range(1, maxsize + 3):
        ontic._local_lp(CorrelationBox((1, n_y), (2, 2), np.full((1, n_y, 2, 2), 0.25)))
    assert ontic._lp_shape.cache_info().currsize == maxsize
    sweep = [CorrelationBox((m, m), (2, 2), np.full((m, m, 2, 2), 0.25)) for m in (2, 3, 4, 6)]
    for box in sweep:
        ontic._local_lp(box)
    hits = ontic._lp_shape.cache_info().hits
    for box in sweep:
        ontic._local_lp(box)
    assert ontic._lp_shape.cache_info().hits == hits + len(sweep)


def reuse_sequence(rng) -> list:
    """(lp, options) pairs: m = 2..6 binary and three-outcome boxes, tight tolerances, an iteration
    limit and an option HiGHS rejects, shuffled."""
    shapes = [((m, m), (2, 2)) for m in range(2, 7)] + [((2, 2), (3, 3)), ((3, 2), (3, 2)), ((2, 3), (2, 3))]
    lps = [ontic._local_lp(box) for shape in shapes for _, box in seeded_boxes(*shape, rng)]
    runs = [(lp, options) for lp in lps for options in (None, ontic.TIGHT_TOLERANCES)]
    runs += [(lps[i], {"simplex_iteration_limit": 2}) for i in (3, 9, 20)]
    runs += [(lps[i], {"no_such_option": 1}) for i in (1, 12)] + [(tiny_lp(), None)]
    return [runs[i] for i in rng.permutation(len(runs))]


def lp_outcome(lp, options):
    """`linprog`'s result as comparable values, or the ValueError it raised."""
    try:
        res = ontic.linprog(*lp, options=options)
    except ValueError as exc:
        return "ValueError", str(exc)
    return res.status, res.message, None if res.x is None else res.x.tobytes(), res.fun, res.nit


def test_reused_solver_matches_a_fresh_one_on_every_solve(monkeypatch):
    runs = reuse_sequence(np.random.default_rng(65))
    reused = [lp_outcome(lp, options) for lp, options in runs]
    highs = ontic._highs_core()
    assert ontic._thread_solver(highs) is ontic._thread_solver(highs)
    monkeypatch.setattr(ontic, "_thread_solver", lambda highs: highs._Highs())
    fresh = [lp_outcome(lp, options) for lp, options in runs]
    assert reused == fresh
    statuses = [outcome[0] for outcome in reused]
    assert statuses.count(1) == 3 and statuses.count("ValueError") == 2 and statuses.count(0) >= 40


def test_thread_solver_is_made_again_for_another_core():
    highs = ontic._highs_core()
    solver = ontic._thread_solver(highs)

    class OtherCore:
        _Highs = highs._Highs

    other = ontic._thread_solver(OtherCore)
    assert other is not solver and other is ontic._thread_solver(OtherCore)
    again = ontic._thread_solver(highs)
    assert again is not solver and again is not other


def test_threads_solving_at_once_get_their_single_thread_results():
    # more threads than cores and a short switch interval: a solver shared between threads would mix models
    sequences = [reuse_sequence(np.random.default_rng(seed)) for seed in (66, 67, 68, 69)]
    want = [[lp_outcome(lp, options) for lp, options in runs] for runs in sequences]
    got, solvers, start = [None] * 4, [None] * 4, threading.Barrier(4)

    def solve_all(i):
        start.wait()
        got[i] = [lp_outcome(lp, options) for lp, options in sequences[i]]
        solvers[i] = ontic._thread_solver(ontic._highs_core())

    threads = [threading.Thread(target=solve_all, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
    assert len({id(s) for s in solvers}) == 4 and ontic._thread_solver(ontic._highs_core()) not in solvers


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
