"""CHSH, nonlocality, no-signalling, and monogamy checks on boxes."""
from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from gptw import quantum as q
from gptw.correlations import (
    CorrelationBox,
    check_no_signalling,
    check_ns_monogamy,
    check_strong_monogamy,
    chsh,
    chsh_prepare_measure,
    correlator,
    is_bell_nonlocal,
)
from gptw.duality import spatial_scenario, spatial_to_temporal
from gptw.errors import ArityError, ValidationError
from gptw.theory import EnsemblePreparation

from conftest import singlet_optimal_settings


def chsh_oracle(table: np.ndarray, a0, a1, b0, b1) -> float:
    """Independent CHSH computation: explicit sum over all 16 entries."""

    def expectation(x, y):
        return sum(
            (-1) ** (a + b) * table[x, y, a, b] for a in range(2) for b in range(2)
        )

    return (
        expectation(a0, b0) + expectation(a0, b1) + expectation(a1, b0) - expectation(a1, b1)
    )


# -- box validation ----------------------------------------------------------------


def test_box_rejects_bad_normalization():
    t = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(ValidationError):
        CorrelationBox((1, 1), (2, 2), t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_box_rejects_non_finite_entry(bad):
    t = np.full((1, 1, 2, 2), 0.25)
    t[0, 0, 0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        CorrelationBox((1, 1), (2, 2), t)


def test_box_rejects_too_many_parties():
    t = np.full((1, 1, 1, 1) + (2, 2, 2, 2), 1 / 16)
    with pytest.raises(ValidationError):
        CorrelationBox((1, 1, 1, 1), (2, 2, 2, 2), t)


def test_marginal_against_manual_sum(shared_bit_box):
    marg = shared_bit_box.marginal((0, 1), (0,))
    manual = shared_bit_box.table[:, :, 0].sum(axis=-1)
    assert np.allclose(marg.table, manual, atol=1e-12)


# -- chsh ---------------------------------------------------------------------------


def test_pr_box_chsh_exactly_four(pr_box):
    assert chsh_oracle(pr_box.table, 0, 1, 0, 1) == 4.0
    assert chsh(pr_box).value == 4.0


def test_deterministic_box_chsh_exactly_two(deterministic_box):
    assert chsh_oracle(deterministic_box.table, 0, 1, 0, 1) == 2.0
    assert chsh(deterministic_box).value == 2.0


def test_singlet_optimal_chsh(singlet_optimal_box):
    value = chsh(singlet_optimal_box).value
    assert abs(value - 2.8284271247461903) < 1e-9
    assert abs(value - chsh_oracle(singlet_optimal_box.table, 0, 1, 0, 1)) < 1e-12


def test_chsh_party_exchange_invariance(singlet_optimal_box):
    swapped_table = np.transpose(singlet_optimal_box.table, (1, 0, 3, 2))
    swapped = CorrelationBox((2, 2), (2, 2), swapped_table)
    # exchanging the parties with matching setting relabels preserves the value
    assert abs(
        chsh(singlet_optimal_box, 0, 1, 0, 1).value - chsh(swapped, 0, 1, 0, 1).value
    ) < 1e-12


def test_correlator_rejects_non_binary():
    t = np.zeros((1, 1, 3, 2))
    t[0, 0, 0, 0] = 1.0
    box = CorrelationBox((1, 1), (3, 2), t)
    with pytest.raises(ArityError):
        correlator(box, 0, 0)


# -- prepare-measure chsh --------------------------------------------------------------


def test_prepare_measure_classical_correlation():
    states = {"zero": q.DensityMatrix.pure(q.KET0), "one": q.DensityMatrix.pure(q.KET1)}
    theory = q.born_table(states, {"Z": q.z_basis()})
    ens = EnsemblePreparation([0.5, 0.5], ["zero", "one"])
    value = chsh_prepare_measure(theory, ens, ens, "I", "Z", "Z")
    assert abs(value.value - 2.0) < 1e-12


def test_prepare_measure_constant_branch_bounded():
    states = {"zero": q.DensityMatrix.pure(q.KET0), "one": q.DensityMatrix.pure(q.KET1)}
    theory = q.born_table(states, {"Z": q.z_basis(), "X": q.x_basis()})
    ens = EnsemblePreparation([1.0, 0.0], ["zero", "one"])
    value = chsh_prepare_measure(theory, ens, ens, "I", "Z", "X")
    assert abs(value.value) <= 2.0 + 1e-12


def test_prepare_measure_matches_spatial_for_duality_image(singlet_optimal_box):
    """The dual scenario's branch-index CHSH equals the spatial CHSH."""
    alice, bob = singlet_optimal_settings()
    state = q.singlet()
    spatial_value = chsh(singlet_optimal_box).value

    duals = [
        spatial_to_temporal(spatial_scenario(state, [alice[x], bob[0]])) for x in range(2)
    ]
    channel = duals[0].channel  # depends only on the state, shared across x
    branch_states: dict[str, q.DensityMatrix] = {}
    branch_ids = []
    for x, dual in enumerate(duals):
        ids = []
        for i, s in enumerate(dual.ensemble.states):
            name = f"e{x}b{i}"
            branch_states[name] = s
            ids.append(name)
        branch_ids.append(ids)
    theory = q.born_table(
        branch_states, {"N0": bob[0], "N1": bob[1]}, {"T": channel}
    )
    ens0 = EnsemblePreparation(duals[0].ensemble.weights, branch_ids[0])
    ens1 = EnsemblePreparation(duals[1].ensemble.weights, branch_ids[1])
    pm_value = chsh_prepare_measure(theory, ens0, ens1, "T", "N0", "N1")
    assert abs(pm_value.value - spatial_value) < 1e-8


# -- nonlocality search ------------------------------------------------------------------


def test_pr_box_is_nonlocal(pr_box):
    nonlocal_, witness = is_bell_nonlocal(pr_box)
    assert nonlocal_ and abs(witness.value) == 4.0


def test_deterministic_box_is_local(deterministic_box):
    nonlocal_, witness = is_bell_nonlocal(deterministic_box)
    assert not nonlocal_
    assert abs(witness.value) <= 2.0


def test_isotropic_half_is_local(isotropic_half):
    nonlocal_, witness = is_bell_nonlocal(isotropic_half)
    assert not nonlocal_
    assert abs(abs(witness.value) - 2.0) < 1e-12


def test_three_setting_box_witness_search():
    """With a third (useless) Alice setting, the search still finds the good pair."""
    alice, bob = singlet_optimal_settings()
    alice3 = alice + [q.y_basis()]
    box = q.bipartite_box(q.singlet(), alice3, bob)
    nonlocal_, witness = is_bell_nonlocal(box)
    assert nonlocal_
    assert abs(abs(witness.value) - 2 * np.sqrt(2)) < 1e-9
    assert set(witness.a_settings) == {0, 1}


def test_anti_pr_box_caught_by_relabeling():
    # all four plain pairings give |B| <= 2 here; the witness needs |.|
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                t[x, y, a, a ^ (x & y) ^ 1] = 0.5
    box = CorrelationBox((2, 2), (2, 2), t)
    nonlocal_, witness = is_bell_nonlocal(box)
    assert nonlocal_ and abs(witness.value) == 4.0


# -- no-signalling ---------------------------------------------------------------------


def test_pr_box_no_signalling(pr_box):
    assert check_no_signalling(pr_box).satisfied


def test_explicit_signalling_box_detected():
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            t[x, y, y, :] = 0.5  # Alice outputs Bob's setting
    box = CorrelationBox((2, 2), (2, 2), t)
    report = check_no_signalling(box)
    assert not report.satisfied
    assert any(v.subset == (0,) for v in report.violations)
    assert report.max_deviation == 1.0


def test_no_signalling_compares_every_pair_of_complement_settings():
    # Alice's marginal at x=0 moves by 0.01 either way from Bob's setting 0:
    # each setting is within 0.015 of the first, but settings 1 and 2 are 0.02 apart
    t = np.zeros((2, 3, 2, 2))
    for y, p0 in enumerate([0.5, 0.51, 0.49]):
        t[0, y] = np.outer([p0, 1 - p0], [0.5, 0.5])
        t[1, y] = np.full((2, 2), 0.25)
    report = check_no_signalling(CorrelationBox((2, 3), (2, 2), t), tol=0.015)
    assert not report.satisfied
    assert report.max_deviation == pytest.approx(0.02, abs=1e-12)
    (v,) = report.violations
    assert (v.subset, v.subset_settings) == ((0,), (0,))
    assert (v.complement_settings_a, v.complement_settings_b) == ((1,), (2,))
    assert v.deviation == pytest.approx(0.02, abs=1e-12)


def pairwise_signalling_oracle(box: CorrelationBox) -> dict:
    """Largest pairwise marginal difference per (subset, subset settings), by explicit loops."""
    n = box.n_parties
    subsets = [(i,) for i in range(n)] + ([(0, 1), (0, 2), (1, 2)] if n == 3 else [])
    out = {}
    for subset in subsets:
        others = [k for k in range(n) if k not in subset]
        for xs in product(*[range(box.settings[k]) for k in subset]):
            marginals = []
            for ys in product(*[range(box.settings[k]) for k in others]):
                full = [0] * n
                for k, v in zip(subset + tuple(others), xs + ys):
                    full[k] = v
                block = box.table[tuple(full)]
                marginals.append(block.sum(axis=tuple(k for k in range(n) if k in others)))
            out[subset, xs] = max(
                float(np.max(np.abs(a - b))) for a in marginals for b in marginals
            )
    return out


@pytest.mark.parametrize("settings", [(2, 2), (3, 2), (4, 3), (2, 2, 2), (3, 2, 3)])
def test_no_signalling_matches_pairwise_oracle(settings):
    rng = np.random.default_rng(len(settings) * 10 + sum(settings))
    n = len(settings)
    raw = rng.random(settings + (2,) * n)
    box = CorrelationBox(settings, (2,) * n, raw / raw.sum(axis=tuple(range(n, 2 * n)), keepdims=True))
    want = pairwise_signalling_oracle(box)
    report = check_no_signalling(box, tol=0.05)
    assert report.max_deviation == pytest.approx(max(want.values()), abs=1e-12)
    flagged = {(v.subset, v.subset_settings) for v in report.violations}
    assert flagged == {key for key, dev in want.items() if dev > 0.05}
    for v in report.violations:
        assert v.deviation == pytest.approx(want[v.subset, v.subset_settings], abs=1e-12)
        full_a, full_b = [0] * n, [0] * n
        others = [k for k in range(n) if k not in v.subset]
        for k, x in zip(v.subset, v.subset_settings):
            full_a[k] = full_b[k] = x
        for k, ya, yb in zip(others, v.complement_settings_a, v.complement_settings_b):
            full_a[k], full_b[k] = ya, yb
        axes = tuple(others)
        diff = box.table[tuple(full_a)].sum(axis=axes) - box.table[tuple(full_b)].sum(axis=axes)
        assert np.max(np.abs(diff)) == pytest.approx(v.deviation, abs=1e-12)


def test_quantum_boxes_no_signalling():
    rng = np.random.default_rng(31)
    for _ in range(10):
        state = q.ginibre_state(4, rng, dims=(2, 2))
        box = q.bipartite_box(
            state,
            [q.random_povm(2, 2, rng) for _ in range(2)],
            [q.random_povm(2, 2, rng) for _ in range(2)],
        )
        assert check_no_signalling(box, tol=1e-9).satisfied


# -- monogamy ----------------------------------------------------------------------------


def test_shared_bit_saturates_both_monogamies(shared_bit_box):
    ns = check_ns_monogamy(shared_bit_box)
    strong = check_strong_monogamy(shared_bit_box)
    assert ns.satisfied and strong.satisfied
    assert abs(ns.worst_value - 4.0) < 1e-12
    assert abs(strong.worst_value - 8.0) < 1e-12


def test_independent_parties_obey_monogamy():
    rng = np.random.default_rng(8)
    state = q.DensityMatrix(
        np.kron(
            np.kron(q.ginibre_state(2, rng).matrix, q.ginibre_state(2, rng).matrix),
            q.ginibre_state(2, rng).matrix,
        ),
        dims=(2, 2, 2),
    )
    box = q.multipartite_box(
        state, [[q.random_projective_qubit(rng) for _ in range(2)] for _ in range(3)]
    )
    assert check_ns_monogamy(box).satisfied
    assert check_strong_monogamy(box).satisfied


def test_double_tsirelson_violates_strong_monogamy():
    # two wings each sharing |B| = 2 sqrt 2 with the middle: squared sum 16 > 8
    from gptw.broadcast import theorem1_construct

    alice, bob = singlet_optimal_settings()
    box2 = q.bipartite_box(q.singlet(), alice, bob)
    result = theorem1_construct(box2)
    strong = check_strong_monogamy(result.box)
    assert not strong.satisfied
    assert strong.worst_value > 8.0


def test_ghz_standard_settings_obey_strong_monogamy():
    box = q.multipartite_box(
        q.ghz_state(), [[q.z_basis(), q.x_basis()] for _ in range(3)]
    )
    assert check_strong_monogamy(box, tol=1e-6).satisfied
