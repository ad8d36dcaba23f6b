"""Spatial/temporal scenario constructions and their distribution equality."""
from __future__ import annotations

import numpy as np
import pytest

from gptw import quantum as q
from gptw.duality import (
    spatial_scenario,
    spatial_to_temporal,
    temporal_scenario,
    temporal_to_spatial,
    verify_ocj,
)
from gptw.errors import ArityError, ValidationError
from gptw.theory import EnsemblePreparation, JointDistribution


def test_bell_pair_z_z_forward():
    spatial = spatial_scenario(q.bell_phi_plus(), [q.z_basis(), q.z_basis()])
    temporal = spatial_to_temporal(spatial)
    assert np.allclose(temporal.ensemble.weights, [0.5, 0.5], atol=1e-12)
    assert np.allclose(temporal.ensemble.branches[0].matrix, np.diag([1.0, 0.0]), atol=1e-9)
    assert np.allclose(temporal.ensemble.branches[1].matrix, np.diag([0.0, 1.0]), atol=1e-9)
    assert np.allclose(temporal.distribution.probabilities, np.diag([0.5, 0.5]), atol=1e-9)
    # recovered channel acts as the identity on the marginal's support
    rng = np.random.default_rng(1)
    probe = q.ginibre_state(2, rng).matrix
    assert np.max(np.abs(temporal.channel.apply(probe) - probe)) < 1e-9


def test_product_state_forward_factorizes():
    rng = np.random.default_rng(5)
    rho_b = q.ginibre_state(2, rng)
    state = q.DensityMatrix(np.kron(q.ginibre_state(2, rng).matrix, rho_b.matrix), dims=(2, 2))
    m = q.random_povm(2, 2, rng)
    o = q.random_povm(2, 2, rng)
    spatial = spatial_scenario(state, [m, o])
    temporal = spatial_to_temporal(spatial)
    joint = temporal.distribution.probabilities
    weights = joint.sum(axis=1)
    conditional = joint / weights[:, None]
    # channel output is rho_b regardless of the branch: rows proportional
    assert np.max(np.abs(conditional[0] - conditional[1])) < 1e-9


def test_ghz_forward_three_party():
    spatial = spatial_scenario(q.ghz_state(), [q.z_basis()] * 3)
    temporal = spatial_to_temporal(spatial)
    assert np.allclose(temporal.ensemble.weights, [0.5, 0.5], atol=1e-12)
    joint = temporal.distribution.probabilities
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 0] = expected[1, 1, 1] = 0.5
    assert np.allclose(joint, expected, atol=1e-9)


def test_temporal_to_spatial_recovers_bell_pair():
    ens = EnsemblePreparation(
        [0.5, 0.5], [q.DensityMatrix.pure(q.KET0), q.DensityMatrix.pure(q.KET1)]
    )
    temporal = temporal_scenario(ens, q.Channel.identity(2), [q.z_basis()])
    spatial = temporal_to_spatial(temporal)
    assert np.allclose(spatial.state.matrix, q.bell_phi_plus().matrix, atol=1e-9)
    assert np.allclose(spatial.distribution.probabilities, np.diag([0.5, 0.5]), atol=1e-9)


@pytest.mark.parametrize(
    "weights", [[0.7, 0.7], [-0.5, 1.5], [np.nan, 1.0], [1.0], [0.5, 0.5 + 2e-9], [[0.5, 0.5]]]
)
def test_state_ensemble_validates_weights(weights):
    states = [q.DensityMatrix.pure(q.KET0), q.DensityMatrix.pure(q.KET1)]
    with pytest.raises(ValidationError):
        EnsemblePreparation(weights, states)


def test_state_ensemble_accepts_weights_within_eps_norm():
    states = [q.DensityMatrix.pure(q.KET0), q.DensityMatrix.pure(q.KET1)]
    ens = EnsemblePreparation([-5e-10, 1.0 + 5e-10], states)
    assert ens.weights[0] == 0.0 and ens.branches == tuple(states)
    with pytest.raises(ValidationError, match="distinct"):
        EnsemblePreparation([0.5, 0.5], [states[0], states[0]])


def test_temporal_to_spatial_one_branch_ensemble():
    rng = np.random.default_rng(9)
    ens = EnsemblePreparation([1.0, 0.0], [q.ginibre_state(2, rng), q.DensityMatrix.maximally_mixed(2)])
    chan = q.random_channel(2, 2, 2, rng)
    o = q.random_povm(2, 2, rng)
    temporal = temporal_scenario(ens, chan, [o])
    spatial = temporal_to_spatial(temporal)
    joint = spatial.distribution.probabilities
    assert np.allclose(joint.sum(axis=1), [1.0, 0.0], atol=1e-9)  # trivial A-marginal


def test_temporal_to_spatial_pure_average_state():
    # rank-deficient ensemble average: the recovered POVM completes off the support
    rng = np.random.default_rng(10)
    ens = EnsemblePreparation([1.0], [q.DensityMatrix.pure(q.KET_PLUS)])
    chan = q.random_channel(2, 2, 2, rng)
    temporal = temporal_scenario(ens, chan, [q.random_povm(2, 2, rng)])
    spatial = temporal_to_spatial(temporal)
    assert spatial.distribution.probabilities.shape == (1, 2)


def test_temporal_to_spatial_x_ensemble_perfect_correlation():
    ens = EnsemblePreparation(
        [0.5, 0.5], [q.DensityMatrix.pure(q.KET_PLUS), q.DensityMatrix.pure(q.KET_MINUS)]
    )
    temporal = temporal_scenario(ens, q.Channel.identity(2), [q.x_basis()])
    spatial = temporal_to_spatial(temporal)
    assert np.allclose(spatial.distribution.probabilities, np.diag([0.5, 0.5]), atol=1e-9)


def test_verify_ocj_on_constructed_pair():
    rng = np.random.default_rng(21)
    state = q.ginibre_state(4, rng, dims=(2, 2))
    spatial = spatial_scenario(state, [q.random_povm(2, 2, rng), q.random_povm(2, 2, rng)])
    temporal = spatial_to_temporal(spatial)
    assert verify_ocj(spatial, temporal)


def test_verify_ocj_detects_perturbation():
    rng = np.random.default_rng(22)
    state = q.ginibre_state(4, rng, dims=(2, 2))
    spatial = spatial_scenario(state, [q.random_povm(2, 2, rng), q.random_povm(2, 2, rng)])
    temporal = spatial_to_temporal(spatial)
    bumped = temporal.distribution.probabilities.copy()
    bumped[0, 0] += 0.1
    bumped[0, 1] -= 0.1
    broken = temporal_scenario(temporal.ensemble, temporal.channel, temporal.povms)
    object.__setattr__(
        broken, "distribution", JointDistribution(temporal.distribution.axes, bumped)
    )
    assert not verify_ocj(spatial, broken)


def test_verify_ocj_uniform_pair_trivially_equal():
    axes = [("a", 2), ("b", 2)]
    uniform = JointDistribution(axes, np.full((2, 2), 0.25))
    rng = np.random.default_rng(2)
    state = q.DensityMatrix(np.eye(4) / 4, dims=(2, 2))
    spatial = spatial_scenario(state, [q.z_basis(), q.z_basis()])
    temporal = spatial_to_temporal(spatial)
    assert np.allclose(spatial.distribution.probabilities, uniform.probabilities, atol=1e-12)
    assert verify_ocj(spatial, temporal)


def test_verify_ocj_shape_mismatch():
    state3 = spatial_scenario(q.ghz_state(), [q.z_basis()] * 3)
    state2 = spatial_scenario(q.bell_phi_plus(), [q.z_basis()] * 2)
    temporal = spatial_to_temporal(state2)
    with pytest.raises(ArityError):
        verify_ocj(state3, temporal)


def test_round_trip_preserves_distribution():
    rng = np.random.default_rng(33)
    for _ in range(20):
        state = q.ginibre_state(4, rng, dims=(2, 2))
        spatial = spatial_scenario(state, [q.random_povm(2, 2, rng), q.random_povm(2, 2, rng)])
        temporal = spatial_to_temporal(spatial, tol=1e-8)
        back = temporal_to_spatial(temporal, tol=1e-8)
        diff = np.max(np.abs(back.distribution.probabilities - spatial.distribution.probabilities))
        assert diff < 2e-8


def test_round_trip_three_party():
    rng = np.random.default_rng(34)
    for _ in range(5):
        state = q.ginibre_state(8, rng, dims=(2, 2, 2))
        povms = [q.random_povm(2, 2, rng) for _ in range(3)]
        spatial = spatial_scenario(state, povms)
        temporal = spatial_to_temporal(spatial, tol=1e-8)
        assert temporal.channel.output_dims == (2, 2)
        back = temporal_to_spatial(temporal, tol=1e-8)
        diff = np.max(np.abs(back.distribution.probabilities - spatial.distribution.probabilities))
        assert diff < 2e-8
        # the joint state against (I x K) |psi><psi| (I x K)^dagger with kron-lifted Kraus operators
        rho_bar = sum(w * s.matrix for w, s in zip(temporal.ensemble.weights, temporal.ensemble.branches))
        psi = q.purification(q.transpose_state(q.DensityMatrix(rho_bar)))
        lifted = [np.kron(np.eye(2), k) @ psi for k in temporal.channel.kraus]
        assert np.max(np.abs(back.state.matrix - sum(np.outer(v, v.conj()) for v in lifted))) < 1e-14


def test_chsh_equality_through_duality():
    """Spatial CHSH equals the branch-index CHSH of every dual, per setting pair."""
    from gptw.correlations import chsh

    rng = np.random.default_rng(35)
    state = q.ginibre_state(4, rng, dims=(2, 2))
    alice = [q.random_projective_qubit(rng) for _ in range(2)]
    bob = [q.random_projective_qubit(rng) for _ in range(2)]
    box = q.bipartite_box(state, alice, bob)
    spatial_value = chsh(box).value

    pm_expectations = {}
    for x in range(2):
        temporal = spatial_to_temporal(spatial_scenario(state, [alice[x], bob[0]]))
        for y in range(2):
            with_y = temporal_scenario(temporal.ensemble, temporal.channel, [bob[y]])
            joint = with_y.distribution.probabilities
            pm_expectations[(x, y)] = sum(
                (-1) ** (i + b) * joint[i, b] for i in range(2) for b in range(2)
            )
    pm_value = (
        pm_expectations[(0, 0)]
        + pm_expectations[(0, 1)]
        + pm_expectations[(1, 0)]
        - pm_expectations[(1, 1)]
    )
    assert abs(pm_value - spatial_value) < 1e-8
