"""Spatial/temporal scenario constructions and their distribution equality."""
from __future__ import annotations

import itertools

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
from gptw.theory import EPS_BRANCH, EnsemblePreparation, JointDistribution


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


# -- per-branch reference oracles ---------------------------------------------------
# The constructions written one branch, one effect and one eigenvalue at a time.
# The library stacks each stage; both must agree to rounding.

ORACLE_TOL = 1e-12


def _born_loop(matrix, effects):
    """p(x_1..x_n) = Tr((M_1 x ... x M_n) rho), one Kronecker product per outcome tuple."""
    table = np.zeros(tuple(len(e) for e in effects))
    for xs in itertools.product(*(range(len(e)) for e in effects)):
        effect = np.ones((1, 1))
        for party, x in zip(effects, xs):
            effect = np.kron(effect, party[x])
        table[xs] = np.trace(effect @ matrix).real
    return table


def _leifer_loop(rho, elements):
    """(weights, branch matrices) of rho along the effects; None for a dead branch."""
    root = q.mat_sqrt(rho)
    weights = [np.trace(rho @ e).real for e in elements]
    return weights, [None if w <= EPS_BRANCH else root @ e @ root / w for w, e in zip(weights, elements)]


def _conditional_kraus_loop(state):
    """Kraus operators of the conditional channel, one eigenvalue at a time."""
    d_a = state.dims[0]
    d_b = state.dim // d_a
    rho_a = q.partial_trace(state.matrix, (d_a, d_b), keep=(0,))
    inv_sqrt, support = q._psd_inv_sqrt(rho_a)
    dress = np.kron(inv_sqrt, np.eye(d_b))
    j_mat = dress @ state.matrix @ dress
    comp = np.eye(d_a) - support
    if np.max(np.abs(comp)) > q.ATOL:
        j_mat = j_mat + np.kron(comp, np.eye(d_b) / d_b)
    vals, vecs = np.linalg.eigh(0.5 * (j_mat + j_mat.conj().T))
    return [(np.sqrt(lam) * v).reshape(d_a, d_b).T for lam, v in zip(vals, vecs.T) if lam > q.ATOL]


def _temporal_loop(ensemble, channel, povms):
    joint = np.zeros((len(ensemble),) + tuple(len(p) for p in povms))
    for i, (w, branch) in enumerate(zip(ensemble.weights, ensemble.branches)):
        if w > EPS_BRANCH:
            out = sum(k @ branch.matrix @ k.conj().T for k in channel.kraus)
            joint[i] = w * _born_loop(out, [p.elements for p in povms])
    return joint


def _temporal_to_spatial_loop(temporal):
    """(joint state, first-party effects) of the realization, one branch at a time."""
    ens = temporal.ensemble
    live = [(w, s.matrix) for w, s in zip(ens.weights, ens.branches) if w > EPS_BRANCH]
    d = live[0][1].shape[0]
    rho_bar = sum(w * s for w, s in live)
    inv_root, support = q._psd_inv_sqrt(rho_bar)
    effects = []
    for w, branch in zip(ens.weights, ens.branches):
        if w <= EPS_BRANCH:
            effects.append(np.zeros((d, d), dtype=complex))
        else:
            e = w * (inv_root @ branch.matrix @ inv_root)
            effects.append(0.5 * (e + e.conj().T))
    leftover = np.eye(d) - support
    if np.max(np.abs(leftover)) > 1e-12:
        effects[-1] = effects[-1] + leftover
    psi = q.mat_sqrt(rho_bar.T).reshape(-1)
    vecs = [np.kron(np.eye(d), k) @ psi for k in temporal.channel.kraus]
    return sum(np.outer(v, v.conj()) for v in vecs), [e.T for e in effects]


def _worst(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _check_against_loops(state, povms):
    spatial = spatial_scenario(state, povms)
    elements = [p.elements for p in povms]
    assert _worst(spatial.distribution.probabilities, _born_loop(state.matrix, elements)) < ORACLE_TOL
    temporal = spatial_to_temporal(spatial)

    d_a = state.dims[0]
    rho_a = q.partial_trace(state.matrix, (d_a, state.dim // d_a), keep=(0,))
    weights, branches = _leifer_loop(rho_a.T, [e.T for e in povms[0].elements])
    assert _worst(temporal.ensemble.weights, weights) < ORACLE_TOL
    for got, want in zip(temporal.ensemble.branches, branches):
        assert _worst(got.matrix, np.eye(d_a) / d_a if want is None else want) < ORACLE_TOL

    reference = q.Channel(_conditional_kraus_loop(state), output_dims=state.dims[1:])
    choi = q.choi_of_channel(temporal.channel).state.matrix
    assert _worst(choi, q.choi_of_channel(reference).state.matrix) < ORACLE_TOL

    want = _temporal_loop(temporal.ensemble, temporal.channel, povms[1:])
    assert _worst(temporal.distribution.probabilities, want) < ORACLE_TOL

    back = temporal_to_spatial(temporal)
    joint, first = _temporal_to_spatial_loop(temporal)
    assert _worst(back.state.matrix, joint) < ORACLE_TOL
    assert _worst(back.povms[0].element_stack, first) < ORACLE_TOL
    assert _worst(back.distribution.probabilities, _born_loop(joint, [first] + elements[1:])) < ORACLE_TOL
    return temporal


@pytest.mark.parametrize("rest", [1, 2], ids=["two-party", "three-party"])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_stages_match_per_branch_loops(d, rest):
    rng = np.random.default_rng(100 + d + rest)
    dims = (d, d) if rest == 1 else (d, 2, 2)
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    _check_against_loops(state, [q.random_povm(k, k, rng) for k in dims])


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_stages_match_loops_with_dead_branch_and_rank_deficient_marginal(d):
    # pure first marginal |0><0|; the last first-party effect is orthogonal to it
    rng = np.random.default_rng(200 + d)
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    state = q.DensityMatrix(np.kron(zero, q.ginibre_state(d, rng).matrix), dims=(d, d))
    first = q.Povm([0.3 * zero, 0.7 * zero, np.eye(d) - zero])
    temporal = _check_against_loops(state, [first, q.random_povm(d, 2, rng)])
    assert temporal.ensemble.weights[-1] == 0.0
