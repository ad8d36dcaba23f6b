"""Spatial/temporal scenario constructions and their distribution equality."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from gptw import quantum as q
from gptw.duality import (
    CONSTRUCTION_TOL,
    _check_match,
    _live_branches,
    distribution_error,
    spatial_scenario,
    spatial_to_temporal,
    temporal_scenario,
    temporal_to_spatial,
)
from gptw.errors import ArityError, ValidationError
from gptw.theory import EPS_BRANCH, EnsemblePreparation, JointDistribution

from conftest import transpose_state


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


def test_maximally_mixed_pair_distributions_agree():
    state = q.DensityMatrix(np.eye(4) / 4, dims=(2, 2))
    spatial = spatial_scenario(state, [q.z_basis(), q.z_basis()])
    temporal = spatial_to_temporal(spatial)
    assert np.allclose(spatial.distribution.probabilities, np.full((2, 2), 0.25), atol=1e-12)
    assert distribution_error(spatial.distribution, temporal.distribution) <= CONSTRUCTION_TOL


def test_distribution_error_refuses_different_shapes():
    # (2, 1) against (2, 2) would broadcast to an error of 0.25 without the shape check
    column = JointDistribution([("a", 2), ("b", 1)], [[0.5], [0.5]])
    square = JointDistribution([("a", 2), ("b", 2)], np.full((2, 2), 0.25))
    with pytest.raises(ArityError, match=r"shapes differ: \(2, 1\) vs \(2, 2\)"):
        distribution_error(column, square)
    skewed = JointDistribution([("a", 2), ("b", 2)], [[0.5, 0.0], [0.25, 0.25]])
    assert distribution_error(square, skewed) == distribution_error(skewed, square) == 0.25


def test_distribution_error_refuses_three_parties_against_two():
    tripartite = spatial_scenario(q.ghz_state(), [q.z_basis()] * 3).distribution
    temporal = spatial_to_temporal(spatial_scenario(q.bell_phi_plus(), [q.z_basis()] * 2))
    with pytest.raises(ArityError, match=r"shapes differ: \(2, 2, 2\) vs \(2, 2\)"):
        distribution_error(tripartite, temporal.distribution)


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
        psi = q.purification(transpose_state(q.DensityMatrix(rho_bar)))
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


# -- the parent constructions as oracles ----------------------------------------------
# Written as they were before each marginal was decomposed once: separate eigen-
# decompositions of rho_A, rho_A^T, rho_bar and rho_bar^T, and one DensityMatrix per
# branch.  Sharing a spectrum may move results by rounding only.


def _parent_leifer_ensemble(rho, povm):
    root = q.mat_sqrt(rho.matrix)
    weights = np.einsum("ij,kji->k", rho.matrix, povm.element_stack).real
    states = [
        q.DensityMatrix.maximally_mixed(rho.dim) if w <= EPS_BRANCH else q.DensityMatrix(b / w)
        for w, b in zip(weights, root @ povm.element_stack @ root)
    ]
    return EnsemblePreparation(weights, states)


def _parent_conditional_channel(state):
    d_a = state.dims[0]
    d_b = state.dim // d_a
    inv_sqrt, support = q._psd_inv_sqrt(q.partial_trace(state.matrix, (d_a, d_b), keep=(0,)))
    dress = np.kron(inv_sqrt, np.eye(d_b))
    j_mat = dress @ state.matrix @ dress
    comp = np.eye(d_a) - support
    if np.max(np.abs(comp)) > q.ATOL:
        j_mat = j_mat + np.kron(comp, np.eye(d_b) / d_b)
    j_mat = 0.5 * (j_mat + j_mat.conj().T)
    return q.Channel(q._kraus_from_in_out(j_mat, d_a, d_b), output_dims=state.dims[1:])


def _parent_spatial_to_temporal(spatial):
    d_a = spatial.state.dims[0]
    rho_a = q.DensityMatrix(q.partial_trace(spatial.state.matrix, (d_a, spatial.state.dim // d_a), keep=(0,)))
    ensemble = _parent_leifer_ensemble(transpose_state(rho_a), q.transpose_povm(spatial.povms[0]))
    temporal = temporal_scenario(ensemble, _parent_conditional_channel(spatial.state), spatial.povms[1:])
    _check_match(temporal.distribution, spatial.distribution, CONSTRUCTION_TOL, "parent")
    return temporal


def _parent_temporal_to_spatial(temporal):
    chan = temporal.channel
    live, mats = _live_branches(temporal.ensemble, chan.dim_in)
    d = chan.dim_in
    rho_bar = q.DensityMatrix(mats.sum(axis=0))
    inv_root, support = q._psd_inv_sqrt(rho_bar.matrix)
    e = inv_root @ mats @ inv_root
    effects = np.zeros((len(live), d, d), dtype=complex)
    effects[live] = 0.5 * (e + e.conj().transpose(0, 2, 1))
    leftover = np.eye(d) - support
    if np.max(np.abs(leftover)) > 1e-12:
        effects[-1] += leftover
    first_meas = q.transpose_povm(q.Povm(effects))
    psi = q.purification(transpose_state(rho_bar)).reshape(d, d)
    vecs = (psi @ chan.kraus_stack.transpose(0, 2, 1)).reshape(len(chan.kraus), -1)
    joint_state = q.DensityMatrix(vecs.T @ vecs.conj(), dims=(d,) + chan.output_dims)
    spatial = spatial_scenario(joint_state, (first_meas,) + temporal.povms)
    _check_match(spatial.distribution, temporal.distribution, CONSTRUCTION_TOL, "parent")
    return spatial


def _choi(chan):
    return q.choi_of_channel(chan).state.matrix


def _check_against_parent(state, povms):
    spatial = spatial_scenario(state, povms)
    temporal, want = spatial_to_temporal(spatial), _parent_spatial_to_temporal(spatial)
    assert _worst(temporal.ensemble.weights, want.ensemble.weights) < ORACLE_TOL
    for got, ref in zip(temporal.ensemble.branches, want.ensemble.branches):
        assert _worst(got.matrix, ref.matrix) < ORACLE_TOL
    assert _worst(_choi(temporal.channel), _choi(want.channel)) < ORACLE_TOL
    assert _worst(temporal.distribution.probabilities, want.distribution.probabilities) < ORACLE_TOL

    back, ref = temporal_to_spatial(temporal), _parent_temporal_to_spatial(temporal)
    assert _worst(back.state.matrix, ref.state.matrix) < ORACLE_TOL
    for got, ref_povm in zip(back.povms, ref.povms):
        assert _worst(got.element_stack, ref_povm.element_stack) < ORACLE_TOL
    assert _worst(back.distribution.probabilities, ref.distribution.probabilities) < ORACLE_TOL

    # the public constructions the round trip shares its spectra with
    assert _worst(_choi(q.conditional_channel(state)), _choi(_parent_conditional_channel(state))) < ORACLE_TOL
    d_a = state.dims[0]
    rho_a = q.DensityMatrix(q.partial_trace(state.matrix, (d_a, state.dim // d_a), keep=(0,)))
    got, ref = q.leifer_ensemble(rho_a, povms[0]), _parent_leifer_ensemble(rho_a, povms[0])
    assert _worst(got.weights, ref.weights) < ORACLE_TOL
    assert max(_worst(g.matrix, r.matrix) for g, r in zip(got.branches, ref.branches)) < ORACLE_TOL
    return temporal


@pytest.mark.parametrize("rest", [1, 2], ids=["two-party", "three-party"])
@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_round_trip_matches_the_parent_constructions(d, rest):
    rng = np.random.default_rng(300 + d + rest)
    dims = (d, d) if rest == 1 else (d, 2, 2)
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    _check_against_parent(state, [q.random_povm(k, k, rng) for k in dims])


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_parent_match_with_dead_branch_and_rank_deficient_marginal(d):
    rng = np.random.default_rng(400 + d)
    zero = np.zeros((d, d))
    zero[0, 0] = 1.0
    state = q.DensityMatrix(np.kron(zero, q.ginibre_state(d, rng).matrix), dims=(d, d))
    first = q.Povm([0.3 * zero, 0.7 * zero, np.eye(d) - zero])
    temporal = _check_against_parent(state, [first, q.random_povm(d, 2, rng)])
    assert temporal.ensemble.weights[-1] == 0.0


def _state_with_negative_marginal(rng):
    """A valid (2, 6) state whose first marginal has eigenvalue -5.4e-10, below -ATOL.

    Eigenvalue -0.9e-10 (within ATOL) on each |0>|b>, the rest of the trace
    spread over |1>|b>, all rotated by a local unitary U_A x U_B.
    """
    spectrum = np.concatenate([np.full(6, -0.9e-10), np.full(6, (1 + 5.4e-10) / 6)])
    u = np.kron(q.haar_unitary(2, rng), q.haar_unitary(6, rng))
    return q.DensityMatrix((u * spectrum) @ u.conj().T, dims=(2, 6))


def test_negative_marginal_is_refused_as_at_the_parent():
    rng = np.random.default_rng(500)
    state = _state_with_negative_marginal(rng)
    rho_a = q.partial_trace(state.matrix, (2, 6), keep=(0,))
    assert np.linalg.eigvalsh(rho_a).min() < -q.ATOL
    spatial = spatial_scenario(state, [q.random_povm(2, 2, rng), q.random_povm(6, 2, rng)])
    for construct in (_parent_spatial_to_temporal, spatial_to_temporal):
        with pytest.raises(ValidationError, match="^density matrix has a negative eigenvalue$"):
            construct(spatial)


def test_round_trip_checks_every_state_on_its_own_matrix(monkeypatch):
    """Each state is checked on its own matrix and spectrum; a transpose stands with its matrix."""
    checked = []
    check = q._check_density

    def recording(stack, eigvals=None):
        checked.append((np.array(stack), None if eigvals is None else np.array(eigvals)))
        check(stack, eigvals)

    monkeypatch.setattr(q, "_check_density", recording)
    rng = np.random.default_rng(600)
    state = q.ginibre_state(9, rng, dims=(3, 3))
    spatial = spatial_scenario(state, [q.random_povm(3, 3, rng), q.random_povm(3, 2, rng)])
    checked.clear()
    temporal = spatial_to_temporal(spatial)
    back = temporal_to_spatial(temporal)

    def assert_checked(mat):
        for stack, vals in checked:
            for member in stack:
                if member.shape == mat.shape and np.array_equal(member, mat):
                    spectrum = np.linalg.eigvalsh(member) if vals is None else np.sort(vals)
                    assert np.max(np.abs(spectrum - np.linalg.eigvalsh(mat))) < 1e-12
                    return
        raise AssertionError("a state was not checked")

    rho_a = q.partial_trace(state.matrix, (3, 3), keep=(0,))
    assert _worst(rho_a, rho_a.T) > 1e-3  # complex: a check of rho_A^T is no check of rho_A
    _, mats = _live_branches(temporal.ensemble, 3)
    rho_bar = mats.sum(axis=0)
    for mat in [rho_a, rho_bar, back.state.matrix]:
        assert_checked(mat)
    for branch in temporal.ensemble.branches:
        assert_checked(branch.matrix)



@pytest.mark.parametrize("dims", [(2, 2), (4, 4), (3, 2, 2)])
def test_spatial_to_temporal_builds_no_povm(monkeypatch, dims):
    """The first party's POVM was checked by `spatial_scenario`: its transpose goes in as a bare stack."""
    rng = np.random.default_rng(610 + sum(dims))
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    spatial = spatial_scenario(state, [q.random_povm(k, 3, rng) for k in dims])
    built = []
    init = q.Povm.__init__
    monkeypatch.setattr(q.Povm, "__init__", lambda self, elements: built.append(1) or init(self, elements))
    temporal = spatial_to_temporal(spatial)
    assert built == [] and len(temporal.ensemble) == 3
    temporal_to_spatial(temporal)  # the other way builds the first-party POVM it returns
    assert built == [1]

def _mutant(kind: str, d: int, rng: np.random.Generator) -> np.ndarray:
    """A d x d density matrix off by 1e-12 to 1e-8: non-Hermitian, off-trace or with a negative eigenvalue."""
    eps = 10 ** rng.uniform(-12, -8)
    if kind == "negative":
        spectrum = np.concatenate([[-eps], (1 + eps) * rng.dirichlet(np.ones(d - 1))])
        u = q.haar_unitary(d, rng)
        return (u * spectrum) @ u.conj().T
    m = q.ginibre_state(d, rng).matrix
    if kind == "off-trace":
        return m * (1 + eps)
    i, j = rng.integers(d, size=2)
    m = m.copy()
    m[i, j] += eps * np.exp(2j * np.pi * rng.random())
    return m


def _density_outcome(stack: np.ndarray, vals: np.ndarray) -> str | None:
    try:
        q._check_density(stack, vals)
    except ValidationError as err:
        return str(err)
    return None


@pytest.mark.parametrize("kind", ["non-hermitian", "off-trace", "negative"])
def test_a_transpose_passes_the_density_check_iff_its_matrix_does(kind):
    # `_transposed_state` checks rho only: the check of rho^T reads the same entries and spectrum
    rng = np.random.default_rng(700)
    outcomes = []
    for d in range(2 if kind == "negative" else 1, 7):
        for _ in range(40):
            m = _mutant(kind, d, rng)
            vals = np.linalg.eigh(m.T)[0]
            outcomes.append(_density_outcome(m[None], vals))
            assert _density_outcome(m.T[None], vals) == outcomes[-1]
    raised = sum(o is not None for o in outcomes)
    assert 0 < raised < len(outcomes)  # both sides of each check are reached
