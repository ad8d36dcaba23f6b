"""The Born kernel against the per-outcome-tuple kron + trace loop it replaced, and against np.tensordot."""
from __future__ import annotations

import numpy as np
import pytest

from gptw import quantum as q
from gptw.duality import spatial_scenario, temporal_scenario
from gptw.theory import EPS_BRANCH, EnsemblePreparation, outcome_distribution, probability_array

ATOL = 1e-12


def kron_all(mats) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def loop_probs(matrix: np.ndarray, povms) -> np.ndarray:
    """Tr((E_{a_1} x ... x E_{a_n}) rho), one outcome tuple at a time."""
    table = np.zeros(tuple(len(p) for p in povms))
    for outs in np.ndindex(*table.shape):
        effect = kron_all([p.elements[a] for p, a in zip(povms, outs)])
        table[outs] = np.trace(effect @ matrix).real
    return table


def loop_box(state: q.DensityMatrix, povms_per_party) -> np.ndarray:
    settings = tuple(len(s) for s in povms_per_party)
    outcomes = tuple(len(s[0]) for s in povms_per_party)
    table = np.zeros(settings + outcomes)
    for xs in np.ndindex(*settings):
        table[xs] = loop_probs(state.matrix, [povms_per_party[k][x] for k, x in enumerate(xs)])
    return table


# (dims, settings per party, outcomes per party): unequal across parties
BOX_CASES = [
    ((2, 2), (3, 2), (2, 3)),
    ((2, 3), (2, 4), (3, 2)),
    ((6, 6), (3, 2), (6, 4)),
    ((2, 2, 2), (2, 3, 1), (2, 3, 2)),
    ((3, 2, 2), (3, 2, 2), (4, 2, 3)),
]


@pytest.mark.parametrize("dims, settings, outcomes", BOX_CASES)
def test_multipartite_box_matches_loop(dims, settings, outcomes):
    rng = np.random.default_rng(sum(dims) * 100 + len(dims))
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    povms = [
        [q.random_povm(d, k, rng) for _ in range(m)] for d, m, k in zip(dims, settings, outcomes)
    ]
    box = q.multipartite_box(state, povms)
    assert box.table.shape == settings + outcomes
    assert np.max(np.abs(box.table - loop_box(state, povms))) <= ATOL


@pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2)])
def test_spatial_scenario_matches_loop(dims):
    rng = np.random.default_rng(41)
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    povms = [q.random_povm(d, d + 1, rng) for d in dims]
    joint = spatial_scenario(state, povms).distribution.probabilities
    assert np.max(np.abs(joint - loop_probs(state.matrix, povms))) <= ATOL


def test_temporal_scenario_with_zero_weight_branch_matches_loop():
    rng = np.random.default_rng(42)
    chan = q.random_channel(2, 6, 2, rng)
    chan = q.Channel(chan.kraus, output_dims=(2, 3))
    states = [q.ginibre_state(2, rng), q.DensityMatrix.maximally_mixed(2), q.ginibre_state(2, rng)]
    ens = EnsemblePreparation([0.6, 0.0, 0.4], states)
    povms = [q.random_povm(2, 3, rng), q.random_povm(3, 2, rng)]
    joint = temporal_scenario(ens, chan, povms).distribution.probabilities
    want = np.zeros(joint.shape)
    for i, (w, rho) in enumerate(zip(ens.weights, ens.branches)):
        if w > EPS_BRANCH:
            want[i] = w * loop_probs(chan.apply(rho.matrix), povms)
    assert np.all(joint[1] == 0.0)
    assert np.max(np.abs(joint - want)) <= ATOL


def test_born_table_with_channel_matches_loop():
    rng = np.random.default_rng(43)
    states = {f"r{k}": q.ginibre_state(3, rng) for k in range(3)}
    povms = {"two": q.random_povm(3, 2, rng), "four": q.random_povm(3, 4, rng)}
    chans = {"T": q.random_channel(3, 3, 2, rng)}
    theory = q.born_table(states, povms, chans)
    for p, rho in states.items():
        for t, chan in (("I", q.Channel.identity(3)), ("T", chans["T"])):
            for m, povm in povms.items():
                want = loop_probs(chan.apply(rho.matrix), [povm])
                got = outcome_distribution(theory, p, t, m)
                assert np.max(np.abs(got - want)) <= ATOL


def tensordot_born(matrix: np.ndarray, dims, stacks) -> np.ndarray:
    """`q._born` as one np.tensordot per party: its written-out contraction must match this to the bit."""
    n, b = len(dims), matrix.ndim - 2
    tensor = matrix.reshape(matrix.shape[:b] + tuple(dims) * 2)
    for k, stack in enumerate(stacks):
        tensor = np.tensordot(tensor, stack, axes=([b, b + n - k], [3, 2]))
    return tensor.transpose([*range(b), *range(b, b + 2 * n, 2), *range(b + 1, b + 2 * n, 2)]).real


def random_stacks(dims, settings, outcomes, rng) -> list[np.ndarray]:
    return [
        np.array([q.random_povm(d, k, rng).elements for _ in range(m)])
        for d, m, k in zip(dims, settings, outcomes)
    ]


def assert_same_bits(matrix: np.ndarray, dims, stacks) -> None:
    got, want = q._born(matrix, dims, stacks), tensordot_born(matrix, dims, stacks)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dims, settings, outcomes", BOX_CASES)
def test_born_is_tensordot_to_the_bit_on_box_shapes(dims, settings, outcomes):
    rng = np.random.default_rng(sum(dims) * 100 + len(dims) + 1)
    state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
    assert_same_bits(state.matrix, dims, random_stacks(dims, settings, outcomes, rng))


@pytest.mark.parametrize("d", [2, 3, 4, 6])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_born_is_tensordot_to_the_bit_on_bipartite_sizes(d, m):
    rng = np.random.default_rng(10 * d + m)
    state = q.ginibre_state(d * d, rng, dims=(d, d))
    assert_same_bits(state.matrix, (d, d), random_stacks((d, d), (m, m), (2, 3), rng))


@pytest.mark.parametrize("dims", [(3,), (2, 3), (3, 2, 2)])
def test_born_is_tensordot_to_the_bit_on_a_batch(dims):
    # one POVM per factor behind a setting axis of length 1, over a stack of states, as `duality._joint` passes
    rng = np.random.default_rng(len(dims))
    batch = np.array([q.ginibre_state(int(np.prod(dims)), rng).matrix for _ in range(4)])
    assert_same_bits(batch, dims, random_stacks(dims, (1,) * len(dims), [d + 1 for d in dims], rng))


def test_probability_array_keeps_negative_zero_and_clips_rounding():
    p = probability_array([[-0.0, 1.0], [-1e-12, 1 + 1e-12]], "entries", (2, 2), 1)
    assert np.signbit(p[0, 0]) and p[0, 0] == 0.0
    assert p[1].tolist() == [0.0, 1.0] and not np.signbit(p[1, 0])
    assert not p.flags.writeable
