"""Commutation boundary, eigenbasis broadcasting, and the monogamy-violation box."""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptw import quantum as q
from gptw.broadcast import (
    COMMUTE_TOL,
    _common_eigenbasis,
    broadcast_commuting,
    commutator_norm,
    interference_flag,
    pairwise_commuting,
    theorem1_construct,
)
from gptw.correlations import CorrelationBox, is_bell_nonlocal
from gptw.errors import PreconditionError

from conftest import pr_table, singlet_optimal_settings


def ket_dm(vec) -> q.DensityMatrix:
    return q.DensityMatrix.pure(vec)


# -- commutation -----------------------------------------------------------------


def test_diagonal_states_commute():
    a = q.DensityMatrix(np.diag([0.3, 0.7]))
    b = q.DensityMatrix(np.diag([0.9, 0.1]))
    assert pairwise_commuting([a, b])


def test_zero_plus_do_not_commute():
    zero, plus = ket_dm(q.KET0), ket_dm(q.KET_PLUS)
    assert not pairwise_commuting([zero, plus])
    # oracle: [|0><0|, |+><+|] = (|0><1| - |1><0|)/2, max entry 1/2
    assert abs(commutator_norm(zero.matrix, plus.matrix) - 0.5) < 1e-12


def test_singleton_commutes_vacuously():
    assert pairwise_commuting([ket_dm(q.KET_PLUS)])


# -- broadcasting -----------------------------------------------------------------


def marginal_errors(channel: q.Channel, state: q.DensityMatrix) -> float:
    d = state.dim
    out = channel.apply(state.matrix)
    return max(
        q.trace_distance(q.partial_trace(out, (d, d), keep=(0,)), state.matrix),
        q.trace_distance(q.partial_trace(out, (d, d), keep=(1,)), state.matrix),
    )


@pytest.mark.parametrize("d", [2, 3, 4, 6])
def test_batched_errors_equal_the_per_state_loop(d):
    rng = np.random.default_rng(290 + d)
    u = q.haar_unitary(d, rng)
    family = [q.DensityMatrix(u @ np.diag(rng.dirichlet(np.ones(d))) @ u.conj().T) for _ in range(4)]
    channel, check = broadcast_commuting(family)
    loop = [marginal_errors(channel, s) for s in family]
    assert np.abs(np.array(check.errors) - loop).max() <= 1e-15
    assert check.max_error == max(check.errors)


def test_classical_diagonal_broadcast_exact():
    states = [q.DensityMatrix(np.diag([0.3, 0.7])), q.DensityMatrix(np.diag([1.0, 0.0]))]
    channel, check = broadcast_commuting(states)
    assert check.max_error <= 1e-9
    for s in states:
        assert marginal_errors(channel, s) <= 1e-9


def test_commuting_full_rank_pair_in_rotated_basis():
    rng = np.random.default_rng(14)
    u = q.haar_unitary(2, rng)
    states = [
        q.DensityMatrix(u @ np.diag([0.3, 0.7]) @ u.conj().T),
        q.DensityMatrix(u @ np.diag([0.8, 0.2]) @ u.conj().T),
    ]
    assert pairwise_commuting(states)
    _, check = broadcast_commuting(states)
    assert check.max_error <= 1e-9


def test_single_pure_state_broadcast_exact():
    state = ket_dm(q.KET_PLUS)
    _, check = broadcast_commuting([state])
    assert check.max_error <= 1e-9


def test_maximally_mixed_member_beside_a_nondegenerate_partner():
    # I/2 commutes with everything; the basis must still diagonalize the partner.  The partner's two
    # distinct eigenvalues keep every block of `_common_eigenbasis` one wide: no recursion runs here
    rng = np.random.default_rng(15)
    u = q.haar_unitary(2, rng)
    partner = q.DensityMatrix(u @ np.diag([0.9, 0.1]) @ u.conj().T)
    states = [q.DensityMatrix.maximally_mixed(2), partner]
    _, check = broadcast_commuting(states)
    assert check.max_error <= 1e-9


def test_qutrit_commuting_family():
    base = np.diag([0.5, 0.3, 0.2])
    other = np.diag([0.2, 0.2, 0.6])
    _, check = broadcast_commuting([q.DensityMatrix(base), q.DensityMatrix(other)])
    assert check.max_error <= 1e-9


@pytest.mark.parametrize(
    "diagonals",
    [pytest.param([[1 / 3] * 3, [0.5, 0.25, 0.25]], id="qutrit-pair"), pytest.param([[0.25] * 4], id="I/4")],
)
def test_shared_degenerate_eigenspace_is_one_block(diagonals):
    # every combination of the family repeats an eigenvalue: `_common_eigenbasis` projects onto that block
    u = q.haar_unitary(len(diagonals[0]), np.random.default_rng(16))
    states = [q.DensityMatrix(u @ np.diag(d) @ u.conj().T) for d in diagonals]
    channel, check = broadcast_commuting(states)
    assert max(check.errors) <= COMMUTE_TOL
    for s in states:
        assert marginal_errors(channel, s) <= COMMUTE_TOL


def test_common_eigenbasis_splits_a_degenerate_block_and_refuses_an_empty_family():
    # diag(1, 0, 0) leaves one block of width 2, which only diag(0, 1, 0) splits; in a Haar frame the first
    # operator's eigenvectors on that block are no eigenvectors of the second
    u = q.haar_unitary(3, np.random.default_rng(17))
    for frame in (np.eye(3), u):
        mats = [frame @ np.diag(diagonal) @ frame.conj().T for diagonal in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])]
        basis = _common_eigenbasis(mats)
        assert np.allclose(basis.conj().T @ basis, np.eye(3), atol=1e-12)
        for m in mats:
            rotated = basis.conj().T @ m @ basis
            assert np.allclose(rotated, np.diag(np.diag(rotated)), atol=1e-12)
    with pytest.raises(PreconditionError):
        _common_eigenbasis([])
    with pytest.raises(PreconditionError):
        broadcast_commuting([])


@st.composite
def commuting_family(draw):
    """1 to 4 commuting states in one Haar frame, d in {2, 3, 4, 6}.

    Each member takes one of `levels` values on each basis vector (levels 1 is the scalar I/d), so members
    repeat eigenvalues and a later member can split a block that every earlier one leaves degenerate.
    Values are uniform or quarter-rounded, so zero eigenvalues and ties across levels occur too.
    """
    d = draw(st.sampled_from((2, 3, 4, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = q.haar_unitary(d, rng)
    states = []
    for levels in draw(st.lists(st.integers(1, d), min_size=1, max_size=4)):
        values = np.round(4 * rng.random(levels)) / 4 if draw(st.booleans()) else rng.random(levels)
        spectrum = values[rng.integers(0, levels, d)]
        spectrum = spectrum / spectrum.sum() if spectrum.sum() > 0 else np.full(d, 1 / d)
        states.append(q.DensityMatrix(u @ np.diag(spectrum) @ u.conj().T))
    return states


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(commuting_family())
def test_common_eigenbasis_diagonalizes_every_order_of_a_commuting_family(states):
    for order in itertools.permutations(states):
        basis = _common_eigenbasis([s.matrix for s in order])
        assert np.max(np.abs(basis.conj().T @ basis - np.eye(len(basis)))) <= 1e-12
        for s in states:
            rotated = basis.conj().T @ s.matrix @ basis
            assert np.max(np.abs(rotated - np.diag(np.diag(rotated)))) <= 1e-9
        assert broadcast_commuting(order)[1].max_error <= COMMUTE_TOL


def test_non_commuting_family_rejected():
    with pytest.raises(PreconditionError):
        broadcast_commuting([ket_dm(q.KET0), ket_dm(q.KET_PLUS)])


# -- interference flag ---------------------------------------------------------------


def test_classical_pair_no_interference():
    assert not interference_flag([ket_dm(q.KET0), ket_dm(q.KET1)])


def test_zero_plus_interference():
    assert interference_flag([ket_dm(q.KET0), ket_dm(q.KET_PLUS)])


def test_empty_family_no_interference():
    assert not interference_flag([])


def test_interference_flag_tests_commutation_at_its_tol():
    # diag(0.7, 0.3) and |0> rotated by 1e-5: a commutator of about 4e-6, between the two tolerances
    theta = 1e-5
    states = [q.DensityMatrix(np.diag([0.7, 0.3])), ket_dm(np.array([np.cos(theta), np.sin(theta)]))]
    for tol, commuting in ((1e-3, True), (1e-9, False)):
        assert pairwise_commuting(states, tol) is commuting
        assert interference_flag(states, tol) is not commuting
    assert interference_flag(states)  # the default tol is COMMUTE_TOL


# -- theorem-1 constructor --------------------------------------------------------------


def mixture_box(weight_pr: float) -> CorrelationBox:
    """weight * PR + (1 - weight) * (a=b=0): max CHSH is exactly 2 + 2*weight."""
    det = np.zeros((2, 2, 2, 2))
    det[:, :, 0, 0] = 1.0
    return CorrelationBox((2, 2), (2, 2), weight_pr * pr_table() + (1 - weight_pr) * det)


@pytest.mark.parametrize("witness", [2.1, 2 * np.sqrt(2), 4.0])
def test_violating_witness_breaks_strong_monogamy(witness):
    box = mixture_box((witness - 2) / 2)
    result = theorem1_construct(box)
    assert abs(abs(result.chsh_ab) - witness) < 1e-9
    assert abs(abs(result.chsh_ac) - witness) < 1e-9
    assert abs(result.squared_sum - 2 * witness**2) < 1e-8
    assert result.squared_sum > 8.0
    assert not result.strong_monogamy.satisfied
    assert not result.ns_monogamy.satisfied  # 2v > 4: unrealizable without signalling


def test_boundary_witness_saturates_exactly():
    box = mixture_box(0.0)  # deterministic: CHSH exactly 2
    result = theorem1_construct(box)
    assert result.squared_sum == 8.0
    assert result.strong_monogamy.satisfied


def test_quantum_witness_gives_sixteen(singlet_optimal_box):
    result = theorem1_construct(singlet_optimal_box)
    assert abs(result.squared_sum - 16.0) < 1e-8
    assert not result.strong_monogamy.satisfied


def test_construction_handles_extra_settings():
    import gptw.quantum as q2

    alice = [q2.y_basis(), q2.z_basis(), q2.x_basis()]  # witness pair is (1, 2)
    bob = [
        q2.povm_from_observable(-(q2.PAULI_Z + q2.PAULI_X) / np.sqrt(2)),
        q2.povm_from_observable((q2.PAULI_X - q2.PAULI_Z) / np.sqrt(2)),
    ]
    box = q2.bipartite_box(q2.singlet(), alice, bob)
    result = theorem1_construct(box)
    assert abs(result.squared_sum - 16.0) < 1e-8


def test_local_box_rejected(isotropic_half):
    # max CHSH 2 - epsilon? visibility 0.5 sits exactly at 2; shrink it below
    weaker = CorrelationBox(
        (2, 2), (2, 2), 0.4 * pr_table() + 0.6 * np.full((2, 2, 2, 2), 0.25)
    )
    with pytest.raises(PreconditionError):
        theorem1_construct(weaker)


def test_signalling_box_rejected():
    # a = y, b = a xor xy: |B| = 4, but Alice's outcome is Bob's setting
    table = np.zeros((2, 2, 2, 2))
    for x, y in np.ndindex(2, 2):
        table[x, y, y, y ^ (x & y)] = 1.0
    with pytest.raises(PreconditionError, match="signals.*1.000e\\+00"):
        theorem1_construct(CorrelationBox((2, 2), (2, 2), table))


def test_constructed_box_pair_marginals_match_input(singlet_optimal_box):
    result = theorem1_construct(singlet_optimal_box)
    ab = result.box.marginal((0, 1), (0,))
    ac = result.box.marginal((0, 2), (0,))
    assert np.max(np.abs(ab.table - singlet_optimal_box.table)) < 1e-9
    assert np.max(np.abs(ac.table - singlet_optimal_box.table)) < 1e-9


def test_constructed_box_signals_between_wings(singlet_optimal_box):
    from gptw.correlations import check_no_signalling

    result = theorem1_construct(singlet_optimal_box)
    report = check_no_signalling(result.box)
    assert not report.satisfied
    assert any(v.subset == (1, 2) for v in report.violations)


def loop_theorem1_box(box2: CorrelationBox) -> CorrelationBox:
    """Theorem 1's box built entry by entry, each zero marginal skipped (so left at 0)."""
    _, witness = is_bell_nonlocal(box2)
    xs, ys = witness.a_settings, witness.b_settings
    table = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        p_branch = box2.table[xs[x], ys[0]].sum(axis=1)
        for y in range(2):
            pab = box2.table[xs[x], ys[y]]
            marg_y = pab.sum(axis=1)
            for z in range(2):
                pac = box2.table[xs[x], ys[z]]
                marg_z = pac.sum(axis=1)
                for a in range(2):
                    if p_branch[a] <= 0 or marg_y[a] <= 0 or marg_z[a] <= 0:
                        continue
                    table[x, y, z, a] = p_branch[a] * np.outer(pab[a] / marg_y[a], pac[a] / marg_z[a])
    return CorrelationBox((2, 2, 2), (2, 2, 2), table)


def theorem1_boxes(rng):
    """Seeded tables on 2 or 3 settings per party, most with a CHSH witness of at least 2.

    Deterministic boxes and boxes whose Alice answers deterministically
    while Bob does at one setting only (|B| = 2, with zero marginals), PR
    boxes mixed with a deterministic box, and noisy singlet boxes.
    """
    alice, bob = singlet_optimal_settings()
    for n_x, n_y in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(12):
            f, g = rng.integers(0, 2, n_x), rng.integers(0, 2, n_y)
            det = np.zeros((n_x, n_y, 2, 2))
            det[np.arange(n_x)[:, None], np.arange(n_y), f[:, None], g] = 1.0
            yield det
            bob_mixed = det.copy()
            bob_mixed[:, 1:] = 0.0
            bob_mixed[np.arange(n_x)[:, None], np.arange(1, n_y), f[:, None]] = rng.dirichlet((1, 1), n_y - 1)
            yield bob_mixed
            pr = np.zeros((n_x, n_y, 2, 2))
            pr[:2, :2] = pr_table()
            pr[2:, :, :, 0], pr[:, 2:, :, 0] = 0.5, 0.5  # extra settings: a uniform, b = 0
            w = rng.uniform(0.0, 1.0)
            yield w * pr + (1 - w) * det
            singlet = q.bipartite_box(
                q.singlet(),
                alice + [q.random_projective_qubit(rng) for _ in range(n_x - 2)],
                bob + [q.random_projective_qubit(rng) for _ in range(n_y - 2)],
            )
            v = rng.uniform(0.75, 1.0)
            yield v * singlet.table + (1 - v) / 4


def test_product_construction_matches_the_entrywise_loops():
    built = zero_marginal = y_z_asymmetric = 0
    for table in theorem1_boxes(np.random.default_rng(19)):
        box2 = CorrelationBox(table.shape[:2], (2, 2), table)
        try:
            result = theorem1_construct(box2)
        except PreconditionError:
            continue
        want = loop_theorem1_box(box2).table
        assert result.box.table.tobytes() == want.tobytes()
        built += 1
        zero_marginal += bool((want.sum(axis=(4, 5)) == 0).any())
        y_z_asymmetric += not np.array_equal(want, want.swapaxes(1, 2))
    # the zero marginals take the loops' skip branches; a y/z mix-up changes every asymmetric table
    assert built >= 150 and zero_marginal >= 50 and y_z_asymmetric >= 50, (built, zero_marginal, y_z_asymmetric)
