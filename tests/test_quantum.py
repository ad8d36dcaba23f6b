"""Quantum objects, Born bridges, and the channel-state constructions."""
from __future__ import annotations

import numpy as np
import pytest

from gptw import quantum as q
from gptw.errors import DimensionMismatchError, ValidationError
from gptw.theory import EPS_BRANCH, outcome_distribution

from conftest import transpose_state


# -- object invariants -----------------------------------------------------------


def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        q.DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_wrong_trace():
    with pytest.raises(ValidationError):
        q.DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValidationError):
        q.DensityMatrix(np.diag([1.2, -0.2]))


def test_povm_rejects_non_complete():
    with pytest.raises(ValidationError):
        q.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])


def test_povm_rejects_negative_element():
    with pytest.raises(ValidationError):
        q.Povm([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])])


def test_channel_rejects_non_trace_preserving():
    with pytest.raises(ValidationError):
        q.Channel([np.diag([1.0, 0.5])])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entries_rejected(bad):
    broken = np.diag([1.0, 0.0]).astype(complex)
    broken[0, 1] = broken[1, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        q.DensityMatrix(broken)
    with pytest.raises(ValidationError, match="finite"):
        q.Povm([broken, np.diag([0.0, 1.0])])
    with pytest.raises(ValidationError, match="finite"):
        q.Channel([broken])


def test_partial_trace_against_kron_oracle():
    rng = np.random.default_rng(3)
    a = q.ginibre_state(2, rng).matrix
    b = q.ginibre_state(3, rng).matrix
    joint = np.kron(a, b)
    assert np.allclose(q.partial_trace(joint, (2, 3), keep=(0,)), a, atol=1e-12)
    assert np.allclose(q.partial_trace(joint, (2, 3), keep=(1,)), b, atol=1e-12)


def test_mat_sqrt_squares_back():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = q.ginibre_state(4, rng).matrix
        root = q.mat_sqrt(rho)
        assert np.max(np.abs(root @ root - rho)) < 1e-9


# -- born_table -------------------------------------------------------------------


def test_born_table_eigenstate():
    theory = q.born_table({"zero": q.DensityMatrix.pure(q.KET0)}, {"Z": q.z_basis()})
    assert np.allclose(outcome_distribution(theory, "zero", "I", "Z"), [1, 0], atol=1e-12)


def test_born_table_maximally_mixed_symmetry():
    rng = np.random.default_rng(0)
    povms = {f"M{k}": q.random_projective_qubit(rng) for k in range(4)}
    theory = q.born_table({"mix": q.DensityMatrix.maximally_mixed(2)}, povms)
    for m in povms:
        assert np.allclose(outcome_distribution(theory, "mix", "I", m), [0.5, 0.5], atol=1e-12)


def test_born_table_plus_state():
    theory = q.born_table({"plus": q.DensityMatrix.pure(q.KET_PLUS)}, {"Z": q.z_basis()})
    assert np.allclose(outcome_distribution(theory, "plus", "I", "Z"), [0.5, 0.5], atol=1e-12)


def test_born_table_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        q.born_table({"a": q.DensityMatrix.maximally_mixed(3)}, {"Z": q.z_basis()})


def test_channel_keeps_kraus_as_one_read_only_stack():
    rng = np.random.default_rng(19)
    chan = q.random_channel(3, 2, 4, rng)
    assert type(chan.kraus) is np.ndarray and chan.kraus.shape == (4, 2, 3)
    assert not chan.kraus.flags.writeable
    with pytest.raises(ValueError):
        chan.kraus[0, 0, 0] = 0.0
    rhos = np.array([q.ginibre_state(3, rng).matrix for _ in range(5)])
    for rho, stacked in zip(rhos, chan.apply(rhos)):  # a stack of inputs maps input by input
        loop = sum(chan.kraus[k] @ rho @ chan.kraus[k].conj().T for k in range(4))  # the stack's rows, one by one
        assert np.max(np.abs(chan.apply(rho) - loop)) < 1e-14
        assert np.max(np.abs(stacked - loop)) < 1e-14


def kraus_sum(chan: q.Channel, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dagger as one (..., k, d_out, d_out) product summed over k: `Channel.apply`'s oracle."""
    stack = chan.kraus
    return (stack @ rho[..., None, :, :] @ stack.conj().transpose(0, 2, 1)).sum(axis=-3)


# (d_in, d_out, Kraus count): 1, 2 and d_in d_out operators; a 3 -> 2 channel needs at least 2
APPLY_SHAPES = [(d, d_out, k) for d, d_out in [(2, 2), (3, 3), (2, 3), (2, 4)] for k in (1, 2, d * d_out)]
APPLY_SHAPES += [(3, 2, 2), (3, 2, 6)]


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["matrix", "stack", "grid"])
@pytest.mark.parametrize("d_in, d_out, kraus_count", APPLY_SHAPES)
def test_apply_equals_the_kraus_sum(d_in, d_out, kraus_count, lead):
    rng = np.random.default_rng(29 * d_in + d_out + 100 * kraus_count)
    chan = q.random_channel(d_in, d_out, kraus_count, rng)
    shape = lead + (d_in, d_in)
    rho = rng.normal(size=shape) + 1j * rng.normal(size=shape)  # raw matrices: neither Hermitian nor normalized
    got = chan.apply(rho)
    assert got.shape == lead + (d_out, d_out)
    assert np.abs(got - kraus_sum(chan, rho)).max() < 1e-13


def test_channel_rejects_mixed_kraus_shapes():
    with pytest.raises(DimensionMismatchError):
        q.Channel([np.eye(2), np.eye(3)])


def test_povm_keeps_elements_as_one_read_only_stack():
    rng = np.random.default_rng(23)
    povm = q.random_povm(3, 4, rng)
    assert type(povm.elements) is np.ndarray and povm.elements.shape == (4, 3, 3) and len(povm) == 4
    assert not povm.elements.flags.writeable
    with pytest.raises(ValueError):
        povm.elements[0, 0, 0] = 0.0
    rho = q.ginibre_state(3, rng)
    chan = q.random_channel(3, 3, 2, rng)
    rows = dict(q.born_table({"p": rho}, {"m": povm}, {"T": chan}).rows())
    out = chan.apply(rho.matrix)
    loop = [np.trace(povm.elements[k] @ out).real for k in range(4)]  # the stack's rows after `apply`, one by one
    assert np.max(np.abs(rows[("p", "T", "m")] - loop)) < 1e-14


def test_povm_rejects_mixed_element_shapes():
    with pytest.raises(DimensionMismatchError, match="mixed dimensions"):
        q.Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 0.0])])


def _second_broken(entry, value):
    """The Z-basis POVM with one entry of its second element replaced."""
    second = np.diag([0.0, 1.0]).astype(complex)
    second[entry] = value
    return [np.diag([1.0, 0.0]), second]


# one defect per case, in the second element, with the message each check raises
POVM_DEFECTS = [
    pytest.param(_second_broken((0, 1), 0.5), "POVM element is not finite and Hermitian", id="non-hermitian"),
    pytest.param(_second_broken((1, 1), np.nan), "POVM element is not finite and Hermitian", id="nan"),
    pytest.param(_second_broken((1, 1), np.inf), "POVM element is not finite and Hermitian", id="inf"),
    pytest.param([np.diag([1.5, 0.0]), np.diag([-0.5, 1.0])], "POVM element is not positive semidefinite",
                 id="negative-eigenvalue"),
    pytest.param(_second_broken((1, 1), 0.5), "POVM elements do not sum to the identity", id="incomplete"),
]


@pytest.mark.parametrize("elements, message", POVM_DEFECTS)
def test_povm_defect_messages(elements, message):
    with pytest.raises(ValidationError) as info:
        q.Povm(elements)
    assert str(info.value) == message


# one defective state per case; each check kind of DensityMatrix raises once
DENSITY_DEFECTS = [
    pytest.param(np.array([[0.5, 0.5], [0.0, 0.5]]), id="non-hermitian"),
    pytest.param(np.eye(2) * 0.75, id="wrong-trace"),
    pytest.param(np.diag([1.2, -0.2]), id="negative-eigenvalue"),
]


@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("member", DENSITY_DEFECTS)
def test_stacked_state_check_gives_density_matrix_messages(member, position):
    with pytest.raises(ValidationError) as single:
        q.DensityMatrix(member)
    stack = np.array([np.eye(2) / 2, np.diag([1.0, 0.0]), np.diag([0.3, 0.7])], dtype=complex)
    stack[position] = member
    with pytest.raises(ValidationError) as batched:
        q._check_density(stack)
    assert str(batched.value) == str(single.value)


# a square root of I/2 that is not one: the only branch of the trivial POVM is root @ root
LEIFER_BAD_ROOTS = [
    pytest.param(np.array([[1.0, 0.5], [0.0, 1.0]]) / np.sqrt(2), id="non-hermitian"),
    pytest.param(np.eye(2), id="wrong-trace"),
    pytest.param(np.diag([np.sqrt(1.2), 1j * np.sqrt(0.2)]), id="negative-eigenvalue"),
]


@pytest.mark.parametrize("root", LEIFER_BAD_ROOTS)
def test_leifer_branch_check_gives_density_matrix_messages(monkeypatch, root):
    with pytest.raises(ValidationError) as single:
        q.DensityMatrix(root @ root)
    monkeypatch.setattr(q, "mat_sqrt", lambda mat: root)
    with pytest.raises(ValidationError) as batched:
        q.leifer_ensemble(q.DensityMatrix.maximally_mixed(2), q.Povm([np.eye(2)]))
    assert str(batched.value) == str(single.value)


def test_leifer_branches_are_read_only_and_distinct():
    rng = np.random.default_rng(8)
    ens = q.leifer_ensemble(q.ginibre_state(3, rng), q.random_povm(3, 4, rng))
    assert len({id(s) for s in ens.branches}) == 4
    for state in ens.branches:
        assert not state.matrix.flags.writeable and state.dims == (3,)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.0


# dims whose product, taken in int64 or over signed factors, equals the matrix dimension d:
# 3 * 6148914691236517206 = 2**64 + 2 wraps to 2, and (-1) * (-2) = 2; plus a plain mismatch
BAD_FACTORS = [((3, 6148914691236517206), 2), ((-1, -2), 2), ((-2, -2), 4), ((2, 3), 4)]


@pytest.mark.parametrize("dims, d", BAD_FACTORS)
def test_density_matrix_rejects_bad_dims(dims, d):
    with pytest.raises(DimensionMismatchError):
        q.DensityMatrix(np.eye(d) / d, dims=dims)


@pytest.mark.parametrize("dims, d", BAD_FACTORS)
def test_channel_rejects_bad_output_dims(dims, d):
    with pytest.raises(DimensionMismatchError):
        q.Channel([np.eye(d)], output_dims=dims)


def test_positive_factor_dims_accepted():
    assert q.DensityMatrix(np.eye(6) / 6, dims=(1, 2, 3)).dims == (1, 2, 3)
    assert q.Channel([np.eye(6)], output_dims=(3, 2)).output_dims == (3, 2)


# -- choi_of_channel ---------------------------------------------------------------


def test_choi_identity_is_maximally_entangled():
    choi = q.choi_of_channel(q.Channel.identity(2))
    expected = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for ip in range(2):
            expected[i * 2 + i, ip * 2 + ip] = 0.5
    assert np.allclose(choi.state.matrix, expected, atol=1e-12)


def test_choi_depolarizing_is_uniform():
    kraus = [0.5 * p for p in (q.PAULI_I, q.PAULI_X, q.PAULI_Y, q.PAULI_Z)]
    choi = q.choi_of_channel(q.Channel(kraus))
    assert np.allclose(choi.state.matrix, np.eye(4) / 4, atol=1e-12)


def test_choi_x_unitary():
    choi = q.choi_of_channel(q.Channel.unitary(q.PAULI_X))
    # oracle: (I x X) rho_phi+ (I x X), using (X x I)|omega> = (I x X^T)|omega>
    omega = np.zeros(4, dtype=complex)
    omega[0] = omega[3] = 1 / np.sqrt(2)
    phi = np.outer(omega, omega.conj())
    lifted = np.kron(np.eye(2), q.PAULI_X)
    assert np.allclose(choi.state.matrix, lifted @ phi @ lifted.conj().T, atol=1e-12)


def test_choi_partial_trace_property():
    rng = np.random.default_rng(17)
    omega = np.eye(3).reshape(-1) / np.sqrt(3)
    for _ in range(10):
        chan = q.random_channel(3, 2, 4, rng)
        choi = q.choi_of_channel(chan)
        lifted = [np.kron(k, np.eye(3)) @ omega for k in chan.kraus]  # (K x I)|omega>, the reference
        assert np.max(np.abs(choi.state.matrix - sum(np.outer(v, v.conj()) for v in lifted))) < 1e-14
        reduced = q.partial_trace(choi.state.matrix, (2, 3), keep=(1,))
        assert np.max(np.abs(reduced - np.eye(3) / 3)) < 1e-9


# -- leifer_ensemble ----------------------------------------------------------------


def test_leifer_maximally_mixed_z():
    ens = q.leifer_ensemble(q.DensityMatrix.maximally_mixed(2), q.z_basis())
    assert np.allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    assert np.allclose(ens.branches[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(ens.branches[1].matrix, np.diag([0.0, 1.0]), atol=1e-12)


def test_leifer_pure_eigenstate_flags_dead_branch():
    ens = q.leifer_ensemble(q.DensityMatrix.pure(q.KET0), q.z_basis())
    assert np.allclose(ens.weights, [1.0, 0.0], atol=1e-12)
    assert ens.weights[1] <= EPS_BRANCH  # dead: a maximally mixed placeholder
    assert np.allclose(ens.branches[1].matrix, np.eye(2) / 2, atol=1e-12)
    assert np.allclose(ens.branches[0].matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_leifer_x_basis_on_mixed():
    # oracle: sqrt(I/2) = I/sqrt(2), so states are the projectors themselves
    ens = q.leifer_ensemble(q.DensityMatrix.maximally_mixed(2), q.x_basis())
    plus = np.outer(q.KET_PLUS, q.KET_PLUS.conj())
    minus = np.outer(q.KET_MINUS, q.KET_MINUS.conj())
    assert np.allclose(ens.weights, [0.5, 0.5], atol=1e-12)
    assert np.allclose(ens.branches[0].matrix, plus, atol=1e-12)
    assert np.allclose(ens.branches[1].matrix, minus, atol=1e-12)


def test_leifer_mixture_reconstructs_state():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rho = q.ginibre_state(3, rng)
        povm = q.random_povm(3, 4, rng)
        ens = q.leifer_ensemble(rho, povm)
        assert abs(ens.weights.sum() - 1.0) < 1e-9
        mix = sum(w * s.matrix for w, s in zip(ens.weights, ens.branches))
        assert np.max(np.abs(mix - rho.matrix)) < 1e-9


# -- transpose_povm -----------------------------------------------------------------


def test_transpose_z_fixed():
    t = q.transpose_povm(q.z_basis())
    for a, b in zip(t.elements, q.z_basis().elements):
        assert np.array_equal(a, b)


def test_transpose_x_fixed():
    t = q.transpose_povm(q.x_basis())
    for a, b in zip(t.elements, q.x_basis().elements):
        assert np.allclose(a, b, atol=1e-15)


def test_transpose_y_swaps():
    t = q.transpose_povm(q.y_basis())
    orig = q.y_basis()
    assert np.allclose(t.elements[0], orig.elements[1], atol=1e-15)
    assert np.allclose(t.elements[1], orig.elements[0], atol=1e-15)


# -- bipartite_box -------------------------------------------------------------------


def test_product_eigenstate_box_deterministic():
    product = q.DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), dims=(2, 2))
    box = q.bipartite_box(product, [q.z_basis()], [q.z_basis()])
    expected = np.zeros((1, 1, 2, 2))
    expected[0, 0, 0, 0] = 1.0
    assert np.allclose(box.table, expected, atol=1e-12)


def test_singlet_same_axis_anticorrelation():
    box = q.bipartite_box(q.singlet(), [q.z_basis(), q.x_basis()], [q.z_basis(), q.x_basis()])
    for setting in ((0, 0), (1, 1)):
        p = box.prob(setting)
        assert np.allclose(p, [[0, 0.5], [0.5, 0]], atol=1e-12)


def test_singlet_optimal_box_chsh_value(singlet_optimal_box):
    from gptw.correlations import chsh

    assert abs(chsh(singlet_optimal_box).value - 2 * np.sqrt(2)) < 1e-9


# -- steering = ensemble-then-channel factorization, at the quantum layer --------------


def prepare_evolve_joint(rho_ab: q.DensityMatrix, m: q.Povm, o: q.Povm) -> np.ndarray:
    """Ensemble from the transposed marginal/POVM, then the recovered channel, then O."""
    rho_a = q.DensityMatrix(q.partial_trace(rho_ab.matrix, rho_ab.dims, keep=(0,)))
    ens = q.leifer_ensemble(transpose_state(rho_a), q.transpose_povm(m))
    chan = q.conditional_channel(rho_ab)
    joint = np.zeros((len(m), len(o)))
    for i, (w, rho_i) in enumerate(zip(ens.weights, ens.branches)):
        if w <= EPS_BRANCH:
            continue
        evolved = chan.apply(rho_i.matrix)
        for j, effect in enumerate(o.elements):
            joint[i, j] = w * np.trace(effect @ evolved).real
    return joint


def test_steering_factorization_random():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        rho_ab = q.ginibre_state(4, rng, dims=(2, 2))
        m = q.random_povm(2, 2, rng)
        o = q.random_povm(2, 2, rng)
        direct = q.bipartite_box(rho_ab, [m], [o]).table[0, 0]
        via_channel = prepare_evolve_joint(rho_ab, m, o)
        assert np.max(np.abs(direct - via_channel)) < 1e-8


def test_steering_factorization_rank_deficient_marginal():
    rng = np.random.default_rng(77)
    rho_a = q.DensityMatrix.pure(q.KET_PLUS)
    rho_b = q.ginibre_state(2, rng)
    rho_ab = q.DensityMatrix(np.kron(rho_a.matrix, rho_b.matrix), dims=(2, 2))
    m = q.random_povm(2, 2, rng)
    o = q.random_povm(2, 2, rng)
    direct = q.bipartite_box(rho_ab, [m], [o]).table[0, 0]
    via_channel = prepare_evolve_joint(rho_ab, m, o)
    assert np.max(np.abs(direct - via_channel)) < 1e-8


def test_marginal_of_recovered_copy_channel():
    # the dual of a classically copying joint state marginalizes to the copy map
    ghz_chan = q.conditional_channel(q.ghz_state())
    for vec in (q.KET0, q.KET1):
        rho = np.outer(vec, vec.conj())
        assert np.max(np.abs(q.partial_trace(ghz_chan.apply(rho), (2, 2), keep=(0,)) - rho)) < 1e-9


def test_conditional_channel_constant_output_for_product_state():
    rng = np.random.default_rng(99)
    rho_b = q.ginibre_state(2, rng)
    rho_ab = q.DensityMatrix(
        np.kron(q.ginibre_state(2, rng).matrix, rho_b.matrix), dims=(2, 2)
    )
    chan = q.conditional_channel(rho_ab)
    for _ in range(5):
        probe = q.ginibre_state(2, rng).matrix
        assert np.max(np.abs(chan.apply(probe) - rho_b.matrix)) < 1e-9
