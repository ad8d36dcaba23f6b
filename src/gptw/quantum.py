"""Quantum instantiation of operational theories.

Density matrices, POVMs, and Kraus channels, plus the Born-rule bridges that
turn them into probability tables and correlation boxes.  Also hosts the two
constructions that the channel-state duality layer builds on: the ensemble
decomposition of a state induced by a POVM (weights Tr(rho M_i), states
sqrt(rho) M_i sqrt(rho) / Tr(M_i rho)) and the conditional channel recovered
from a bipartite state.

Every Born table (`bipartite_box`, `multipartite_box`, `born_table` and the
duality layer's joint distributions) comes from one kernel, `_born`: per
party, `np.tensordot`'s transposes, reshapes and one `np.dot`, written out.
The results are tensordot's to the bit, without its per-call overhead.

The duality layer decomposes each marginal once: `_transposed_state` runs
one `eigh` of rho^T, and that spectrum serves the PSD check of rho,
`mat_sqrt`'s check and square root (`_sqrt_from`), and the inverse square
root with its support (`_inv_sqrt_from`, on the conjugated eigenvectors,
since rho = conj(rho^T)).  rho^T is not checked again: its entries, diagonal
and spectrum are rho's, so its check would raise exactly when rho's does.
Stacked states, such as a POVM's ensemble branches, are checked as one stack
(`_check_density`) with `DensityMatrix`'s messages.

Conventions:
  * all transposes are taken in the computational basis
  * Choi operators of a channel are ordered (output, input); tracing out the
    output leaves I/d_in
  * multipartite objects carry an explicit tuple of subsystem dims, index 0
    being the "first" system, and composite indices are row-major (numpy kron
    order)
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .correlations import CorrelationBox
from .errors import DimensionMismatchError, ValidationError
from .theory import EPS_BRANCH, EnsemblePreparation, Measurement, OperationalTheory

ATOL = 1e-10  # hermiticity / positivity / trace / eigenvalue-cutoff tolerance for quantum objects
CHOI_ATOL = 1e-9


def _as_complex_matrix(entries: np.ndarray | Sequence[Sequence[complex]], copy: bool = True) -> np.ndarray:
    # a fresh copy that callers freeze; copy=False is for callers that copy the result themselves
    mat = np.array(entries, dtype=complex) if copy else np.asarray(entries, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    if not mat.size:
        raise ValidationError(f"expected a non-empty matrix, got shape {mat.shape}")
    return mat


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    `dims` optionally records a tensor-product factorization (defaults to the
    single factor (dim,)).
    """

    def __init__(self, entries, dims: Sequence[int] | None = None) -> None:
        mat = _as_complex_matrix(entries)
        _check_density(mat[None])
        self._freeze(mat, dims)

    @classmethod
    def _checked(cls, mat: np.ndarray, dims: Sequence[int] | None = None) -> "DensityMatrix":
        """A state whose matrix the caller already passed through `_check_density`; `mat` becomes read-only."""
        state = cls.__new__(cls)
        state._freeze(mat, dims)
        return state

    def _freeze(self, mat: np.ndarray, dims: Sequence[int] | None) -> None:
        d = mat.shape[0]
        self.dim = d
        self.dims = tuple(int(x) for x in dims) if dims is not None else (d,)
        # math.prod on Python ints: np.prod wraps in int64, so (3, 6148914691236517206) would give 2
        if any(x < 1 for x in self.dims) or math.prod(self.dims) != d:
            raise DimensionMismatchError(f"dims {self.dims} do not factor dimension {d}")
        mat.flags.writeable = False
        self.matrix = mat

    @classmethod
    def pure(cls, vec: Sequence[complex], dims: Sequence[int] | None = None) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), dims)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(np.eye(dim) / dim)


@np.errstate(invalid="ignore", over="ignore")  # inf and huge entries fail the checks below, not as warnings
def _check_density(stack: np.ndarray, eigvals: np.ndarray | None = None) -> None:
    """`DensityMatrix`'s checks, with its messages, on every matrix of a (k, d, d) stack.

    Hermiticity as one max over the stack, then the traces, then positivity:
    on `eigvals` when the caller already holds the stack's spectrum, else by
    one batched `eigvalsh`.  With several defective matrices the first failing
    check kind is reported, and within it the first matrix.
    """
    # negated so that NaN and inf fail it: they make the difference non-finite
    if not np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) <= ATOL:
        raise ValidationError("density matrix is not finite and Hermitian")
    traces = np.trace(stack, axis1=1, axis2=2)
    for k, t in enumerate(traces.tolist()):  # a Python loop: a stack holds a few states, often one
        if abs(t.real - 1.0) > ATOL or abs(t.imag) > ATOL:
            raise ValidationError(f"density matrix has trace {traces[k]}, not 1")
    if (np.linalg.eigvalsh(stack) if eigvals is None else eigvals).min() < -ATOL:
        raise ValidationError("density matrix has a negative eigenvalue")


class Povm:
    """A list of positive effects summing to the identity."""

    @np.errstate(invalid="ignore", over="ignore")  # as on `_check_density`
    def __init__(self, elements: Sequence[np.ndarray]) -> None:
        mats = [_as_complex_matrix(e, copy=False) for e in elements]  # np.stack below makes the one copy
        if not mats:
            raise ValidationError("POVM needs at least one element")
        d = mats[0].shape[0]
        if any(e.shape != (d, d) for e in mats):
            raise DimensionMismatchError("POVM elements have mixed dimensions")
        stack = np.stack(mats)  # element_stack[k] is the k-th effect
        if not np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) <= ATOL:
            raise ValidationError("POVM element is not finite and Hermitian")
        if np.linalg.eigvalsh(stack).min() < -ATOL:
            raise ValidationError("POVM element is not positive semidefinite")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(d))) > ATOL:
            raise ValidationError("POVM elements do not sum to the identity")
        stack.flags.writeable = False
        self.element_stack = stack
        self.elements = tuple(stack)  # read-only views into the stack
        self.dim = d

    def __len__(self) -> int:
        return len(self.elements)


class Channel:
    """A trace-preserving channel in Kraus form (dim_out x dim_in operators).

    `output_dims` optionally factors the output space; a channel producing
    several systems at once (e.g. a broadcaster) declares them here.
    """

    @np.errstate(invalid="ignore", over="ignore")  # as on `_check_density`
    def __init__(self, kraus: Sequence[np.ndarray], output_dims: Sequence[int] | None = None) -> None:
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if ops[0].ndim != 2:
            raise ValidationError("Kraus operators must be matrices")
        d_out, d_in = ops[0].shape
        if not ops[0].size:
            raise ValidationError(f"Kraus operators must be non-empty, got shape {ops[0].shape}")
        if any(k.shape != (d_out, d_in) for k in ops):
            raise DimensionMismatchError("Kraus operators have mixed shapes")
        stack = np.stack(ops)  # the one copy: kraus_stack[k] is the k-th operator
        flat = stack.reshape(-1, d_in)
        if not np.max(np.abs(flat.conj().T @ flat - np.eye(d_in))) <= ATOL:
            raise ValidationError("Kraus operators are not finite and trace preserving")
        stack.flags.writeable = False
        self.kraus_stack = stack
        self.kraus = tuple(stack)  # read-only views into the stack
        self.dim_in = d_in
        self.dim_out = d_out
        self.output_dims = tuple(int(x) for x in output_dims) if output_dims is not None else (d_out,)
        if any(x < 1 for x in self.output_dims) or math.prod(self.output_dims) != d_out:
            raise DimensionMismatchError(
                f"output_dims {self.output_dims} do not factor output dimension {d_out}"
            )

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        return cls([np.eye(dim)])

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Channel":
        return cls([np.asarray(u, dtype=complex)])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply to a raw matrix (not necessarily normalized), or to a stack of them along leading axes."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape[-2:] != (self.dim_in, self.dim_in):
            raise DimensionMismatchError(
                f"channel expects a {self.dim_in}x{self.dim_in} input, got {rho.shape}"
            )
        stack = self.kraus_stack
        return (stack @ rho[..., None, :, :] @ stack.conj().transpose(0, 2, 1)).sum(axis=-3)


@dataclass(frozen=True)
class ChoiState:
    """Channel-as-state: (channel x identity) applied to the maximally entangled state.

    Subsystem order is (output, input); tracing out the output must leave
    I/d_in, which is trace preservation in state form.
    """

    state: DensityMatrix
    input_dim: int
    output_dim: int

    def __post_init__(self) -> None:
        if self.state.dim != self.input_dim * self.output_dim:
            raise DimensionMismatchError("Choi state dimension != input_dim * output_dim")
        reduced = partial_trace(self.state.matrix, (self.output_dim, self.input_dim), keep=(1,))
        if np.max(np.abs(reduced - np.eye(self.input_dim) / self.input_dim)) > CHOI_ATOL:
            raise ValidationError("Choi state does not reduce to I/d on the input side")


# ---------------------------------------------------------------------------
# Matrix utilities
# ---------------------------------------------------------------------------


def partial_trace(mat: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out all subsystems not listed in `keep` (which must be ascending)."""
    dims = tuple(dims)
    n = len(dims)
    keep = tuple(keep)
    if list(keep) != sorted(keep):
        raise ValueError("keep indices must be ascending")
    tensor = np.asarray(mat, dtype=complex).reshape(dims + dims)
    n_rows = n
    for i in sorted((i for i in range(n) if i not in keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + n_rows)
        n_rows -= 1
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tensor.reshape(d_keep, d_keep)


def mat_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-1e-10, 0) are clamped to 0."""
    return _sqrt_from(*np.linalg.eigh(np.asarray(mat, dtype=complex)))


def _sqrt_from(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """`mat_sqrt`, PSD check included, of the matrix with this `eigh` decomposition."""
    if vals.min() < -ATOL:
        raise ValidationError(f"matrix is not PSD (min eigenvalue {vals.min()})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _psd_inv_sqrt(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root on the support; returns (rho^{-1/2}, support projector)."""
    return _inv_sqrt_from(*np.linalg.eigh(np.asarray(mat, dtype=complex)))


def _inv_sqrt_from(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_psd_inv_sqrt` of the matrix with this `eigh` decomposition."""
    on = vals > ATOL
    inv = np.where(on, 1.0 / np.sqrt(np.where(on, vals, 1.0)), 0.0)
    support = (vecs * on.astype(float)) @ vecs.conj().T
    return (vecs * inv) @ vecs.conj().T, support


def _transposed_state(mat: np.ndarray) -> tuple[DensityMatrix, np.ndarray, np.ndarray]:
    """The state mat^T, from one `eigh` of mat^T: (state, eigenvalues, eigenvectors).

    Runs `DensityMatrix`'s checks on `mat`, with the eigenvalues of the one
    decomposition.  They also settle mat^T: its |M - M^dagger| entries and
    its diagonal are mat's, and a Hermitian matrix and its transpose have one
    spectrum, so a check of mat^T raises exactly when this one does.  Since
    mat = conj(mat^T), the conjugated eigenvectors decompose `mat` itself.
    """
    mat_t = mat.T
    vals, vecs = np.linalg.eigh(mat_t)
    _check_density(mat[None], vals)
    return DensityMatrix._checked(mat_t), vals, vecs


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (a - b) for Hermitian a, b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


# ---------------------------------------------------------------------------
# Born-rule bridges
# ---------------------------------------------------------------------------


def _born(matrix: np.ndarray, dims: Sequence[int], stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Re Tr((E^1_{x_1 a_1} x ... x E^n_{x_n a_n}) rho) for every setting and outcome.

    `stacks[k]` holds party k's effects, shape (settings_k, outcomes_k, d_k,
    d_k); the result has shape (settings_1..settings_n, outcomes_1..outcomes_n).
    Leading batch axes of `matrix` (one rho per index) lead the result too.
    """
    n, b = len(dims), matrix.ndim - 2
    tensor = matrix.reshape(matrix.shape[:b] + tuple(dims) * 2)  # (batch, rows_1..rows_n, cols_1..cols_n)
    for k, stack in enumerate(stacks):
        # Tr(E rho) = sum_ij E[i, j] rho[j, i].  Earlier parties are contracted
        # away, so party k's row and column axes are b and b + n - k; its
        # (x, a) axes are appended at the end.  np.tensordot's transposes and
        # one np.dot, written out: the same bits without its argument handling
        row, col = b, b + n - k
        rest = [i for i in range(tensor.ndim) if i != row and i != col]
        kept = [tensor.shape[i] for i in rest]
        flat = tensor.transpose(rest + [row, col]).reshape(math.prod(kept), -1)
        effects = stack.transpose(3, 2, 0, 1).reshape(flat.shape[1], -1)
        tensor = np.dot(flat, effects).reshape(kept + list(stack.shape[:2]))
    return tensor.transpose([*range(b), *range(b, b + 2 * n, 2), *range(b + 1, b + 2 * n, 2)]).real


def born_table(
    states: Mapping[str, DensityMatrix],
    povms: Mapping[str, Povm],
    channels: Mapping[str, Channel] | None = None,
) -> OperationalTheory:
    """Tabulate p(M^x | P, T) = Tr(M_x T(rho_P)) into an operational theory.

    The identity channel is always included under the id "I"; explicit
    channels must preserve the system dimension so every POVM applies after
    every channel.
    """
    if not states or not povms:
        raise ValidationError("born_table needs at least one state and one POVM")
    dim = next(iter(states.values())).dim
    for name, rho in states.items():
        if rho.dim != dim:
            raise DimensionMismatchError(f"state {name!r} has dim {rho.dim}, expected {dim}")
    for name, povm in povms.items():
        if povm.dim != dim:
            raise DimensionMismatchError(f"POVM {name!r} has dim {povm.dim}, expected {dim}")
    chans: dict[str, Channel] = {"I": Channel.identity(dim)}
    for name, chan in (channels or {}).items():
        if name == "I":
            raise ValidationError("channel id 'I' is reserved for the identity")
        if chan.dim_in != dim or chan.dim_out != dim:
            raise DimensionMismatchError(
                f"channel {name!r} must be {dim}->{dim} to share the theory's measurements"
            )
        chans[name] = chan

    # every POVM's effects side by side as one setting, split back per POVM
    stack = np.array([[e for povm in povms.values() for e in povm.elements]])
    ends = np.cumsum([len(povm) for povm in povms.values()])[:-1]
    table = {}
    for p_id, rho in states.items():
        for t_id, chan in chans.items():
            rows = np.split(_born(chan.apply(rho.matrix), (dim,), [stack])[0], ends)
            table.update(((p_id, t_id, m_id), row) for m_id, row in zip(povms, rows))
    measurements = [Measurement(m_id, len(povm)) for m_id, povm in povms.items()]
    return OperationalTheory(list(states), list(chans), measurements, table)


def multipartite_box(state: DensityMatrix, povms_per_party: Sequence[Sequence[Povm]]) -> CorrelationBox:
    """Correlation box p(a_1..a_n | x_1..x_n) = Tr((M_1 x ... x M_n) rho).

    One list of POVMs (the settings) per party; the state's `dims` must have
    one factor per party.  Supports n in {2, 3}.
    """
    dims = state.dims
    n = len(dims)
    if n != len(povms_per_party):
        raise DimensionMismatchError(
            f"state factors into {n} systems but {len(povms_per_party)} measurement lists given"
        )
    if n not in (2, 3):
        raise DimensionMismatchError("only 2- and 3-party boxes are supported")
    outcomes = []
    for party, (d, settings) in enumerate(zip(dims, povms_per_party)):
        if not settings:
            raise ValidationError(f"party {party} has no measurement settings")
        arities = {len(p) for p in settings}
        if len(arities) != 1:
            raise ValidationError(f"party {party}: settings must share one outcome arity")
        for povm in settings:
            if povm.dim != d:
                raise DimensionMismatchError(f"party {party}: POVM dim {povm.dim} != system dim {d}")
        outcomes.append(arities.pop())
    settings_count = [len(s) for s in povms_per_party]
    # each party's effects stacked as (settings, outcomes, d, d)
    table = _born(state.matrix, dims, [np.array([p.element_stack for p in s]) for s in povms_per_party])
    return CorrelationBox(settings_count, outcomes, table)


def bipartite_box(state: DensityMatrix, povms_a: Sequence[Povm], povms_b: Sequence[Povm]) -> CorrelationBox:
    """Two-party Born-rule box; the state's dims must be a 2-factor split."""
    if len(state.dims) != 2:
        raise DimensionMismatchError(f"a two-party box needs a state with two factors, got dims {state.dims}")
    return multipartite_box(state, [povms_a, povms_b])


# ---------------------------------------------------------------------------
# Channel-state constructions
# ---------------------------------------------------------------------------


def choi_of_channel(chan: Channel) -> ChoiState:
    """Apply the channel to half of the maximally entangled state.

    Output ordering (output system, untouched input copy); the entangled
    state is (1/d) sum_{i,i'} |ii><i'i'| in the computational basis.
    """
    d = chan.dim_in
    # (K_k x I) applied to the entangled vector is K_k / sqrt(d) read row-major as an (output, input) vector
    vecs = chan.kraus_stack.reshape(len(chan.kraus), -1) / np.sqrt(d)
    mat = vecs.T @ vecs.conj()
    return ChoiState(
        DensityMatrix(mat, dims=(chan.dim_out, d)), input_dim=d, output_dim=chan.dim_out
    )


def _kraus_from_in_out(j_mat: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Kraus operators, stacked, from a PSD operator indexed (input^T, output)."""
    vals, vecs = np.linalg.eigh(j_mat)
    keep = vals > ATOL
    blocks = (vecs[:, keep] * np.sqrt(vals[keep])).T.reshape(-1, d_in, d_out)
    return blocks.transpose(0, 2, 1)  # K = block^T, so that eps(Y) = sum K Y K^dagger


def conditional_channel(state: DensityMatrix) -> Channel:
    """Channel recovered from a bipartite state, normalized against its first marginal.

    For rho_AB with marginal rho_A, the operator
    (rho_A^{-1/2} x I) rho_AB (rho_A^{-1/2} x I) read as a Choi operator
    yields the unique channel eps with rho_AB = (I x eps)(canonical
    purification of rho_A).  Measuring {M_i} on A then steers B to
    eps(sqrt(rho_A^T) M_i^T sqrt(rho_A^T)) with the correct weights.  When
    rho_A is rank deficient the recovery lives on its support and the channel
    is completed arbitrarily (maximally mixed output) off it.
    """
    if len(state.dims) < 2:
        raise DimensionMismatchError("conditional_channel needs a state with >= 2 factors")
    d_a = state.dims[0]
    rho_a = partial_trace(state.matrix, (d_a, state.dim // d_a), keep=(0,))
    return _conditional_channel(state, *_psd_inv_sqrt(rho_a))


def _conditional_channel(state: DensityMatrix, inv_sqrt: np.ndarray, support: np.ndarray) -> Channel:
    """`conditional_channel` from rho_A^{-1/2} and rho_A's support projector, which the caller computed."""
    dims = state.dims
    d_a = dims[0]
    d_b = state.dim // d_a
    dress = np.kron(inv_sqrt, np.eye(d_b))
    j_mat = dress @ state.matrix @ dress
    comp = np.eye(d_a) - support
    if np.max(np.abs(comp)) > ATOL:
        j_mat = j_mat + np.kron(comp, np.eye(d_b) / d_b)
    j_mat = 0.5 * (j_mat + j_mat.conj().T)
    return Channel(_kraus_from_in_out(j_mat, d_a, d_b), output_dims=dims[1:])


def leifer_ensemble(rho: DensityMatrix, povm: Povm) -> EnsemblePreparation:
    """Decompose rho along a POVM: p(i) = Tr(rho M_i), rho_i = sqrt(rho) M_i sqrt(rho) / p(i).

    A branch with weight <= EPS_BRANCH gets a maximally mixed placeholder
    state; its statistics never contribute.  The live branch states are
    checked as one stack, with `DensityMatrix`'s messages.
    """
    if rho.dim != povm.dim:
        raise DimensionMismatchError("state and POVM dimensions differ")
    return _leifer_ensemble(rho, povm.element_stack, mat_sqrt(rho.matrix))


def _leifer_ensemble(rho: DensityMatrix, effects: np.ndarray, root: np.ndarray) -> EnsemblePreparation:
    """`leifer_ensemble` along a checked effect stack of rho's dimension, with sqrt(rho) computed by the caller."""
    weights = np.einsum("ij,kji->k", rho.matrix, effects).real  # Tr(rho M_k)
    live = weights > EPS_BRANCH
    branches = root @ effects[live] @ root / weights[live][:, None, None]
    _check_density(branches)
    branches.flags.writeable = False
    checked = iter(branches)
    states = [DensityMatrix._checked(next(checked)) if on else DensityMatrix.maximally_mixed(rho.dim)
              for on in live]
    return EnsemblePreparation(weights, states)


def transpose_povm(povm: Povm) -> Povm:
    """Elementwise transpose in the computational basis (still a POVM)."""
    return Povm(povm.element_stack.transpose(0, 2, 1))


def purification(rho: DensityMatrix) -> np.ndarray:
    """Canonical purification sum_j (sqrt(rho)|j>) x |j>, as a vector on dims (d, d).

    Component (a, b) equals sqrt(rho)[a, b], so the vector is the matrix
    square root flattened row-major; the second factor purifies the first.
    """
    return mat_sqrt(rho.matrix).reshape(-1)


# ---------------------------------------------------------------------------
# Standard objects and seeded generators
# ---------------------------------------------------------------------------

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([1, 0], dtype=complex)
KET1 = np.array([0, 1], dtype=complex)
KET_PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
KET_MINUS = np.array([1, -1], dtype=complex) / np.sqrt(2)


def povm_from_observable(obs: np.ndarray) -> Povm:
    """Two-outcome projective POVM (P_+, P_-) of a +/-1-spectrum observable."""
    obs = np.asarray(obs, dtype=complex)
    return Povm([(np.eye(obs.shape[0]) + obs) / 2, (np.eye(obs.shape[0]) - obs) / 2])


def z_basis() -> Povm:
    return povm_from_observable(PAULI_Z)


def x_basis() -> Povm:
    return povm_from_observable(PAULI_X)


def y_basis() -> Povm:
    return povm_from_observable(PAULI_Y)


def singlet() -> DensityMatrix:
    vec = (np.kron(KET0, KET1) - np.kron(KET1, KET0)) / np.sqrt(2)
    return DensityMatrix.pure(vec, dims=(2, 2))


def bell_phi_plus() -> DensityMatrix:
    vec = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2)
    return DensityMatrix.pure(vec, dims=(2, 2))


def ghz_state() -> DensityMatrix:
    vec = np.zeros(8, dtype=complex)
    vec[0] = vec[7] = 1 / np.sqrt(2)
    return DensityMatrix.pure(vec, dims=(2, 2, 2))


def w_state() -> DensityMatrix:
    vec = np.zeros(8, dtype=complex)
    vec[1] = vec[2] = vec[4] = 1 / np.sqrt(3)
    return DensityMatrix.pure(vec, dims=(2, 2, 2))


def ginibre_state(dim: int, rng: np.random.Generator, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Full-rank random state G G^dagger / Tr, G complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, dims=dims)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random full-rank POVM: normalize Wishart blocks against their sum."""
    blocks = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    inv_sqrt, _ = _psd_inv_sqrt(total)
    return Povm([inv_sqrt @ b @ inv_sqrt for b in blocks])


def random_projective_qubit(rng: np.random.Generator) -> Povm:
    """Projective qubit measurement along a uniformly random Bloch direction."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    obs = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
    return povm_from_observable(obs)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, rng: np.random.Generator) -> Channel:
    """Random channel via a Haar-ish isometry split into Kraus blocks."""
    g = rng.normal(size=(dim_out * kraus_count, dim_in)) + 1j * rng.normal(
        size=(dim_out * kraus_count, dim_in)
    )
    q, _ = np.linalg.qr(g)  # columns orthonormal: q^dagger q = I_{dim_in}
    return Channel([q[k * dim_out : (k + 1) * dim_out, :] for k in range(kraus_count)])
