"""Quantum instantiation of operational theories.

Density matrices, POVMs, and Kraus channels, plus the Born-rule bridges that
turn them into probability tables and correlation boxes.  Also hosts the two
constructions that the channel-state duality layer builds on: the ensemble
decomposition of a state induced by a POVM (weights Tr(rho M_i), states
sqrt(rho) M_i sqrt(rho) / Tr(M_i rho)) and the conditional channel recovered
from a bipartite state.

Conventions:
  * all transposes are taken in the computational basis
  * Choi operators of a channel are ordered (output, input); tracing out the
    output leaves I/d_in
  * multipartite objects carry an explicit tuple of subsystem dims, index 0
    being the "first" system, and composite indices are row-major (numpy kron
    order)
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .correlations import CorrelationBox
from .errors import DimensionMismatchError, ValidationError
from .theory import Measurement, OperationalTheory

ATOL = 1e-10  # hermiticity / positivity / trace tolerance for quantum objects
CHOI_ATOL = 1e-9
EPS_ZERO = 1e-12  # below this, an ensemble branch counts as zero-weight


def _as_complex_matrix(entries: np.ndarray | Sequence[Sequence[complex]]) -> np.ndarray:
    mat = np.array(entries, dtype=complex)  # always a fresh copy; callers freeze it
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {mat.shape}")
    return mat


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    `dims` optionally records a tensor-product factorization (defaults to the
    single factor (dim,)).
    """

    def __init__(self, entries, dims: Sequence[int] | None = None) -> None:
        mat = _as_complex_matrix(entries)
        d = mat.shape[0]
        # negated so that NaN and inf fail it: they make the difference non-finite
        if not np.max(np.abs(mat - mat.conj().T)) <= ATOL:
            raise ValidationError("density matrix is not finite and Hermitian")
        if abs(np.trace(mat).real - 1.0) > ATOL or abs(np.trace(mat).imag) > ATOL:
            raise ValidationError(f"density matrix has trace {np.trace(mat)}, not 1")
        if np.linalg.eigvalsh(mat).min() < -ATOL:
            raise ValidationError("density matrix has a negative eigenvalue")
        self.dim = d
        self.dims = tuple(int(x) for x in dims) if dims is not None else (d,)
        if int(np.prod(self.dims)) != d:
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


class Povm:
    """A list of positive effects summing to the identity."""

    def __init__(self, elements: Sequence[np.ndarray]) -> None:
        mats = [_as_complex_matrix(e) for e in elements]
        if not mats:
            raise ValidationError("POVM needs at least one element")
        d = mats[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in mats:
            if e.shape != (d, d):
                raise DimensionMismatchError("POVM elements have mixed dimensions")
            if not np.max(np.abs(e - e.conj().T)) <= ATOL:
                raise ValidationError("POVM element is not finite and Hermitian")
            if np.linalg.eigvalsh(e).min() < -ATOL:
                raise ValidationError("POVM element is not positive semidefinite")
            total += e
        if np.max(np.abs(total - np.eye(d))) > ATOL:
            raise ValidationError("POVM elements do not sum to the identity")
        for e in mats:
            e.flags.writeable = False
        self.elements = tuple(mats)
        self.dim = d

    def __len__(self) -> int:
        return len(self.elements)


class Channel:
    """A trace-preserving channel in Kraus form (dim_out x dim_in operators).

    `output_dims` optionally factors the output space; a channel producing
    several systems at once (e.g. a broadcaster) declares them here.
    """

    def __init__(self, kraus: Sequence[np.ndarray], output_dims: Sequence[int] | None = None) -> None:
        ops = [np.array(k, dtype=complex) for k in kraus]
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        if ops[0].ndim != 2:
            raise ValidationError("Kraus operators must be matrices")
        d_out, d_in = ops[0].shape
        acc = np.zeros((d_in, d_in), dtype=complex)
        for k in ops:
            if k.shape != (d_out, d_in):
                raise DimensionMismatchError("Kraus operators have mixed shapes")
            acc += k.conj().T @ k
        if not np.max(np.abs(acc - np.eye(d_in))) <= ATOL:
            raise ValidationError("Kraus operators are not finite and trace preserving")
        for k in ops:
            k.flags.writeable = False
        self.kraus = tuple(ops)
        self.dim_in = d_in
        self.dim_out = d_out
        self.output_dims = tuple(int(x) for x in output_dims) if output_dims is not None else (d_out,)
        if int(np.prod(self.output_dims)) != d_out:
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
        """Apply to a raw matrix (not necessarily normalized)."""
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (self.dim_in, self.dim_in):
            raise DimensionMismatchError(
                f"channel expects a {self.dim_in}x{self.dim_in} input, got {rho.shape}"
            )
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus:
            out += k @ rho @ k.conj().T
        return out


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
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    if vals.min() < -ATOL:
        raise ValidationError(f"matrix is not PSD (min eigenvalue {vals.min()})")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _psd_inv_sqrt(mat: np.ndarray, cutoff: float = ATOL) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-inverse square root on the support; returns (rho^{-1/2}, support projector)."""
    vals, vecs = np.linalg.eigh(np.asarray(mat, dtype=complex))
    vals = np.clip(vals, 0.0, None)
    on = vals > cutoff
    inv = np.where(on, 1.0 / np.sqrt(np.where(on, vals, 1.0)), 0.0)
    support = (vecs * on.astype(float)) @ vecs.conj().T
    return (vecs * inv) @ vecs.conj().T, support


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2) * trace norm of (a - b) for Hermitian a, b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def kron_all(mats: Sequence[np.ndarray]) -> np.ndarray:
    out = np.asarray(mats[0], dtype=complex)
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


# ---------------------------------------------------------------------------
# Born-rule bridges
# ---------------------------------------------------------------------------


def born_table(
    states: Mapping[str, DensityMatrix],
    povms: Mapping[str, Povm],
    channels: Mapping[str, Channel] | None = None,
    identity: str = "I",
) -> OperationalTheory:
    """Tabulate p(M^x | P, T) = Tr(M_x T(rho_P)) into an operational theory.

    The identity channel is always included under the id `identity`; explicit
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
    chans: dict[str, Channel] = {identity: Channel.identity(dim)}
    for name, chan in (channels or {}).items():
        if name == identity:
            raise ValidationError(f"channel id {identity!r} is reserved for the identity")
        if chan.dim_in != dim or chan.dim_out != dim:
            raise DimensionMismatchError(
                f"channel {name!r} must be {dim}->{dim} to share the theory's measurements"
            )
        chans[name] = chan

    table = {}
    for p_id, rho in states.items():
        for t_id, chan in chans.items():
            evolved = chan.apply(rho.matrix)
            for m_id, povm in povms.items():
                row = np.array([np.trace(e @ evolved).real for e in povm.elements])
                table[(p_id, t_id, m_id)] = row
    measurements = [Measurement(m_id, len(povm)) for m_id, povm in povms.items()]
    return OperationalTheory(
        list(states), list(chans), measurements, table, identity=identity
    )


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
    table = np.zeros(tuple(settings_count) + tuple(outcomes))
    for xs in np.ndindex(*settings_count):
        chosen = [povms_per_party[k][x] for k, x in enumerate(xs)]
        for outs in np.ndindex(*outcomes):
            effect = kron_all([chosen[k].elements[a] for k, a in enumerate(outs)])
            table[xs + outs] = np.trace(effect @ state.matrix).real
    return CorrelationBox(settings_count, outcomes, table)


def bipartite_box(state: DensityMatrix, povms_a: Sequence[Povm], povms_b: Sequence[Povm]) -> CorrelationBox:
    """Two-party Born-rule box; the state's dims must be a 2-factor split."""
    if len(state.dims) != 2:
        raise DimensionMismatchError("bipartite_box needs a state with dims = (d_A, d_B)")
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
    omega = np.zeros(d * d, dtype=complex)
    omega[:: d + 1] = 1.0 / np.sqrt(d)
    dressed = np.outer(omega, omega.conj())
    lifted = [np.kron(k, np.eye(d)) for k in chan.kraus]
    mat = sum(k @ dressed @ k.conj().T for k in lifted)
    return ChoiState(
        DensityMatrix(mat, dims=(chan.dim_out, d)), input_dim=d, output_dim=chan.dim_out
    )


def _kraus_from_in_out(j_mat: np.ndarray, d_in: int, d_out: int, cutoff: float = ATOL) -> list[np.ndarray]:
    """Kraus operators from a PSD operator indexed (input^T, output)."""
    vals, vecs = np.linalg.eigh(j_mat)
    kraus = []
    for lam, v in zip(vals, vecs.T):
        if lam <= cutoff:
            continue
        block = (np.sqrt(lam) * v).reshape(d_in, d_out)
        kraus.append(block.T)  # so that eps(Y) = sum K Y K^dagger
    return kraus


def kraus_from_choi(choi: ChoiState, cutoff: float = ATOL) -> Channel:
    """Recover Kraus operators from a Choi state (inverse of choi_of_channel)."""
    d_in, d_out = choi.input_dim, choi.output_dim
    mat = choi.state.matrix.reshape(d_out, d_in, d_out, d_in)
    j_mat = d_in * mat.transpose(1, 0, 3, 2).reshape(d_in * d_out, d_in * d_out)
    return Channel(_kraus_from_in_out(j_mat, d_in, d_out), output_dims=(d_out,))


def marginal_channel(chan: Channel, keep: int) -> Channel:
    """The single-output view of a multi-output channel: trace out the other factors.

    Kraus operators of the marginal are the blocks (<j| on the dropped
    factors x I on the kept one) K, one per Kraus K and dropped basis index j.
    """
    dims = chan.output_dims
    if not 0 <= keep < len(dims):
        raise DimensionMismatchError(f"no output factor {keep} in {dims}")
    if len(dims) == 1:
        return chan
    kraus = []
    kept_dim = dims[keep]
    drop_dims = [d for i, d in enumerate(dims) if i != keep]
    for k in chan.kraus:
        tensor = k.reshape(tuple(dims) + (chan.dim_in,))
        moved = np.moveaxis(tensor, keep, 0).reshape(kept_dim, -1, chan.dim_in)
        for j in range(int(np.prod(drop_dims))):
            kraus.append(moved[:, j, :])
    return Channel(kraus, output_dims=(kept_dim,))


def conditional_channel(state: DensityMatrix, cutoff: float = ATOL) -> Channel:
    """Channel recovered from a bipartite state, normalized against its first marginal.

    For rho_AB with marginal rho_A, the operator
    (rho_A^{-1/2} x I) rho_AB (rho_A^{-1/2} x I) read as a Choi operator
    yields the unique channel eps with rho_AB = (I x eps)(canonical
    purification of rho_A).  Measuring {M_i} on A then steers B to
    eps(sqrt(rho_A^T) M_i^T sqrt(rho_A^T)) with the correct weights.  When
    rho_A is rank deficient the recovery lives on its support and the channel
    is completed arbitrarily (maximally mixed output) off it.
    """
    dims = state.dims
    if len(dims) < 2:
        raise DimensionMismatchError("conditional_channel needs a state with >= 2 factors")
    d_a = dims[0]
    d_b = state.dim // d_a
    rho_a = partial_trace(state.matrix, (d_a, d_b), keep=(0,))
    inv_sqrt, support = _psd_inv_sqrt(rho_a, cutoff)
    dress = np.kron(inv_sqrt, np.eye(d_b))
    j_mat = dress @ state.matrix @ dress
    comp = np.eye(d_a) - support
    if np.max(np.abs(comp)) > cutoff:
        j_mat = j_mat + np.kron(comp, np.eye(d_b) / d_b)
    j_mat = 0.5 * (j_mat + j_mat.conj().T)
    return Channel(_kraus_from_in_out(j_mat, d_a, d_b), output_dims=dims[1:])


@dataclass(frozen=True)
class LeiferEnsemble:
    """POVM-induced decomposition of a state: weights, branch states, zero flags.

    Branches with weight <= EPS_ZERO get a maximally mixed placeholder state
    and are flagged; their statistics never contribute.
    """

    weights: np.ndarray
    states: tuple[DensityMatrix, ...]
    zero_weight: tuple[bool, ...]


def leifer_ensemble(rho: DensityMatrix, povm: Povm, eps_zero: float = EPS_ZERO) -> LeiferEnsemble:
    """Decompose rho along a POVM: p(i) = Tr(rho M_i), rho_i = sqrt(rho) M_i sqrt(rho) / p(i)."""
    if rho.dim != povm.dim:
        raise DimensionMismatchError("state and POVM dimensions differ")
    root = mat_sqrt(rho.matrix)
    weights = np.array([np.trace(rho.matrix @ e).real for e in povm.elements])
    states = []
    zero = []
    for w, e in zip(weights, povm.elements):
        if w <= eps_zero:
            states.append(DensityMatrix.maximally_mixed(rho.dim))
            zero.append(True)
        else:
            states.append(DensityMatrix(root @ e @ root / w))
            zero.append(False)
    weights = np.clip(weights, 0.0, None)
    weights.flags.writeable = False
    return LeiferEnsemble(weights, tuple(states), tuple(zero))


def transpose_povm(povm: Povm) -> Povm:
    """Elementwise transpose in the computational basis (still a POVM)."""
    return Povm([e.T for e in povm.elements])


def transpose_state(rho: DensityMatrix) -> DensityMatrix:
    """Computational-basis transpose (equals the complex conjugate state)."""
    return DensityMatrix(rho.matrix.T, dims=rho.dims)


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
