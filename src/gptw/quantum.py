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

A POVM's `elements` and a channel's `kraus` are each one read-only (k, d, d)
stack.  One finite-and-Hermitian test, `_check_hermitian`, serves POVMs,
`mat_sqrt`, `trace_distance` and states: `_check_density` checks a stack of
states, such as a POVM's ensemble branches, with `DensityMatrix`'s messages.

The duality layer decomposes each marginal once: `_transposed_state` runs
one `eigh` of rho^T and returns the four things both duality directions
need: the state rho^T (rho's PSD check included), sqrt(rho^T), and
rho^{-1/2} with rho's support, on the conjugated eigenvectors, since
rho = conj(rho^T).  rho^T is not checked again: its entries, diagonal and
spectrum are rho's, so its check would raise exactly when rho's does.

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
from .errors import DimensionMismatchError, PreconditionError, ValidationError
from .theory import EPS_BRANCH, EnsemblePreparation, Measurement, OperationalTheory, integer, number_array

ATOL = 1e-10  # hermiticity / positivity / trace / eigenvalue-cutoff tolerance for quantum objects
CHOI_ATOL = 1e-9


def _matrix(entries, what: str) -> np.ndarray:
    """`entries` as a new complex matrix; a GptwError unless they are numbers in one non-empty square matrix."""
    mat = number_array(entries, what, complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or not mat.size:
        raise ValidationError(f"expected a non-empty square matrix, got shape {mat.shape}")
    return mat


class DensityMatrix:
    """A Hermitian, unit-trace, positive-semidefinite matrix.

    `dims` optionally records a tensor-product factorization (defaults to the
    single factor (dim,)).
    """

    def __init__(self, entries, dims: Sequence[int] | None = None) -> None:
        mat = _matrix(entries, "density matrix entries")
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
        self.dims = (d,) if dims is None else tuple(integer(x, "dims entry") for x in dims)
        # math.prod on Python ints: np.prod wraps in int64, so (3, 6148914691236517206) would give 2
        if any(x < 1 for x in self.dims) or math.prod(self.dims) != d:
            raise DimensionMismatchError(f"dims {self.dims} do not factor dimension {d}")
        mat.flags.writeable = False
        self.matrix = mat

    @classmethod
    @np.errstate(over="ignore")  # a huge entry gives norm inf, refused below
    def pure(cls, vec: Sequence[complex], dims: Sequence[int] | None = None) -> "DensityMatrix":
        v = number_array(vec, "pure state amplitudes", complex).reshape(-1)
        norm = np.linalg.norm(v)
        if not 0 < norm < np.inf:  # NaN fails too
            raise ValidationError(f"a pure state needs a nonzero finite vector, got norm {norm}")
        return cls(np.outer(v / norm, (v / norm).conj()), dims)

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        dim = integer(dim, "dimension", 1)
        return cls(np.eye(dim) / dim)


def _check_hermitian(stack: np.ndarray, what: str) -> None:
    """A ValidationError unless every matrix of the non-empty (..., d, d) `stack` is finite and Hermitian to ATOL."""
    # negated so that NaN and inf fail it, quietly under the np.errstate each caller holds: the difference is non-finite
    if not np.abs(stack - stack.conj().swapaxes(-1, -2)).max() <= ATOL:
        raise ValidationError(f"{what} is not finite and Hermitian")


@np.errstate(invalid="ignore", over="ignore")  # inf and huge entries fail the checks below, not as warnings
def _check_density(stack: np.ndarray, eigvals: np.ndarray | None = None) -> None:
    """`DensityMatrix`'s checks, with its messages, on every matrix of a (k, d, d) stack.

    Hermiticity as one max over the stack, then the traces, then positivity:
    on `eigvals` when the caller already holds the stack's spectrum, else by
    one batched `eigvalsh`.  With several defective matrices the first failing
    check kind is reported, and within it the first matrix.
    """
    _check_hermitian(stack, "density matrix")
    traces = np.trace(stack, axis1=1, axis2=2)
    for k, t in enumerate(traces.tolist()):  # a Python loop: a stack holds a few states, often one
        if abs(t.real - 1.0) > ATOL or abs(t.imag) > ATOL:
            raise ValidationError(f"density matrix has trace {traces[k]}, not 1")
    if (np.linalg.eigvalsh(stack) if eigvals is None else eigvals).min() < -ATOL:
        raise ValidationError("density matrix has a negative eigenvalue")


class Povm:
    """Positive effects summing to the identity; `elements[k]` of the read-only (k, d, d) stack is the k-th."""

    @np.errstate(invalid="ignore", over="ignore")  # as on `_check_density`
    def __init__(self, elements: Sequence[np.ndarray] | np.ndarray) -> None:
        stack = number_array(elements, "POVM elements", complex)
        if stack.shape[:1] == (0,):
            raise ValidationError("POVM needs at least one element")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not stack.size:
            raise ValidationError(f"expected a non-empty square matrix, got shape {stack.shape[1:]}")
        d = stack.shape[1]
        _check_hermitian(stack, "POVM element")
        if np.linalg.eigvalsh(stack).min() < -ATOL:
            raise ValidationError("POVM element is not positive semidefinite")
        if np.abs(stack.sum(axis=0) - np.eye(d)).max() > ATOL:
            raise ValidationError("POVM elements do not sum to the identity")
        stack.flags.writeable = False
        self.elements = stack
        self.dim = d

    def __len__(self) -> int:
        return len(self.elements)


class Channel:
    """A trace-preserving channel in Kraus form: `kraus[k]` of the read-only (k, dim_out, dim_in) stack is the k-th.

    `output_dims` optionally factors the output space; a channel producing
    several systems at once (e.g. a broadcaster) declares them here.
    """

    @np.errstate(invalid="ignore", over="ignore")  # as on `_check_density`
    def __init__(self, kraus: Sequence[np.ndarray] | np.ndarray, output_dims: Sequence[int] | None = None) -> None:
        stack = number_array(kraus, "Kraus operators", complex)
        if stack.shape[:1] == (0,):
            raise ValidationError("channel needs at least one Kraus operator")
        if stack.ndim != 3 or not stack.size:
            raise ValidationError(f"Kraus operators must be non-empty matrices, got shape {stack.shape[1:]}")
        d_out, d_in = stack.shape[1:]
        flat = stack.reshape(-1, d_in)
        if not np.abs(flat.conj().T @ flat - np.eye(d_in)).max() <= ATOL:
            raise ValidationError("Kraus operators are not finite and trace preserving")
        stack.flags.writeable = False
        self.kraus = stack
        self.dim_in = d_in
        self.dim_out = d_out
        self.output_dims = (d_out,) if output_dims is None else tuple(integer(x, "output dim") for x in output_dims)
        if any(x < 1 for x in self.output_dims) or math.prod(self.output_dims) != d_out:
            raise DimensionMismatchError(f"output_dims {self.output_dims} do not factor output dimension {d_out}")

    @classmethod
    def identity(cls, dim: int) -> "Channel":
        return cls([np.eye(integer(dim, "dimension", 1))])

    @classmethod
    def unitary(cls, u: np.ndarray) -> "Channel":
        return cls([u])

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply to a raw matrix (not necessarily normalized), or to a stack of them along leading axes.

        sum_k K_k rho K_k^dagger as two matrix products per input: the Kraus
        operators stacked as rows, (k d_out, d_in) @ rho, gives every K_k rho;
        regrouped side by side as (d_out, k d_in), they meet the adjoints
        stacked as rows, (k d_in, d_out), and that one product sums over k.
        """
        rho = number_array(rho, "channel input entries", complex)
        if rho.shape[-2:] != (self.dim_in, self.dim_in):
            raise DimensionMismatchError(
                f"channel expects a {self.dim_in}x{self.dim_in} input, got {rho.shape}"
            )
        stack = self.kraus
        k, d_out, d_in = stack.shape
        lead = rho.shape[:-2]
        left = (stack.reshape(k * d_out, d_in) @ rho).reshape(lead + (k, d_out, d_in))
        side_by_side = left.swapaxes(-3, -2).reshape(lead + (d_out, k * d_in))
        return side_by_side @ stack.conj().transpose(0, 2, 1).reshape(k * d_in, d_out)


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
    """Trace out all subsystems not listed in `keep` (which must be strictly ascending)."""
    dims = tuple(integer(x, "dims entry") for x in dims)
    n = len(dims)
    keep = tuple(integer(i, "keep entry") for i in keep)
    if any(b <= a for a, b in zip(keep, keep[1:])):
        raise PreconditionError(f"keep indices must be strictly ascending, got {keep}")
    if keep and not (0 <= keep[0] and keep[-1] < n):
        raise PreconditionError(f"keep indices must lie in 0..{n - 1}, got {keep}")
    mat = number_array(mat, "matrix entries", complex)
    if any(x < 1 for x in dims) or mat.shape != (math.prod(dims),) * 2:
        raise DimensionMismatchError(f"dims {dims} do not factor a square matrix of shape {mat.shape}")
    tensor = mat.reshape(dims + dims)
    n_rows = n
    for i in sorted((i for i in range(n) if i not in keep), reverse=True):
        tensor = np.trace(tensor, axis1=i, axis2=i + n_rows)
        n_rows -= 1
    d_keep = math.prod(dims[i] for i in keep)
    return tensor.reshape(d_keep, d_keep)


@np.errstate(invalid="ignore", over="ignore")  # as on `_check_density`
def mat_sqrt(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a finite Hermitian matrix; eigenvalues in [-1e-10, 0) are clamped to 0."""
    mat = _matrix(mat, "matrix entries")
    _check_hermitian(mat, "matrix")
    return _sqrt_from(*np.linalg.eigh(mat))


def _sqrt_from(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """`mat_sqrt`, PSD and finite-spectrum check included, of the matrix with this `eigh` decomposition."""
    if not -ATOL <= vals[0] <= vals[-1] < np.inf:  # `eigh` sorts them ascending; huge entries can overflow them
        raise ValidationError(f"matrix is not PSD with a finite spectrum: eigenvalues in [{vals[0]}, {vals[-1]}]")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _inv_sqrt_from(vals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho^{-1/2} on the support, support projector) of the PSD matrix with this `eigh` decomposition."""
    on = vals > ATOL
    inv = np.where(on, 1.0 / np.sqrt(np.where(on, vals, 1.0)), 0.0)
    support = (vecs * on.astype(float)) @ vecs.conj().T
    return (vecs * inv) @ vecs.conj().T, support


def _transposed_state(mat: np.ndarray) -> tuple[DensityMatrix, np.ndarray, np.ndarray, np.ndarray]:
    """From one `eigh` of mat^T: (the state mat^T, sqrt(mat^T), mat^{-1/2}, mat's support projector).

    Runs `DensityMatrix`'s checks on `mat`, with the eigenvalues of the one
    decomposition.  They also settle mat^T: its |M - M^dagger| entries and
    its diagonal are mat's, and a Hermitian matrix and its transpose have one
    spectrum, so a check of mat^T raises exactly when this one does.  Since
    mat = conj(mat^T), the conjugated eigenvectors decompose `mat` itself.
    """
    mat_t = mat.T
    vals, vecs = np.linalg.eigh(mat_t)
    _check_density(mat[None], vals)
    return (DensityMatrix._checked(mat_t), _sqrt_from(vals, vecs), *_inv_sqrt_from(vals, vecs.conj()))


@np.errstate(invalid="ignore", over="ignore")  # a non-finite difference is refused; a distance past 1e308 is inf
def trace_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """(1/2) * trace norm of (a - b), whose difference must be finite and Hermitian.

    Stacks of matrices along matching leading axes give one distance per
    pair, from one batched `eigvalsh`; two matrices give a float.
    """
    a = number_array(a, "matrix entries", complex)
    b = number_array(b, "matrix entries", complex)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.size:
        raise DimensionMismatchError(f"non-empty square matrices of one shape needed, got {a.shape}, {b.shape}")
    diff = a - b
    _check_hermitian(diff, "matrix difference")
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


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
    stack = np.concatenate([povm.elements for povm in povms.values()])[None]
    ends = np.cumsum([len(povm) for povm in povms.values()])[:-1]
    table = {}
    for p_id, rho in states.items():
        for t_id, chan in chans.items():
            rows = np.split(_born(chan.apply(rho.matrix), (dim,), [stack])[0], ends)
            table.update(((p_id, t_id, m_id), row) for m_id, row in zip(povms, rows))
    measurements = [Measurement(m_id, len(povm)) for m_id, povm in povms.items()]
    return OperationalTheory(list(states), list(chans), measurements, table)


def _check_povm_dims(dims: Sequence[int], povm_lists: Sequence[Sequence[Povm]], count_error: str,
                     label: str = "party", factor: str = "system") -> None:
    """One list of POVMs per factor, each on that factor; else a DimensionMismatchError, `count_error` for the count."""
    if len(dims) != len(povm_lists):
        raise DimensionMismatchError(count_error)
    for k, (d, povms) in enumerate(zip(dims, povm_lists)):
        for povm in povms:
            if povm.dim != d:
                raise DimensionMismatchError(f"{label} {k}: POVM dim {povm.dim} != {factor} dim {d}")


def multipartite_box(state: DensityMatrix, povms_per_party: Sequence[Sequence[Povm]]) -> CorrelationBox:
    """Correlation box p(a_1..a_n | x_1..x_n) = Tr((M_1 x ... x M_n) rho).

    One list of POVMs (the settings) per party; the state's `dims` must have
    one factor per party.  Supports n in {2, 3}.
    """
    dims = state.dims
    n, lists = len(dims), len(povms_per_party)
    _check_povm_dims(dims, povms_per_party, f"state factors into {n} systems but {lists} measurement lists given")
    if n not in (2, 3):
        raise DimensionMismatchError("only 2- and 3-party boxes are supported")
    outcomes = []
    for party, settings in enumerate(povms_per_party):
        if not settings:
            raise ValidationError(f"party {party} has no measurement settings")
        arities = {len(p) for p in settings}
        if len(arities) != 1:
            raise ValidationError(f"party {party}: settings must share one outcome arity")
        outcomes.append(arities.pop())
    settings_count = [len(s) for s in povms_per_party]
    # each party's effects stacked as (settings, outcomes, d, d)
    table = _born(state.matrix, dims, [np.array([p.elements for p in s]) for s in povms_per_party])
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
    vecs = chan.kraus.reshape(len(chan.kraus), -1) / np.sqrt(d)
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
    purifying vector of rho_A).  Measuring {M_i} on A then steers B to
    eps(sqrt(rho_A^T) M_i^T sqrt(rho_A^T)) with the correct weights.  When
    rho_A is rank deficient the recovery lives on its support and the channel
    is completed arbitrarily (maximally mixed output) off it.
    """
    if len(state.dims) < 2:
        raise DimensionMismatchError("conditional_channel needs a state with >= 2 factors")
    d_a = state.dims[0]
    rho_a = partial_trace(state.matrix, (d_a, state.dim // d_a), keep=(0,))
    return _conditional_channel(state, *_inv_sqrt_from(*np.linalg.eigh(rho_a)))


def _conditional_channel(state: DensityMatrix, inv_sqrt: np.ndarray, support: np.ndarray) -> Channel:
    """`conditional_channel` from rho_A^{-1/2} and rho_A's support projector, which the caller computed."""
    dims = state.dims
    d_a = dims[0]
    d_b = state.dim // d_a
    dress = _kron(inv_sqrt, np.eye(d_b))
    j_mat = dress @ state.matrix @ dress
    comp = np.eye(d_a) - support
    if np.abs(comp).max() > ATOL:
        j_mat = j_mat + _kron(comp, np.eye(d_b) / d_b)
    j_mat = 0.5 * (j_mat + j_mat.conj().T)
    return Channel(_kraus_from_in_out(j_mat, d_a, d_b), output_dims=dims[1:])


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two square matrices, bit for bit, as one broadcast product and a reshape."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def leifer_ensemble(rho: DensityMatrix, povm: Povm) -> EnsemblePreparation:
    """Decompose rho along a POVM: p(i) = Tr(rho M_i), rho_i = sqrt(rho) M_i sqrt(rho) / p(i).

    A branch with weight <= EPS_BRANCH gets a maximally mixed placeholder
    state; its statistics never contribute.  The live branch states are
    checked as one stack, with `DensityMatrix`'s messages.
    """
    if rho.dim != povm.dim:
        raise DimensionMismatchError("state and POVM dimensions differ")
    return _leifer_ensemble(rho, povm.elements, mat_sqrt(rho.matrix))


def _leifer_ensemble(rho: DensityMatrix, effects: np.ndarray, root: np.ndarray) -> EnsemblePreparation:
    """`leifer_ensemble` along a checked effect stack of rho's dimension, with sqrt(rho) computed by the caller."""
    weights = (effects.reshape(len(effects), -1) @ rho.matrix.T.reshape(-1)).real  # Tr(rho M_k) as one matvec
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
    return Povm(povm.elements.transpose(0, 2, 1))


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
    obs = _matrix(obs, "observable entries")
    return Povm([(np.eye(len(obs)) + obs) / 2, (np.eye(len(obs)) - obs) / 2])


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
    dim = integer(dim, "dimension", 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = g @ g.conj().T
    return DensityMatrix(mat / np.trace(mat).real, dims=dims)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    dim = integer(dim, "dimension", 1)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Povm:
    """Random full-rank POVM: normalize Wishart blocks against their sum."""
    dim = integer(dim, "dimension", 1)
    blocks = []
    for _ in range(integer(n_outcomes, "outcome count", 1)):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        blocks.append(g @ g.conj().T)
    total = sum(blocks)
    inv_sqrt, _ = _inv_sqrt_from(*np.linalg.eigh(total))
    return Povm([inv_sqrt @ b @ inv_sqrt for b in blocks])


def random_projective_qubit(rng: np.random.Generator) -> Povm:
    """Projective qubit measurement along a uniformly random Bloch direction."""
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    obs = v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z
    return povm_from_observable(obs)


def random_channel(dim_in: int, dim_out: int, kraus_count: int, rng: np.random.Generator) -> Channel:
    """Random channel via a Haar-ish isometry split into Kraus blocks; refused if kraus_count * dim_out < dim_in."""
    dim_in = integer(dim_in, "dim_in", 1)
    dim_out = integer(dim_out, "dim_out", 1)
    kraus_count = integer(kraus_count, "kraus_count", 1)
    if kraus_count * dim_out < dim_in:  # the reduced QR below would have only kraus_count * dim_out columns
        raise PreconditionError(f"an isometry needs kraus_count * dim_out >= {dim_in}, got {kraus_count} * {dim_out}")
    shape = (dim_out * kraus_count, dim_in)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q, _ = np.linalg.qr(g)  # columns orthonormal: q^dagger q = I_{dim_in}
    return Channel(q.reshape(kraus_count, dim_out, -1))  # row block k is the k-th Kraus operator
