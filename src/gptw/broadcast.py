"""Broadcasting of commuting families and the monogamy-violation constructor.

A set of states can be broadcast (both output marginals equal to the input)
iff it commutes pairwise.  For commuting families the channel below measures
in a common eigenbasis and reprepares the outcome twice; for non-commuting
families `interference_flag` records that any algebraic representation of
the statistics must be non-commutative, i.e. the theory shows interference.

`theorem1_construct` is the executable content of the broadcast/monogamy
clash: given any bipartite box with a CHSH witness of size v, wire the box's
Alice variable (read as an ensemble branch) to two wings at once.  Each wing
then shares the full original correlation with the branch, so the middle
party holds two CHSH values of v simultaneously and the strong monogamy
combination reaches 2 v^2, exceeding 8 exactly when v > 2.  The wings are
conditionally independent given the branch; no physical channel is claimed
(the point is that such a box cannot arise without signalling).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .correlations import (
    ChshValue,
    CorrelationBox,
    MonogamyReport,
    _monogamy_scan,
    chsh,
    is_bell_nonlocal,
)
from .errors import DimensionMismatchError, PreconditionError, ValidationError
from .theory import EPS_NORM, number_array

if TYPE_CHECKING:  # only broadcast_commuting needs quantum; it imports it when called
    from .quantum import Channel, DensityMatrix

COMMUTE_TOL = 1e-9
EIGEN_GAP = 1e-7  # `_common_eigenbasis`: eigenvalues closer than this, relative to the spectrum, share a block


@np.errstate(invalid="ignore", over="ignore")  # non-finite input and an overflowing commutator are refused below
def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry norm of [a, b] = ab - ba; a ValidationError unless a, b and the commutator are finite."""
    a = number_array(a, "matrix entries", complex)
    b = number_array(b, "matrix entries", complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise DimensionMismatchError(f"commutator_norm needs non-empty square matrices of one shape: {a.shape} {b.shape}")
    comm = a @ b - b @ a
    if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(comm).all()):
        raise ValidationError("commutator_norm needs finite matrices with a finite commutator")
    return float(np.abs(comm).max())


def pairwise_commuting(states: Sequence[DensityMatrix], tol: float = COMMUTE_TOL) -> bool:
    """True iff every pair of states has commutator max-norm <= tol."""
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionMismatchError("states have mixed dimensions")
    mats = [s.matrix for s in states]  # checked states: finite, entries within 1, so no cast or check per pair
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if not np.abs(mats[i] @ mats[j] - mats[j] @ mats[i]).max() <= tol:  # a NaN tol fails
                return False
    return True


def interference_flag(states: Sequence[DensityMatrix], tol: float = COMMUTE_TOL) -> bool:
    """True iff the family is non-commuting at `tol` (so no commutative representation exists).

    Always the negation of `pairwise_commuting(states, tol)`, which is True for fewer than two states.
    """
    return not pairwise_commuting(states, tol)


def _common_eigenbasis(mats: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis simultaneously diagonalizing a commuting Hermitian family.

    Refines orthonormal blocks, starting from one block that spans the space:
    each operator in turn is diagonalized on every block wider than one
    column (as block^dagger M block), and the block splits wherever two
    consecutive eigenvalues differ by more than EIGEN_GAP relative to that
    spectrum.  An operator that commutes with the earlier ones keeps their
    joint eigenspaces, so the blocks left after the last operator are joint
    eigenspaces, and their columns side by side diagonalize every operator.
    """
    if not mats:
        raise PreconditionError("empty operator family")
    blocks = [np.eye(mats[0].shape[0], dtype=complex)]
    for m in mats:
        refined = []
        for block in blocks:
            if block.shape[1] == 1:
                refined.append(block)
                continue
            vals, vecs = np.linalg.eigh(block.conj().T @ m @ block)
            cuts = np.flatnonzero(np.diff(vals) > EIGEN_GAP * max(1.0, float(np.abs(vals).max()))) + 1
            refined.extend(np.split(block @ vecs, cuts, axis=1))
        blocks = refined
    return np.hstack(blocks)


@dataclass(frozen=True)
class BroadcastCheck:
    """Per-state worst marginal deviation of a candidate broadcast channel."""

    errors: tuple[float, ...]
    max_error: float


def broadcast_commuting(states: Sequence[DensityMatrix], tol: float = COMMUTE_TOL) -> tuple[Channel, BroadcastCheck]:
    """Broadcast channel for a pairwise-commuting family, with its marginal errors.

    Measures in the common eigenbasis of `_common_eigenbasis` (deterministic:
    the same family gives the same channel) and reprepares the outcome on
    both outputs; each output marginal then reproduces any input diagonal in
    that basis.  The errors are each state's worst output-marginal trace
    distance, computed through the channel built: one `apply` on the stacked
    family, both marginals as traces of the stacked outputs, and every
    distance from one batched `trace_distance`.  Non-commuting input is
    rejected.
    """
    if not states:
        raise PreconditionError("empty state family")
    if not pairwise_commuting(states, tol):
        raise PreconditionError("states do not commute pairwise; broadcasting impossible")
    from .quantum import Channel, trace_distance

    d = states[0].dim
    mats = np.array([s.matrix for s in states])
    cols = _common_eigenbasis(list(mats)).T  # cols[k] is the k-th basis vector e_k
    pairs = (cols[:, :, None] * cols[:, None, :]).reshape(d, d * d)  # pairs[k] = kron(e_k, e_k)
    kraus = pairs[:, :, None] * cols.conj()[:, None, :]  # K_k = |e_k e_k><e_k|
    channel = Channel(kraus, output_dims=(d, d))
    out = channel.apply(mats).reshape(len(mats), d, d, d, d)  # axes (state, a, b, a', b')
    marginals = np.stack([np.trace(out, axis1=2, axis2=4), np.trace(out, axis1=1, axis2=3)], axis=1)
    errors = trace_distance(marginals, np.stack([mats, mats], axis=1)).max(axis=1)
    return channel, BroadcastCheck(tuple(errors.tolist()), float(errors.max()))


@dataclass(frozen=True)
class Theorem1Result:
    """Tripartite box built by broadcasting a Bell witness, plus its verdicts."""

    box: CorrelationBox
    witness: ChshValue
    chsh_ab: float
    chsh_ac: float
    squared_sum: float
    strong_monogamy: MonogamyReport
    ns_monogamy: MonogamyReport


def theorem1_construct(box2: CorrelationBox, tol: float = 1e-6) -> Theorem1Result:
    """Duplicate the Alice variable of a CHSH-witnessing box into two wings.

    Party order of the output: A = the branch (original Alice variable),
    B and C = the wings, each carrying the original box's conditional
    statistics.  Both pair marginals AB and AC equal the input box at the
    witness settings, so B_AB = B_AC = v and the squared sum is 2 v^2.
    Requires a witness of at least 2 (the boundary case is allowed and lands
    exactly on the strong-monogamy bound) and an input that does not signal
    at the witness settings: Alice's marginal p(a|x) must not move with
    Bob's setting by more than EPS_NORM, since the branch distribution is
    read off one of Bob's settings.
    """
    _, witness = is_bell_nonlocal(box2)
    v = abs(witness.value)
    if v < 2.0 - 1e-9:
        raise PreconditionError(f"no CHSH witness >= 2 (best |B| = {v:.6f})")
    xs = witness.a_settings
    ys = witness.b_settings
    pair = box2.table[np.ix_(xs, ys)]  # p(a, b | x, y) at the witness settings
    alice = pair.sum(axis=3)  # p(a | x, y)
    drift = float(np.max(np.abs(alice[:, 0] - alice[:, 1])))
    if drift > EPS_NORM:
        raise PreconditionError(
            f"the box signals: Alice's marginal at settings {list(xs)} moves by {drift:.3e} "
            f"between Bob's settings {list(ys)}"
        )

    cond = np.divide(pair, alice[..., None], out=np.zeros_like(pair), where=alice[..., None] > 0)  # p(b | a, x, y)
    # axes [x, y, z, a, b, c]: p(a | x) read off Bob's first witness setting, times p(b | a, x, y) p(c | a, x, z)
    table = alice[:, 0, None, None, :, None, None] * (cond[:, :, None, :, :, None] * cond[:, None, :, :, None, :])
    box3 = CorrelationBox((2, 2, 2), (2, 2, 2), table)
    value_ab = chsh(box3, parties=(0, 1)).value
    value_ac = chsh(box3, parties=(0, 2)).value
    squared = value_ab**2 + value_ac**2
    ns, strong = _monogamy_scan(box3, tol)
    return Theorem1Result(box3, witness, value_ab, value_ac, squared, strong, ns)
