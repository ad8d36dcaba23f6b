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
from typing import Sequence

import numpy as np

from .correlations import (
    ChshValue,
    CorrelationBox,
    MonogamyReport,
    check_ns_monogamy,
    check_strong_monogamy,
    chsh,
    is_bell_nonlocal,
)
from .errors import DimensionMismatchError, PreconditionError, ValidationError
from .quantum import Channel, DensityMatrix, partial_trace, trace_distance

COMMUTE_TOL = 1e-9


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry norm of [a, b] = ab - ba."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    return float(np.max(np.abs(a @ b - b @ a)))


def pairwise_commuting(states: Sequence[DensityMatrix], tol: float = COMMUTE_TOL) -> bool:
    """True iff every pair of states has commutator max-norm <= tol."""
    dims = {s.dim for s in states}
    if len(dims) > 1:
        raise DimensionMismatchError("states have mixed dimensions")
    mats = [s.matrix for s in states]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if commutator_norm(mats[i], mats[j]) > tol:
                return False
    return True


def interference_flag(states: Sequence[DensityMatrix]) -> bool:
    """True iff the family is non-commuting (so no commutative representation exists)."""
    if len(states) < 2:
        return False
    return not pairwise_commuting(states)


def _common_eigenbasis(
    mats: list[np.ndarray], rng: np.random.Generator, gap: float = 1e-7, depth: int = 16
) -> np.ndarray:
    """Orthonormal basis simultaneously diagonalizing a commuting Hermitian family.

    Diagonalizes a random Hermitian combination, then recurses into any
    degenerate eigenspace with the operators projected onto it; subspaces on
    which all operators are scalar accept any orthonormal basis.  `depth`
    bounds the recursion (fresh random weights split a genuine block with
    probability 1, so the bound only guards against pathological inputs).
    """
    if not mats:
        raise PreconditionError("empty operator family")
    if depth <= 0:
        raise ValidationError("simultaneous diagonalization did not converge")
    d = mats[0].shape[0]
    weights = rng.normal(size=len(mats))
    h = sum(w * m for w, m in zip(weights, mats))
    h = 0.5 * (h + h.conj().T)
    vals, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(np.max(np.abs(vals))))
    columns: list[np.ndarray] = []
    start = 0
    for stop in range(1, d + 1):
        if stop < d and vals[stop] - vals[stop - 1] <= gap * scale:
            continue
        block = vecs[:, start:stop]
        width = stop - start
        if width == 1:
            columns.append(block[:, 0])
        else:
            projected = [block.conj().T @ m @ block for m in mats]
            if all(
                np.max(np.abs(p - np.trace(p) / width * np.eye(width))) <= gap * scale
                for p in projected
            ):
                columns.extend(block.T)  # all scalar here: any orthonormal basis works
            else:
                sub = _common_eigenbasis(projected, rng, gap, depth - 1)
                columns.extend((block @ sub).T)
        start = stop
    return np.stack(columns, axis=1)


@dataclass(frozen=True)
class BroadcastCheck:
    """Per-state worst marginal deviation of a candidate broadcast channel."""

    errors: tuple[float, ...]
    max_error: float


def broadcast_commuting(
    states: Sequence[DensityMatrix], tol: float = COMMUTE_TOL, seed: int = 7
) -> tuple[Channel, BroadcastCheck]:
    """Broadcast channel for a pairwise-commuting family, with its marginal errors.

    Measures in a common eigenbasis and reprepares the outcome on both
    outputs; each output marginal then reproduces any input diagonal in that
    basis.  Non-commuting input is rejected.
    """
    if not states:
        raise PreconditionError("empty state family")
    if not pairwise_commuting(states, tol):
        raise PreconditionError("states do not commute pairwise; broadcasting impossible")
    d = states[0].dim
    basis = _common_eigenbasis([s.matrix for s in states], np.random.default_rng(seed))
    kraus = []
    for k in range(d):
        e = basis[:, k]
        kraus.append(np.outer(np.kron(e, e), e.conj()))
    channel = Channel(kraus, output_dims=(d, d))
    errors = []
    for s in states:
        out = channel.apply(s.matrix)
        err_a = trace_distance(partial_trace(out, (d, d), keep=(0,)), s.matrix)
        err_b = trace_distance(partial_trace(out, (d, d), keep=(1,)), s.matrix)
        errors.append(max(err_a, err_b))
    return channel, BroadcastCheck(tuple(errors), max(errors))


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
    exactly on the strong-monogamy bound); assumes a non-signalling input.
    """
    _, witness = is_bell_nonlocal(box2)
    v = abs(witness.value)
    if v < 2.0 - 1e-9:
        raise PreconditionError(f"no CHSH witness >= 2 (best |B| = {v:.6f})")
    xs = witness.a_settings
    ys = witness.b_settings

    table = np.zeros((2, 2, 2, 2, 2, 2))
    for x in range(2):
        # branch distribution read off the y = ys[0] slice (exact for NS input)
        slice0 = box2.table[xs[x], ys[0]]
        p_branch = slice0.sum(axis=1)
        for y in range(2):
            pab = box2.table[xs[x], ys[y]]
            marg_y = pab.sum(axis=1)
            for z in range(2):
                pac = box2.table[xs[x], ys[z]]
                marg_z = pac.sum(axis=1)
                for a in range(2):
                    if p_branch[a] <= 0 or marg_y[a] <= 0 or marg_z[a] <= 0:
                        continue
                    cond_b = pab[a] / marg_y[a]
                    cond_c = pac[a] / marg_z[a]
                    table[x, y, z, a] = p_branch[a] * np.outer(cond_b, cond_c)
    box3 = CorrelationBox((2, 2, 2), (2, 2, 2), table)
    value_ab = chsh(box3, parties=(0, 1)).value
    value_ac = chsh(box3, parties=(0, 2)).value
    squared = value_ab**2 + value_ac**2
    return Theorem1Result(
        box3,
        witness,
        value_ab,
        value_ac,
        squared,
        check_strong_monogamy(box3, tol),
        check_ns_monogamy(box3, tol),
    )
