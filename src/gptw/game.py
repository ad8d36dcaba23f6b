"""CHSH-game strategies and the fine-grained uncertainty bound.

The chain implemented here: for two-dimensional (three affine parameters)
systems, any preparation's outcome statistics under three mutually
independent binary measurements form a triple (i, j, k) that sits inside a
quadruple of preparations differing only by flips of i and j.  Mixing the
quadruple pairwise gives two indistinguishable 50/50 ensembles, which the
duality layer converts into one shared bipartite preparation with two
Alice-side measurements; that is a CHSH-game strategy whose winning
probability is exactly (i + j) / 2.  Capping the winning probability at the
quantum game value cos^2(pi/8) = (1 + 1/sqrt(2)) / 2 therefore caps
p(m|M1) + p(n|M2) at 1 + 1/sqrt(2) for every preparation and outcome pair,
which `check_finegrained` verifies directly on a theory table.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import CorrelationBox
from .duality import temporal_to_spatial, temporal_scenario
from .errors import ArityError, PreconditionError, ValidationError
from .quantum import (
    Channel,
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Povm,
    bipartite_box,
)
from .theory import (
    EnsemblePreparation,
    OperationalTheory,
    _identity_statistics,
    affine_dimension,
    are_orthogonal,
)

TSIRELSON_WIN = float(np.cos(np.pi / 8) ** 2)  # = (1 + 1/sqrt(2)) / 2
FINEGRAINED_BOUND = float(1.0 + 1.0 / np.sqrt(2.0))
BALANCE_TOL = 1e-6
MAX_ROUNDS = 10**7  # `simulate_game` holds about 0.3 GB of sampling arrays at this many rounds


@dataclass(frozen=True)
class UncertaintyTriple:
    """Outcome-0 probabilities of three independent binary measurements."""

    i: float
    j: float
    k: float

    def __post_init__(self) -> None:
        for name in ("i", "j", "k"):
            v = float(getattr(self, name))
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name} = {v} outside [0, 1]")
            object.__setattr__(self, name, v)


def build_quadruple(t: UncertaintyTriple) -> tuple[tuple[float, float, float], ...]:
    """The four parameter vectors (i,j,k), (1-i,1-j,k), (i,1-j,k), (1-i,j,k)."""
    i, j, k = t.i, t.j, t.k
    return ((i, j, k), (1 - i, 1 - j, k), (i, 1 - j, k), (1 - i, j, k))


def win_probability(t: UncertaintyTriple) -> float:
    """Winning probability (i + j) / 2 of the quadruple's game strategy."""
    return (t.i + t.j) / 2.0


@dataclass(frozen=True)
class GameStrategy:
    """Shared bipartite preparation with two measurements per player.

    Alice's measurements must have uniform outcome statistics on the shared
    state (p(a|c) = 1/2); `simulate_game` enforces this for strategy inputs.
    """

    state: DensityMatrix
    alice: tuple[Povm, Povm]
    bob: tuple[Povm, Povm]

    def box(self) -> CorrelationBox:
        return bipartite_box(self.state, list(self.alice), list(self.bob))


def game_value(box: CorrelationBox) -> float:
    """Exact winning rate (1/4) sum_{c,d} sum_{a xor b = c.d} p(ab|cd), as the nearest float.

    The 8 winning entries are summed by `math.fsum`, correctly rounded, and
    dividing by 4 keeps that, also where the quotient is subnormal (a sum
    below 2**-1021 is exact).
    """
    if box.settings != (2, 2) or box.outcomes != (2, 2):
        raise ArityError("the game needs a 2-setting 2-outcome bipartite box")
    p = box.table.tolist()
    return math.fsum(p[c][d][a][a ^ (c & d)] for c in range(2) for d in range(2) for a in range(2)) / 4.0


@dataclass(frozen=True)
class GameReport:
    """Exact and sampled winning rates against the quantum game bound."""

    exact_rate: float
    empirical_rate: float
    rounds: int
    seed: int
    bound: float
    passed: bool  # exact rate within the quantum cap
    sampling_consistent: bool  # |exact - empirical| <= 4/sqrt(rounds)


def simulate_game(
    strategy: GameStrategy | CorrelationBox,
    seed: int,
    rounds: int,
    tol: float = 1e-6,
) -> GameReport:
    """Play the game with uniform inputs: exact rate by summation, empirical by sampling.

    Quantum strategies must have balanced Alice marginals (p(a|c) = 1/2
    within 1e-6); raw boxes are evaluated as-is, covering deterministic and
    table-level strategies.  `rounds` runs from 1 to MAX_ROUNDS.
    """
    if isinstance(strategy, GameStrategy):
        box = strategy.box()
        for c in range(2):
            marg = box.prob((c, 0)).sum(axis=1)
            if np.max(np.abs(marg - 0.5)) > BALANCE_TOL:
                raise PreconditionError(
                    f"strategy error: p(a|c={c}) = {marg} is not uniform"
                )
    else:
        box = strategy
    if rounds < 1:
        raise ValidationError("rounds must be positive")
    if rounds > MAX_ROUNDS:
        raise ValidationError(f"rounds must be at most {MAX_ROUNDS}, got {rounds}")
    exact = game_value(box)

    rng = np.random.default_rng(seed)
    cs = rng.integers(0, 2, size=rounds)
    ds = rng.integers(0, 2, size=rounds)
    wins = 0
    for c in range(2):
        for d in range(2):
            n = int(np.sum((cs == c) & (ds == d)))
            flat = box.prob((c, d)).reshape(-1)
            flat = flat / flat.sum()
            draws = rng.choice(4, size=n, p=flat)
            a, b = draws // 2, draws % 2
            wins += int(np.sum((a ^ b) == (c & d)))
    empirical = wins / rounds
    return GameReport(
        exact_rate=exact,
        empirical_rate=empirical,
        rounds=rounds,
        seed=seed,
        bound=TSIRELSON_WIN,
        passed=bool(exact <= TSIRELSON_WIN + tol),
        sampling_consistent=bool(abs(exact - empirical) <= 4.0 / np.sqrt(rounds)),
    )


# ---------------------------------------------------------------------------
# Quantum construction of the strategy from a triple
# ---------------------------------------------------------------------------


def _bloch_of_effect(effect: np.ndarray) -> tuple[float, np.ndarray]:
    """(weight, bloch vector) of a qubit effect e = w I/.. ; here e = (I + n.sigma)/2."""
    n = np.array(
        [
            np.trace(effect @ PAULI_X).real,
            np.trace(effect @ PAULI_Y).real,
            np.trace(effect @ PAULI_Z).real,
        ]
    )
    w = np.trace(effect).real
    return w, n


def _state_from_bloch(r: np.ndarray) -> DensityMatrix:
    mat = 0.5 * (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
    return DensityMatrix(mat)


def max_sum_state(m1: Povm, m2: Povm) -> tuple[DensityMatrix, float]:
    """Maximizer of p(0|M1) + p(0|M2) over qubit states: top eigenvector of M1_0 + M2_0."""
    if m1.dim != 2 or m2.dim != 2:
        raise PreconditionError("qubit measurements required")
    vals, vecs = np.linalg.eigh(m1.elements[0] + m2.elements[0])
    return DensityMatrix.pure(vecs[:, -1]), float(vals[-1])


def a3_strategy(m1: Povm, m2: Povm) -> tuple[GameStrategy, UncertaintyTriple]:
    """Build the game strategy realizing the maximal triple of two qubit measurements.

    Needs projective qubit measurements along orthogonal Bloch directions.
    The state maximizing p(0|M1) + p(0|M2) fixes the triple (i, j, k); the
    quadruple's two balanced mixtures share the average state chi, and the
    duality construction realizes both as Alice-side steering measurements on
    a single joint preparation.  The game value of the result is (i + j)/2.
    """
    for m in (m1, m2):
        if m.dim != 2 or len(m) != 2:
            raise PreconditionError("two-outcome qubit measurements required")
    w1, n1 = _bloch_of_effect(m1.elements[0])
    w2, n2 = _bloch_of_effect(m2.elements[0])
    if abs(w1 - 1.0) > 1e-9 or abs(np.linalg.norm(n1) - 1.0) > 1e-9:
        raise PreconditionError("first measurement is not projective")
    if abs(w2 - 1.0) > 1e-9 or abs(np.linalg.norm(n2) - 1.0) > 1e-9:
        raise PreconditionError("second measurement is not projective")
    if abs(np.dot(n1, n2)) > 1e-9:
        raise PreconditionError("measurement Bloch directions are not orthogonal")
    n3 = np.cross(n1, n2)

    rho_a, _ = max_sum_state(m1, m2)
    _, r = _bloch_of_effect(rho_a.matrix)  # trace 1, bloch = r
    alpha, beta, gamma = np.dot(r, n1), np.dot(r, n2), np.dot(r, n3)
    triple = UncertaintyTriple((1 + alpha) / 2, (1 + beta) / 2, (1 + gamma) / 2)

    def state(sa: float, sb: float) -> DensityMatrix:
        return _state_from_bloch(sa * alpha * n1 + sb * beta * n2 + gamma * n3)

    quadruple = [state(1, 1), state(-1, -1), state(1, -1), state(-1, 1)]

    alice_povms = []
    joints = []
    for first, second in ((0, 1), (2, 3)):
        ens = EnsemblePreparation([0.5, 0.5], [quadruple[first], quadruple[second]])
        scenario = temporal_scenario(ens, Channel.identity(2), [m1])
        spatial = temporal_to_spatial(scenario)
        alice_povms.append(spatial.povms[0])
        joints.append(spatial.state)
    # both pairs average to the same chi, so they steer the same joint preparation
    if np.max(np.abs(joints[0].matrix - joints[1].matrix)) > 1e-12:
        raise ValidationError("quadruple mixtures disagree on the shared preparation")
    return GameStrategy(joints[0], (alice_povms[0], alice_povms[1]), (m1, m2)), triple


# ---------------------------------------------------------------------------
# Fine-grained uncertainty on theory tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FineGrainedReport:
    """Worst p(M1^m|P) + p(M2^n|P) over all preparations and outcome pairs."""

    bound: float
    worst_sum: float
    worst_prep: str
    worst_outcomes: tuple[int, int]
    satisfied: bool
    saturated: bool  # worst within tol of the bound


def check_finegrained(
    theory: OperationalTheory, m1: str, m2: str, tol: float = 1e-9
) -> FineGrainedReport:
    """Verify p(M1^m|P) + p(M2^n|P) <= 1 + 1/sqrt(2) across a 2-dimensional theory.

    Preconditions: the theory's affine dimension must report 2 and the two
    measurements must be orthogonal (statistically independent).
    """
    dim = affine_dimension(theory)
    if dim.claimed_dimension != 2:
        raise PreconditionError(
            f"theory is not two-dimensional (affine parameters: {dim.affine_parameter_count})"
        )
    if not are_orthogonal(theory, m1, m2):
        raise PreconditionError(f"measurements {m1!r}, {m2!r} are not orthogonal")
    # sums[P, m, n] = p(M1^m|P) + p(M2^n|P); argmax keeps the first maximum in (P, m, n) order
    sums = _identity_statistics(theory, m1)[:, :, None] + _identity_statistics(theory, m2)[:, None, :]
    p, m, n = np.unravel_index(int(sums.argmax()), sums.shape)
    worst = float(sums[p, m, n])
    return FineGrainedReport(
        bound=FINEGRAINED_BOUND,
        worst_sum=worst,
        worst_prep=theory.preparations[p],
        worst_outcomes=(int(m), int(n)),
        satisfied=bool(worst <= FINEGRAINED_BOUND + tol),
        saturated=bool(abs(worst - FINEGRAINED_BOUND) <= tol),
    )


def triples_from_theory(
    theory: OperationalTheory, m1: str, m2: str, m3: str
) -> list[tuple[str, UncertaintyTriple]]:
    """Harvest (i, j, k) triples for every preparation from three binary measurements."""
    for m in (m1, m2, m3):
        if theory.arity(m) != 2:
            raise ArityError("triples need two-outcome measurements")
    stats = np.stack([_identity_statistics(theory, m)[:, 0] for m in (m1, m2, m3)], axis=1)
    return [(p, UncertaintyTriple(*t)) for p, t in zip(theory.preparations, stats.tolist())]
