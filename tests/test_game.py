"""CHSH game strategies, the preparation quadruple, and the uncertainty bound."""
from __future__ import annotations

from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gptw import quantum as q
from gptw.correlations import CorrelationBox
from gptw.errors import PreconditionError, ValidationError
from gptw.game import (
    FINEGRAINED_BOUND,
    TSIRELSON_WIN,
    GameStrategy,
    UncertaintyTriple,
    a3_strategy,
    build_quadruple,
    check_finegrained,
    game_value,
    max_sum_state,
    simulate_game,
    triples_from_theory,
    win_probability,
)
from gptw.theory import Measurement, OperationalTheory, outcome_distribution

from conftest import cardinal_qubit_states, singlet_optimal_settings, tomographic_povms


# -- quadruple ----------------------------------------------------------------------


def test_quadruple_fixed_point():
    quad = build_quadruple(UncertaintyTriple(0.5, 0.5, 0.5))
    assert quad == ((0.5, 0.5, 0.5),) * 4


def test_quadruple_extremal_rows():
    quad = build_quadruple(UncertaintyTriple(1.0, 1.0, 0.25))
    assert quad == ((1, 1, 0.25), (0, 0, 0.25), (1, 0, 0.25), (0, 1, 0.25))


def test_quadruple_cosine_rows():
    c = np.cos(np.pi / 8) ** 2
    quad = build_quadruple(UncertaintyTriple(c, c, 0.5))
    assert np.allclose(quad[1], (1 - c, 1 - c, 0.5))
    assert np.allclose(quad[2], (c, 1 - c, 0.5))
    assert np.allclose(quad[3], (1 - c, c, 0.5))


def test_triple_rejects_out_of_range():
    with pytest.raises(ValidationError):
        UncertaintyTriple(1.2, 0.0, 0.0)


# -- win probability ---------------------------------------------------------------


def test_win_probability_values():
    assert win_probability(UncertaintyTriple(1.0, 1.0, 0.3)) == 1.0
    assert win_probability(UncertaintyTriple(0.5, 0.5, 0.9)) == 0.5
    c = np.cos(np.pi / 8) ** 2
    assert abs(win_probability(UncertaintyTriple(c, c, 0.5)) - c) < 1e-15


# -- game evaluation ----------------------------------------------------------------


def test_game_value_is_the_rational_rate_correctly_rounded():
    # a float loop over the 8 winning entries misses the nearest float on 81 of these 200 boxes
    rng = np.random.default_rng(91)
    for _ in range(200):
        raw = rng.random((2, 2, 2, 2))
        box = CorrelationBox((2, 2), (2, 2), raw / raw.sum(axis=(2, 3), keepdims=True))
        p = box.table.tolist()
        wins = sum(Fraction(p[c][d][a][a ^ (c & d)]) for c, d, a in product(range(2), repeat=3))
        assert game_value(box) == float(wins / 4)


def test_deterministic_strategy_three_quarters(deterministic_box):
    # oracle: a=b=0 wins iff cd = 0, i.e. 3 of the 4 uniform inputs
    rep = simulate_game(deterministic_box, seed=3, rounds=4000)
    assert rep.exact_rate == 0.75
    assert rep.passed  # within the quantum cap
    assert rep.sampling_consistent


def test_pr_box_wins_always(pr_box):
    rep = simulate_game(pr_box, seed=4, rounds=2000)
    assert rep.exact_rate == 1.0
    assert rep.empirical_rate == 1.0
    assert not rep.passed  # beats the quantum cap


def test_singlet_optimal_strategy(singlet_optimal_box):
    alice, bob = singlet_optimal_settings()
    strategy = GameStrategy(q.singlet(), (alice[0], alice[1]), (bob[0], bob[1]))
    rep = simulate_game(strategy, seed=5, rounds=20000)
    assert abs(rep.exact_rate - TSIRELSON_WIN) < 1e-9
    assert rep.passed
    assert rep.sampling_consistent


def test_unbalanced_strategy_rejected():
    state = q.DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), dims=(2, 2))
    strategy = GameStrategy(state, (q.z_basis(), q.z_basis()), (q.z_basis(), q.x_basis()))
    with pytest.raises(PreconditionError):
        simulate_game(strategy, seed=1, rounds=100)


def test_empirical_tracks_exact_across_seeds(singlet_optimal_box):
    for seed in (11, 12, 13):
        rep = simulate_game(singlet_optimal_box, seed=seed, rounds=10000)
        assert rep.sampling_consistent


def sampled_rate_skipping_empty_cells(box, seed: int, rounds: int) -> float:
    """`simulate_game`'s empirical rate, drawing outcomes only for the input cells that occur."""
    rng = np.random.default_rng(seed)
    cs, ds = rng.integers(0, 2, size=rounds), rng.integers(0, 2, size=rounds)
    wins = 0
    for c, d in np.ndindex(2, 2):
        n = int(np.sum((cs == c) & (ds == d)))
        if n:
            p = box.prob((c, d)).reshape(-1)
            draws = rng.choice(4, size=n, p=p / p.sum())
            wins += int(np.sum((draws // 2 ^ draws % 2) == (c & d)))
    return wins / rounds


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_few_rounds_leave_input_cells_empty(singlet_optimal_box, rounds):
    # at most 3 rounds fill at most 3 of the 4 cells; an empty cell must leave the draws of the next ones alone
    for seed in range(20):
        rep = simulate_game(singlet_optimal_box, seed=seed, rounds=rounds)
        assert rep.empirical_rate == sampled_rate_skipping_empty_cells(singlet_optimal_box, seed, rounds)


def test_seeded_reproducibility(pr_box):
    r1 = simulate_game(pr_box, seed=42, rounds=500)
    r2 = simulate_game(pr_box, seed=42, rounds=500)
    assert r1 == r2


# -- quantum A3 construction ------------------------------------------------------------


def test_max_sum_state_saturates():
    rho, value = max_sum_state(q.x_basis(), q.z_basis())
    assert abs(value - FINEGRAINED_BOUND) < 1e-12
    # oracle: the maximizer is the +1 eigenstate of (X+Z)/sqrt(2)
    obs = (q.PAULI_X + q.PAULI_Z) / np.sqrt(2)
    vals, vecs = np.linalg.eigh(obs)
    top = np.outer(vecs[:, -1], vecs[:, -1].conj())
    assert np.max(np.abs(rho.matrix - top)) < 1e-9


def test_a3_strategy_from_x_z():
    strategy, triple = a3_strategy(q.x_basis(), q.z_basis())
    c = float(np.cos(np.pi / 8) ** 2)
    assert abs(triple.i - c) < 1e-12
    assert abs(triple.j - c) < 1e-12
    assert abs(triple.k - 0.5) < 1e-12
    rep = simulate_game(strategy, seed=6, rounds=5000)
    assert abs(rep.exact_rate - win_probability(triple)) < 1e-9
    assert abs(rep.exact_rate - TSIRELSON_WIN) < 1e-9


def test_a3_strategy_random_orthogonal_pairs():
    rng = np.random.default_rng(51)
    for _ in range(10):
        v1 = rng.normal(size=3)
        v1 /= np.linalg.norm(v1)
        helper = rng.normal(size=3)
        v2 = np.cross(v1, helper)
        v2 /= np.linalg.norm(v2)
        paulis = np.stack([q.PAULI_X, q.PAULI_Y, q.PAULI_Z])
        m1 = q.povm_from_observable(np.tensordot(v1, paulis, axes=1))
        m2 = q.povm_from_observable(np.tensordot(v2, paulis, axes=1))
        strategy, triple = a3_strategy(m1, m2)
        rep = simulate_game(strategy, seed=7, rounds=100)
        assert abs(rep.exact_rate - win_probability(triple)) < 1e-9
        assert rep.exact_rate <= TSIRELSON_WIN + 1e-9


def test_a3_rejects_non_orthogonal():
    with pytest.raises(PreconditionError):
        a3_strategy(q.x_basis(), q.x_basis())


def test_a3_rejects_non_projective():
    noisy = q.Povm([0.8 * q.x_basis().elements[0] + 0.1 * np.eye(2),
                    0.8 * q.x_basis().elements[1] + 0.1 * np.eye(2)])
    with pytest.raises(PreconditionError):
        a3_strategy(noisy, q.z_basis())


# -- fine-grained uncertainty -------------------------------------------------------------


def saturating_state() -> q.DensityMatrix:
    obs = (q.PAULI_X + q.PAULI_Z) / np.sqrt(2)
    _, vecs = np.linalg.eigh(obs)
    return q.DensityMatrix.pure(vecs[:, -1])


def full_qubit_theory() -> OperationalTheory:
    states = dict(cardinal_qubit_states())
    states["sat"] = saturating_state()
    return q.born_table(states, tomographic_povms())


def test_finegrained_saturation():
    theory = full_qubit_theory()
    report = check_finegrained(theory, "X", "Z")
    assert report.satisfied
    assert report.saturated
    assert abs(report.worst_sum - FINEGRAINED_BOUND) < 1e-9
    assert report.worst_prep == "sat"


def test_finegrained_eigenstate_sum():
    from gptw.theory import outcome_distribution

    theory = full_qubit_theory()
    row_x = outcome_distribution(theory, "zero", "I", "X")
    row_z = outcome_distribution(theory, "zero", "I", "Z")
    assert abs(row_x[0] + row_z[0] - 1.5) < 1e-12  # 1/2 + 1


def test_finegrained_artificial_violation():
    """A table point outside the quantum set (p(0|X) = p(0|Z) = 1) must fail."""
    theory = full_qubit_theory()
    table = {key: row for key, row in theory.rows()}
    table[("fake", "I", "X")] = [1.0, 0.0]
    table[("fake", "I", "Z")] = [1.0, 0.0]
    table[("fake", "I", "Y")] = [0.5, 0.5]
    bad = OperationalTheory(
        list(theory.preparations) + ["fake"],
        theory.transformations,
        [Measurement(m.id, m.arity) for m in theory.measurements],
        table,
    )
    report = check_finegrained(bad, "X", "Z")
    assert not report.satisfied
    assert abs(report.worst_sum - 2.0) < 1e-12
    assert report.worst_prep == "fake"


def test_finegrained_preconditions():
    from test_theory import small_theory

    with pytest.raises(PreconditionError):
        check_finegrained(small_theory(), "read", "read")
    theory = full_qubit_theory()
    with pytest.raises(PreconditionError):
        check_finegrained(theory, "X", "X")


def test_finegrained_invariant_under_outcome_relabeling():
    """Relabeling an input measurement leaves the worst-pair verdict unchanged."""
    states = dict(cardinal_qubit_states())
    states["sat"] = saturating_state()
    povms = dict(tomographic_povms())
    povms["Xr"] = q.Povm([q.x_basis().elements[1], q.x_basis().elements[0]])
    theory = q.born_table(states, povms)
    plain = check_finegrained(theory, "X", "Z")
    flipped = check_finegrained(theory, "Xr", "Z")
    assert abs(plain.worst_sum - flipped.worst_sum) < 1e-12
    assert plain.satisfied == flipped.satisfied


def test_harvested_triples_respect_game_cap():
    rng = np.random.default_rng(60)
    states = {f"r{k}": q.ginibre_state(2, rng) for k in range(50)}
    theory = q.born_table(states, tomographic_povms())
    for _, triple in triples_from_theory(theory, "X", "Z", "Y"):
        assert win_probability(triple) <= TSIRELSON_WIN + 1e-9


def loop_finegrained(theory: OperationalTheory, m1: str, m2: str) -> tuple[float, str, tuple[int, int]]:
    """The worst sum, preparation and outcome pair, by a loop over the rows (first maximum kept)."""
    worst, worst_prep, worst_pair = -np.inf, theory.preparations[0], (0, 0)
    for p in theory.preparations:
        row1 = outcome_distribution(theory, p, theory.identity, m1)
        row2 = outcome_distribution(theory, p, theory.identity, m2)
        for m in range(2):
            for n in range(2):
                s = float(row1[m] + row2[n])
                if s > worst:
                    worst, worst_prep, worst_pair = s, p, (m, n)
    return worst, worst_prep, worst_pair


def loop_triples(theory: OperationalTheory, m1: str, m2: str, m3: str) -> list[tuple[str, UncertaintyTriple]]:
    return [
        (p, UncertaintyTriple(*(float(outcome_distribution(theory, p, theory.identity, m)[0]) for m in (m1, m2, m3))))
        for p in theory.preparations
    ]


def tied_theory(rng: np.random.Generator) -> OperationalTheory:
    """Outcome-0 probabilities on a grid of quarters, so sums tie exactly, and repeated preparations.

    The six cardinal points keep the theory two-dimensional with X and Z orthogonal.
    """
    cardinal = [(1.0, 0.5, 0.5), (0.0, 0.5, 0.5), (0.5, 1.0, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 1.0), (0.5, 0.5, 0.0)]
    drawn = [tuple(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], 3).tolist()) for _ in range(rng.integers(1, 8))]
    points = cardinal + drawn + drawn[:1]
    points = [points[i] for i in rng.permutation(len(points))]
    table = {(f"p{k}", "I", m): [v, 1.0 - v] for k, point in enumerate(points) for m, v in zip("XYZ", point)}
    return OperationalTheory([f"p{k}" for k in range(len(points))], ["I"], [("X", 2), ("Y", 2), ("Z", 2)], table)


def test_finegrained_and_triples_match_the_row_loops_on_ties():
    rng = np.random.default_rng(64)
    tied = crossed = 0
    for _ in range(60):
        theory = tied_theory(rng)
        for m1, m2 in (("X", "Z"), ("Z", "X")):
            report = check_finegrained(theory, m1, m2)
            worst, prep, pair = loop_finegrained(theory, m1, m2)
            assert (report.worst_sum, report.worst_prep, report.worst_outcomes) == (worst, prep, pair)
            sums = [float(outcome_distribution(theory, p, "I", m1)[m] + outcome_distribution(theory, p, "I", m2)[n])
                    for p in theory.preparations for m in range(2) for n in range(2)]
            tied += sums.count(worst) > 1
            crossed += pair[0] != pair[1]
        assert triples_from_theory(theory, "X", "Z", "Y") == loop_triples(theory, "X", "Z", "Y")
    assert tied >= 10 and crossed >= 10  # the first-maximum order and the (m, n) order both matter
