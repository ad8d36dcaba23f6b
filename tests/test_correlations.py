"""CHSH, nonlocality, no-signalling, and monogamy checks on boxes."""
from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from gptw import correlations, quantum as q
from gptw.correlations import (
    ChshValue,
    CorrelationBox,
    check_no_signalling,
    check_ns_monogamy,
    check_strong_monogamy,
    chsh,
    chsh_margin,
    exact_chsh_witness,
    is_bell_nonlocal,
)
from gptw.duality import spatial_scenario, spatial_to_temporal
from gptw.errors import ArityError, SizeLimitError, ValidationError
from gptw.theory import outcome_distribution

from conftest import isotropic_table, local_draws, near_deterministic_boxes, singlet_optimal_settings


def chsh_oracle(table: np.ndarray, a0, a1, b0, b1) -> float:
    """Independent CHSH computation: explicit sum over all 16 entries."""

    def expectation(x, y):
        return sum(
            (-1) ** (a + b) * table[x, y, a, b] for a in range(2) for b in range(2)
        )

    return (
        expectation(a0, b0) + expectation(a0, b1) + expectation(a1, b0) - expectation(a1, b1)
    )


def random_signalling_box(settings, rng) -> CorrelationBox:
    """Uniform random entries normalized per setting tuple: signalling in general."""
    n = len(settings)
    raw = rng.random(tuple(settings) + (2,) * n)
    return CorrelationBox(settings, (2,) * n, raw / raw.sum(axis=tuple(range(n, 2 * n)), keepdims=True))


def random_quantum_box(settings, rng) -> CorrelationBox:
    """Projective qubit measurements on a random mixed state of len(settings) qubits."""
    n = len(settings)
    state = q.ginibre_state(2**n, rng, dims=(2,) * n)
    return q.multipartite_box(state, [[q.random_projective_qubit(rng) for _ in range(m)] for m in settings])


# -- box validation ----------------------------------------------------------------


def test_box_rejects_bad_normalization():
    t = np.full((1, 1, 2, 2), 0.3)
    with pytest.raises(ValidationError):
        CorrelationBox((1, 1), (2, 2), t)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_box_rejects_non_finite_entry(bad):
    t = np.full((1, 1, 2, 2), 0.25)
    t[0, 0, 0, 0] = bad
    with pytest.raises(ValidationError, match="finite"):
        CorrelationBox((1, 1), (2, 2), t)


def test_box_rejects_an_empty_table():
    # unchecked, numpy's min raises "zero-size array to reduction operation minimum"
    with pytest.raises(ValidationError, match="box entries are empty"):
        CorrelationBox((1,), (0,), np.zeros((1, 0)))


def test_box_reports_the_setting_tuple_that_does_not_sum_to_1():
    t = np.full((2, 2, 2, 2), 0.25)
    t[1, 0, 0, 0] = 0.5
    with pytest.raises(ValidationError, match=r"box entries sum to 1.25 at \(1, 0\), not 1"):
        CorrelationBox((2, 2), (2, 2), t)


def test_box_rejects_too_many_parties():
    t = np.full((1, 1, 1, 1) + (2, 2, 2, 2), 1 / 16)
    with pytest.raises(ValidationError):
        CorrelationBox((1, 1, 1, 1), (2, 2, 2, 2), t)


def test_marginal_against_manual_sum(shared_bit_box):
    marg = shared_bit_box.marginal((0, 1), (0,))
    manual = shared_bit_box.table[:, :, 0].sum(axis=-1)
    assert np.allclose(marg.table, manual, atol=1e-12)


def marginal_loop(box: CorrelationBox, parties, spectator_settings) -> np.ndarray:
    """Marginal table filled one setting tuple at a time (the reference for `marginal`)."""
    others = [k for k in range(box.n_parties) if k not in parties]
    out = np.zeros(tuple(box.settings[k] for k in parties) + tuple(box.outcomes[k] for k in parties))
    for xs in np.ndindex(*out.shape[: len(parties)]):
        full = [0] * box.n_parties
        for k, x in zip(list(parties) + others, xs + tuple(spectator_settings)):
            full[k] = x
        block = np.transpose(box.table[tuple(full)], axes=list(parties) + others)
        out[xs] = block.reshape(out.shape[len(parties):] + (-1,)).sum(axis=-1)
    return out


@pytest.mark.parametrize("parties", [(0,), (2,), (0, 1), (1, 0), (2, 0), (1, 2)])
def test_marginal_matches_loop(parties):
    rng = np.random.default_rng(17)
    box = random_signalling_box((2, 3, 2), rng)
    for spectators in product(*[range(box.settings[k]) for k in range(3) if k not in parties]):
        marg = box.marginal(parties, spectators)
        assert marg.settings == tuple(box.settings[k] for k in parties)
        assert np.array_equal(marg.table, marginal_loop(box, parties, spectators))


@pytest.mark.parametrize("spectator", [-1, 2])
def test_marginal_rejects_spectator_setting_out_of_range(spectator):
    box = random_signalling_box((2, 3, 2), np.random.default_rng(18))
    with pytest.raises(ArityError, match="out of range"):
        box.marginal((0, 1), (spectator,))


@pytest.mark.parametrize("b1", [-1, 3])
def test_chsh_rejects_setting_out_of_range(b1):
    box = random_signalling_box((2, 3, 2), np.random.default_rng(19))
    with pytest.raises(ArityError, match="out of range"):
        chsh(box, 0, 1, 0, b1)


@pytest.mark.parametrize(
    "call",
    [
        lambda box: box.marginal((1, 1), ()),
        lambda box: box.marginal((0, 5), ()),
        lambda box: box.marginal((-1,), (0,)),
        lambda box: chsh(box, 0, 1, 0, 1, parties=(1, 1)),
    ],
    ids=["repeated", "out-of-range", "negative", "chsh-repeated"],
)
def test_marginal_rejects_bad_parties(call):
    box = random_signalling_box((2, 3), np.random.default_rng(20))
    with pytest.raises(ArityError, match="parties"):
        call(box)


@pytest.mark.parametrize("settings", [(0, 2), (0, -1), (-3, 0)])
def test_prob_rejects_setting_out_of_range(pr_box, settings):
    with pytest.raises(ArityError, match="out of range"):
        pr_box.prob(settings)


@pytest.mark.parametrize(
    "call",
    [
        lambda box: chsh(box, 0, 1.0, 0, 1),
        lambda box: chsh_margin(box, ChshValue(4.0, (0, 1.0), (0, 1)), 0.0),
        lambda box: box.prob((0, 1.0)),
        lambda box: box.prob((np.float64(0), 1)),
        lambda box: box.marginal((0,), (0.0,)),
    ],
    ids=["chsh", "chsh_margin", "prob", "prob-numpy-float", "marginal-spectator"],
)
def test_non_integer_setting_is_an_arity_error(pr_box, call):
    # NumPy refuses a float index with IndexError; the setting check names it first
    with pytest.raises(ArityError, match="is not an integer"):
        call(pr_box)


def test_numpy_integer_settings_are_accepted(pr_box):
    one = np.int64(1)
    assert np.array_equal(pr_box.prob((np.int32(0), one)), pr_box.prob((0, 1)))
    assert chsh(pr_box, 0, one, np.uint8(0), one) == chsh(pr_box, 0, 1, 0, 1)
    witness = ChshValue(4.0, (0, one), (0, 1))
    assert chsh_margin(pr_box, witness, 0.0) == chsh_margin(pr_box, ChshValue(4.0, (0, 1), (0, 1)), 0.0)


# -- chsh ---------------------------------------------------------------------------


def test_pr_box_chsh_exactly_four(pr_box):
    assert chsh_oracle(pr_box.table, 0, 1, 0, 1) == 4.0
    assert chsh(pr_box).value == 4.0


def test_deterministic_box_chsh_exactly_two(deterministic_box):
    assert chsh_oracle(deterministic_box.table, 0, 1, 0, 1) == 2.0
    assert chsh(deterministic_box).value == 2.0


def test_singlet_optimal_chsh(singlet_optimal_box):
    value = chsh(singlet_optimal_box).value
    assert abs(value - 2.8284271247461903) < 1e-9
    assert abs(value - chsh_oracle(singlet_optimal_box.table, 0, 1, 0, 1)) < 1e-12


def test_chsh_party_exchange_invariance(singlet_optimal_box):
    swapped_table = np.transpose(singlet_optimal_box.table, (1, 0, 3, 2))
    swapped = CorrelationBox((2, 2), (2, 2), swapped_table)
    # exchanging the parties with matching setting relabels preserves the value
    assert abs(
        chsh(singlet_optimal_box, 0, 1, 0, 1).value - chsh(swapped, 0, 1, 0, 1).value
    ) < 1e-12


def test_chsh_rejects_non_binary():
    t = np.zeros((1, 1, 3, 2))
    t[0, 0, 0, 0] = 1.0
    box = CorrelationBox((1, 1), (3, 2), t)
    with pytest.raises(ArityError, match="two-outcome"):
        chsh(box, 0, 0, 0, 0)


# -- prepare-measure chsh --------------------------------------------------------------


def test_prepare_measure_matches_spatial_for_duality_image(singlet_optimal_box):
    """The dual scenario's branch-index CHSH equals the spatial CHSH.

    Alice's setting x picks the ensemble of her measurement's temporal dual,
    the branch index stands in for her outcome, and Bob measures N_y on the
    branch sent through the dual channel; both are valued (-1)**v.
    """
    alice, bob = singlet_optimal_settings()
    duals = [spatial_to_temporal(spatial_scenario(q.singlet(), [alice[x], bob[0]])) for x in range(2)]
    channel = duals[0].channel  # depends only on the state, shared across x
    branches = {f"e{x}b{i}": s for x, dual in enumerate(duals) for i, s in enumerate(dual.ensemble.branches)}
    theory = q.born_table(branches, {"N0": bob[0], "N1": bob[1]}, {"T": channel})

    def expect(x: int, y: int) -> float:
        rows = [outcome_distribution(theory, f"e{x}b{i}", "T", f"N{y}") for i in range(2)]
        return sum(w * sign * (r[0] - r[1]) for w, sign, r in zip(duals[x].ensemble.weights, (1, -1), rows))

    value = expect(0, 0) + expect(0, 1) + expect(1, 0) - expect(1, 1)
    assert abs(value - chsh(singlet_optimal_box).value) < 1e-8


# -- nonlocality search ------------------------------------------------------------------


def test_pr_box_is_nonlocal(pr_box):
    nonlocal_, witness = is_bell_nonlocal(pr_box)
    assert nonlocal_ and abs(witness.value) == 4.0


def test_deterministic_box_is_local(deterministic_box):
    nonlocal_, witness = is_bell_nonlocal(deterministic_box)
    assert not nonlocal_
    assert abs(witness.value) <= 2.0


def test_isotropic_half_is_local(isotropic_half):
    nonlocal_, witness = is_bell_nonlocal(isotropic_half)
    assert not nonlocal_
    assert abs(abs(witness.value) - 2.0) < 1e-12


def test_three_setting_box_witness_search():
    """With a third (useless) Alice setting, the search still finds the good pair."""
    alice, bob = singlet_optimal_settings()
    alice3 = alice + [q.y_basis()]
    box = q.bipartite_box(q.singlet(), alice3, bob)
    nonlocal_, witness = is_bell_nonlocal(box)
    assert nonlocal_
    assert abs(abs(witness.value) - 2 * np.sqrt(2)) < 1e-9
    assert set(witness.a_settings) == {0, 1}


def test_anti_pr_box_caught_by_relabeling():
    # all four plain pairings give |B| <= 2 here; the witness needs |.|
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                t[x, y, a, a ^ (x & y) ^ 1] = 0.5
    box = CorrelationBox((2, 2), (2, 2), t)
    nonlocal_, witness = is_bell_nonlocal(box)
    assert nonlocal_ and abs(witness.value) == 4.0


@pytest.mark.parametrize("tol, verdict", [(np.inf, False), (np.nan, False), (-np.inf, True)])
def test_non_finite_tol_gets_a_verdict(pr_box, tol, verdict):
    # `chsh_margin`'s `math.fsum` carries a non-finite tol through: |B| - 2 - tol is -inf, NaN or inf
    for box in (pr_box, CorrelationBox((2, 2), (2, 2), isotropic_table(0.5))):
        assert is_bell_nonlocal(box, tol)[0] == verdict
    witness, margin = exact_chsh_witness(pr_box, tol)
    assert margin == (np.inf if verdict else None)
    assert chsh_margin(pr_box, witness, tol) == margin


def setting_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_bell_search_matches_per_pair_loop(m):
    rng = np.random.default_rng(100 + m)
    boxes = [random_signalling_box((m, m), rng), random_signalling_box((m, m + 1), rng)]
    boxes.append(random_quantum_box((m, m), rng))
    for box in boxes:
        best = None
        for a0, a1 in setting_pairs(box.settings[0]):
            for b0, b1 in setting_pairs(box.settings[1]):
                cand = chsh(box, a0, a1, b0, b1)
                if best is None or abs(cand.value) > abs(best.value):
                    best = cand
        verdict, witness = is_bell_nonlocal(box)
        assert witness == best  # same arithmetic: equal, with the first maximum on ties
        assert verdict == (abs(best.value) > 2.0 + 1e-9)


def fraction_correlators(table: np.ndarray, parties=(0, 1), spectator_setting=0) -> dict:
    """E(x, y) of a party pair in rational arithmetic, a spectator's outcomes summed at its setting."""
    n = table.ndim // 2
    first, second = parties
    correlators = {}
    for index, p in np.ndenumerate(table):
        settings, outcomes = index[:n], index[n:]
        if any(settings[k] != spectator_setting for k in range(n) if k not in parties):
            continue
        key = settings[first], settings[second]
        correlators[key] = correlators.get(key, 0) + (-1) ** (outcomes[first] + outcomes[second]) * Fraction(p)
    return correlators


def fraction_chsh(e: dict, a_settings, b_settings) -> Fraction:
    (a0, a1), (b0, b1) = a_settings, b_settings
    return abs(e[a0, b0] + e[a0, b1] + e[a1, b0] - e[a1, b1])


# the smallest subnormal, the largest floats (`math.fsum` must not overflow), and the PR box's
# (`isotropic_table(1.0)`) tie |B| = 2 + tol at 2.0 and its margin of one ulp just below it
TOLS = (0.0, 1e-12, 5e-324, sys.float_info.max, -sys.float_info.max, 2.0, math.nextafter(2.0, 0.0))


@pytest.mark.parametrize("m, count", [(2, 1000), (3, 150)])
def test_exact_witness_decides_in_rational_arithmetic(m, count):
    """The verdict matches rationals on local draws whose float |B| rounds to either side of 2.

    `is_bell_nonlocal` returns `exact_chsh_witness`'s verdict and witness on
    every draw: a refuting witness with its exact margin, or else the
    float-best one with None.  At m = 2 the float-best |B| is above the
    threshold on some draws whose exact |B| is not, and below it on some
    whose exact |B| is above.  At m = 3 many setting pairs tie at a float
    |B| of 2, and the first of them is often not the one whose exact |B|
    exceeds 2.
    """
    boxes = list(local_draws(count, m))
    if m == 2:
        boxes += [CorrelationBox((2, 2), (2, 2), isotropic_table(v)) for v in (0.5, 0.5 + 1e-16, 0.5 + 1e-12, 1.0)]
    pairs = list(product(permutations(range(m), 2), repeat=2))
    float_above = float_below = later = 0
    for box in boxes:
        e = fraction_correlators(box.table)
        best = max(fraction_chsh(e, a, b) for a, b in pairs)
        float_best = max((chsh(box, *a, *b) for a, b in pairs), key=lambda w: abs(w.value))  # first on ties
        for tol in TOLS:
            nonlocal_ = best > 2 + Fraction(tol)
            witness, margin = exact_chsh_witness(box, tol)
            assert is_bell_nonlocal(box, tol) == (nonlocal_, witness)
            assert (margin is not None) == nonlocal_
            float_above += not nonlocal_ and abs(float_best.value) > 2 + tol
            float_below += nonlocal_ and not abs(float_best.value) > 2 + tol
            if margin is None:
                assert witness == float_best
            else:
                exact = fraction_chsh(e, witness.a_settings, witness.b_settings) - 2 - Fraction(tol)
                assert exact > 0 and margin == float(exact)
                assert chsh_margin(box, witness, tol) == margin
                later += witness != float_best
    # m = 2, at tol 0 and at 5e-324: draws 272 and 499 have a float |B| above 2 and an exact one of at
    # most 2; 163 draws have the reverse, draw 0 the first of them, and so does the PR box one ulp below
    # its tie (4 - 2**-52 rounds to 4)
    assert min(float_above, float_below) >= 2 if m == 2 else later >= 2


def test_chsh_margin_on_a_tripartite_box_sums_the_spectator():
    # a random box signals, so each pair's marginal moves with the spectator's setting
    rng = np.random.default_rng(70)
    table = rng.random((2, 2, 2, 2, 2, 2))
    box = CorrelationBox((2, 2, 2), (2, 2, 2), table / table.sum(axis=(3, 4, 5), keepdims=True))
    for parties, z in product(permutations(range(3), 2), range(2)):
        e = fraction_correlators(box.table, parties, z)
        for a, b in product(permutations(range(2)), repeat=2):
            witness = chsh(box, *a, *b, parties=parties, spectator_settings=(z,))
            assert (witness.parties, witness.spectator_settings) == (parties, (z,))
            if z == 0:  # the default spectator setting, recorded
                assert chsh(box, *a, *b, parties=parties) == witness
            exact = fraction_chsh(e, a, b)
            assert abs(abs(witness.value) - float(exact)) < 1e-15
            for tol in (-1.0, float(exact) - 2 - 1e-9, float(exact) - 2 + 1e-9):
                margin = chsh_margin(box, witness, tol)
                assert (margin is not None) == (exact > 2 + Fraction(tol)), (parties, z, a, b, tol)


def test_chsh_margin_takes_the_sign_of_the_exact_b():
    # B = 1 + (2**-60 - 1) - 1 - (-1 + 2**-61) = 2**-61, but the entries added in order sum to -2**-61
    t = np.zeros((2, 2, 2, 2))
    t[0, 0, 0, 0] = t[0, 1, 0, 1] = t[1, 0, 0, 1] = t[1, 1, 0, 1] = 1.0
    t[0, 1, 0, 0], t[1, 1, 1, 1] = 2.0**-60, 2.0**-61
    box = CorrelationBox((2, 2), (2, 2), t)
    witness, e = chsh(box), fraction_correlators(box.table)
    assert fraction_chsh(e, witness.a_settings, witness.b_settings) == Fraction(1, 2**61)
    assert chsh_margin(box, witness, -2.0) == 2.0**-61


def random_box(settings, outcomes, rng) -> CorrelationBox:
    """Uniform random entries normalized per setting tuple, any outcome counts: signalling in general."""
    raw = rng.random(tuple(settings) + tuple(outcomes))
    return CorrelationBox(settings, outcomes, raw / raw.sum(axis=tuple(range(len(settings), raw.ndim)), keepdims=True))


def assert_chsh_reads_the_table(box: CorrelationBox, first: int, second: int) -> None:
    """`chsh` at every choice of `_chsh_table(box, first, second)` is that table's value, bit for bit."""
    values, first_pairs, second_pairs = correlations._chsh_table(box, first, second)
    spectators = [()] if box.n_parties == 2 else [(z,) for z in range(box.settings[3 - first - second])]
    for (i, a), (j, b) in product(enumerate(first_pairs.tolist()), enumerate(second_pairs.tolist())):
        for z in spectators:
            assert chsh(box, *a, *b, parties=(first, second), spectator_settings=z).value == values[(i, j, *z)]


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_chsh_equals_the_bipartite_table_bit_for_bit(m):
    rng = np.random.default_rng(40 + m)
    for box in [random_signalling_box((m, m + 1), rng), random_quantum_box((m, m), rng), *local_draws(3, m, seed=m)]:
        assert_chsh_reads_the_table(box, 0, 1)
        assert_chsh_reads_the_table(box, 1, 0)


@pytest.mark.parametrize("settings", [(2, 2, 2), (3, 2, 3), (2, 4, 3)])
def test_chsh_equals_the_tripartite_table_bit_for_bit(settings):
    rng = np.random.default_rng(50 + sum(settings))
    for box in (random_box(settings, (2, 2, 2), rng), random_quantum_box(settings, rng)):
        for first, second in permutations(range(3), 2):
            assert_chsh_reads_the_table(box, first, second)
    # a three-outcome spectator: its outcomes are summed as the table sums them
    for spectator in range(3):
        outcomes = tuple(3 if k == spectator else 2 for k in range(3))
        box = random_box(settings, outcomes, rng)
        for first, second in permutations([k for k in range(3) if k != spectator]):
            assert_chsh_reads_the_table(box, first, second)


def test_chsh_equals_the_table_where_a_pair_marginal_rounds_above_one():
    boxes = list(near_deterministic_boxes(400))
    pairs = [(0, 1), (0, 2), (1, 2)]
    above = sum(int((correlations._marginal(box.table, pair) > 1).sum()) for box in boxes for pair in pairs)
    assert above >= 20  # each such entry was clipped to 1 when `chsh` read a pair's own box
    for box in boxes:
        for first, second in permutations(range(3), 2):
            assert_chsh_reads_the_table(box, first, second)


def test_reported_witnesses_and_monogamy_terms_equal_chsh():
    rng = np.random.default_rng(60)
    bipartite = [make((m, m), rng) for m in (2, 3, 4, 6) for make in (random_signalling_box, random_quantum_box)]
    for box in bipartite + list(local_draws(40, 3, seed=6)):
        for tol in (0.0, 1e-9):
            for witness in (exact_chsh_witness(box, tol)[0], is_bell_nonlocal(box, tol)[1]):
                assert chsh(box, *witness.a_settings, *witness.b_settings).value == witness.value
    tripartite = [random_quantum_box((m, m, m), rng) for m in (2, 3)] + list(near_deterministic_boxes(100, seed=2))
    for box in tripartite:
        for check in (check_ns_monogamy, check_strong_monogamy):
            assert_labels_reproduce_terms(box, check(box))


@pytest.mark.parametrize(
    "witness",
    [
        ChshValue(4.0, (0, -1), (0, 1)),
        ChshValue(4.0, (0, 1), (2, 1)),
        ChshValue(4.0, (0, 1), (0, 1), spectator_settings=(5,)),
        ChshValue(4.0, (0, 1), (0, 1), spectator_settings=(1,)),
        ChshValue(4.0, (0, 1), (0, 1), parties=(0, 0)),
        ChshValue(4.0, (0, 1), (0, 1), parties=(1, 2)),
    ],
    ids=["negative-setting", "setting-out-of-range", "spectator-5", "spectator-1", "repeated-party", "missing-party"],
)
def test_chsh_margin_refuses_a_malformed_witness(pr_box, witness):
    # NumPy would wrap the -1 (margin 1.999999999 at tol 1e-9), index past the table or refuse the transpose
    with pytest.raises(ArityError):
        chsh_margin(pr_box, witness, 1e-9)


@pytest.mark.parametrize(
    "settings, spectators, match",
    [
        ((2, 2), (5,), "one spectator setting"),
        ((2, 2), (1,), "one spectator setting"),
        ((2, 2, 2), (), "one spectator setting"),
        ((2, 2, 2), (0, 0), "one spectator setting"),
        ((2, 2, 2), (2,), "out of range"),
        ((2, 2, 2), (-1,), "out of range"),
    ],
)
def test_chsh_refuses_malformed_spectator_settings(settings, spectators, match):
    box = random_signalling_box(settings, np.random.default_rng(21))
    with pytest.raises(ArityError, match=match):
        chsh(box, spectator_settings=spectators)
    if spectators:  # a witness that records none reads each spectator at setting 0, as `chsh` does
        with pytest.raises(ArityError, match=match):
            chsh_margin(box, ChshValue(2.0, (0, 1), (0, 1), spectator_settings=spectators), 0.0)


def test_chsh_margin_refuses_a_non_binary_party():
    box = random_box((2, 2), (3, 2), np.random.default_rng(22))
    with pytest.raises(ArityError, match="two-outcome"):
        chsh_margin(box, ChshValue(2.0, (0, 1), (0, 1)), 0.0)


@pytest.mark.parametrize("settings", [(1, 2), (2, 1), (1, 2, 2), (2, 2, 1)])
def test_one_setting_party_has_no_chsh(settings):
    box = random_signalling_box(settings, np.random.default_rng(3))
    search = is_bell_nonlocal if len(settings) == 2 else check_strong_monogamy
    with pytest.raises(ArityError, match="two settings"):
        search(box)


class Admitted(Exception):
    """Raised by a stand-in `_marginal`: the CHSH table got past its size check."""


def admit(*args):
    raise Admitted


@pytest.mark.parametrize(
    "settings, admitted",
    [((64, 64), True), ((65, 65), False), ((28, 28, 28), True), ((29, 29, 29), False)],
)
def test_chsh_table_cap_counts_entries_before_allocating(monkeypatch, settings, admitted):
    # B values n_a (n_a - 1) n_b (n_b - 1) times the spectator's settings: 16,257,024 at m=64 and
    # 16,003,008 at m=28, within 2**24; 17,305,600 at m=65 and 19,121,776 at m=29
    outcomes = (2,) * len(settings)
    box = CorrelationBox(settings, outcomes, np.full(settings + outcomes, 0.5 ** len(settings)))
    monkeypatch.setattr(correlations, "_marginal", admit)
    with pytest.raises(Admitted if admitted else SizeLimitError):
        correlations._chsh_table(box, 0, len(settings) - 1)


# -- no-signalling ---------------------------------------------------------------------


def test_pr_box_no_signalling(pr_box):
    assert check_no_signalling(pr_box).satisfied


def test_reports_are_truthy_iff_satisfied(pr_box):
    # a PR box between parties 0 and 1 beside a fair coin: |B_AB| + |B_BC| = 4, but B_AB^2 + B_BC^2 = 16
    pr_and_coin = CorrelationBox((2, 2, 2), (2, 2, 2), np.einsum("xyab,zc->xyzabc", pr_box.table, np.full((2, 2), 0.5)))
    signalling = random_signalling_box((2, 2), np.random.default_rng(0))
    reports = [check_no_signalling(pr_box), check_no_signalling(signalling),
               check_ns_monogamy(pr_and_coin), check_strong_monogamy(pr_and_coin)]
    assert [bool(r) for r in reports] == [True, False, True, False]


def test_explicit_signalling_box_detected():
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            t[x, y, y, :] = 0.5  # Alice outputs Bob's setting
    box = CorrelationBox((2, 2), (2, 2), t)
    report = check_no_signalling(box)
    assert not report.satisfied
    assert any(v.subset == (0,) for v in report.violations)
    assert report.max_deviation == 1.0


def test_no_signalling_compares_every_pair_of_complement_settings():
    # Alice's marginal at x=0 moves by 0.01 either way from Bob's setting 0:
    # each setting is within 0.015 of the first, but settings 1 and 2 are 0.02 apart
    t = np.zeros((2, 3, 2, 2))
    for y, p0 in enumerate([0.5, 0.51, 0.49]):
        t[0, y] = np.outer([p0, 1 - p0], [0.5, 0.5])
        t[1, y] = np.full((2, 2), 0.25)
    report = check_no_signalling(CorrelationBox((2, 3), (2, 2), t), tol=0.015)
    assert not report.satisfied
    assert report.max_deviation == pytest.approx(0.02, abs=1e-12)
    (v,) = report.violations
    assert (v.subset, v.subset_settings) == ((0,), (0,))
    assert (v.complement_settings_a, v.complement_settings_b) == ((1,), (2,))
    assert v.deviation == pytest.approx(0.02, abs=1e-12)


def pairwise_signalling_oracle(box: CorrelationBox) -> dict:
    """Largest pairwise marginal difference per (subset, subset settings), by explicit loops."""
    n = box.n_parties
    subsets = [(i,) for i in range(n)] + ([(0, 1), (0, 2), (1, 2)] if n == 3 else [])
    out = {}
    for subset in subsets:
        others = [k for k in range(n) if k not in subset]
        for xs in product(*[range(box.settings[k]) for k in subset]):
            marginals = []
            for ys in product(*[range(box.settings[k]) for k in others]):
                full = [0] * n
                for k, v in zip(subset + tuple(others), xs + ys):
                    full[k] = v
                block = box.table[tuple(full)]
                marginals.append(block.sum(axis=tuple(k for k in range(n) if k in others)))
            out[subset, xs] = max(
                float(np.max(np.abs(a - b))) for a in marginals for b in marginals
            )
    return out


@pytest.mark.parametrize("settings", [(2, 2), (3, 2), (4, 3), (2, 2, 2), (3, 2, 3)])
def test_no_signalling_matches_pairwise_oracle(settings):
    rng = np.random.default_rng(len(settings) * 10 + sum(settings))
    n = len(settings)
    raw = rng.random(settings + (2,) * n)
    box = CorrelationBox(settings, (2,) * n, raw / raw.sum(axis=tuple(range(n, 2 * n)), keepdims=True))
    want = pairwise_signalling_oracle(box)
    report = check_no_signalling(box, tol=0.05)
    assert report.max_deviation == pytest.approx(max(want.values()), abs=1e-12)
    flagged = {(v.subset, v.subset_settings) for v in report.violations}
    assert flagged == {key for key, dev in want.items() if dev > 0.05}
    for v in report.violations:
        assert v.deviation == pytest.approx(want[v.subset, v.subset_settings], abs=1e-12)
        full_a, full_b = [0] * n, [0] * n
        others = [k for k in range(n) if k not in v.subset]
        for k, x in zip(v.subset, v.subset_settings):
            full_a[k] = full_b[k] = x
        for k, ya, yb in zip(others, v.complement_settings_a, v.complement_settings_b):
            full_a[k], full_b[k] = ya, yb
        axes = tuple(others)
        diff = box.table[tuple(full_a)].sum(axis=axes) - box.table[tuple(full_b)].sum(axis=axes)
        assert np.max(np.abs(diff)) == pytest.approx(v.deviation, abs=1e-12)


def test_quantum_boxes_no_signalling():
    rng = np.random.default_rng(31)
    for _ in range(10):
        state = q.ginibre_state(4, rng, dims=(2, 2))
        box = q.bipartite_box(
            state,
            [q.random_povm(2, 2, rng) for _ in range(2)],
            [q.random_povm(2, 2, rng) for _ in range(2)],
        )
        assert check_no_signalling(box, tol=1e-9).satisfied


# -- monogamy ----------------------------------------------------------------------------


def test_shared_bit_saturates_both_monogamies(shared_bit_box):
    ns = check_ns_monogamy(shared_bit_box)
    strong = check_strong_monogamy(shared_bit_box)
    assert ns.satisfied and strong.satisfied
    assert abs(ns.worst_value - 4.0) < 1e-12
    assert abs(strong.worst_value - 8.0) < 1e-12


def test_independent_parties_obey_monogamy():
    rng = np.random.default_rng(8)
    state = q.DensityMatrix(
        np.kron(
            np.kron(q.ginibre_state(2, rng).matrix, q.ginibre_state(2, rng).matrix),
            q.ginibre_state(2, rng).matrix,
        ),
        dims=(2, 2, 2),
    )
    box = q.multipartite_box(
        state, [[q.random_projective_qubit(rng) for _ in range(2)] for _ in range(3)]
    )
    assert check_ns_monogamy(box).satisfied
    assert check_strong_monogamy(box).satisfied


def test_double_tsirelson_violates_strong_monogamy():
    # two wings each sharing |B| = 2 sqrt 2 with the middle: squared sum 16 > 8
    from gptw.broadcast import theorem1_construct

    alice, bob = singlet_optimal_settings()
    box2 = q.bipartite_box(q.singlet(), alice, bob)
    result = theorem1_construct(box2)
    strong = check_strong_monogamy(result.box)
    assert not strong.satisfied
    assert strong.worst_value > 8.0


def test_ghz_standard_settings_obey_strong_monogamy():
    box = q.multipartite_box(
        q.ghz_state(), [[q.z_basis(), q.x_basis()] for _ in range(3)]
    )
    assert check_strong_monogamy(box, tol=1e-6).satisfied


def monogamy_scan_oracle(box3: CorrelationBox) -> list[tuple]:
    """(|B_mid,w1|, |B_mid,w2|, labels) at every choice of the monogamy scan, by explicit loops.

    The middle party's ordered setting pair is shared between the two CHSH
    terms; wing pairs, spectator settings, and outcome relabelings (via the
    absolute values) are free.
    """
    results = []
    for middle in range(3):
        w1, w2 = [k for k in range(3) if k != middle]
        for mid_pair in setting_pairs(box3.settings[middle]):
            for w1_pair in setting_pairs(box3.settings[w1]):
                for spect1 in range(box3.settings[w2]):
                    v1 = abs(
                        chsh(box3, *mid_pair, *w1_pair, parties=(middle, w1), spectator_settings=(spect1,)).value
                    )
                    for w2_pair in setting_pairs(box3.settings[w2]):
                        for spect2 in range(box3.settings[w1]):
                            v2 = abs(
                                chsh(
                                    box3, *mid_pair, *w2_pair, parties=(middle, w2), spectator_settings=(spect2,)
                                ).value
                            )
                            results.append((v1, v2, middle, (w1, w2), mid_pair, (w1_pair, w2_pair)))
    return results


def assert_labels_reproduce_terms(box3: CorrelationBox, report) -> None:
    """Each term is the largest |B| of its labelled settings over the spectator's settings, bit for bit."""
    for wing, pair, term in zip(report.wings, report.wing_settings, report.terms):
        spectator = 3 - report.middle - wing
        values = [
            abs(chsh(box3, *report.middle_settings, *pair, parties=(report.middle, wing), spectator_settings=(z,)).value)
            for z in range(box3.settings[spectator])
        ]
        assert max(values) == term


OBJECTIVES = [
    (check_ns_monogamy, lambda v1, v2: v1 + v2),
    (check_strong_monogamy, lambda v1, v2: v1**2 + v2**2),
]


@pytest.mark.parametrize("kind", ["quantum", "signalling"])
@pytest.mark.parametrize("m", [2, 3])
def test_monogamy_scan_matches_brute_force(kind, m):
    rng = np.random.default_rng(10 * m + (kind == "signalling"))
    make = random_quantum_box if kind == "quantum" else random_signalling_box
    box = make((m, m, m), rng)
    scan = monogamy_scan_oracle(box)
    for check, objective in OBJECTIVES:
        report = check(box)
        want = max(objective(r[0], r[1]) for r in scan)
        assert report.worst_value == pytest.approx(want, abs=1e-12)
        assert objective(*report.terms) == pytest.approx(report.worst_value, abs=1e-12)
        assert report.satisfied == (report.worst_value <= report.bound + 1e-6)
        assert_labels_reproduce_terms(box, report)


def test_m4_quantum_box_within_both_bounds():
    box = random_quantum_box((4, 4, 4), np.random.default_rng(44))
    for check, objective in OBJECTIVES:
        report = check(box)
        assert report.satisfied and report.worst_value <= report.bound
        assert objective(*report.terms) == pytest.approx(report.worst_value, abs=1e-12)
        assert_labels_reproduce_terms(box, report)
