"""Relabelling invariance of the CHSH witness search, the no-signalling check and the monogamy scan.

A party swap, a permutation of one party's settings and a flip of outcomes
at some settings permute a box's entries, so its exact CHSH values are the
same set, up to sign.  The verdict and max |B| must not move, and the
witness found on the relabelled box, mapped back to the original labels,
must be a witness of the original box with the same exact margin.  On
tripartite boxes, signalling ones included, the no-signalling deviation must
not move under any of the six party orders, setting permutations or
per-setting outcome permutations, and both monogamy worst values must not
move under party orders, setting permutations or a party's outcomes flipped
at every setting.  Runs are derandomized, so tier-1 sees the same examples
each time.
"""
from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptw.correlations import (
    CorrelationBox,
    _chsh_table,
    _monogamy_scan,
    check_no_signalling,
    chsh,
    chsh_margin,
    exact_chsh_witness,
)

RELABEL = settings(derandomize=True, database=None, max_examples=100, deadline=None)
TOLS = (0.0, 5e-324, 1e-12, 1e-9)


def local_table(m_a: int, m_b: int, rng: np.random.Generator) -> np.ndarray:
    """A mixture of 1 to 4 deterministic strategies: |B| ties at 2 on many setting pairs."""
    weights = rng.dirichlet(np.ones(rng.integers(1, 5)))
    table = np.zeros((m_a, m_b, 2, 2))
    for w in weights:
        a, b = rng.integers(0, 2, m_a), rng.integers(0, 2, m_b)
        table[np.arange(m_a)[:, None], np.arange(m_b), a[:, None], b] += w
    return table


def parity_table(m_a: int, m_b: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform bits whose parity is a random function of the settings: PR boxes on some setting pairs."""
    f = rng.integers(0, 2, (m_a, m_b))
    table = np.zeros((m_a, m_b, 2, 2))
    for a in range(2):
        table[np.arange(m_a)[:, None], np.arange(m_b), a, a ^ f] = 0.5
    return table


def draw_box(rng: np.random.Generator) -> CorrelationBox:
    """A signalling, local or near-threshold box with 2 to 4 settings per party."""
    m_a, m_b = (int(m) for m in rng.integers(2, 5, 2))
    kind = rng.integers(3)
    if kind == 0:
        raw = rng.random((m_a, m_b, 2, 2))
        table = raw / raw.sum(axis=(2, 3), keepdims=True)
    elif kind == 1:
        table = local_table(m_a, m_b, rng)
    else:  # within a few ulps of the local bound, or well past it
        v = rng.choice([0.0, 1e-16, 1e-12, 0.1, 0.5])
        table = v * parity_table(m_a, m_b, rng) + (1 - v) * local_table(m_a, m_b, rng)
    return CorrelationBox((m_a, m_b), (2, 2), table)


def party_swap(box: CorrelationBox, rng: np.random.Generator):
    def back(a, b):
        return b, a

    return box.table.transpose(1, 0, 3, 2), back


def setting_permutation(box: CorrelationBox, rng: np.random.Generator):
    party = int(rng.integers(2))
    perm = rng.permutation(box.settings[party])  # new setting i is old setting perm[i]
    table = box.table[perm] if party == 0 else box.table[:, perm]

    def back(a, b):
        mapped = tuple(int(perm[s]) for s in (a, b)[party])
        return (mapped, b) if party == 0 else (a, mapped)

    return table, back


def outcome_flips(box: CorrelationBox, rng: np.random.Generator):
    flip_a, flip_b = rng.integers(0, 2, box.settings[0]), rng.integers(0, 2, box.settings[1])
    x, y = np.arange(box.settings[0])[:, None, None, None], np.arange(box.settings[1])[None, :, None, None]
    a, b = np.arange(2)[:, None], np.arange(2)
    table = box.table[x, y, a ^ flip_a[x], b ^ flip_b[y]]

    def back(a_pair, b_pair):
        # B' = +-(E00 + tau E01 + sigma E10 - sigma tau E11) with sigma, tau = -1 where a pair's flips differ:
        # the CHSH combination that puts the minus sign there swaps the other party's pair
        sigma, tau = flip_a[a_pair[0]] != flip_a[a_pair[1]], flip_b[b_pair[0]] != flip_b[b_pair[1]]
        return (a_pair[::-1] if tau else a_pair), (b_pair[::-1] if sigma else b_pair)

    return table, back


RELABELLINGS = {"party swap": party_swap, "setting permutation": setting_permutation, "outcome flips": outcome_flips}


@pytest.mark.parametrize("relabelling", sorted(RELABELLINGS))
def test_relabelling_keeps_the_verdict_and_maps_the_witness_back(relabelling):
    @RELABEL
    @given(st.integers(0, 2**32 - 1), st.sampled_from(TOLS))
    def check(seed, tol):
        rng = np.random.default_rng(seed)
        box = draw_box(rng)
        table, back = RELABELLINGS[relabelling](box, rng)
        check_relabelled(box, CorrelationBox(table.shape[:2], (2, 2), table), back, tol)

    check()


def check_relabelled(box: CorrelationBox, relabelled: CorrelationBox, back, tol: float) -> None:
    witness, margin = exact_chsh_witness(relabelled, tol)
    assert (margin is None) == (exact_chsh_witness(box, tol)[1] is None)
    biggest = [float(np.abs(_chsh_table(b, 0, 1)[0]).max()) for b in (box, relabelled)]
    assert abs(biggest[0] - biggest[1]) <= 1e-14
    if margin is None:
        assert abs(witness.value) == biggest[1]

    a, b = back(witness.a_settings, witness.b_settings)
    original = chsh(box, *a, *b)
    assert abs(abs(original.value) - abs(witness.value)) <= 1e-14
    # the exact |B| (a margin at tol -2) and the exact margin are the same sums of the same entries
    assert chsh_margin(box, original, -2.0) == chsh_margin(relabelled, witness, -2.0)
    assert chsh_margin(box, original, tol) == margin


# -- tripartite boxes: the no-signalling deviation and both monogamy worst values ------------------------------


def draw_box3(rng: np.random.Generator, outcomes: tuple[int, ...]) -> CorrelationBox:
    """A signalling, local or parity-mixed tripartite box with 2 or 3 settings per party.

    The parity part, a + b + c = f(x, y, z) mod 2 with uniform pairs, is no-signalling; it needs binary
    outcomes, so other arities draw only the first two kinds.
    """
    m = tuple(int(k) for k in rng.integers(2, 4, 3))
    shape = m + outcomes
    kind = rng.integers(3 if outcomes == (2, 2, 2) else 2)
    if kind == 0:
        raw = rng.random(shape)
        return CorrelationBox(m, outcomes, raw / raw.sum(axis=(3, 4, 5), keepdims=True))
    local = np.zeros(shape)
    x, y, z = np.ix_(*(np.arange(k) for k in m))
    for w in rng.dirichlet(np.ones(rng.integers(1, 5))):
        a, b, c = (rng.integers(0, o, k) for o, k in zip(outcomes, m))
        local[x, y, z, a[x], b[y], c[z]] += w
    if kind == 1:
        return CorrelationBox(m, outcomes, local)
    parity = np.zeros(shape)
    f = rng.integers(0, 2, m)
    for a in range(2):
        for b in range(2):
            parity[x, y, z, a, b, a ^ b ^ f] = 0.25
    v = rng.choice([0.0, 1e-12, 0.3, 0.7, 1.0])
    return CorrelationBox(m, outcomes, v * parity + (1 - v) * local)


def party_permutations(box: CorrelationBox, rng: np.random.Generator):
    """The box under each of the six orders of its parties."""
    for order in itertools.permutations(range(3)):
        yield box.table.transpose(order + tuple(3 + k for k in order))


def setting_permutations(box: CorrelationBox, rng: np.random.Generator):
    """The box with each party's settings permuted in turn, then all three at once."""
    perms = [rng.permutation(m) for m in box.settings]
    for party in range(3):
        yield np.take(box.table, perms[party], axis=party)
    yield box.table[np.ix_(*perms)]


def outcome_relabellings(box: CorrelationBox, rng: np.random.Generator):
    """The box with each party's outcomes permuted per setting, one party at a time, then all at once."""
    perms = [np.array([rng.permutation(o) for _ in range(m)]) for m, o in zip(box.settings, box.outcomes)]
    for parties in ((0,), (1,), (2,), (0, 1, 2)):
        index = list(np.indices(box.table.shape, sparse=True))
        for k in parties:
            index[3 + k] = perms[k][index[k], index[3 + k]]
        yield box.table[tuple(index)]


def party_outcome_flips(box: CorrelationBox, rng: np.random.Generator):
    """The binary box with one party's outcomes flipped at every setting, for each party in turn."""
    for party in range(3):
        yield np.flip(box.table, axis=3 + party)


RELABELLINGS3 = {
    "party permutations": party_permutations,
    "setting permutations": setting_permutations,
    "outcome relabellings": outcome_relabellings,
}
# The monogamy scan ties both CHSH terms to one ordered setting pair of the middle party, so a wing's
# outcomes flipped at one setting only reach sign placements the scan never pairs: the worst value moves.
# A party's outcomes flipped at every setting negate its correlators, which |B| absorbs.
MONOGAMY_RELABELLINGS = {
    "party permutations": party_permutations,
    "setting permutations": setting_permutations,
    "party outcome flips": party_outcome_flips,
}


@pytest.mark.parametrize("relabelling", sorted(RELABELLINGS3))
def test_no_signalling_deviation_is_relabelling_invariant(relabelling):
    @RELABEL
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2, 2), (2, 3, 2), (3, 3, 3)]))
    def check(seed, outcomes):
        rng = np.random.default_rng(seed)
        box = draw_box3(rng, outcomes)
        deviation = check_no_signalling(box).max_deviation
        for table in RELABELLINGS3[relabelling](box, rng):
            relabelled = CorrelationBox(table.shape[:3], table.shape[3:], table)
            assert abs(check_no_signalling(relabelled).max_deviation - deviation) <= 1e-15

    check()


@pytest.mark.parametrize("relabelling", sorted(MONOGAMY_RELABELLINGS))
def test_monogamy_worst_values_are_relabelling_invariant(relabelling):
    @RELABEL
    @given(st.integers(0, 2**32 - 1))
    def check(seed):
        rng = np.random.default_rng(seed)
        box = draw_box3(rng, (2, 2, 2))
        worst = [report.worst_value for report in _monogamy_scan(box, 1e-6)]
        # party and setting permutations repeat the scan's float operations; a flip negates E with other roundings
        slack = 1e-14 if relabelling == "party outcome flips" else 0.0
        for table in MONOGAMY_RELABELLINGS[relabelling](box, rng):
            relabelled = _monogamy_scan(CorrelationBox(table.shape[:3], (2, 2, 2), table), 1e-6)
            assert all(abs(r.worst_value - w) <= slack for r, w in zip(relabelled, worst))

    check()
