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
at every setting.  `find_local_model`'s verdict must not move under a party
swap, setting permutations or per-setting outcome relabellings, and its
certificate, mapped back, must reconstruct the original box within `tol`.
`multipartite_box` must not move under local unitaries applied to both the
state and the POVMs.  Runs are derandomized, so tier-1 sees the same examples
each time.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gptw import quantum as q
from gptw.correlations import (
    CorrelationBox,
    _chsh_table,
    _monogamy_scan,
    check_no_signalling,
    chsh,
    chsh_margin,
    exact_chsh_witness,
)
from gptw.ontic import LP_TOL, find_local_model, strategy_table

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


# -- the local-model LP: verdict and certificate ----------------------------------------------------------------

# (settings, outcomes): Alice's n_x != n_a in the second and fourth, Bob's in the third and fifth; the
# binary ones reach `find_local_model`'s CHSH gate when nonlocal, the others the LP either way
LP_SHAPES = [((2, 2), (2, 2)), ((3, 2), (2, 2)), ((2, 3), (2, 2)), ((2, 3), (3, 2)), ((2, 2), (2, 3))]


def draw_lp_box(rng: np.random.Generator, settings: tuple[int, int], outcomes: tuple[int, int], local: bool):
    """A mixture of 1 to 4 deterministic strategies, or a noisy PR box at settings and outcomes 0, 1.

    The PR part has visibility v >= 0.75, so |B| >= 3 and the box is at least (4 v - 2) / 16 >= 1/16 from
    every local box; its other setting pairs hold random product distributions.
    """
    (n_x, n_y), (n_a, n_b) = settings, outcomes
    x, y = np.ix_(np.arange(n_x), np.arange(n_y))
    table = np.zeros(settings + outcomes)
    if local:
        for w in rng.dirichlet(np.ones(rng.integers(1, 5))):
            table[x, y, rng.integers(0, n_a, n_x)[:, None], rng.integers(0, n_b, n_y)] += w
        return CorrelationBox(settings, outcomes, table)
    table[:] = rng.dirichlet(np.ones(n_a), settings)[..., None] * rng.dirichlet(np.ones(n_b), settings)[:, :, None]
    v = rng.uniform(0.75, 1.0)
    table[:2, :2] = 0.0  # outcomes past 1 never occur at the PR settings
    for a in range(2):
        for b in range(2):
            table[:2, :2, a, b] = (1 - v) / 4 + v / 2 * ((a ^ b) == (x[:2, :1] & y[:1, :2]))
    return CorrelationBox(settings, outcomes, table)


def lp_party_swap(box: CorrelationBox, rng: np.random.Generator):
    return box.table.transpose(1, 0, 3, 2), lambda a_map, b_map: (b_map, a_map)


def lp_setting_permutations(box: CorrelationBox, rng: np.random.Generator):
    perm_x, perm_y = (rng.permutation(m) for m in box.settings)  # new setting i is old setting perm[i]

    def back(a_map, b_map):  # the old setting perm[i] answers what the new setting i answered
        return tuple(np.array(a_map)[np.argsort(perm_x)]), tuple(np.array(b_map)[np.argsort(perm_y)])

    return box.table[np.ix_(perm_x, perm_y)], back


def lp_outcome_relabellings(box: CorrelationBox, rng: np.random.Generator):
    (n_x, n_y), (n_a, n_b) = box.settings, box.outcomes
    sigma = np.array([rng.permutation(n_a) for _ in range(n_x)])  # new outcome a at x is old outcome sigma[x, a]
    tau = np.array([rng.permutation(n_b) for _ in range(n_y)])
    x, y, a, b = np.ix_(np.arange(n_x), np.arange(n_y), np.arange(n_a), np.arange(n_b))

    def back(a_map, b_map):
        return tuple(sigma[range(n_x), a_map]), tuple(tau[range(n_y), b_map])

    return box.table[x, y, sigma[x, a], tau[y, b]], back


LP_RELABELLINGS = {
    "party swap": lp_party_swap,
    "setting permutations": lp_setting_permutations,
    "outcome relabellings": lp_outcome_relabellings,
}


@pytest.mark.parametrize("relabelling", sorted(LP_RELABELLINGS))
def test_local_model_verdict_and_certificate_are_relabelling_invariant(relabelling):
    @settings(RELABEL, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(LP_SHAPES), st.booleans())
    def check(seed, shape, local):
        rng = np.random.default_rng(seed)
        box = draw_lp_box(rng, *shape, local)
        assert (find_local_model(box) is not None) == local
        table, back = LP_RELABELLINGS[relabelling](box, rng)
        relabelled = CorrelationBox(table.shape[:2], table.shape[2:], table)
        cert = find_local_model(relabelled)
        assert (cert is not None) == local
        if cert is not None:
            rebuilt = sum(w * strategy_table(box, back(*s)) for s, w in cert.weights.items())
            assert np.abs(rebuilt - box.table).max() <= LP_TOL

    check()


# -- Born tables under local unitaries ---------------------------------------------------------------------------


def test_multipartite_box_is_invariant_under_local_unitaries():
    @RELABEL
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 3, 2)]))
    def check(seed, dims):
        rng = np.random.default_rng(seed)
        state = q.ginibre_state(int(np.prod(dims)), rng, dims=dims)
        # 1 or 2 settings per party, sharing one outcome arity of 2 or 3
        shapes = [(d, *(int(k) for k in rng.integers((1, 2), (3, 4)))) for d in dims]
        povms = [[q.random_povm(d, n_out, rng) for _ in range(n_set)] for d, n_set, n_out in shapes]
        us = [q.haar_unitary(d, rng) for d in dims]
        u = functools.reduce(np.kron, us)
        rotated_state = q.DensityMatrix(u @ state.matrix @ u.conj().T, dims=dims)
        rotated = [[q.Povm(v @ p.elements @ v.conj().T) for p in s] for v, s in zip(us, povms)]
        table = q.multipartite_box(state, povms).table
        assert np.abs(q.multipartite_box(rotated_state, rotated).table - table).max() <= 1e-12

    check()
