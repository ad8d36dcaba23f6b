"""CHSH quantities, Bell nonlocality, no-signalling, and monogamy bounds.

Works on n-party correlation boxes p(a_1..a_n | x_1..x_n) with n <= MAX_PARTIES = 3.
Outcomes are valued (-1)**a throughout; a box itself stays purely
probabilistic.  The CHSH combination for an ordered pair of settings per side is

    B = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1)

Nonlocality and monogamy searches quantify over ordered setting pairs and
outcome relabelings of each party (via |B|); this makes the CHSH family
complete for two-setting two-outcome boxes, which the local-model LP
cross-check relies on.  Monogamy also quantifies over the middle party, whose
ordered setting pair both terms of B_AB + B_BC (<= 4) and B_AB^2 + B_BC^2
(<= 8) share, and over each term's spectator setting, since a signalling
box's pair marginal depends on it.  Both searches take B at every choice at
once from one correlator tensor per party pair (`_chsh_table`), and at a
fixed middle pair each wing's largest |B| gives the exact monogamy maximum.

A witness's 16 table entries are read in one way.  `chsh` and `chsh_margin`
gather them through one checked helper, `_witness_cells`; `chsh` sums a
spectator's outcomes and forms E and B in `_chsh_table`'s order, so its value
equals the searches' value at the same settings bit for bit.  A float |B| can
still land on the wrong side of 2 + tol (a local box whose exact |B| is 2 can
read 2.0000000000000004), so verdicts come from one exact sum, `_exact_margins`:
`math.fsum` returns the sum of its floats correctly rounded, and a nonzero sum
of finite floats never rounds to 0.  `exact_chsh_witness` re-checks the
float-best witness, then every other setting pair within the rounding bound
of the threshold, their entries gathered by index in fixed-size chunks.  It
returns the first witness whose exact |B| exceeds 2 + tol with its margin, or
the float-best one with None; `is_bell_nonlocal` returns that verdict, and
every CHSH verdict in the package comes from this one function.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import Sequence

import numpy as np

from .errors import ArityError, SizeLimitError, ValidationError
from .theory import integer, probability_array

MAX_PARTIES = 3  # the largest box every check here handles
# the most B values one CHSH table holds: square binary boxes up to 64 settings, tripartite up to 28
MAX_CHSH_ENTRIES = 2**24
NS_MONOGAMY_BOUND = 4.0
STRONG_MONOGAMY_BOUND = 8.0
# A float |B| sums 16 entries in [0, 1] with 6 roundings, so it is within 2**-47 of the exact sum;
# pairs within this relative slack of the threshold (and at least this absolute one) get an exact check
CHSH_ROUNDING = 2.0**-40
# B's coefficient of p(ab|xy) in rows E(a0,b0), E(a0,b1), E(a1,b0), E(a1,b1), outcomes 00, 01, 10, 11
_CHSH_SIGNS = np.array((1, -1, -1, 1) * 3 + (-1, 1, 1, -1), dtype=float)[:, None]
# which setting of the pairs (a0, a1) and (b0, b1) each of those rows reads
_TERM_A, _TERM_B = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
_SCAN_CHUNK = 1024  # witnesses whose cells the exact scan gathers at once


class CorrelationBox:
    """Dense table p(a_1..a_n | x_1..x_n) for n parties.

    `settings[k]` and `outcomes[k]` give party k's setting count and outcome
    arity; `table` has shape settings + outcomes and every setting slice must
    be a normalized distribution.
    """

    def __init__(
        self, settings: Sequence[int], outcomes: Sequence[int], table: np.ndarray
    ) -> None:
        self.settings = tuple(integer(s, "setting count") for s in settings)
        self.outcomes = tuple(integer(o, "outcome count") for o in outcomes)
        if len(self.settings) != len(self.outcomes) or not self.settings:
            raise ValidationError("settings and outcomes must list one entry per party")
        self.n_parties = len(self.settings)
        if self.n_parties > MAX_PARTIES:
            raise ValidationError(f"at most {MAX_PARTIES} parties are supported, got {self.n_parties}")
        self.table = probability_array(table, "box entries", self.settings + self.outcomes, self.n_parties)

    def prob(self, settings: Sequence[int]) -> np.ndarray:
        """Outcome distribution (shape = outcomes) for one setting tuple."""
        xs = tuple(settings)
        if len(xs) != self.n_parties:
            raise ArityError(f"expected {self.n_parties} settings, got {len(xs)}")
        self._check_settings(range(self.n_parties), xs)
        return self.table[xs]

    def _check_settings(self, parties: Sequence[int], settings: Sequence[int]) -> None:
        """Refuse a setting that is not an integer in [0, settings[k]): NumPy would wrap a negative one."""
        for k, s in zip(parties, settings):
            if isinstance(s, bool):  # NumPy would read it as a mask
                raise ArityError(f"setting {s!r} of party {k} is a bool, not an integer")
            try:
                s = operator.index(s)
            except TypeError:
                raise ArityError(f"setting {s!r} of party {k} is not an integer") from None
            if not 0 <= s < self.settings[k]:
                raise ArityError(f"setting {s} of party {k} is out of range: it has {self.settings[k]} settings")

    def marginal(self, parties: Sequence[int], spectator_settings: Sequence[int] | None = None) -> "CorrelationBox":
        """Marginal box of a party subset, others' outcomes summed at fixed settings.

        For a signalling box the result depends on the spectators' settings
        (default 0 for each); callers quantifying over measurement choices
        should sweep them.
        """
        parties = tuple(parties)
        if len(set(parties)) != len(parties) or not all(0 <= k < self.n_parties for k in parties):
            raise ArityError(f"parties {parties} must be distinct indices in [0, {self.n_parties})")
        n_others = self.n_parties - len(parties)
        if spectator_settings is None:
            spectator_settings = [0] * n_others
        if len(spectator_settings) != n_others:
            raise ArityError("one spectator setting per marginalized party required")
        self._check_settings([k for k in range(self.n_parties) if k not in parties], spectator_settings)
        table = _marginal(self.table, parties)[(slice(None),) * len(parties) + tuple(spectator_settings)]
        return CorrelationBox(
            [self.settings[k] for k in parties], [self.outcomes[k] for k in parties], table
        )


def _marginal(table: np.ndarray, parties: Sequence[int]) -> np.ndarray:
    """p(a_J | x_J, x_rest) of the party subset J = `parties`, in `parties` order.

    The other parties' outcomes are summed out and their settings kept, so
    the axes are [J settings, the others' settings, J outcomes].
    """
    n = table.ndim // 2
    others = [k for k in range(n) if k not in parties]
    kept = sorted(parties)  # outcome axes left by the sum, in party order
    marg = table.sum(axis=tuple(n + k for k in others))
    return marg.transpose(list(parties) + others + [n + kept.index(k) for k in parties])


@dataclass(frozen=True)
class ChshValue:
    """A CHSH combination value with the setting choices that produced it."""

    value: float
    a_settings: tuple[int, int]
    b_settings: tuple[int, int]
    parties: tuple[int, int] = (0, 1)
    spectator_settings: tuple[int, ...] = ()  # the other parties' settings, in party order


def _witness_cells(box: CorrelationBox, parties, a_settings, b_settings, spectators: tuple) -> np.ndarray:
    """B's entries [E term, a, b, spectator outcomes] at one witness, checked: ArityError unless its parties
    are two distinct two-outcome indices, with one spectator setting per other party, and every setting is in range."""
    n, parties = box.n_parties, tuple(parties)
    if len(parties) != 2 or parties[0] == parties[1] or not (0 <= min(parties) and max(parties) < n):
        raise ArityError(f"parties {parties} must be two distinct indices in [0, {n})")
    first, second = parties
    if box.outcomes[first] != 2 or box.outcomes[second] != 2:
        raise ArityError(f"CHSH needs two-outcome parties, got outcomes {box.outcomes}")
    others = [k for k in range(n) if k not in parties]
    if len(spectators) != len(others):
        raise ArityError(f"one spectator setting per other party required, got {len(spectators)} for {len(others)}")
    box._check_settings((first, first, second, second, *others), (*a_settings, *b_settings, *spectators))
    order = (first, second, *others)
    table = box.table.transpose(order + tuple(n + k for k in order))
    return table[(np.array(a_settings)[_TERM_A], np.array(b_settings)[_TERM_B], *spectators)]


def _exact_margins(cells: np.ndarray, tol: float):
    """For each witness of [k, ...] `cells`: exact |B| - 2 - tol as the nearest float if positive, else None.

    One `math.fsum` of the entries times their +-1 has the sign of the exact
    B; a second with -2 and -tol (negated, with 2 and tol, when B < 0: the
    rounding is symmetric) is the exact margin correctly rounded, and a
    positive one is at least 2**-1074.  `tol` inf and NaN give None, -inf inf.
    """
    for terms in (cells.reshape(len(cells), 16, -1) * _CHSH_SIGNS).reshape(len(cells), -1).tolist():
        margin = -math.fsum(terms + [2.0, tol]) if math.fsum(terms) < 0 else math.fsum(terms + [-2.0, -tol])
        yield margin if margin > 0 else None


def chsh(
    box: CorrelationBox,
    a0: int = 0,
    a1: int = 1,
    b0: int = 0,
    b1: int = 1,
    parties: tuple[int, int] = (0, 1),
    spectator_settings: Sequence[int] | None = None,
) -> ChshValue:
    """CHSH quantity E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1) of a party pair.

    A spectator's outcomes are summed out at its setting in
    `spectator_settings` (default 0 each), which the value records.  The
    arithmetic is `_chsh_table`'s, so the value equals the searches' value
    at the same settings bit for bit.
    """
    spectators = (0,) * (box.n_parties - 2) if spectator_settings is None else tuple(spectator_settings)
    cells = _witness_cells(box, parties, (a0, a1), (b0, b1), spectators)
    p = (cells.sum(axis=3) if spectators else cells).tolist()  # a spectator's outcomes, summed as `_marginal` does
    e = [q[0][0] - q[0][1] - q[1][0] + q[1][1] for q in p]
    return ChshValue(e[0] + e[1] + e[2] - e[3], (a0, a1), (b0, b1), tuple(parties), spectators)


@cache
def _setting_pairs(n: int) -> np.ndarray:
    """Ordered pairs (i, j), i != j, of n settings as rows, i-major (read-only, shared)."""
    pairs = np.argwhere(~np.eye(n, dtype=bool))
    pairs.flags.writeable = False
    return pairs


def _chsh_table(box: CorrelationBox, first: int, second: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """B of the party pair (first, second) at every choice, with the pairs indexed.

    Returns (B, first_pairs, second_pairs): B[p, q, z] is the CHSH value at
    `first_pairs[p]`, `second_pairs[q]` and the spectator's setting z (no z
    axis for a bipartite box).  The spectator's outcomes are summed first,
    then E = p00 - p01 - p10 + p11 and B are formed in `chsh`'s order, so
    every value equals `chsh` at the same settings and spectator setting,
    bit for bit.  A table over `MAX_CHSH_ENTRIES` is refused before anything
    is allocated.
    """
    size = math.prod(box.settings) * (box.settings[first] - 1) * (box.settings[second] - 1)
    if size > MAX_CHSH_ENTRIES:
        raise SizeLimitError(f"the CHSH table's {size} entries exceed the {MAX_CHSH_ENTRIES} cap")
    p = _marginal(box.table, (first, second))
    e = p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1]
    if min(e.shape[:2]) < 2:
        raise ArityError("CHSH needs at least two settings per party")
    a, b = _setting_pairs(e.shape[0]), _setting_pairs(e.shape[1])
    a0, a1, b0, b1 = a[:, :1], a[:, 1:], b[:, 0], b[:, 1]
    return e[a0, b0] + e[a0, b1] + e[a1, b0] - e[a1, b1], a, b


def _witness(values: np.ndarray, a_pairs: np.ndarray, b_pairs: np.ndarray, k: int) -> ChshValue:
    """The ChshValue at flat index k of a bipartite `_chsh_table`."""
    p, q = divmod(k, values.shape[1])
    return ChshValue(float(values[p, q]), tuple(a_pairs[p].tolist()), tuple(b_pairs[q].tolist()))


def is_bell_nonlocal(box: CorrelationBox, tol: float = 1e-9) -> tuple[bool, ChshValue]:
    """(verdict, witness): does a CHSH witness of the box's own settings have exact |B| > 2 + tol?

    Both are `exact_chsh_witness`'s: its witness, and whether it has a
    margin.  Ordered setting pairs cover all sign placements and |.| covers
    outcome relabelings, so for two-setting two-outcome boxes this decides
    membership of the local polytope exactly.  A `tol` of inf or NaN answers
    False, and -inf True.
    """
    witness, margin = exact_chsh_witness(box, tol)
    return margin is not None, witness


def chsh_margin(box: CorrelationBox, witness: ChshValue, tol: float) -> float | None:
    """Exact |B| - 2 - tol at the witness's settings, as the nearest float, if positive; else None.

    B's 16 table entries are read as `chsh` reads them (a spectator at the
    witness's setting, 0 if it records none), with the spectator's outcomes
    kept apart, and summed by `_exact_margins`.
    """
    spectators = witness.spectator_settings or (0,) * (box.n_parties - 2)
    cells = _witness_cells(box, witness.parties, witness.a_settings, witness.b_settings, spectators)
    return next(_exact_margins(cells[None], tol))


def exact_chsh_witness(box: CorrelationBox, tol: float) -> tuple[ChshValue, float | None]:
    """(witness, margin): a witness whose exact |B| exceeds 2 + tol and its `chsh_margin`, if any.

    Otherwise the float-best witness with margin None.  The float-best
    witness is re-checked exactly first.  Only if it fails are the other
    ordered setting pairs whose float |B| exceeds the threshold, or falls
    short of it by no more than the rounding slack, re-checked, best float
    |B| first and in (a0, a1, b0, b1) order on ties.  Bipartite two-outcome
    boxes; a `tol` of inf or NaN gives margin None, and -inf the margin inf.
    """
    if box.n_parties != 2:
        raise ArityError(f"the CHSH witness search needs a bipartite box, got {box.n_parties} parties")
    if box.outcomes != (2, 2):
        raise ArityError(f"the CHSH witness search needs two-outcome parties, got outcomes {box.outcomes}")
    table = values, a_pairs, b_pairs = _chsh_table(box, 0, 1)
    size = np.abs(values).reshape(-1)
    threshold = 2.0 + tol
    floor = threshold - CHSH_ROUNDING * max(1.0, abs(threshold))
    k = int(size.argmax())
    if not size[k] > floor:  # a tol of inf or NaN makes the floor NaN
        return _witness(*table, k), None

    def chunks():  # (flat indices, a_terms rows, b_terms rows) of the witnesses to re-check, in order
        p, q = divmod(k, values.shape[1])
        yield [k], slice(p, p + 1), slice(q, q + 1)  # the float-best alone: slices index as cheaply as a scalar
        near = np.flatnonzero(size > floor)  # reached only if the float-best fails: a nonlocal box never sorts
        rest = near[np.argsort(-size[near], kind="stable")][1:]  # the float-best leads: checked
        for start in range(0, len(rest), _SCAN_CHUNK):  # chunks bound the memory
            chunk = rest[start : start + _SCAN_CHUNK]
            yield chunk.tolist(), *np.divmod(chunk, values.shape[1])

    # the indices come from the table, so the cells are gathered unchecked
    a_terms, b_terms = a_pairs[:, _TERM_A], b_pairs[:, _TERM_B]
    for ks, ps, qs in chunks():
        for j, margin in zip(ks, _exact_margins(box.table[a_terms[ps], b_terms[qs]], tol)):
            if margin is not None:
                return _witness(*table, j), margin
    return _witness(*table, k), None


@dataclass(frozen=True)
class SignallingViolation:
    """A subset whose outcome marginal shifts with the complement's settings.

    `deviation` is the largest change of one marginal entry between the two
    complement settings `complement_settings_a` and `complement_settings_b`.
    """

    subset: tuple[int, ...]
    subset_settings: tuple[int, ...]
    complement_settings_a: tuple[int, ...]
    complement_settings_b: tuple[int, ...]
    deviation: float


@dataclass(frozen=True)
class NoSignallingReport:
    satisfied: bool
    max_deviation: float
    violations: tuple[SignallingViolation, ...]

    def __bool__(self) -> bool:
        return self.satisfied


def check_no_signalling(box: CorrelationBox, tol: float = 1e-9) -> NoSignallingReport:
    """Check every proper party subset's marginal against complement settings.

    For each nonempty proper subset J and each setting tuple of J, the
    marginal over J's outcomes must not depend on the complement's settings
    (within tol).  Singletons and pairs exhaust the proper subsets for n<=3.
    The deviation is the largest spread (max - min) of one marginal entry
    over all complement settings; a violation names the two complement
    settings that attain it.
    """
    n = box.n_parties
    violations: list[SignallingViolation] = []
    worst = 0.0
    subsets: list[tuple[int, ...]] = [(i,) for i in range(n)]
    if n == 3:
        subsets += [(0, 1), (0, 2), (1, 2)]
    for subset in subsets:
        sub_settings = tuple(box.settings[k] for k in subset)
        other_settings = tuple(box.settings[k] for k in range(n) if k not in subset)
        n_other = math.prod(other_settings)
        # marginal over J's outcomes at every full setting tuple, as
        # [J settings, complement settings, J outcomes]
        marg = _marginal(box.table, subset).reshape(math.prod(sub_settings), n_other, -1)
        spread = marg.max(axis=1) - marg.min(axis=1)
        devs = spread.max(axis=1)
        worst = max(worst, float(devs.max()))
        for i in np.flatnonzero(~(devs <= tol)).tolist():  # a NaN tol fails every subset setting
            # the complement settings at the two extremes of the widest entry
            column = marg[i, :, spread[i].argmax()].tolist()
            a, b = sorted((column.index(min(column)), column.index(max(column))))
            # one multi-index of (J's settings, complement settings a, complement settings b): n + n - |J| entries,
            # as Python ints, which the CLI report prints as JSON
            k = (i * n_other + a) * n_other + b
            at = tuple(map(int, np.unravel_index(k, sub_settings + 2 * other_settings)))
            violations.append(
                SignallingViolation(subset, at[: len(subset)], at[len(subset) : n], at[n:], float(devs[i]))
            )
    return NoSignallingReport(not violations, worst, tuple(violations))


@dataclass(frozen=True)
class MonogamyReport:
    """Worst-case value of a monogamy combination over all allowed choices."""

    satisfied: bool
    worst_value: float
    bound: float
    middle: int
    wings: tuple[int, int]
    middle_settings: tuple[int, int]
    wing_settings: tuple[tuple[int, int], tuple[int, int]]
    terms: tuple[float, float]

    def __bool__(self) -> bool:
        return self.satisfied


def _monogamy_scan(box3: CorrelationBox, tol: float) -> tuple[MonogamyReport, MonogamyReport]:
    """The NS and the strong monogamy report of a tripartite box, from one scan.

    The choices are the middle party, its ordered setting pair (shared by
    the two CHSH terms), each wing's ordered pair and spectator setting
    (the other wing's setting, which a signalling box's pair marginal
    depends on), and outcome relabelings (via |B|).  At a fixed middle pair
    the two terms share nothing else, and |B1| + |B2| and B1^2 + B2^2 both
    increase in each term, so each wing's largest |B| over its pairs and
    spectator settings gives the exact worst case.  Ties keep the first
    choice in (middle, middle pair, wing pair, spectator setting) order.
    """
    if box3.n_parties != 3:
        raise ArityError("monogamy checks need a tripartite box")
    if box3.outcomes != (2, 2, 2):
        raise ArityError("monogamy checks need two-outcome parties")
    best: list[tuple | None] = [None, None]  # (worst value, labels...) per objective
    for middle in range(3):
        wings = tuple(k for k in range(3) if k != middle)
        terms, wing_pairs = [], []
        for wing in wings:
            values, mid_pairs, pairs = _chsh_table(box3, middle, wing)
            # |B| as [middle pair, (wing pair, spectator setting)]
            flat = np.abs(values).reshape(len(mid_pairs), -1)
            at = flat.argmax(axis=1)
            terms.append(flat[np.arange(len(at)), at])
            wing_pairs.append(pairs[at // values.shape[2]])
        for k, objective in enumerate((terms[0] + terms[1], terms[0] ** 2 + terms[1] ** 2)):
            i = int(objective.argmax())
            if best[k] is None or objective[i] > best[k][0]:
                best[k] = (
                    float(objective[i]),
                    middle,
                    wings,
                    tuple(mid_pairs[i].tolist()),
                    (tuple(wing_pairs[0][i].tolist()), tuple(wing_pairs[1][i].tolist())),
                    (float(terms[0][i]), float(terms[1][i])),
                )
    bounds = (NS_MONOGAMY_BOUND, STRONG_MONOGAMY_BOUND)
    ns, strong = (MonogamyReport(v <= b + tol, v, b, *labels) for (v, *labels), b in zip(best, bounds))
    return ns, strong


def check_ns_monogamy(box3: CorrelationBox, tol: float = 1e-6) -> MonogamyReport:
    """No-signalling monogamy: |B_AB| + |B_BC| <= 4 for every choice."""
    return _monogamy_scan(box3, tol)[0]


def check_strong_monogamy(box3: CorrelationBox, tol: float = 1e-6) -> MonogamyReport:
    """Strong monogamy: B_AB^2 + B_BC^2 <= 8 for every choice."""
    return _monogamy_scan(box3, tol)[1]
