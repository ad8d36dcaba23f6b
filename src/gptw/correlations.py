"""CHSH quantities, Bell nonlocality, no-signalling, and monogamy bounds.

Works on n-party correlation boxes p(a_1..a_n | x_1..x_n) with n <= 3.
Outcomes are valued (-1)**a throughout; a box itself stays purely
probabilistic.

The CHSH combination for an ordered pair of settings per side is

    B = E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1)

Nonlocality and monogamy searches quantify over ordered setting pairs and
outcome relabelings of each party (i.e. they compare |B| against the bound);
this makes the CHSH family complete for two-setting two-outcome boxes, which
the local-model LP cross-check relies on.  Monogamy additionally quantifies
over which party plays the shared middle role, with the middle party's
ordered setting pair common to both terms, exactly as the defining
expressions B_AB + B_BC (<= 4) and B_AB^2 + B_BC^2 (<= 8) share the B
measurements.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ArityError, ValidationError
from .theory import EPS_NORM, EnsemblePreparation, OperationalTheory, outcome_distribution

NS_MONOGAMY_BOUND = 4.0
STRONG_MONOGAMY_BOUND = 8.0


class CorrelationBox:
    """Dense table p(a_1..a_n | x_1..x_n) for n parties.

    `settings[k]` and `outcomes[k]` give party k's setting count and outcome
    arity; `table` has shape settings + outcomes and every setting slice must
    be a normalized distribution.
    """

    def __init__(
        self, settings: Sequence[int], outcomes: Sequence[int], table: np.ndarray
    ) -> None:
        self.settings = tuple(int(s) for s in settings)
        self.outcomes = tuple(int(o) for o in outcomes)
        if len(self.settings) != len(self.outcomes) or not self.settings:
            raise ValidationError("settings and outcomes must list one entry per party")
        self.n_parties = len(self.settings)
        if self.n_parties > 3:
            raise ValidationError("boxes with more than 3 parties are unsupported")
        tab = np.asarray(table, dtype=float)
        if tab.shape != self.settings + self.outcomes:
            raise ValidationError(
                f"table shape {tab.shape} != settings+outcomes {self.settings + self.outcomes}"
            )
        # written so that NaN fails it: min and max propagate NaN
        if not (tab.min() >= -EPS_NORM and tab.max() <= 1.0 + EPS_NORM):
            raise ValidationError("box entries must be finite and in [0, 1]")
        sums = tab.reshape(self.settings + (-1,)).sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > EPS_NORM:
            raise ValidationError("some setting slice does not sum to 1")
        tab = np.clip(tab, 0.0, 1.0)
        tab.flags.writeable = False
        self.table = tab

    def prob(self, settings: Sequence[int]) -> np.ndarray:
        """Outcome distribution (shape = outcomes) for one setting tuple."""
        xs = tuple(settings)
        if len(xs) != self.n_parties:
            raise ArityError(f"expected {self.n_parties} settings, got {len(xs)}")
        return self.table[xs]

    def marginal(self, parties: Sequence[int], spectator_settings: Sequence[int] | None = None) -> "CorrelationBox":
        """Marginal box of a party subset, others' outcomes summed at fixed settings.

        For a signalling box the result depends on the spectators' settings
        (default 0 for each); callers quantifying over measurement choices
        should sweep them.
        """
        parties = tuple(parties)
        others = [k for k in range(self.n_parties) if k not in parties]
        if spectator_settings is None:
            spectator_settings = [0] * len(others)
        if len(spectator_settings) != len(others):
            raise ArityError("one spectator setting per marginalized party required")
        new_settings = [self.settings[k] for k in parties]
        new_outcomes = [self.outcomes[k] for k in parties]
        out = np.zeros(tuple(new_settings) + tuple(new_outcomes))
        for xs in np.ndindex(*new_settings):
            full = [0] * self.n_parties
            for k, x in zip(parties, xs):
                full[k] = x
            for k, x in zip(others, spectator_settings):
                full[k] = x
            block = self.table[tuple(full)]
            # sum out the dropped parties' outcome axes, keep `parties` order
            block = np.transpose(block, axes=list(parties) + others)
            out[xs] = block.reshape(tuple(new_outcomes) + (-1,)).sum(axis=-1)
        return CorrelationBox(new_settings, new_outcomes, out)


@dataclass(frozen=True)
class ChshValue:
    """A CHSH combination value with the setting choices that produced it."""

    value: float
    a_settings: tuple[int, int]
    b_settings: tuple[int, int]
    parties: tuple[int, int] = (0, 1)


def correlator(box: CorrelationBox, x: int, y: int) -> float:
    """Product expectation E(x, y) = sum_ab (-1)^(a+b) p(ab|xy) of a 2-party box."""
    if box.n_parties != 2:
        raise ArityError("correlator needs a bipartite box (marginalize first)")
    if box.outcomes != (2, 2):
        raise ArityError("correlator needs two-outcome parties")
    p = box.prob((x, y))
    return float(p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1])


def chsh(
    box: CorrelationBox,
    a0: int = 0,
    a1: int = 1,
    b0: int = 0,
    b1: int = 1,
    parties: tuple[int, int] = (0, 1),
    spectator_settings: Sequence[int] | None = None,
) -> ChshValue:
    """CHSH quantity E(a0,b0) + E(a0,b1) + E(a1,b0) - E(a1,b1).

    For boxes with more than two parties the pair marginal is taken first
    (spectators at `spectator_settings`).
    """
    two = box if box.n_parties == 2 and parties == (0, 1) else box.marginal(parties, spectator_settings)
    value = (
        correlator(two, a0, b0)
        + correlator(two, a0, b1)
        + correlator(two, a1, b0)
        - correlator(two, a1, b1)
    )
    return ChshValue(value, (a0, a1), (b0, b1), parties)


def chsh_prepare_measure(
    theory: OperationalTheory,
    ens0: EnsemblePreparation,
    ens1: EnsemblePreparation,
    trans: str,
    m0: str,
    m1: str,
) -> ChshValue:
    """CHSH with the A-side variable replaced by an ensemble's branch index.

    The experimenter picks ensemble x, applies the fixed transformation, and
    measures m_y; both the branch index and the outcome are valued (-1)**v.
    """
    for ens in (ens0, ens1):
        if len(ens) != 2:
            raise ArityError("prepare-measure CHSH needs binary ensembles")
    for m in (m0, m1):
        if theory.arity(m) != 2:
            raise ArityError("prepare-measure CHSH needs two-outcome measurements")

    def expect(ens: EnsemblePreparation, meas: str) -> float:
        total = 0.0
        for i, (w, q) in enumerate(zip(ens.weights, ens.branches)):
            row = outcome_distribution(theory, q, trans, meas)
            total += w * (1 if i == 0 else -1) * (row[0] - row[1])
        return total

    value = expect(ens0, m0) + expect(ens0, m1) + expect(ens1, m0) - expect(ens1, m1)
    return ChshValue(value, (0, 1), (0, 1))


def _setting_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def is_bell_nonlocal(box: CorrelationBox, tol: float = 1e-9) -> tuple[bool, ChshValue]:
    """Search the box's own settings for a CHSH witness with |B| > 2 + tol.

    Returns the maximizing (in absolute value) ChshValue; ordered setting
    pairs cover all sign placements and |.| covers outcome relabelings, so
    for two-setting two-outcome boxes this decides membership of the local
    polytope boundary exactly.
    """
    if box.n_parties != 2:
        raise ArityError("nonlocality search expects a bipartite box")
    if box.outcomes != (2, 2):
        raise ArityError("nonlocality search needs two-outcome parties")
    best: ChshValue | None = None
    for a0, a1 in _setting_pairs(box.settings[0]):
        for b0, b1 in _setting_pairs(box.settings[1]):
            cand = chsh(box, a0, a1, b0, b1)
            if best is None or abs(cand.value) > abs(best.value):
                best = cand
    assert best is not None
    return abs(best.value) > 2.0 + tol, best


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


def _unravel(index: int, shape: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major multi-index of a flat index (np.unravel_index in plain ints)."""
    out = []
    for size in reversed(shape):
        index, rem = divmod(index, size)
        out.append(rem)
    return tuple(reversed(out))


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
        others = [k for k in range(n) if k not in subset]
        sub_settings = tuple(box.settings[k] for k in subset)
        other_settings = tuple(box.settings[k] for k in others)
        # marginal over J's outcomes at every full setting tuple, as
        # [J settings, complement settings, J outcomes]
        marg = box.table.sum(axis=tuple(n + k for k in others))
        marg = marg.transpose(list(subset) + others + list(range(n, n + len(subset))))
        marg = marg.reshape(math.prod(sub_settings), math.prod(other_settings), -1)
        spread = marg.max(axis=1) - marg.min(axis=1)
        devs = spread.max(axis=1)
        worst = max(worst, float(devs.max()))
        for i in np.flatnonzero(devs > tol).tolist():
            # the complement settings at the two extremes of the widest entry
            column = marg[i, :, spread[i].argmax()].tolist()
            a, b = sorted((column.index(min(column)), column.index(max(column))))
            violations.append(
                SignallingViolation(
                    subset,
                    _unravel(i, sub_settings),
                    _unravel(a, other_settings),
                    _unravel(b, other_settings),
                    float(devs[i]),
                )
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


def _monogamy_scan(box3: CorrelationBox) -> list[tuple]:
    """Yield (|B_mid,w1|, |B_mid,w2|, labels) over every allowed choice.

    The middle party's ordered setting pair is shared between the two CHSH
    terms; wing pairs, spectator settings, and outcome relabelings (via the
    absolute values) are free.
    """
    if box3.n_parties != 3:
        raise ArityError("monogamy checks need a tripartite box")
    if box3.outcomes != (2, 2, 2):
        raise ArityError("monogamy checks need two-outcome parties")
    results = []
    for middle in range(3):
        w1, w2 = [k for k in range(3) if k != middle]
        for mid_pair in _setting_pairs(box3.settings[middle]):
            for w1_pair in _setting_pairs(box3.settings[w1]):
                for spect1 in range(box3.settings[w2]):
                    v1 = abs(
                        chsh(
                            box3,
                            *mid_pair,
                            *w1_pair,
                            parties=(middle, w1),
                            spectator_settings=(spect1,),
                        ).value
                    )
                    for w2_pair in _setting_pairs(box3.settings[w2]):
                        for spect2 in range(box3.settings[w1]):
                            v2 = abs(
                                chsh(
                                    box3,
                                    *mid_pair,
                                    *w2_pair,
                                    parties=(middle, w2),
                                    spectator_settings=(spect2,),
                                ).value
                            )
                            results.append(
                                (v1, v2, middle, (w1, w2), mid_pair, (w1_pair, w2_pair))
                            )
    return results


def check_ns_monogamy(box3: CorrelationBox, tol: float = 1e-6) -> MonogamyReport:
    """No-signalling monogamy: |B_AB| + |B_BC| <= 4 for every choice."""
    best = max(_monogamy_scan(box3), key=lambda r: r[0] + r[1])
    worst = best[0] + best[1]
    return MonogamyReport(
        worst <= NS_MONOGAMY_BOUND + tol,
        worst,
        NS_MONOGAMY_BOUND,
        best[2],
        best[3],
        best[4],
        best[5],
        (best[0], best[1]),
    )


def check_strong_monogamy(box3: CorrelationBox, tol: float = 1e-6) -> MonogamyReport:
    """Strong monogamy: B_AB^2 + B_BC^2 <= 8 for every choice."""
    best = max(_monogamy_scan(box3), key=lambda r: r[0] ** 2 + r[1] ** 2)
    worst = best[0] ** 2 + best[1] ** 2
    return MonogamyReport(
        worst <= STRONG_MONOGAMY_BOUND + tol,
        worst,
        STRONG_MONOGAMY_BOUND,
        best[2],
        best[3],
        best[4],
        best[5],
        (best[0], best[1]),
    )
