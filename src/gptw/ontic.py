"""Ontological models and LP-based local-model (factorizability) search.

An ontological model assigns each preparation a distribution over a finite
set of ontic states, each measurement a response function per outcome, and
each transformation a column-stochastic matrix.  Validity is the usual five
positivity/normalization conditions; `validate_model` reports one violation
record per broken condition rather than raising, so defective models can be
constructed and examined.

`find_local_model` decides, by linear programming over the simplex of
deterministic local strategies, whether a bipartite box is factorizable
p(ab|xy) = sum_l w_l xi(a|x,l) xi(b|y,l).  A returned certificate is
re-checked in exact rational arithmetic (for <= 256 strategies) to guard
against solver false positives.  Factorizability is exactly what a
preparation-noncontextual representation forces on the box, so this is the
decidable endpoint of the noncontextuality-implies-locality chain;
`noncontextual_chsh_bound` packages the implication.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping, Sequence

import numpy as np

from .correlations import ChshValue, CorrelationBox, is_bell_nonlocal
from .errors import ArityError, SizeLimitError, SolverError, UnknownIdError, ValidationError
from .theory import EPS_NORM

LP_TOL = 1e-7
MAX_STRATEGIES = 2**20
EXACT_RECHECK_LIMIT = 256

Strategy = tuple[tuple[int, ...], tuple[int, ...]]  # (a(x) per x, b(y) per y)


class OnticModel:
    """Finite ontic-state model: distributions mu, responses xi, transition matrices.

    Shapes and finiteness are validated at construction; the five value
    conditions are the business of :func:`validate_model`.
    """

    def __init__(
        self,
        ontic_states: Sequence[str],
        mu: Mapping[str, Sequence[float]],
        xi: Mapping[str, np.ndarray],
        trans: Mapping[str, np.ndarray],
    ) -> None:
        self.ontic_states = tuple(ontic_states)
        n = len(self.ontic_states)
        if n == 0:
            raise ValidationError("ontic-state space is empty")
        self.mu = {p: np.asarray(v, dtype=float) for p, v in mu.items()}
        self.xi = {m: np.asarray(v, dtype=float) for m, v in xi.items()}
        self.trans = {t: np.asarray(v, dtype=float) for t, v in trans.items()}
        for p, v in self.mu.items():
            if v.shape != (n,):
                raise ValidationError(f"mu[{p!r}] must have one entry per ontic state")
        for m, v in self.xi.items():
            if v.ndim != 2 or v.shape[1] != n:
                raise ValidationError(f"xi[{m!r}] must have shape (arity, {n})")
        for t, v in self.trans.items():
            if v.shape != (n, n):
                raise ValidationError(f"trans[{t!r}] must be {n}x{n}")
        for name, arrays in (("mu", self.mu), ("xi", self.xi), ("trans", self.trans)):
            for key, v in arrays.items():
                if not np.isfinite(v).all():
                    raise ValidationError(f"{name}[{key!r}] has a non-finite entry")

    @property
    def n_states(self) -> int:
        return len(self.ontic_states)


@dataclass(frozen=True)
class ConditionViolation:
    """One broken validity condition, with the offending indices."""

    condition: int  # 1..5
    message: str
    where: tuple = ()


def validate_model(model: OnticModel, tol: float = EPS_NORM) -> list[ConditionViolation]:
    """Check the five validity conditions; empty list iff the model is valid.

    Conditions: (1) mu values in [0,1]; (2) mu normalized; (3) xi values in
    [0,1]; (4) xi sums to 1 over outcomes at each ontic state; (5) every
    transformation matrix is column-stochastic.  At most one record per
    condition is returned, aggregating all offenders.
    """
    violations: list[ConditionViolation] = []

    bad1 = [
        (p, lam)
        for p, v in model.mu.items()
        for lam in np.flatnonzero((v < -tol) | (v > 1 + tol))
    ]
    if bad1:
        violations.append(
            ConditionViolation(1, "mu value outside [0, 1]", tuple(bad1))
        )
    bad2 = [
        (p, float(v.sum())) for p, v in model.mu.items() if abs(v.sum() - 1.0) > tol
    ]
    if bad2:
        violations.append(ConditionViolation(2, "mu does not sum to 1", tuple(bad2)))

    bad3 = [
        (m, x, lam)
        for m, v in model.xi.items()
        for x, lam in zip(*np.where((v < -tol) | (v > 1 + tol)))
    ]
    if bad3:
        violations.append(ConditionViolation(3, "xi value outside [0, 1]", tuple(bad3)))
    bad4 = [
        (m, lam, float(s))
        for m, v in model.xi.items()
        for lam, s in enumerate(v.sum(axis=0))
        if abs(s - 1.0) > tol
    ]
    if bad4:
        violations.append(
            ConditionViolation(4, "xi outcomes do not sum to 1 at some ontic state", tuple(bad4))
        )

    bad5 = []
    for t, v in model.trans.items():
        if (v < -tol).any():
            bad5.append((t, "negative entry"))
        cols = np.flatnonzero(np.abs(v.sum(axis=0) - 1.0) > tol)
        bad5.extend((t, f"column {c}") for c in cols)
    if bad5:
        violations.append(
            ConditionViolation(5, "transformation matrix not column-stochastic", tuple(bad5))
        )
    return violations


def predict(model: OnticModel, prep: str, trans: str, meas: str) -> np.ndarray:
    """Outcome distribution p(x) = sum_l xi_{M,x}(l) (T mu_P)(l)."""
    try:
        mu = model.mu[prep]
        t_mat = model.trans[trans]
        xi = model.xi[meas]
    except KeyError as exc:
        raise UnknownIdError(f"unknown id in ontic model: {exc.args[0]!r}") from None
    return xi @ (t_mat @ mu)


@dataclass(frozen=True)
class LocalModelCertificate:
    """Convex weights over deterministic strategies reconstructing a box."""

    weights: dict[Strategy, float]
    residual: float

    def as_json_dict(self) -> dict[str, float]:
        return {
            "".join(map(str, a)) + "|" + "".join(map(str, b)): w
            for (a, b), w in sorted(self.weights.items())
        }


def _strategies(box: CorrelationBox) -> list[Strategy]:
    (n_x, n_y), (n_a, n_b) = box.settings, box.outcomes
    count = n_a**n_x * n_b**n_y
    if count > MAX_STRATEGIES:
        raise SizeLimitError(f"{count} deterministic strategies exceed the {MAX_STRATEGIES} cap")
    return [
        (a_map, b_map)
        for a_map in product(range(n_a), repeat=n_x)
        for b_map in product(range(n_b), repeat=n_y)
    ]


def strategy_table(box: CorrelationBox, strategy: Strategy) -> np.ndarray:
    """The deterministic box (same shape as box.table) of one strategy."""
    a_map, b_map = strategy
    table = np.zeros(box.settings + box.outcomes)
    for x in range(box.settings[0]):
        for y in range(box.settings[1]):
            table[x, y, a_map[x], b_map[y]] = 1.0
    return table


def _exact_residual(box: CorrelationBox, weights: dict[Strategy, float]) -> float:
    """Max reconstruction error in exact rational arithmetic."""
    recon: dict[tuple[int, int, int, int], Fraction] = {}
    for (a_map, b_map), w in weights.items():
        fw = Fraction(w)
        for x in range(box.settings[0]):
            for y in range(box.settings[1]):
                key = (x, y, a_map[x], b_map[y])
                recon[key] = recon.get(key, Fraction(0)) + fw
    worst = Fraction(0)
    for x in range(box.settings[0]):
        for y in range(box.settings[1]):
            for a in range(box.outcomes[0]):
                for b in range(box.outcomes[1]):
                    got = recon.get((x, y, a, b), Fraction(0))
                    diff = abs(got - Fraction(float(box.table[x, y, a, b])))
                    worst = max(worst, diff)
    return float(worst)


def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported on the first solve.

    scipy.optimize takes most of `import gptw`, and only the local-model LP
    needs it.  `find_local_model` looks this name up at call time, so it can
    be replaced on the module (a test fake, a tracing wrapper).
    """
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def find_local_model(box: CorrelationBox, tol: float = LP_TOL) -> LocalModelCertificate | None:
    """LP feasibility over the deterministic-strategy simplex.

    Minimizes the sup-norm reconstruction error t subject to convex weights;
    a certificate is returned iff the optimum (re-checked exactly in rational
    arithmetic when the strategy count allows) is within `tol`.
    """
    if box.n_parties != 2:
        raise ArityError("find_local_model expects a bipartite box")
    strategies = _strategies(box)
    n_strat = len(strategies)
    columns = np.stack([strategy_table(box, s).reshape(-1) for s in strategies], axis=1)
    target = box.table.reshape(-1)
    n_rows = target.size

    # variables: [w_1..w_V, t]; minimize t with |columns @ w - target| <= t
    c = np.zeros(n_strat + 1)
    c[-1] = 1.0
    ones_t = np.ones((n_rows, 1))
    a_ub = np.block([[columns, -ones_t], [-columns, -ones_t]])
    b_ub = np.concatenate([target, -target])
    a_eq = np.concatenate([np.ones(n_strat), [0.0]]).reshape(1, -1)
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=[(0, None)] * n_strat + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        raise SolverError(f"LP solver failed: {res.message}")
    raw = np.clip(res.x[:n_strat], 0.0, None)
    raw /= raw.sum()
    weights = {s: float(w) for s, w in zip(strategies, raw) if w > 1e-12}

    if n_strat <= EXACT_RECHECK_LIMIT:
        residual = _exact_residual(box, weights)
    else:
        residual = float(res.x[-1])
    if residual > tol:
        return None
    return LocalModelCertificate(weights, residual)


def certificate_to_ontic_model(box: CorrelationBox, cert: LocalModelCertificate) -> OnticModel:
    """Reinterpret a local-model certificate as an ontological model.

    Ontic states are the supporting strategies; the single preparation
    "source" carries the certificate weights, and each setting pair (x, y)
    becomes a composite measurement with outcome index a * n_b + b.
    """
    strategies = sorted(cert.weights)
    labels = ["".join(map(str, a)) + "|" + "".join(map(str, b)) for a, b in strategies]
    mu = {"source": np.array([cert.weights[s] for s in strategies])}
    n_b = box.outcomes[1]
    xi = {}
    for x in range(box.settings[0]):
        for y in range(box.settings[1]):
            resp = np.zeros((box.outcomes[0] * n_b, len(strategies)))
            for col, (a_map, b_map) in enumerate(strategies):
                resp[a_map[x] * n_b + b_map[y], col] = 1.0
            xi[f"s{x},{y}"] = resp
    trans = {"I": np.eye(len(strategies))}
    return OnticModel(labels, mu, xi, trans)


@dataclass(frozen=True)
class NoncontextualVerdict:
    """Joint outcome of the local-model LP and the CHSH scan on one box."""

    certificate: LocalModelCertificate | None
    max_abs_chsh: float
    witness: ChshValue
    consistent: bool  # certificate present implies max |CHSH| <= 2 + tol

    @property
    def local_model_exists(self) -> bool:
        return self.certificate is not None


def noncontextual_chsh_bound(
    box: CorrelationBox, lp_tol: float = LP_TOL, chsh_tol: float = LP_TOL
) -> NoncontextualVerdict:
    """Pair the LP verdict with the box's maximal |CHSH| and assert the implication."""
    cert = find_local_model(box, lp_tol)
    _, witness = is_bell_nonlocal(box, chsh_tol)
    max_abs = abs(witness.value)
    consistent = cert is None or max_abs <= 2.0 + chsh_tol
    return NoncontextualVerdict(cert, max_abs, witness, consistent)
