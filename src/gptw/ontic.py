"""Ontological models and LP-based local-model (factorizability) search.

An ontological model assigns each preparation a distribution over a finite
set of ontic states, each measurement a response function per outcome, and
each transformation a column-stochastic matrix.  Validity is the usual five
positivity/normalization conditions; `validate_model` reports one violation
record per broken condition rather than raising, so defective models can be
constructed and examined.

`find_local_model` decides, by linear programming, whether a bipartite box
is factorizable p(ab|xy) = sum_l w_l xi(a|x,l) xi(b|y,l).  The LP enumerates
Alice's deterministic strategies only, with Bob's response to each one a
free conditional distribution (Fine's theorem: the same local polytope as
the mixtures of deterministic strategy pairs).  Each of Alice's strategies
gets one mass column, and Bob's last outcome is that mass minus his other
outcomes, so the LP needs no rows linking the masses of Bob's settings: at
six two-outcome settings per side it has 449 columns and one equality row.
The returned certificate over strategy pairs is re-checked in exact
arithmetic to guard against solver false positives; a solution that HiGHS
places within `tol` but that fails the re-check is solved once more at
tighter feasibility tolerances before the answer is None.  `_local_lp`
builds the LP in HiGHS's column-wise form: the all-zero table's LP of each
box shape is built once (`_lp_shape`, a small LRU cache of read-only
arrays), and a box writes its table into a copy of that LP's row upper
bounds.  `linprog` hands the LP unchanged to the dual simplex in scipy's
HiGHS bindings with the options that `scipy.optimize.linprog(method="highs")`
sets: the same pivots, and linprog's post-solve feasibility check kept.
Each thread keeps one HiGHS solver; its options are reset and its model
replaced before every solve.

Before any LP is built, two-outcome boxes pass a CHSH gate (`chsh_gate`):
the best CHSH witnesses are re-evaluated exactly, and if one has
|B| > 2 + 16 tol the box has no local model within `tol` and no LP is
solved.  This is sound because every local box q has |B(q)| <= 2 and B has
sixteen +-1 coefficients, so |B(p) - B(q)| <= 16 max|p - q|.  A box the gate
does not settle goes to the unchanged LP.  The gate hands the witness
search the threshold tolerance 16 tol, which is exact: scaling a float by a
power of two only moves its exponent, and a product that overflows to inf
sends the box to the LP.  Both exact checks are sums of floats, each one
`math.fsum`, which rounds the exact sum once to the nearest float: its sign
is exact, since a nonzero sum of finite floats is at least 2**-1074 in size.
Factorizability is exactly what a preparation-noncontextual representation
forces on the box, so this is the decidable endpoint of the
noncontextuality-implies-locality chain;
`noncontextual_chsh_bound` packages the implication.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import threading
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .correlations import ChshValue, CorrelationBox, exact_chsh_witness, is_bell_nonlocal
from .errors import ArityError, SizeLimitError, SolverError, UnknownIdError, ValidationError
from .theory import EPS_NORM

LP_TOL = 1e-7
# Caps 2 n_x * n_a**n_x * n_y * n_b: each of Bob's conditional weights q[alpha, y, b] enters 2 n_x fit
# rows.  `_local_lp` stores the last outcome's weight as w[alpha] - sum of the others, so its fit rows
# hold (2 n_b - 1) / n_b times that many nonzeros.  m = 10 binary settings (409,600) is admitted.
MAX_LP_NONZEROS = 2**19
# Caps `_split`'s (alpha, piece, y, b) comparison and `_exact_residual`'s (strategy, x, y) cells; admits (2, 511) binary
MAX_CERTIFICATE_CELLS = 2**21

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
        if len(set(self.ontic_states)) != n:
            raise ValidationError("repeated ontic-state labels")
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
        strategies = sorted(self.weights)
        return dict(zip(_strategy_labels(strategies), (self.weights[s] for s in strategies)))


def _strategy_labels(strategies: Sequence[Strategy]) -> list[str]:
    """"a(0)a(1)..|b(0)b(1).." per strategy, the outcomes comma-separated once any has two digits."""
    sep = "," if any(max(a + b) > 9 for a, b in strategies) else ""
    return [sep.join(map(str, a)) + "|" + sep.join(map(str, b)) for a, b in strategies]


def strategy_table(box: CorrelationBox, strategy: Strategy) -> np.ndarray:
    """The deterministic box (same shape as box.table) of one strategy."""
    a_map, b_map = strategy
    table = np.zeros(box.settings + box.outcomes)
    for x in range(box.settings[0]):
        for y in range(box.settings[1]):
            table[x, y, a_map[x], b_map[y]] = 1.0
    return table


def _alice_maps(n_x: int, n_a: int) -> np.ndarray:
    """maps[alpha, x] = a: every map from n_x settings to n_a outcomes, in `itertools.product` order."""
    return np.arange(n_a**n_x)[:, None] // n_a ** np.arange(n_x - 1, -1, -1) % n_a


def _exact_residual(box: CorrelationBox, a_maps: np.ndarray, b_maps: np.ndarray, weights: np.ndarray) -> float:
    """Max reconstruction error of the strategies (a_maps[i], b_maps[i]) at weights[i], exact, as a float.

    Each table cell's error is one `math.fsum` of its strategies' weights and
    minus its entry, correctly rounded to the float nearest to the rational
    error; rounding is monotone and symmetric, so the largest rounded |error|
    is the rounded largest one.
    """
    (n_x, n_y), (n_a, n_b) = box.settings, box.outcomes
    # flat table index of (x, y, a_map[x], b_map[y]), per strategy and (x, y)
    xy = np.arange(n_x)[:, None] * n_y + np.arange(n_y)
    cells = ((xy * n_a + a_maps[:, :, None]) * n_b + b_maps[:, None, :]).reshape(len(weights), -1)
    terms = [[-t] for t in box.table.reshape(-1).tolist()]
    for w, row in zip(weights.tolist(), cells.tolist()):
        for cell in row:
            terms[cell].append(w)
    return max(abs(math.fsum(cell)) for cell in terms)


@dataclass(frozen=True)
class ChshRefutation:
    """A CHSH witness whose exact |B| exceeds 2 + 16 tol: no local box lies within tol."""

    witness: ChshValue
    margin: float  # exact |B| - 2 - 16 tol, rounded to the nearest float (> 0)


def chsh_gate(box: CorrelationBox, tol: float) -> ChshRefutation | None:
    """A CHSH witness whose exact |B| exceeds 2 + 16 tol, if one exists; else None.

    Applies to bipartite two-outcome boxes with at least two settings per
    party and a finite `16 * tol`; any other box gets None and goes to the LP.
    A box whose CHSH table exceeds `correlations.MAX_CHSH_ENTRIES` raises
    SizeLimitError instead.
    The float-best witness is re-checked exactly first, then every other
    setting pair within rounding of the threshold
    (`correlations.exact_chsh_witness`).  A refuted box has no local box
    within `tol`: see the module docstring.
    """
    if box.n_parties != 2 or box.outcomes != (2, 2) or min(box.settings) < 2 or not np.isfinite(16 * tol):
        return None
    witness, margin = exact_chsh_witness(box, 16 * tol)
    return None if margin is None else ChshRefutation(witness, margin)


class ColumnMatrix(NamedTuple):
    """Column j holds data[indptr[j]:indptr[j + 1]] in rows indices[indptr[j]:indptr[j + 1]] (HiGHS's format)."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray


class HighsLp(NamedTuple):
    """min c x s.t. row_lower <= A x <= row_upper, x >= 0: the model `linprog` hands HiGHS."""

    c: np.ndarray
    A: ColumnMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray


@dataclass(frozen=True)
class LpResult:
    """The fields of `scipy.optimize.linprog`'s result that `find_local_model` and its tracers read."""

    status: int  # 0 optimal; else linprog's code: 1 a limit, 2 infeasible, 3 unbounded, 4 anything else
    message: str
    x: np.ndarray | None  # None unless HiGHS reports an optimum
    fun: float | None
    nit: int  # simplex iterations


# linprog's status code for each HiGHS model status that is not optimal; any other maps to 4
_LINPROG_STATUS = {"kTimeLimit": 1, "kIterationLimit": 1, "kInfeasible": 2, "kUnbounded": 3}
# linprog's settings (no log, dual simplex) with presolve off: on the local-model LP it costs more than it removes
HIGHS_SETTINGS = {"output_flag": False, "log_to_console": False, "simplex_strategy": 1, "presolve": "off"}

HIGHS_CORE = "scipy.optimize._highspy._core"


def _highs_core_file() -> str | None:
    """The path of scipy's HIGHS_CORE extension, found without running any scipy `__init__`."""
    spec = importlib.util.find_spec("scipy")
    for folder in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
            if os.path.isfile(path):
                return path
    return None


@cache
def _highs_core():
    """scipy's HiGHS bindings, loaded from their file so that scipy.optimize's package init never runs.

    Not put in `sys.modules`: a pybind11 3 build (scipy 1.17) keeps one module object per process, which a later
    `import scipy.optimize` binds as `scipy.optimize._highspy._core`.  Without the file, the package import loads it.
    """
    path = _highs_core_file()
    if path is None:
        from scipy.optimize._highspy import _core
        return _core
    spec = importlib.util.spec_from_file_location(HIGHS_CORE, path)
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    return core


_SOLVERS = threading.local()


def _thread_solver(highs):
    """This thread's `_Highs`, made from the module `highs` and made again if that module changes."""
    held = getattr(_SOLVERS, "held", None)
    if held is None or held[0] is not highs:
        held = _SOLVERS.held = (highs, highs._Highs())
    return held[1]


def linprog(c, A, row_lower, row_upper, options=None) -> LpResult:
    """min c x s.t. row_lower <= A x <= row_upper, x >= 0, by HiGHS's dual simplex as linprog runs it.

    The arguments, a `HighsLp`'s fields, go unchanged with `HIGHS_SETTINGS`
    to HiGHS in scipy's bundled bindings (`scipy.optimize._highspy._core`),
    loaded once, by file location, on the first solve (`_highs_core`).  That takes
    about 0.01 s and 3 MB, where importing the scipy.optimize package took
    0.4-0.8 s and 45 MB on a 2-vCPU VM.  `options` adds HiGHS options; a
    name or value HiGHS rejects raises ValueError.
    Each thread solves on its own `_Highs`, made on its first solve and
    kept (`_thread_solver`); `resetOptions` runs before every solve and
    `passModel` replaces the last model with its basis, so no model, basis
    or option carries over from the last, but the solver keeps the memory
    of the largest LP its thread has solved.
    The optimum passes linprog's post-solve check at tolerance 10 sqrt(1e-9),
    x >= -tol and every row within tol of its bounds with no NaN, or gets
    status 4.  `find_local_model` looks this name up at call time, so it
    can be replaced on the module (a test fake, a tracing wrapper).
    """
    highs = _highs_core()
    n_rows, n_cols = len(row_lower), len(c)
    # HiGHS reads each array up to the lengths it is given, so they are checked here
    if (len(row_upper), len(A.indptr), len(A.indices)) != (n_rows, n_cols + 1, len(A.data)):
        raise ValueError("ontic.linprog takes arrays of matching lengths")
    solver = _thread_solver(highs)
    solver.resetOptions()
    for name, setting in {**HIGHS_SETTINGS, **(options or {})}.items():
        if solver.setOptionValue(name, setting) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects the option {name}={setting!r}")
    if solver.passModel(
        n_cols, n_rows, len(A.data), highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize, 0.0,
        c, np.zeros(n_cols), np.full(n_cols, np.inf), row_lower, row_upper,
        A.indptr, A.indices, A.data, np.zeros(n_cols, dtype=np.int32),
    ) == highs.HighsStatus.kError:
        raise ValueError("HiGHS rejects the LP's matrix")
    solver.run()
    model_status = solver.getModelStatus()
    info = solver.getInfo()
    message = f"HiGHS model status {int(model_status)}: {solver.modelStatusToString(model_status)}"
    nit = info.simplex_iteration_count
    if model_status != highs.HighsModelStatus.kOptimal:
        return LpResult(_LINPROG_STATUS.get(model_status.name, 4), message, None, None, nit)
    solution = solver.getSolution()
    x, row = np.array(solution.col_value), np.array(solution.row_value)
    fun = info.objective_function_value
    tol = 10 * np.sqrt(1e-9)  # linprog's post-solve check; a NaN fails every comparison
    if not (fun == fun and (x >= -tol).all() and (row - row_upper <= tol).all() and (row_lower - row <= tol).all()):
        return LpResult(4, f"{message}, but the solution misses the constraints by more than {tol:.2e}", x, fun, nit)
    return LpResult(0, message, x, fun, nit)


# eight shapes hold at most about 80 MB: under MAX_LP_NONZEROS one is 8 MB at (10, 10) binary settings
@lru_cache(maxsize=8)
def _lp_shape(settings: tuple[int, int], outcomes: tuple[int, int]) -> tuple[np.ndarray, HighsLp]:
    """(`_alice_maps`, the all-zero table's LP) of one box shape, built once and read-only.

    Variables z[alpha, y, b] for b < n_b - 1 (flat, alpha-major), the masses
    w[alpha], and t.  Bob's conditional under alpha is q[alpha, y, b] =
    z[alpha, y, b] with the last outcome's weight q[alpha, y, n_b - 1] =
    w[alpha] - sum_b z[alpha, y, b], so every y row of alpha carries the mass
    w[alpha] by construction.  The fit rows |sum_{alpha(x)=a} q[alpha, y, b]
    - p(ab|xy)| <= t follow the flat table, upper block then lower block; the
    rows sum_b z[alpha, y, b] <= w[alpha] (alpha-major, then y) keep the last
    weight nonnegative, and the last row, an equality, sums the masses to 1.
    With one Bob outcome there is no z, so those rows would only restate
    w >= 0 and are left out.  Each column's row indices are sorted.  The fit
    rows' upper bounds are 0, where `_local_lp` writes a box's p and -p.
    """
    (n_x, n_y), (n_a, n_b) = settings, outcomes
    a_maps = _alice_maps(n_x, n_a)
    n_alpha = len(a_maps)
    n_z = n_alpha * n_y * (n_b - 1)
    n_fit = n_x * n_y * n_a * n_b
    n_yb = n_y if n_b > 1 else 0  # bound rows per alpha
    mass_row = 2 * n_fit + n_alpha * n_yb

    # rows[alpha, y, b, x]: the upper fit row of (x, y, alpha(x), b)
    rows = (
        (np.arange(n_x) * n_y + np.arange(n_y)[:, None, None]) * n_a + a_maps[:, None, None, :]
    ) * n_b + np.arange(n_b)[:, None]
    last = rows[:, :, -1]
    bound = 2 * n_fit + np.arange(n_alpha * n_yb).reshape(n_alpha, n_yb)
    # column z[alpha, y, b]: per x, +1 in the fit row of b and -1 in that of the last outcome
    # (upper block; the lower block negated), and +1 in the bound row of (alpha, y)
    fit = np.stack([rows[:, :, :-1], np.broadcast_to(last[:, :, None], rows[:, :, :-1].shape)], axis=4)
    fit = fit.reshape(n_z, 2 * n_x)
    z_rows = np.concatenate([fit, fit + n_fit, np.repeat(bound.reshape(-1, 1), n_b - 1, axis=0)], axis=1)
    z_data = np.tile(np.concatenate([np.tile([1.0, -1.0], n_x), np.tile([-1.0, 1.0], n_x), [1.0]]), n_z)
    # column w[alpha]: +1 in the last outcome's fit row of every (x, y), upper block (the lower
    # block negated), -1 in alpha's bound rows and +1 in the mass row; column t: -1 in every fit row
    w_fit = last.transpose(0, 2, 1).reshape(n_alpha, n_x * n_y)
    w_rows = np.concatenate([w_fit, w_fit + n_fit, bound, np.full((n_alpha, 1), mass_row)], axis=1)
    w_data = np.tile(np.repeat([1.0, -1.0, -1.0, 1.0], [n_x * n_y, n_x * n_y, n_yb, 1]), n_alpha)
    indices = np.concatenate([z_rows.ravel(), w_rows.ravel(), np.arange(2 * n_fit)])
    data = np.concatenate([z_data, w_data, np.full(2 * n_fit, -1.0)])
    counts = np.repeat([4 * n_x + 1, 2 * n_x * n_y + n_yb + 1, 2 * n_fit], [n_z, n_alpha, 1])
    indptr = np.concatenate([[0], np.cumsum(counts)])

    c = np.zeros(n_z + n_alpha + 1)
    c[-1] = 1.0
    row_lower = np.concatenate([np.full(mass_row, -np.inf), [1.0]])
    row_upper = np.concatenate([np.zeros(mass_row), [1.0]])
    lp = HighsLp(c, ColumnMatrix(data, indices.astype(np.int32), indptr.astype(np.int32)), row_lower, row_upper)
    for array in (a_maps, c, *lp.A, row_lower, row_upper):
        array.flags.writeable = False
    return a_maps, lp


def _local_lp(box: CorrelationBox) -> HighsLp:
    """The sup-norm fit over Alice's strategies alpha, as the `HighsLp` that `linprog` solves.

    The shape's cached zero-table LP (`_lp_shape`) with p and -p written into
    a copy of its row upper bounds, the one array built per box.
    """
    lp = _lp_shape(box.settings, box.outcomes)[1]
    target = box.table.reshape(-1)
    row_upper = lp.row_upper.copy()
    row_upper[: target.size] = target
    row_upper[target.size : 2 * target.size] = -target
    return lp._replace(row_upper=row_upper)


def _split(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic b maps under each alpha from Bob's conditionals z[alpha, y, :].

    A monotone coupling: on [0, mass of alpha], b_map(y) = b on the interval
    where the cumulative sum of the rescaled z[alpha, y, :] passes b.  The
    union of all y's cut points splits it into at most n_y (n_b - 1) + 1
    pieces.  Returns (lengths[alpha, piece], b_maps[alpha, piece, y]).
    """
    n_alpha, n_y, n_b = z.shape
    mass = z.sum(axis=2, keepdims=True)
    w = mass[:, :1]  # alpha's mass, from the y = 0 row
    cuts = np.minimum(np.cumsum(z[:, :, :-1], axis=2) * (w / np.where(mass > 0, mass, 1.0)), w)
    ends = np.concatenate([np.sort(cuts.reshape(n_alpha, -1), axis=1), w[:, 0]], axis=1)
    starts = np.concatenate([np.zeros((n_alpha, 1)), ends[:, :-1]], axis=1)
    b_maps = (cuts[:, None] <= starts[:, :, None, None]).sum(axis=3)
    return ends - starts, b_maps


# HiGHS's default feasibility tolerances (1e-7) equal LP_TOL; a second solve tightens them
TIGHT_TOLERANCES = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}


def _certificate(box: CorrelationBox, a_maps: np.ndarray, x: np.ndarray, tol: float) -> LocalModelCertificate | None:
    """The split of an LP solution into strategy pairs, iff its exact residual is within tol.

    Bob's conditionals are the z columns and the mass minus them, clipped at 0.  No two kept
    pieces share a strategy pair: a cut, where some b(y) steps, separates two pieces of one alpha.
    """
    (_, n_y), (_, n_b) = box.settings, box.outcomes
    n_z = len(a_maps) * n_y * (n_b - 1)
    z, w = x[:n_z].reshape(len(a_maps), n_y, n_b - 1), x[n_z:-1]
    q = np.concatenate([z, w[:, None, None] - z.sum(axis=2, keepdims=True)], axis=2)
    lengths, b_maps = _split(np.clip(q, 0.0, None))
    raw = lengths.ravel() / lengths.sum()
    keep = np.flatnonzero(raw > 1e-12)
    a_kept, b_kept, w_kept = a_maps[keep // lengths.shape[1]], b_maps.reshape(-1, n_y)[keep], raw[keep]
    residual = _exact_residual(box, a_kept, b_kept, w_kept)
    if residual > tol:
        return None
    strategies = zip(map(tuple, a_kept.tolist()), map(tuple, b_kept.tolist()))
    return LocalModelCertificate(dict(zip(strategies, w_kept.tolist())), residual)


def find_local_model(box: CorrelationBox, tol: float = LP_TOL) -> LocalModelCertificate | None:
    """Closest local box in sup-norm, by an LP over Alice's deterministic strategies.

    A local model needs the hidden variable to fix Alice's outputs only:
    under each strategy alpha, Bob answers with any conditional distribution
    q[alpha, y, :] of mass w[alpha] (Fine's theorem).  The LP minimises t
    subject to |sum_{alpha(x)=a} q[alpha, y, b] - p(ab|xy)| <= t, q >= 0 and
    the masses summing to 1; Bob's last outcome is not a variable but the
    mass minus the others (`_local_lp`).  Its optimum equals that over
    mixtures of deterministic strategy pairs.  Each alpha's conditionals are
    split into deterministic b maps by a monotone coupling (`_split`);
    weights are clipped at 0, renormalised and those <= 1e-12 dropped.  A
    certificate is returned iff its residual, re-checked exactly, is within
    `tol`.  When HiGHS reports t <= tol but the re-check refuses the split,
    the solution may miss the fit rows by HiGHS's feasibility tolerance, so
    the LP is solved once more with `TIGHT_TOLERANCES` before answering
    None; a reported t > tol is answered None at once.

    No LP is built or solved, and scipy is not imported, when `chsh_gate`
    refutes the box: its exact CHSH value |B| > 2 + 16 tol, while every
    local box q has |B(q)| <= 2 and |B(p) - B(q)| <= 16 max|p - q|, so no
    local box lies within `tol`.  The gate runs before the size caps, which
    bound the LP at `MAX_LP_NONZEROS` and its certificate at `MAX_CERTIFICATE_CELLS`.
    """
    if chsh_gate(box, tol) is not None:  # a box that is not bipartite gets None here, and an error below
        return None
    return _fit_local_model(box, tol)


def _fit_local_model(box: CorrelationBox, tol: float) -> LocalModelCertificate | None:
    """`find_local_model` without its CHSH gate: arity check, size caps, LP and tight re-solve."""
    if box.n_parties != 2:
        raise ArityError(f"the local-model LP needs a bipartite box, got {box.n_parties} parties")
    (n_x, n_y), (n_a, n_b) = box.settings, box.outcomes
    nnz = n_a**n_x * n_y * n_b * 2 * n_x
    if nnz > MAX_LP_NONZEROS:
        raise SizeLimitError(f"the LP's {nnz} conditional fit-row entries exceed the {MAX_LP_NONZEROS} cap")
    cells = n_a**n_x * (n_y * (n_b - 1) + 1) * n_y * max(n_x, n_b - 1)
    if cells > MAX_CERTIFICATE_CELLS:
        raise SizeLimitError(f"the certificate's {cells} strategy cells exceed the {MAX_CERTIFICATE_CELLS} cap")
    a_maps, lp = _lp_shape(box.settings, box.outcomes)[0], _local_lp(box)
    for options in (None, TIGHT_TOLERANCES):
        res = linprog(*lp, options=options)
        if res.status != 0:
            raise SolverError(f"LP solver failed: {res.message}")
        cert = _certificate(box, a_maps, res.x, tol)
        if cert is not None or res.fun > tol:
            return cert
    return None


def certificate_to_ontic_model(box: CorrelationBox, cert: LocalModelCertificate) -> OnticModel:
    """Reinterpret a local-model certificate as an ontological model.

    Ontic states are the supporting strategies; the single preparation
    "source" carries the certificate weights, and each setting pair (x, y)
    becomes a composite measurement with outcome index a * n_b + b.
    """
    strategies = sorted(cert.weights)
    labels = _strategy_labels(strategies)
    mu = {"source": np.array([cert.weights[s] for s in strategies])}
    # responses[x, y, a * n_b + b, strategy]
    responses = np.stack([strategy_table(box, s) for s in strategies], axis=-1)
    responses = responses.reshape(box.settings + (-1, len(strategies)))
    xi = {f"s{x},{y}": responses[x, y] for x, y in np.ndindex(*box.settings)}
    trans = {"I": np.eye(len(strategies))}
    return OnticModel(labels, mu, xi, trans)


@dataclass(frozen=True)
class NoncontextualVerdict:
    """Joint outcome of the local-model LP and the CHSH scan on one box."""

    certificate: LocalModelCertificate | None
    max_abs_chsh: float
    witness: ChshValue
    consistent: bool  # certificate present implies `is_bell_nonlocal`'s verdict: no exact |B| above 2 + tol

    @property
    def local_model_exists(self) -> bool:
        return self.certificate is not None


def noncontextual_chsh_bound(box: CorrelationBox, tol: float = LP_TOL) -> NoncontextualVerdict:
    """Pair the LP verdict with the exact CHSH verdict and its witness's |B| (`is_bell_nonlocal`)."""
    cert = find_local_model(box, tol)
    nonlocal_, witness = is_bell_nonlocal(box, tol)
    return NoncontextualVerdict(cert, abs(witness.value), witness, cert is None or not nonlocal_)
