"""Per-operation oracle: the paper's invariants plus independent NumPy recomputation.

Every check takes an operation's result and raises `Mismatch` when it breaks
an invariant (local bound 2, Tsirelson 2*sqrt(2), PR box 4, shared-bit box at
exactly 4 (NS) and 8 (strong), theorem-1 squared sum 2 v^2, a certificate
for local mixtures and none above visibility 1/sqrt(2), duality and broadcast
errors within tolerance) or disagrees with a recomputation that shares no
code with gptw.  The run counts any raised exception as a failed operation,
so a wrong verdict, a non-finite value, an unexpected exit code or a
traceback each count.
"""
from __future__ import annotations

import json
import math

import numpy as np

LOCAL_BOUND = 2.0
TSIRELSON = 2.0 * math.sqrt(2.0)
PR_VALUE = 4.0
NS_MONOGAMY = 4.0
STRONG_MONOGAMY = 8.0
FINEGRAINED = 1.0 + 1.0 / math.sqrt(2.0)
TSIRELSON_WIN = math.cos(math.pi / 8) ** 2

VALUE_ATOL = 1e-9  # recomputed CHSH / monogamy / Born values
CHSH_TOL = 1e-9  # gptw's default is_bell_nonlocal / no-signalling tolerance
MONOGAMY_TOL = 1e-6
LP_TOL = 1e-7
DUALITY_TOL = 1e-8
BROADCAST_TOL = 1e-9


class Mismatch(Exception):
    """An operation's result contradicts the oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def finite(*values: float) -> None:
    for v in values:
        expect(isinstance(v, (int, float, np.floating)) and math.isfinite(v), f"non-finite value {v!r}")


def close(got: float, want: float, atol: float, what: str) -> None:
    finite(got)
    expect(abs(got - want) <= atol, f"{what}: got {got!r}, want {want!r} (atol {atol:g})")


# -- independent recomputation ----------------------------------------------


def correlators(table: np.ndarray) -> np.ndarray:
    """E[x, y] = sum_ab (-1)^(a+b) p(ab|xy) of a two-outcome bipartite table."""
    sign = np.array([[1.0, -1.0], [-1.0, 1.0]])
    return np.einsum("xyab,ab->xy", table, sign)


def chsh_values(e: np.ndarray) -> np.ndarray:
    """|B| for every ordered setting choice; entries with a0 == a1 or b0 == b1 are 0."""
    b = e[:, None, :, None] + e[:, None, None, :] + e[None, :, :, None] - e[None, :, None, :]
    n_x, n_y = e.shape
    mask = ~np.eye(n_x, dtype=bool)[:, :, None, None] & ~np.eye(n_y, dtype=bool)[None, None]
    return np.abs(b) * mask  # axes (a0, a1, b0, b1)


def max_chsh(table: np.ndarray) -> float:
    return float(chsh_values(correlators(table)).max())


def chsh_at(table: np.ndarray, a: tuple[int, int], b: tuple[int, int]) -> float:
    e = correlators(table)
    return float(e[a[0], b[0]] + e[a[0], b[1]] + e[a[1], b[0]] - e[a[1], b[1]])


def signalling_spread(table: np.ndarray) -> float:
    """Largest change of any proper party subset's marginal over the others' settings."""
    n = table.ndim // 2
    worst = 0.0
    for mask in range(1, 2**n - 1):
        subset = [k for k in range(n) if mask >> k & 1]
        others = [k for k in range(n) if k not in subset]
        marg = table.sum(axis=tuple(n + k for k in others))
        moved = np.moveaxis(marg, others, range(len(others)))
        flat = moved.reshape((-1,) + moved.shape[len(others):])
        worst = max(worst, float(np.ptp(flat, axis=0).max()))
    return worst


def monogamy_worst(table: np.ndarray) -> tuple[float, float]:
    """(max |B_mw1| + |B_mw2|, max B_mw1^2 + B_mw2^2) over the monogamy scan.

    Both objectives grow with each |B| term, and once the middle party's
    ordered setting pair is fixed the two wing terms are chosen independently,
    so each is maximized on its own.
    """
    sign = np.array([1.0, -1.0])
    ns, strong = 0.0, 0.0
    for middle in range(3):
        wings = [k for k in range(3) if k != middle]
        best = []
        for wing, spectator in (wings, wings[::-1]):
            # E[x_mid, x_wing, x_spectator], the spectator's outcome summed out
            axes = [middle, wing, spectator, 3 + middle, 3 + wing, 3 + spectator]
            e = np.einsum("xyzabc,a,b->xyz", np.moveaxis(table, axes, range(6)), sign, sign)
            per_spect = np.stack([chsh_values(e[:, :, z]) for z in range(e.shape[2])])
            best.append(per_spect.max(axis=(0, 3, 4)))  # over spectator and wing pair
        ns = max(ns, float((best[0] + best[1]).max()))
        strong = max(strong, float((best[0] ** 2 + best[1] ** 2).max()))
    return ns, strong


def born_box(matrix: np.ndarray, dims: tuple[int, ...], povms: list[np.ndarray]) -> np.ndarray:
    """p(a..|x..) = Re Tr((M_x^a (x) ...) rho) for 2 or 3 parties, by one einsum.

    `povms[k]` is an array of shape (settings, outcomes, d_k, d_k).
    """
    rho = matrix.reshape(dims + dims)
    if len(dims) == 2:
        out = np.einsum("xaji,yblk,ikjl->xyab", povms[0], povms[1], rho)
    else:
        out = np.einsum("xaji,yblk,zcnm,ikmjln->xyzabc", povms[0], povms[1], povms[2], rho)
    return out.real


def povm_stack(povms) -> np.ndarray:
    """One party's POVMs as an array of shape (settings, outcomes, d, d)."""
    return np.array([list(p.elements) for p in povms])


# -- checks, one per operation kind ------------------------------------------


def check_nonlocal(result, table: np.ndarray, kind: str) -> None:
    verdict, witness = result
    value = abs(witness.value)
    finite(witness.value)
    close(value, max_chsh(table), VALUE_ATOL, "max |CHSH|")
    close(abs(chsh_at(table, witness.a_settings, witness.b_settings)), value, VALUE_ATOL, "witness settings")
    expect(bool(verdict) == (value > LOCAL_BOUND + CHSH_TOL), f"verdict {verdict} at |CHSH| {value}")
    if kind == "tsirelson":
        close(value, TSIRELSON, VALUE_ATOL, "Tsirelson box")
    elif kind == "pr":
        close(value, PR_VALUE, VALUE_ATOL, "PR box")
    elif kind == "local":
        expect(value <= LOCAL_BOUND + VALUE_ATOL, f"local box above the local bound: {value}")


def check_no_signalling(result, table: np.ndarray, signalling: bool) -> None:
    finite(result.max_deviation)
    spread = signalling_spread(table)
    expect(spread > 1e-3 if signalling else spread <= 1e-12, f"generator broke: spread {spread}")
    # gptw compares against one reference setting, which sees at least half the spread
    expect(
        spread / 2 - VALUE_ATOL <= result.max_deviation <= spread + VALUE_ATOL,
        f"max deviation {result.max_deviation} vs spread {spread}",
    )
    expect(bool(result.satisfied) != signalling, f"no-signalling verdict {result.satisfied}")
    expect(bool(result.violations) == signalling, "violations disagree with the verdict")


def check_monogamy(result, table: np.ndarray, strong: bool, kind: str) -> None:
    finite(result.worst_value, *result.terms)
    ns_worst, strong_worst = monogamy_worst(table)
    want, bound = (strong_worst, STRONG_MONOGAMY) if strong else (ns_worst, NS_MONOGAMY)
    close(result.worst_value, want, VALUE_ATOL, "monogamy worst value")
    a, b = result.terms
    close(a * a + b * b if strong else a + b, result.worst_value, VALUE_ATOL, "monogamy terms")
    expect(result.bound == bound, f"bound {result.bound}")
    expect(bool(result.satisfied) == (result.worst_value <= bound + MONOGAMY_TOL), "monogamy verdict")
    if kind == "shared-bit":
        close(result.worst_value, bound, VALUE_ATOL, "shared-bit box saturates")
    else:
        expect(result.satisfied, f"quantum box violates monogamy: {result.worst_value}")


def check_theorem1(result, table: np.ndarray) -> None:
    v = max_chsh(table)
    finite(result.squared_sum, result.chsh_ab, result.chsh_ac)
    close(abs(result.witness.value), v, VALUE_ATOL, "theorem1 witness")
    close(result.squared_sum, 2 * v * v, 1e-8, "squared sum 2 v^2")
    close(result.chsh_ab**2 + result.chsh_ac**2, result.squared_sum, 1e-8, "B_AB^2 + B_AC^2")
    expect(result.strong_monogamy.worst_value >= result.squared_sum - 1e-8, "scan missed the construction")
    expect(
        bool(result.strong_monogamy.satisfied) == (result.strong_monogamy.worst_value <= STRONG_MONOGAMY + MONOGAMY_TOL),
        "strong monogamy verdict",
    )
    if v > LOCAL_BOUND + 1e-6:
        expect(not result.strong_monogamy.satisfied, f"v = {v} > 2 must violate strong monogamy")


def _check_certificate(cert, table: np.ndarray) -> None:
    weights = np.array(list(cert.weights.values()))
    finite(cert.residual, *weights)
    expect(weights.min() >= 0 and abs(weights.sum() - 1) <= 1e-9, "certificate weights not convex")
    recon = np.zeros_like(table)
    xs, ys = np.arange(table.shape[0]), np.arange(table.shape[1])
    for (a_map, b_map), w in cert.weights.items():
        recon[xs[:, None], ys[None, :], np.array(a_map)[:, None], np.array(b_map)[None, :]] += w
    error = float(np.abs(recon - table).max())
    expect(error <= 1e-6 and cert.residual <= LP_TOL, f"certificate misses the box by {error}")


def check_local_model(result, table: np.ndarray, local: bool) -> None:
    if local:
        expect(result is not None, "local mixture got no certificate")
        _check_certificate(result, table)
    else:
        expect(result is None, "box above visibility 1/sqrt(2) got a certificate")


def check_noncontextual(result, table: np.ndarray, local: bool) -> None:
    check_local_model(result.certificate, table, local)
    close(result.max_abs_chsh, max_chsh(table), VALUE_ATOL, "max |CHSH|")
    expect(result.consistent, "certificate with |CHSH| above 2")
    if not local:
        expect(result.max_abs_chsh > LOCAL_BOUND + 1e-3, f"noisy Tsirelson box at {result.max_abs_chsh}")


def check_box(result, state, povms_per_party) -> None:
    """A Born-rule box against one einsum over the state and the stacked POVMs."""
    want = born_box(state.matrix, state.dims, [povm_stack(p) for p in povms_per_party])
    table = np.asarray(result.table)
    expect(table.shape == want.shape, f"box shape {table.shape} != {want.shape}")
    expect(bool(np.isfinite(table).all()), "non-finite box entry")
    error = float(np.abs(table - want).max())
    expect(error <= 1e-10, f"Born table off by {error}")


def check_born_table(result, states: dict, povms: dict) -> None:
    """Every identity-row of the theory against Re Tr(E rho), and the rows normalized."""
    from gptw.theory import outcome_distribution

    for p, rho in states.items():
        for m, povm in povms.items():
            got = np.asarray(outcome_distribution(result, p, result.identity, m))
            want = np.einsum("eji,ij->e", np.array(povm.elements), rho.matrix).real
            expect(bool(np.isfinite(got).all()), f"non-finite row ({p}, {m})")
            expect(float(np.abs(got - want).max()) <= 1e-10, f"row ({p}, {m}) off")
            close(float(got.sum()), 1.0, 1e-9, f"row ({p}, {m}) normalized")


def finegrained_worst(states: dict, m1, m2) -> float:
    """max over states and outcome pairs of p(M1^m|rho) + p(M2^n|rho)."""
    worst = -math.inf
    for rho in states.values():
        p1 = np.einsum("eji,ij->e", np.array(m1.elements), rho.matrix).real
        p2 = np.einsum("eji,ij->e", np.array(m2.elements), rho.matrix).real
        worst = max(worst, float(p1.max() + p2.max()))
    return worst


def check_duality(result) -> None:
    spatial, temporal, back = result
    forward = float(np.abs(temporal.distribution.probabilities - spatial.distribution.probabilities).max())
    round_trip = float(np.abs(back.distribution.probabilities - spatial.distribution.probabilities).max())
    finite(forward, round_trip)
    total = float(spatial.distribution.probabilities.sum())
    close(total, 1.0, 1e-9, "joint distribution normalized")
    expect(forward <= DUALITY_TOL and round_trip <= 2 * DUALITY_TOL, f"duality errors {forward}, {round_trip}")


def check_broadcast(result) -> None:
    _, check = result
    finite(check.max_error, *check.errors)
    expect(check.max_error <= BROADCAST_TOL, f"broadcast marginal error {check.max_error}")


def check_game(result, exact: float, within_cap: bool) -> None:
    finite(result.exact_rate, result.empirical_rate)
    close(result.exact_rate, exact, VALUE_ATOL, "exact game value")
    close(result.bound, TSIRELSON_WIN, 1e-12, "quantum game cap")
    expect(bool(result.passed) == within_cap, f"game verdict {result.passed}")
    expect(bool(result.sampling_consistent), "sampled rate far from the exact one")


def check_finegrained(result, worst: float) -> None:
    finite(result.worst_sum)
    close(result.worst_sum, worst, VALUE_ATOL, "worst fine-grained sum")
    close(result.bound, FINEGRAINED, 1e-12, "fine-grained bound")
    expect(result.satisfied and result.worst_sum <= FINEGRAINED + VALUE_ATOL, "fine-grained bound broken")
    expect(bool(result.saturated), "saturating preparation not found")


def _reject_constant(name: str):
    raise ValueError(f"invalid JSON constant {name}")


def check_cli(result, code: int, value: float | None, atol: float) -> None:
    """One CLI process: exit code, no traceback, strict JSON lines, the expected `value`."""
    expect("Traceback" not in result.stderr, "traceback on stderr")
    expect(result.returncode == code, f"exit code {result.returncode}, want {code}")
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    expect(bool(lines), "no report printed")
    try:
        reports = [json.loads(line, parse_constant=_reject_constant) for line in lines]
    except ValueError as exc:
        raise Mismatch(f"report is not strict JSON: {exc}") from None
    for rep in reports:
        expect(rep.get("pass") is (code == 0), f"pass flag {rep.get('pass')!r} with exit code {code}")
        got = rep.get("value")
        if value is None:
            expect(got is None, f"value {got!r}, want null")
        else:
            expect(isinstance(got, (int, float)) and not isinstance(got, bool), f"value {got!r}")
            close(float(got), value, atol, rep.get("check", "value"))
