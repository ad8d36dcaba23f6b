"""The benchmark's two workloads: seeded inputs, one round of operations, their oracles.

An operation is one CLI process or one top-level public call into gptw.  A
round runs every operation of the workload once, in a fixed order, so each
round has the same mix; the runner repeats whole rounds.  `key` names the
sweep parameter of an operation ("m4": settings per party, "d6": local
dimension) and is empty for operations outside the sweep.

Operations look gptw functions up through module attributes when they run,
so the traced run sees the wrappers it installs and the untraced run the
program's own functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from gptw import broadcast, correlations, duality, game, ontic, quantum, serialize

SQ2 = math.sqrt(2.0)
SWEEP = (2, 3, 4, 6)


@dataclass(frozen=True)
class Op:
    name: str
    key: str
    check: Callable[[Any], None]
    call: Callable[[], Any] | None = None  # an in-process call, or
    argv: tuple[str, ...] | None = None  # the arguments of one `python -m gptw.cli` process


def _call(module, fn: str, *args, **kwargs) -> Callable[[], Any]:
    return lambda: getattr(module, fn)(*args, **kwargs)


# -- seeded inputs ----------------------------------------------------------


def _chsh_povms() -> tuple[list, list]:
    alice = [quantum.z_basis(), quantum.x_basis()]
    bob = [
        quantum.povm_from_observable(-(quantum.PAULI_Z + quantum.PAULI_X) / SQ2),
        quantum.povm_from_observable((quantum.PAULI_X - quantum.PAULI_Z) / SQ2),
    ]
    return alice, bob


def tsirelson_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """Singlet box whose settings include the optimal CHSH pair, the rest random."""
    alice, bob = _chsh_povms()
    alice += [quantum.random_projective_qubit(rng) for _ in range(m - 2)]
    bob += [quantum.random_projective_qubit(rng) for _ in range(m - 2)]
    alice = [alice[i] for i in rng.permutation(m)]
    bob = [bob[i] for i in rng.permutation(m)]
    return quantum.bipartite_box(quantum.singlet(), alice, bob).table


def _two_parities(m: int, rng: np.random.Generator) -> np.ndarray:
    bits = rng.integers(0, 2, size=m)
    bits[rng.permutation(m)[:2]] = (0, 1)
    return bits


def pr_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """a xor b = px(x) * py(y), with per-setting outcome flips: max |CHSH| = 4."""
    px, py = _two_parities(m, rng), _two_parities(m, rng)
    fx, fy = rng.integers(0, 2, size=m), rng.integers(0, 2, size=m)
    t = np.zeros((m, m, 2, 2))
    for x in range(m):
        for y in range(m):
            for a in range(2):
                t[x, y, a ^ fx[x], a ^ (px[x] & py[y]) ^ fy[y]] = 0.5
    return t


def deterministic_table(a_map, b_map) -> np.ndarray:
    m_a, m_b = len(a_map), len(b_map)
    t = np.zeros((m_a, m_b, 2, 2))
    t[np.arange(m_a)[:, None], np.arange(m_b)[None, :], np.asarray(a_map)[:, None], np.asarray(b_map)[None, :]] = 1
    return t


def deterministic_witness_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """One deterministic strategy: |CHSH| = 2 exactly, the theorem-1 boundary."""
    return deterministic_table(rng.integers(0, 2, size=m), rng.integers(0, 2, size=m))


def local_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """A random convex mixture of 4 deterministic strategies."""
    weights = rng.dirichlet(np.ones(4))
    return sum(
        w * deterministic_table(rng.integers(0, 2, size=m), rng.integers(0, 2, size=m)) for w in weights
    )


def signalling_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """Half a local box, half a box whose b is a function of Alice's setting."""
    sx = _two_parities(m, rng)
    t = np.zeros((m, m, 2, 2))
    for x in range(m):
        t[x, :, :, sx[x]] = 0.5
    return 0.5 * t + 0.5 * local_table(m, rng)


def noisy_tsirelson_table(m: int, rng: np.random.Generator, low: float = 0.75) -> np.ndarray:
    """Tsirelson box at visibility in [low, 1): |CHSH| >= 2 sqrt(2) low > 2."""
    v = rng.uniform(low, 1.0)
    return v * tsirelson_table(m, rng) + (1 - v) / 4


def shared_bit_table(m: int, rng: np.random.Generator) -> np.ndarray:
    """Three parties output one shared uniform bit (flipped per setting): NS 4, strong 8."""
    flips = rng.integers(0, 2, size=(3, m))
    t = np.zeros((m, m, m, 2, 2, 2))
    for x, y, z in np.ndindex(m, m, m):
        for bit in range(2):
            t[x, y, z, bit ^ flips[0, x], bit ^ flips[1, y], bit ^ flips[2, z]] = 0.5
    return t


def random_pure(dims: tuple[int, ...], rng: np.random.Generator) -> quantum.DensityMatrix:
    n = int(np.prod(dims))
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return quantum.DensityMatrix.pure(vec / np.linalg.norm(vec), dims=dims)


def _box(table: np.ndarray) -> correlations.CorrelationBox:
    n = table.ndim // 2
    return correlations.CorrelationBox(table.shape[:n], table.shape[n:], table)


# -- workloads --------------------------------------------------------------


# Tripartite boxes per m: the shared-bit box sits at exactly 4 (NS) and 8 (strong).
TRIPARTITE = {2: ("shared-bit", "quantum", "quantum"), 3: ("quantum",)}


def corr_scan(seed: int, workdir: Path) -> list[Op]:
    """CHSH search and no-signalling on bipartite boxes, monogamy on tripartite ones."""
    rng = np.random.default_rng(seed)
    ops = []
    makers = {"tsirelson": tsirelson_table, "pr": pr_table, "local": local_table, "signalling": signalling_table}
    for m in SWEEP:
        for kind, make in makers.items():
            box = _box(make(m, rng))
            ops.append(Op("correlations.is_bell_nonlocal", f"m{m}",
                          partial(oracle.check_nonlocal, table=box.table, kind=kind),
                          _call(correlations, "is_bell_nonlocal", box)))
            ops.append(Op("correlations.check_no_signalling", f"m{m}",
                          partial(oracle.check_no_signalling, table=box.table, signalling=kind == "signalling"),
                          _call(correlations, "check_no_signalling", box)))
    # One m = 3 box: its two monogamy scans take about 0.55 s each, most of a
    # round, and more of them would leave too few rounds in a run.
    for m, kinds in TRIPARTITE.items():
        boxes = []
        for kind in kinds:
            if kind == "shared-bit":
                boxes.append((kind, _box(shared_bit_table(m, rng))))
            else:
                povms = [[quantum.random_projective_qubit(rng) for _ in range(m)] for _ in range(3)]
                boxes.append((kind, quantum.multipartite_box(random_pure((2, 2, 2), rng), povms)))
        for kind, box in boxes:
            ops.append(Op("correlations.check_no_signalling", f"m{m}",
                          partial(oracle.check_no_signalling, table=box.table, signalling=False),
                          _call(correlations, "check_no_signalling", box)))
            for strong, fn in ((False, "check_ns_monogamy"), (True, "check_strong_monogamy")):
                ops.append(Op(f"correlations.{fn}", f"m{m}",
                              partial(oracle.check_monogamy, table=box.table, strong=strong, kind=kind),
                              _call(correlations, fn, box)))
    witnesses = [
        make(2, rng)
        for make in (tsirelson_table, noisy_tsirelson_table, pr_table, deterministic_witness_table) * 2
    ]
    for table in witnesses:
        box = _box(table)
        ops.append(Op("broadcast.theorem1_construct", "m2",
                      partial(oracle.check_theorem1, table=box.table),
                      _call(broadcast, "theorem1_construct", box)))
    return ops


# Local and noisy boxes per m.  The LP takes about a second of each round,
# most of it the four m = 6 solves; more would leave too few rounds in a run.
LP_BOXES = {2: 1, 3: 1, 4: 1, 6: 1}


def lp_sweep(seed: int, workdir: Path) -> list[Op]:
    """Local-model LP on local mixtures (certificate) and noisy Tsirelson boxes (none)."""
    rng = np.random.default_rng(seed)
    ops = []
    for m, count in LP_BOXES.items():
        for _ in range(count):
            for local, make in ((True, local_table), (False, noisy_tsirelson_table)):
                box = _box(make(m, rng))
                ops.append(Op("ontic.find_local_model", f"m{m}",
                              partial(oracle.check_local_model, table=box.table, local=local),
                              _call(ontic, "find_local_model", box)))
                ops.append(Op("ontic.noncontextual_chsh_bound", f"m{m}",
                              partial(oracle.check_noncontextual, table=box.table, local=local),
                              _call(ontic, "noncontextual_chsh_bound", box)))
    return ops


def _round_trip(state, povms):
    spatial = duality.spatial_scenario(state, povms)
    temporal = duality.spatial_to_temporal(spatial, tol=math.inf)
    return spatial, temporal, duality.temporal_to_spatial(temporal, tol=math.inf)


def quantum_tab(seed: int, workdir: Path) -> list[Op]:
    """Born tabulation, duality round trips, broadcasting, the game and fine-grained uncertainty."""
    rng = np.random.default_rng(seed)
    ops = []
    for d, m in [(d, m) for d in SWEEP for m in SWEEP]:
        state = quantum.ginibre_state(d * d, rng, dims=(d, d))
        povms = [[quantum.random_povm(d, d, rng) for _ in range(m)] for _ in range(2)]
        ops.append(Op("quantum.bipartite_box", f"d{d}",
                      partial(oracle.check_box, state=state, povms_per_party=povms),
                      _call(quantum, "bipartite_box", state, *povms)))
    for m in (2, 3):
        state = random_pure((2, 2, 2), rng)
        povms = [[quantum.random_projective_qubit(rng) for _ in range(m)] for _ in range(3)]
        ops.append(Op("quantum.multipartite_box", f"m{m}",
                      partial(oracle.check_box, state=state, povms_per_party=povms),
                      _call(quantum, "multipartite_box", state, povms)))

    for d, dims in [(d, dims) for d in SWEEP for dims in ((d, d), (d, 2, 2))]:
        state = quantum.ginibre_state(int(np.prod(dims)), rng, dims=dims)
        povms = [quantum.random_povm(k, k, rng) for k in dims]
        ops.append(Op(f"duality.round_trip_{len(dims)}", f"d{d}", oracle.check_duality,
                      partial(_round_trip, state, povms)))
    for d in SWEEP:
        u = quantum.haar_unitary(d, rng)
        family = [quantum.DensityMatrix(u @ np.diag(rng.dirichlet(np.ones(d))) @ u.conj().T) for _ in range(3)]
        ops.append(Op("broadcast.broadcast_commuting", f"d{d}", oracle.check_broadcast,
                      _call(broadcast, "broadcast_commuting", family)))

    alice, bob = _chsh_povms()
    strategy = game.GameStrategy(quantum.singlet(), tuple(alice), tuple(bob))
    pr_box = _box(np.array([[[[0.5 * ((a ^ b) == (x & y)) for b in range(2)] for a in range(2)]
                             for y in range(2)] for x in range(2)]))
    for player, exact, within in ((strategy, oracle.TSIRELSON_WIN, True), (pr_box, 1.0, False)):
        ops.append(Op("game.simulate_game", "",
                      partial(oracle.check_game, exact=exact, within_cap=within),
                      _call(game, "simulate_game", player, seed=int(rng.integers(2**63)), rounds=20000)))

    _, vecs = np.linalg.eigh((quantum.PAULI_X + quantum.PAULI_Z) / SQ2)
    states = {f"r{k}": quantum.ginibre_state(2, rng) for k in range(6)}
    states["sat"] = quantum.DensityMatrix.pure(vecs[:, -1])
    povms = {"X": quantum.x_basis(), "Y": quantum.y_basis(), "Z": quantum.z_basis()}
    ops.append(Op("quantum.born_table", "",
                  partial(oracle.check_born_table, states=states, povms=povms),
                  _call(quantum, "born_table", states, povms)))
    theory = quantum.born_table(states, povms)
    ops.append(Op("game.check_finegrained", "",
                  partial(oracle.check_finegrained, worst=oracle.finegrained_worst(states, povms["X"], povms["Z"])),
                  _call(game, "check_finegrained", theory, "X", "Z")))
    return ops


def cli_samples(seed: int, workdir: Path) -> list[Op]:
    """Every subcommand once on samples/, plus `verify-cj --channel` on a generated channel."""
    rng = np.random.default_rng(seed)
    channel = workdir / "channel.json"
    serialize.save_channel(quantum.random_channel(2, 2, 2, rng), channel)
    s = "samples/"
    game_seed = str(int(rng.integers(2**63)))
    commands = [
        (["chsh", "--box", s + "pr_box.json"], 0, 4.0, 1e-12),
        (["nosignal", "--box", s + "pr_box.json"], 0, 0.0, 1e-12),
        (["monogamy", "ns", "--box", s + "shared_bit_box.json"], 0, 4.0, 1e-9),
        (["monogamy", "strong", "--box", s + "shared_bit_box.json"], 0, 8.0, 1e-9),
        (["local-model", "--box", s + "singlet_opt_box.json"], 1, None, 0.0),
        (["verify-cj", "--state", s + "random_two_qubit.json", "--povm", s + "z_basis.json",
          "--povm", s + "x_basis.json"], 0, 0.0, oracle.DUALITY_TOL),
        (["verify-cj", "--state", s + "state_zero.json", "--povm", s + "z_basis.json",
          "--povm", s + "x_basis.json", "--channel", str(channel)], 0, 0.0, oracle.DUALITY_TOL),
        (["broadcast", "--state", s + "state_zero.json", "--state", s + "state_diag.json"], 0, 0.0,
         oracle.BROADCAST_TOL),
        (["theorem1", "--box", s + "singlet_opt_box.json"], 1, 16.0, 1e-9),
        (["game", "--state", s + "singlet.json", "--povm", s + "z_basis.json", "--povm", s + "x_basis.json",
          "--povm", s + "b0.json", "--povm", s + "b1.json", "--seed", game_seed, "--rounds", "20000"],
         0, oracle.TSIRELSON_WIN, oracle.VALUE_ATOL),
        (["uncertainty", "--theory", s + "qubit_theory.json", "--m1", "X", "--m2", "Z"], 0,
         oracle.FINEGRAINED, oracle.VALUE_ATOL),
        (["validate-model", "--model", s + "classical_bit_model.json"], 0, 0.0, 0.0),
        (["dim", "--theory", s + "qubit_theory.json"], 0, 3.0, 0.0),
    ]
    return [
        Op(f"cli.{argv[0]}", argv[0], partial(oracle.check_cli, code=code, value=value, atol=atol),
           argv=tuple(argv))
        for argv, code, value, atol in commands
    ]


def library(seed: int, workdir: Path) -> list[Op]:
    """Every in-process check: the correlation scans, the local-model LP, then the Born and duality layer."""
    return corr_scan(seed, workdir) + lp_sweep(seed, workdir) + quantum_tab(seed, workdir)


WORKLOADS = {
    "cli-samples": cli_samples,
    "library": library,
}


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """One round of the named workload, inputs generated from `seed`."""
    return WORKLOADS[name](seed, workdir)

