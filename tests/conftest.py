"""Shared fixtures: canonical boxes, measurement settings, and theories."""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gptw
from gptw import quantum as q
from gptw.correlations import CorrelationBox

SAMPLES = Path(__file__).resolve().parents[1] / "samples"


def run_src(code: str, *args: str) -> list[str]:
    """stdout lines of `python -c code args...` with this checkout's gptw on the path."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=str(Path(gptw.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return out.stdout.splitlines()


def pr_table() -> np.ndarray:
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                t[x, y, a, a ^ (x & y)] = 0.5
    return t


@pytest.fixture
def pr_box() -> CorrelationBox:
    return CorrelationBox((2, 2), (2, 2), pr_table())


@pytest.fixture
def deterministic_box() -> CorrelationBox:
    t = np.zeros((2, 2, 2, 2))
    t[:, :, 0, 0] = 1.0
    return CorrelationBox((2, 2), (2, 2), t)


def isotropic_table(visibility: float) -> np.ndarray:
    return visibility * pr_table() + (1 - visibility) * np.full((2, 2, 2, 2), 0.25)


def local_draws(count: int, m: int = 2, seed: int = 1):
    """Seeded mixtures of 2 to 5 deterministic strategies, m settings per party: local boxes.

    Their float tables can still read |B| = 2.0000000000000004 where the
    exact |B| of the stored entries is 2 (at m = 2, draw 272 is the first).
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = rng.integers(2, 6)
        weights = rng.random(n)
        strategies = [(rng.integers(0, 2, m), rng.integers(0, 2, m)) for _ in range(n)]
        table = np.zeros((m, m, 2, 2))
        for w, (a, b) in zip(weights / weights.sum(), strategies):
            for x, y in np.ndindex(m, m):
                table[x, y, a[x], b[y]] += w
        yield CorrelationBox((m, m), (2, 2), table)


def near_deterministic_boxes(count: int, seed: int = 1):
    """Seeded tripartite qubit boxes: a computational basis state off by 1e-9, each setting Z or random.

    Summing a spectator's two outcomes here can give a pair marginal entry
    of 1.0000000000000002, which a `CorrelationBox` of the pair would clip
    to 1.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        vec = np.zeros(8, dtype=complex)
        vec[rng.integers(8)] = 1.0
        vec += 1e-9 * (rng.normal(size=8) + 1j * rng.normal(size=8))
        state = q.DensityMatrix.pure(vec / np.linalg.norm(vec), dims=(2, 2, 2))
        settings = [[q.z_basis() if rng.random() < 0.5 else q.random_projective_qubit(rng) for _ in range(2)]
                    for _ in range(3)]
        yield q.multipartite_box(state, settings)


@pytest.fixture
def isotropic_half() -> CorrelationBox:
    return CorrelationBox((2, 2), (2, 2), isotropic_table(0.5))


def singlet_optimal_settings() -> tuple[list[q.Povm], list[q.Povm]]:
    """Alice Z, X; Bob -(Z+X)/sqrt2, (X-Z)/sqrt2: CHSH = +2 sqrt 2 on the singlet."""
    alice = [q.z_basis(), q.x_basis()]
    bob = [
        q.povm_from_observable(-(q.PAULI_Z + q.PAULI_X) / np.sqrt(2)),
        q.povm_from_observable((q.PAULI_X - q.PAULI_Z) / np.sqrt(2)),
    ]
    return alice, bob


@pytest.fixture
def singlet_optimal_box() -> CorrelationBox:
    alice, bob = singlet_optimal_settings()
    return q.bipartite_box(q.singlet(), alice, bob)


def shared_bit_table() -> np.ndarray:
    """Uniform bit copied to three parties, every setting reads the bit."""
    t = np.zeros((2, 2, 2, 2, 2, 2))
    for bit in range(2):
        t[:, :, :, bit, bit, bit] = 0.5
    return t


@pytest.fixture
def shared_bit_box() -> CorrelationBox:
    return CorrelationBox((2, 2, 2), (2, 2, 2), shared_bit_table())


def cardinal_qubit_states() -> dict[str, q.DensityMatrix]:
    return {
        "zero": q.DensityMatrix.pure(q.KET0),
        "one": q.DensityMatrix.pure(q.KET1),
        "plus": q.DensityMatrix.pure(q.KET_PLUS),
        "minus": q.DensityMatrix.pure(q.KET_MINUS),
        "y+": q.DensityMatrix(np.array([[0.5, -0.5j], [0.5j, 0.5]])),
        "y-": q.DensityMatrix(np.array([[0.5, 0.5j], [-0.5j, 0.5]])),
        "mixed": q.DensityMatrix.maximally_mixed(2),
    }


def transpose_state(rho: q.DensityMatrix) -> q.DensityMatrix:
    """Computational-basis transpose (equals the complex conjugate state)."""
    return q.DensityMatrix(rho.matrix.T, dims=rho.dims)


def tomographic_povms() -> dict[str, q.Povm]:
    return {"X": q.x_basis(), "Y": q.y_basis(), "Z": q.z_basis()}


@pytest.fixture
def qubit_theory():
    return q.born_table(cardinal_qubit_states(), tomographic_povms())
