"""Fuzzed constructors: on any numeric array a constructor returns or raises a GptwError, with no warning.

Two kinds of input: arbitrary float or complex arrays of any shape (zero-size
ones included, with NaN, infinities and huge entries), and near misses, valid
arrays with one or two entries replaced.  The loaders are fuzzed in
`test_loader_fuzz.py`; these call the constructors directly, so a check that
a loader happens to run first cannot hide a constructor's traceback or
warning.  Runs are derandomized, so tier-1 sees the same examples each time.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gptw import quantum as q
from gptw.correlations import CorrelationBox
from gptw.errors import GptwError
from gptw.theory import EnsemblePreparation, JointDistribution, OperationalTheory

from conftest import pr_table

FUZZ = settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=0, max_side=3)
ANY_ARRAY = hnp.arrays(np.float64, SHAPES, elements=st.floats()) | hnp.arrays(
    np.complex128, SHAPES, elements=st.complex_numbers()
)
SPECIAL = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 1j, complex(np.nan, np.inf), 0.5 + 0.5j])


@st.composite
def near_miss(draw, valid: np.ndarray):
    """`valid` with one or two entries replaced; real-valued results are float arrays."""
    arr = np.array(valid, dtype=complex)
    for _ in range(draw(st.integers(1, 2))):
        at = tuple(draw(st.integers(0, n - 1)) for n in arr.shape)
        arr[at] = draw(SPECIAL | st.floats() | st.complex_numbers())
    return arr if arr.imag.any() else arr.real.copy()


def as_list(arr: np.ndarray) -> list[np.ndarray]:
    """A (k, ...) stack as its k members; any other array as a one-element list."""
    return list(arr) if arr.ndim == 3 else [arr]


def box(arr: np.ndarray) -> CorrelationBox:
    n = max(arr.ndim // 2, 1)
    return CorrelationBox(arr.shape[:n], arr.shape[n:], arr)


def theory(arr: np.ndarray) -> OperationalTheory:
    return OperationalTheory(["p"], ["I"], [("m", arr.shape[0] if arr.ndim else 1)], {("p", "I", "m"): arr})


CONSTRUCTORS = {
    "density": q.DensityMatrix,
    "povm": lambda arr: q.Povm(as_list(arr)),
    "channel": lambda arr: q.Channel(as_list(arr)),
    "box": box,
    "ensemble": lambda arr: EnsemblePreparation(arr, [f"q{i}" for i in range(arr.size)]),
    "joint": lambda arr: JointDistribution([(f"x{k}", n) for k, n in enumerate(arr.shape)], arr),
    "theory row": theory,
}
VALID = {
    "density": [np.eye(2) / 2, np.diag([1.0, 0.0, 0.0]), q.ginibre_state(4, np.random.default_rng(0)).matrix],
    "povm": [q.z_basis().element_stack, q.random_povm(3, 3, np.random.default_rng(1)).element_stack],
    "channel": [q.random_channel(2, 2, 2, np.random.default_rng(2)).kraus_stack],
    "box": [pr_table(), np.full((2, 2, 2, 2, 2, 2), 0.125)],
    "ensemble": [np.array([0.5, 0.5]), np.array([1.0])],
    "joint": [np.full((2, 3), 1 / 6)],
    "theory row": [np.array([0.25, 0.75])],
}


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_constructor_returns_or_raises_gptw_error_without_warning(kind):
    @FUZZ
    @given(ANY_ARRAY | st.one_of([near_miss(v) for v in VALID[kind]]))
    def check(arr):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                CONSTRUCTORS[kind](arr)
            except GptwError:
                pass

    check()


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_zero_size_and_infinite_arrays_are_refused_without_warning(kind):
    arrays = [np.zeros((0, 0)), np.zeros((1, 0)), np.zeros((0, 1)), np.zeros((2, 0, 0))]
    for valid in VALID[kind]:
        for value in (np.inf, -np.inf):
            arr = valid.copy()
            arr.flat[0] = value
            arrays.append(arr)
    for arr in arrays:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GptwError):
                CONSTRUCTORS[kind](arr)


@pytest.mark.parametrize("kind", sorted(CONSTRUCTORS))
def test_valid_arrays_construct(kind):
    for arr in VALID[kind]:
        CONSTRUCTORS[kind](arr)
