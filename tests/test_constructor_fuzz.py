"""Fuzzed constructors: on any numeric array a constructor returns or raises a GptwError, with no warning.

The exported matrix functions `mat_sqrt`, `trace_distance` and `commutator_norm`
are fuzzed as constructors too: each takes the drawn array as its matrix.

Two kinds of input: arbitrary float or complex arrays of any shape (zero-size
ones included, with NaN, infinities and huge entries), and near misses, valid
arrays with one or two entries replaced.  Input that is never valid, ragged
lists and strings, must raise a GptwError.  The loaders are fuzzed in
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
from gptw.broadcast import commutator_norm
from gptw.correlations import CorrelationBox
from gptw.errors import GptwError
from gptw.ontic import OnticModel
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


def ontic_model(slot: int):
    """An `OnticModel` whose only mu (slot 0), xi (1) or trans (2) entry is the array, one state per last-axis entry."""

    def build(arr: np.ndarray) -> OnticModel:
        entries: list[dict] = [{}, {}, {}]
        entries[slot] = {"x": arr}
        return OnticModel([f"l{i}" for i in range(arr.shape[-1] if arr.ndim else 1)], *entries)

    return build


CONSTRUCTORS = {
    "density": q.DensityMatrix,
    "povm": lambda arr: q.Povm(as_list(arr)),
    "channel": lambda arr: q.Channel(as_list(arr)),
    "box": box,
    "ensemble": lambda arr: EnsemblePreparation(arr, [f"q{i}" for i in range(arr.size)]),
    "joint": lambda arr: JointDistribution([(f"x{k}", n) for k, n in enumerate(arr.shape)], arr),
    "theory row": theory,
    "ontic mu": ontic_model(0),
    "ontic xi": ontic_model(1),
    "ontic trans": ontic_model(2),
    "mat_sqrt": q.mat_sqrt,
    "trace_distance": lambda arr: q.trace_distance(arr, np.zeros(arr.shape)),
    "commutator_norm": lambda arr: commutator_norm(arr, arr.T),
}
VALID = {
    "density": [np.eye(2) / 2, np.diag([1.0, 0.0, 0.0]), q.ginibre_state(4, np.random.default_rng(0)).matrix],
    "povm": [q.z_basis().elements, q.random_povm(3, 3, np.random.default_rng(1)).elements],
    "channel": [q.random_channel(2, 2, 2, np.random.default_rng(2)).kraus],
    "box": [pr_table(), np.full((2, 2, 2, 2, 2, 2), 0.125)],
    "ensemble": [np.array([0.5, 0.5]), np.array([1.0])],
    "joint": [np.full((2, 3), 1 / 6)],
    "theory row": [np.array([0.25, 0.75])],
    "ontic mu": [np.array([0.5, 0.5])],
    "ontic xi": [np.array([[1.0, 0.0], [0.0, 1.0]]), np.full((3, 2), 1 / 3)],
    "ontic trans": [np.eye(2), np.full((3, 3), 1 / 3)],
    "mat_sqrt": [np.eye(2) / 2, q.ginibre_state(3, np.random.default_rng(3)).matrix],
    "trace_distance": [np.diag([1.0, -1.0]), np.array([np.eye(2) / 2, np.diag([1.0, 0.0])])],
    "commutator_norm": [q.PAULI_X, q.ginibre_state(3, np.random.default_rng(4)).matrix],
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


NUMBER = st.floats() | st.complex_numbers() | st.integers()
RAGGED = st.lists(st.lists(NUMBER, max_size=3), min_size=2, max_size=3).filter(
    lambda rows: len({len(r) for r in rows}) > 1
) | st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(lambda n: n[0] != n[1]).map(
    lambda n: [np.eye(n[0]), np.eye(n[1])]  # matrices of two sizes
)
STRINGS = hnp.arrays(
    hnp.unicode_string_dtypes(max_len=2), hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=3)
).flatmap(lambda arr: st.sampled_from([arr, arr.tolist()]))
MALFORMED = {  # each kind's constructor with the drawn value in its array argument
    "density": q.DensityMatrix,
    "povm": q.Povm,
    "channel": q.Channel,
    "box": lambda x: CorrelationBox((2,), (2,), x),
    "ensemble": lambda x: EnsemblePreparation(x, ["p", "q"]),
    "joint": lambda x: JointDistribution([("x", 2)], x),
    "theory row": lambda x: OperationalTheory(["p"], ["I"], [("m", 2)], {("p", "I", "m"): x}),
    "ontic mu": lambda x: OnticModel(["l0", "l1"], {"x": x}, {}, {}),
    "ontic xi": lambda x: OnticModel(["l0", "l1"], {}, {"x": x}, {}),
    "ontic trans": lambda x: OnticModel(["l0", "l1"], {}, {}, {"x": x}),
    "mat_sqrt": q.mat_sqrt,
    "trace_distance": lambda x: q.trace_distance(x, x),
    "commutator_norm": lambda x: commutator_norm(x, x),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_ragged_and_string_input_raises_gptw_error_without_warning(kind):
    @FUZZ
    @given(RAGGED | STRINGS)
    def check(value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GptwError):
                MALFORMED[kind](value)

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
