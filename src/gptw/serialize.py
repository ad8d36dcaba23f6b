"""JSON file formats for theories, boxes, quantum objects, and ontic models.

Formats (all plain JSON, probabilities as decimal doubles):

  theory  {"preparations": [...], "transformations": [...],
           "measurements": [{"id": ..., "arity": n}, ...],
           "table": [{"prep": ..., "trans": ..., "meas": ..., "probs": [...]}, ...],
           "identity": "I"}                     # identity key optional

  box     {"parties": n, "settings": [...], "outcomes": [...],
           "table": {"x1,...,xn": [flattened outcome probs, row-major]}}

  state   {"dims": [d1, ...], "matrix": M}       # or "dim": d
  povm    {"elements": [M, ...]}
  channel {"kraus": [M, ...], "output_dims": [...]}   # output_dims optional

  model   {"ontic_states": [...], "preparations": {P: [mu...]},
           "measurements": {M: [[xi(x=0, l)...], [xi(x=1, l)...], ...]},
           "transformations": {T: [[column-stochastic matrix]]}}

Complex matrices M are arrays of rows, each row an array of [re, im] pairs
(row-major).  Loaders re-validate all invariants of the objects they build,
and every `load_*` goes through `_load`, so each error names its file.  A
key repeated within one JSON object is an error, not a silent overwrite.
"""
from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from .errors import GptwError, ValidationError

if TYPE_CHECKING:  # each loader imports the one module it builds from
    from .correlations import CorrelationBox
    from .ontic import OnticModel
    from .quantum import Channel, DensityMatrix, Povm
    from .theory import OperationalTheory


class ParseError(ValidationError):
    """Malformed input file; message carries the file position when known."""


def _read_json(path: str | Path) -> Any:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from None

    def unique_keys(pairs: list[tuple[str, Any]]) -> dict:
        # `json.loads` alone keeps the last of a repeated key and drops the others unread
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path}: repeated key {key!r}")
            obj[key] = value
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _load(path: str | Path, from_json) -> Any:
    """Load with `from_json`; prefix a constructor's error with the path (a ParseError has it)."""
    try:
        return from_json(_read_json(path), context=str(path))
    except ParseError:
        raise
    except GptwError as exc:
        raise type(exc)(f"{path}: {exc}") from None


_JSON_TYPES = {list: "an array", dict: "an object"}


def _require(data: Any, key: str, context: str, kind: type | None = None) -> Any:
    """data[key], which must exist and, when `kind` is given, be a list or dict."""
    if not isinstance(data, dict) or key not in data:
        raise ParseError(f"{context}: missing key {key!r}")
    value = data[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"{context}: {key!r} must be {_JSON_TYPES[kind]}")
    return value


def _int(data: Any, context: str) -> int:
    """A JSON integer; a float with an integral value such as 2.0 passes too."""
    if isinstance(data, float) and data.is_integer():
        return int(data)
    if isinstance(data, bool) or not isinstance(data, int):
        raise ParseError(f"{context}: expected an integer, got {data!r}")
    return data


def _int_list(data: Any, context: str) -> list[int]:
    if not isinstance(data, list):
        raise ParseError(f"{context}: expected an array of integers, got {data!r}")
    return [_int(x, context) for x in data]


def _float_array(data: Any, context: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError):
        raise ParseError(f"{context}: expected an array of numbers") from None
    # Python's json reads NaN and Infinity; stop them here, where the file is
    # known, before numpy arithmetic on them warns on stderr
    if not np.isfinite(arr).all():
        raise ParseError(f"{context}: expected finite numbers, got NaN or infinity")
    return arr


# -- complex matrices --------------------------------------------------------


def matrix_to_json(mat: np.ndarray) -> list[list[list[float]]]:
    mat = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def matrix_from_json(data: Any, context: str = "matrix") -> np.ndarray:
    arr = _float_array(data, context)
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ParseError(f"{context}: expected rows of [re, im] pairs, got shape {arr.shape}")
    return arr[..., 0] + 1j * arr[..., 1]


# -- theories ---------------------------------------------------------------


def theory_to_json(theory: OperationalTheory) -> dict:
    return {
        "preparations": list(theory.preparations),
        "transformations": list(theory.transformations),
        "measurements": [{"id": m.id, "arity": m.arity} for m in theory.measurements],
        "identity": theory.identity,
        "table": [
            {"prep": p, "trans": t, "meas": m, "probs": [float(x) for x in row]}
            for (p, t, m), row in sorted(theory.rows())
        ],
    }


def theory_from_json(data: Any, context: str = "theory") -> OperationalTheory:
    from .theory import Measurement, OperationalTheory

    meas = [
        Measurement(str(_require(m, "id", context)), _int(_require(m, "arity", context), f"{context}: arity"))
        for m in _require(data, "measurements", context, list)
    ]
    table = {}
    for row in _require(data, "table", context, list):
        key = (
            str(_require(row, "prep", context)),
            str(_require(row, "trans", context)),
            str(_require(row, "meas", context)),
        )
        table[key] = _float_array(_require(row, "probs", context), context)
    return OperationalTheory(
        [str(p) for p in _require(data, "preparations", context, list)],
        [str(t) for t in _require(data, "transformations", context, list)],
        meas,
        table,
        identity=str(data.get("identity", "I")),
    )


def load_theory(path: str | Path) -> OperationalTheory:
    return _load(path, theory_from_json)


def save_theory(theory: OperationalTheory, path: str | Path) -> None:
    Path(path).write_text(json.dumps(theory_to_json(theory), indent=1))


# -- boxes --------------------------------------------------------------------


def box_to_json(box: CorrelationBox) -> dict:
    table = {}
    for xs in np.ndindex(*box.settings):
        key = ",".join(str(x) for x in xs)
        table[key] = [float(v) for v in box.table[xs].reshape(-1)]
    return {
        "parties": box.n_parties,
        "settings": list(box.settings),
        "outcomes": list(box.outcomes),
        "table": table,
    }


def box_from_json(data: Any, context: str = "box") -> CorrelationBox:
    from .correlations import MAX_PARTIES, CorrelationBox

    parties = _int(_require(data, "parties", context), f"{context}: parties")
    settings = _int_list(_require(data, "settings", context), f"{context}: settings")
    outcomes = _int_list(_require(data, "outcomes", context), f"{context}: outcomes")
    if len(settings) != parties or len(outcomes) != parties:
        raise ParseError(f"{context}: settings/outcomes must list {parties} entries")
    if parties > MAX_PARTIES:  # before the rows are allocated
        raise ParseError(f"{context}: at most {MAX_PARTIES} parties are supported, got {parties}")
    if min(settings + outcomes, default=0) < 1:
        raise ParseError(f"{context}: every party needs at least one setting and one outcome")
    raw = _require(data, "table", context, dict)
    n_rows, n_probs = math.prod(settings), math.prod(outcomes)
    if len(raw) != n_rows:  # before any allocation: the file's size bounds len(raw), not n_rows
        raise ParseError(f"{context}: table has {len(raw)} setting rows, expected {n_rows}")
    rows = []
    for xs in np.ndindex(*settings):
        key = ",".join(str(x) for x in xs)
        if key not in raw:
            raise ParseError(f"{context}: missing setting row {key!r}")
        row = _float_array(raw[key], context)
        if row.size != n_probs:
            raise ParseError(f"{context}: row {key!r} has {row.size} probs, expected {n_probs}")
        rows.append(row.reshape(-1))
    return CorrelationBox(settings, outcomes, np.reshape(rows, tuple(settings) + tuple(outcomes)))


def load_box(path: str | Path) -> CorrelationBox:
    return _load(path, box_from_json)


def save_box(box: CorrelationBox, path: str | Path) -> None:
    Path(path).write_text(json.dumps(box_to_json(box), indent=1))


# -- quantum objects ----------------------------------------------------------


def state_to_json(state: DensityMatrix) -> dict:
    return {"dims": list(state.dims), "matrix": matrix_to_json(state.matrix)}


def state_from_json(data: Any, context: str = "state") -> DensityMatrix:
    from .quantum import DensityMatrix

    if isinstance(data, dict) and "dims" in data:
        dims = _int_list(data["dims"], f"{context}: dims")
    elif isinstance(data, dict) and "dim" in data:
        dims = [_int(data["dim"], f"{context}: dim")]
    else:
        raise ParseError(f"{context}: missing 'dims' (or 'dim')")
    return DensityMatrix(matrix_from_json(_require(data, "matrix", context), context), dims=dims)


def load_state(path: str | Path) -> DensityMatrix:
    return _load(path, state_from_json)


def save_state(state: DensityMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(state_to_json(state)))


def povm_to_json(povm: Povm) -> dict:
    return {"elements": [matrix_to_json(e) for e in povm.elements]}


def povm_from_json(data: Any, context: str = "povm") -> Povm:
    from .quantum import Povm

    return Povm([matrix_from_json(e, context) for e in _require(data, "elements", context, list)])


def load_povm(path: str | Path) -> Povm:
    return _load(path, povm_from_json)


def save_povm(povm: Povm, path: str | Path) -> None:
    Path(path).write_text(json.dumps(povm_to_json(povm)))


def channel_to_json(chan: Channel) -> dict:
    return {"kraus": [matrix_to_json(k) for k in chan.kraus], "output_dims": list(chan.output_dims)}


def channel_from_json(data: Any, context: str = "channel") -> Channel:
    from .quantum import Channel

    kraus = [matrix_from_json(k, context) for k in _require(data, "kraus", context, list)]
    dims = data.get("output_dims")
    return Channel(kraus, output_dims=_int_list(dims, f"{context}: output_dims") if dims else None)


def load_channel(path: str | Path) -> Channel:
    return _load(path, channel_from_json)


def save_channel(chan: Channel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(channel_to_json(chan)))


# -- ontic models --------------------------------------------------------------


def model_to_json(model: OnticModel) -> dict:
    return {
        "ontic_states": list(model.ontic_states),
        "preparations": {p: [float(x) for x in v] for p, v in model.mu.items()},
        "measurements": {m: [[float(x) for x in row] for row in v] for m, v in model.xi.items()},
        "transformations": {t: [[float(x) for x in row] for row in v] for t, v in model.trans.items()},
    }


def model_from_json(data: Any, context: str = "model") -> OnticModel:
    from .ontic import OnticModel

    return OnticModel(
        [str(s) for s in _require(data, "ontic_states", context, list)],
        {str(p): _float_array(v, context) for p, v in _require(data, "preparations", context, dict).items()},
        {str(m): _float_array(v, context) for m, v in _require(data, "measurements", context, dict).items()},
        {str(t): _float_array(v, context) for t, v in _require(data, "transformations", context, dict).items()},
    )


def load_model(path: str | Path) -> OnticModel:
    return _load(path, model_from_json)


def save_model(model: OnticModel, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_json(model), indent=1))
