"""Finite operational theories as explicit probability tables.

A theory is a quadruple: preparations, transformations (always including an
identity), measurements with fixed outcome arities, and a table assigning to
each (preparation, transformation, measurement) a normalized outcome
distribution.  Everything downstream (correlation boxes, duality
constructions, uncertainty checks) consumes these tables.

Conventions:
  * outcome labels are 0-based integers; +/-1 valuations for CHSH live in
    `gptw.correlations` as the map a -> (-1)**a
  * rows for the identity transformation must exist for every
    (preparation, measurement) pair; other rows may be partial
  * a table's shape, normalization and range checks (EPS_NORM = 1e-9) live
    in one place, `probability_array`; its one cast, `number_array`, is also
    the quantum layer's
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ArityError, DimensionMismatchError, UnknownIdError, ValidationError

EPS_NORM = 1e-9
EPS_BRANCH = 1e-12  # an ensemble branch of at most this weight never contributes
RANK_RTOL = 1e-7  # relative singular-value threshold for affine ranks


def number_array(values: Any, what: str, dtype: type = float) -> np.ndarray:
    """`values` as a new float or complex array, for callers to freeze; a GptwError, with no warning, unless numbers.

    A ragged list is a DimensionMismatchError.  Strings, other objects, ints over the float range and, for a float
    `dtype`, complex entries are a ValidationError: NumPy would read '1' as 1 and drop imaginary parts.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # NumPy's "inhomogeneous shape"
        raise DimensionMismatchError(f"{what} have mixed dimensions") from None
    real = dtype is float
    try:
        if arr.dtype.kind in ("biufO" if real else "biufcO"):
            return np.array(arr, dtype=dtype)
    except (TypeError, ValueError, OverflowError):  # an object entry that is not a number, an int over 1e308
        pass
    raise ValidationError(f"{what} must be {'real numbers' if real else 'numbers'}")


def integer(value: Any, what: str, least: int | None = None) -> int:
    """`value` as an int, NumPy's included; a ValidationError for a bool, float or string, which `int()` would take,
    or for an int below `least`, if given."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    if least is not None and n < least:
        raise ValidationError(f"{what} must be >= {least}, got {n}")
    return n


def probability_array(values: Any, what: str, shape: tuple[int, ...], conditions: int = 0) -> np.ndarray:
    """`values` as a read-only array of `shape`, distributions over the axes after the first `conditions`.

    One `number_array` cast, then the checks: the shape must be `shape`, an empty array is refused, entries must be
    finite and within EPS_NORM of [0, 1] (then clipped to it), and each distribution must sum to 1 within
    EPS_NORM.  `what` names the entries in the error message.
    """
    p = number_array(values, what)
    if p.shape != shape:
        raise ValidationError(f"{what} have shape {p.shape}, expected {shape}")
    if p.size == 0:
        raise ValidationError(f"{what} are empty")
    # written so that NaN fails it: min and max propagate NaN
    if not (p.min() >= -EPS_NORM and p.max() <= 1.0 + EPS_NORM):
        raise ValidationError(f"{what} must be finite and in [0, 1]")
    sums = p.reshape(p.shape[:conditions] + (-1,)).sum(axis=-1)
    error = np.abs(sums - 1.0)
    if error.max() > EPS_NORM:
        worst = np.unravel_index(error.argmax(), sums.shape)
        at = f" at {tuple(map(int, worst))}" if conditions else ""
        raise ValidationError(f"{what} sum to {sums[worst]}{at}, not 1")
    p = p.clip(0.0, 1.0)  # the method skips np.clip's wrapper; both keep -0.0
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class Measurement:
    """A measurement id together with its outcome arity."""

    id: str
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arity", integer(self.arity, f"measurement {self.id!r}: arity", 1))


class OperationalTheory:
    """Probability table p(M^x | P, T) over finite id sets.

    The table maps (prep, trans, meas) to a length-`arity` probability row.
    Instances are immutable: :func:`absorb_transformation` returns an
    extended copy.
    """

    def __init__(
        self,
        preparations: Sequence[str],
        transformations: Sequence[str],
        measurements: Sequence[Measurement | tuple[str, int]],
        table: Mapping[tuple[str, str, str], Sequence[float]],
        identity: str = "I",
    ) -> None:
        self._preparations = tuple(preparations)
        self._transformations = tuple(transformations)
        meas = tuple(m if isinstance(m, Measurement) else Measurement(*m) for m in measurements)
        self._measurements = meas
        self._arities = {m.id: m.arity for m in meas}
        self._identity = identity
        if len(set(self._preparations)) != len(self._preparations):
            raise ValidationError("duplicate preparation ids")
        if len(set(self._transformations)) != len(self._transformations):
            raise ValidationError("duplicate transformation ids")
        if len(self._arities) != len(meas):
            raise ValidationError("duplicate measurement ids")
        if identity not in self._transformations:
            raise ValidationError(f"identity transformation {identity!r} missing")

        self._table: dict[tuple[str, str, str], np.ndarray] = {}
        for key, probs in table.items():
            self._table[key] = self._validated_row(key, probs)
        for p in self._preparations:
            for m in meas:
                if (p, identity, m.id) not in self._table:
                    raise ValidationError(
                        f"identity row missing for preparation {p!r}, measurement {m.id!r}"
                    )

    def _validated_row(self, key: tuple[str, str, str], probs: Sequence[float]) -> np.ndarray:
        prep, trans, meas = key
        if prep not in self._preparations:
            raise ValidationError(f"table row references unknown preparation {prep!r}")
        if trans not in self._transformations:
            raise ValidationError(f"table row references unknown transformation {trans!r}")
        if meas not in self._arities:
            raise ValidationError(f"table row references unknown measurement {meas!r}")
        return probability_array(probs, f"row {key}: probabilities", (self._arities[meas],))

    # -- read-only views -------------------------------------------------

    @property
    def preparations(self) -> tuple[str, ...]:
        return self._preparations

    @property
    def transformations(self) -> tuple[str, ...]:
        return self._transformations

    @property
    def measurements(self) -> tuple[Measurement, ...]:
        return self._measurements

    @property
    def identity(self) -> str:
        return self._identity

    def arity(self, meas: str) -> int:
        try:
            return self._arities[meas]
        except KeyError:
            raise UnknownIdError(f"unknown measurement {meas!r}") from None

    def has_row(self, prep: str, trans: str, meas: str) -> bool:
        return (prep, trans, meas) in self._table

    def rows(self) -> Iterable[tuple[tuple[str, str, str], np.ndarray]]:
        return self._table.items()


@dataclass(frozen=True, eq=False)
class EnsemblePreparation:
    """Draw a branch index i with probability weights[i], then prepare branches[i].

    Branches are preparation ids of a theory table, or the branch states
    themselves (`quantum.DensityMatrix`) in the quantum and duality layers.
    A branch of weight <= EPS_BRANCH never contributes.
    """

    weights: np.ndarray
    branches: tuple[Any, ...]

    def __init__(self, weights: Sequence[float], branches: Sequence[Any]) -> None:
        b = tuple(branches)
        w = probability_array(weights, "ensemble weights", (len(b),))
        if len(set(b)) != len(b):
            raise ValidationError("ensemble branches must be distinct")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "branches", b)

    def __len__(self) -> int:
        return len(self.branches)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Dense joint distribution over a product of labeled finite outcome axes."""

    axes: tuple[tuple[str, int], ...]
    probabilities: np.ndarray

    def __init__(self, axes: Sequence[tuple[str, int]], probabilities: np.ndarray) -> None:
        ax = tuple((str(label), integer(n, f"axis {label!r}: size")) for label, n in axes)
        object.__setattr__(self, "axes", ax)
        p = probability_array(probabilities, "joint distribution entries", tuple(n for _, n in ax))
        object.__setattr__(self, "probabilities", p)


@dataclass(frozen=True)
class SubtheoryDimension:
    """Affine parameter count of a theory's preparation statistics.

    `claimed_dimension` is d when the count equals d**2 - 1 for an integer
    d >= 2; surjectivity of the parametrization is not (and cannot be)
    verified from a finite table, so this is a necessary-condition report.
    """

    affine_parameter_count: int
    claimed_dimension: int | None = None

    def __post_init__(self) -> None:
        d = self.claimed_dimension
        if d is not None and d * d - 1 != self.affine_parameter_count:
            raise ValidationError("claimed_dimension inconsistent with parameter count")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def outcome_distribution(
    theory: OperationalTheory, prep: str, trans: str, meas: str
) -> np.ndarray:
    """Return the table row p(M^x | P, T) as a probability vector."""
    if prep not in theory.preparations:
        raise UnknownIdError(f"unknown preparation {prep!r}")
    if trans not in theory.transformations:
        raise UnknownIdError(f"unknown transformation {trans!r}")
    theory.arity(meas)
    try:
        return theory._table[(prep, trans, meas)]
    except KeyError:
        raise UnknownIdError(f"no table row for ({prep!r}, {trans!r}, {meas!r})") from None


def absorb_transformation(
    theory: OperationalTheory, trans: str, meas: str
) -> tuple[OperationalTheory, str]:
    """Fold a transformation into a measurement N with p(N^x|P) = p(M^x|P,T).

    Returns (extended theory, N) and leaves `theory` untouched.  The identity
    transformation returns (theory, meas) unchanged.  Otherwise the copy has
    one new measurement whose identity rows copy the (P, T, M) rows verbatim.
    """
    if trans not in theory.transformations:
        raise UnknownIdError(f"unknown transformation {trans!r}")
    arity = theory.arity(meas)
    if trans == theory.identity:
        return theory, meas
    new_id = f"{meas}@{trans}"
    while new_id in theory._arities:
        new_id += "'"
    table = dict(theory.rows())
    for p in theory.preparations:
        try:
            table[(p, theory.identity, new_id)] = theory._table[(p, trans, meas)]
        except KeyError:
            raise UnknownIdError(f"cannot absorb: no row for ({p!r}, {trans!r}, {meas!r})") from None
    extended = OperationalTheory(
        theory.preparations,
        theory.transformations,
        theory.measurements + (Measurement(new_id, arity),),
        table,
        identity=theory.identity,
    )
    return extended, new_id


def ensemble_joint(
    theory: OperationalTheory,
    ensemble: EnsemblePreparation,
    chans: Sequence[str],
    meass: Sequence[str],
) -> JointDistribution:
    """Joint distribution over (branch index, measurement outcomes).

    Entry (i, x_2, ..., x_n) = p(i) * prod_k p(M_k^{x_k} | Q_i, T_k).  Each
    (channel, measurement) pair addresses one independent channel output; a
    jointly correlated multi-output device must be absorbed into a single
    product-arity measurement first (see the quantum layer).
    """
    if len(chans) != len(meass) or not chans:
        raise ArityError("one measurement per channel output required")
    for q in ensemble.branches:
        if q not in theory.preparations:
            raise UnknownIdError(f"ensemble branch {q!r} not in theory")
    arities = [theory.arity(m) for m in meass]
    shape = (len(ensemble), *arities)
    joint = np.zeros(shape)
    for i, (w, q) in enumerate(zip(ensemble.weights, ensemble.branches)):
        block = np.array(w)
        for t, m in zip(chans, meass):
            block = np.multiply.outer(block, outcome_distribution(theory, q, t, m))
        joint[i] = block
    axes = [("branch", len(ensemble))] + [(m, a) for m, a in zip(meass, arities)]
    return JointDistribution(axes, joint)


def operationally_equivalent(
    theory: OperationalTheory, prep_a: str, prep_b: str, tol: float = EPS_NORM
) -> bool:
    """True iff no (transformation, measurement) row separates the two preparations.

    Quantifies over the rows present for both preparations; a theory closed
    under :func:`absorb_transformation` makes this the single-measurement
    closure of the "no subsequent measurement distinguishes them" relation.
    """
    for p in (prep_a, prep_b):
        if p not in theory.preparations:
            raise UnknownIdError(f"unknown preparation {p!r}")
    for (p, t, m), row in theory.rows():
        if p != prep_a:
            continue
        if theory.has_row(prep_b, t, m):
            other = outcome_distribution(theory, prep_b, t, m)
            if not np.max(np.abs(row - other)) <= tol:  # a NaN tol fails
                return False
    return True


def _identity_statistics(theory: OperationalTheory, meas: str) -> np.ndarray:
    """p(M^x | P) of one measurement on the identity rows, as [preparation, outcome]."""
    rows = [outcome_distribution(theory, p, theory.identity, meas) for p in theory.preparations]
    return np.array(rows).reshape(len(rows), theory.arity(meas))


def _affine_rank(points: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Affine rank of a set of row vectors: singular values of the centered matrix above rtol * the largest."""
    if points.shape[0] <= 1:
        return 0
    centered = points - points.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    return int(np.sum(svals > rtol * svals[0]))


def affine_dimension(theory: OperationalTheory, rtol: float = RANK_RTOL) -> SubtheoryDimension:
    """Affine parameter count of the stacked identity-row statistics.

    Counts the affine rank of { (p(M^x|P))_{M,x} : P in preparations }: the
    singular values of the centered points above `rtol` times the largest.  The
    claimed dimension d is reported only when the count equals d**2 - 1 for
    integer d >= 2; realizability of every parameter value (the surjectivity
    half of the definition) is not checked.
    """
    if not theory.preparations:
        raise ValidationError("theory has no preparations")
    if not theory.measurements:
        raise ValidationError("theory has no measurements")
    stacked = np.hstack([_identity_statistics(theory, m.id) for m in theory.measurements])
    count = _affine_rank(stacked, rtol)
    d = round((count + 1) ** 0.5)
    claimed = d if d >= 2 and d * d - 1 == count else None
    return SubtheoryDimension(count, claimed)


def are_orthogonal(theory: OperationalTheory, m1: str, m2: str) -> bool:
    """True iff the outcome statistics of two binary measurements are independent.

    Tested as: the map P -> (p(M1^0|P), p(M2^0|P)) over all preparations has
    affine rank 2, i.e. neither probability is an affine function of the
    other on the preparation set.
    """
    for m in (m1, m2):
        if theory.arity(m) != 2:
            raise ArityError(f"orthogonality requires two-outcome measurements, {m!r} has arity {theory.arity(m)}")
    pts = np.stack([_identity_statistics(theory, m)[:, 0] for m in (m1, m2)], axis=1)
    return _affine_rank(pts) == 2
