"""Semantic exception hierarchy shared across the package."""


class GptwError(Exception):
    """Base error for this package."""


class ValidationError(GptwError, ValueError):
    """An object violates its construction invariants."""


class UnknownIdError(GptwError, KeyError):
    """A preparation/transformation/measurement id is not in the theory."""

    def __str__(self) -> str:  # KeyError quotes its payload; keep messages readable
        return self.args[0] if self.args else ""


class ArityError(GptwError, ValueError):
    """Outcome arity or axis shape does not match what an operation requires."""


class DimensionMismatchError(GptwError, ValueError):
    """Quantum objects of incompatible Hilbert-space dimensions, or a ragged list: rows or matrices of several shapes."""


class PreconditionError(GptwError, ValueError):
    """A documented operation precondition does not hold for the given input."""


class SolverError(GptwError, RuntimeError):
    """The LP solver failed for numerical reasons (not plain infeasibility)."""


class SizeLimitError(GptwError, ValueError):
    """Problem size exceeds a documented enumeration cap."""
