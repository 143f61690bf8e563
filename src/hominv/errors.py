"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "HominvError",
    "InvalidInputError",
    "InvalidParameterError",
    "UndefinedAtOriginError",
    "MapDefinitionError",
    "MapSyntaxError",
    "MixedDegreeError",
    "DimensionMismatchError",
    "InvalidKappaError",
    "PreconditionError",
    "NoBracketError",
    "SingularJacobianError",
    "ContinuationFailedError",
]


class HominvError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(HominvError, ValueError):
    """A numeric argument is malformed (wrong shape, non-finite, zero where
    a nonzero vector is required)."""


class InvalidParameterError(HominvError, ValueError):
    """A configuration or construction parameter is out of range."""


class UndefinedAtOriginError(HominvError):
    """The Jacobian was requested at the origin, where the map (extended by
    zero) is in general not differentiable."""


class MapDefinitionError(HominvError, ValueError):
    """A textual map definition is invalid.

    ``line`` and ``col`` are 1-based source coordinates when the problem can
    be localized; both are ``None`` otherwise.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = f"line {line}, col {col}: " if line is not None else ""
        super().__init__(where + message)


class MapSyntaxError(MapDefinitionError):
    """The text does not match the map grammar."""


class MixedDegreeError(MapDefinitionError):
    """A component mixes monomials of different total degree.

    ``exponents`` identifies the offending monomial, ``component`` the
    1-based component index it appears in.
    """

    def __init__(self, message, line=None, col=None, component=None, exponents=None):
        self.component = component
        self.exponents = exponents
        super().__init__(message, line, col)


class DimensionMismatchError(MapDefinitionError):
    """The number of components differs from the declared dimension."""


class InvalidKappaError(MapDefinitionError):
    """The homogeneity order is not positive (or the polynomial degree is 0,
    which forces a nonpositive default order)."""


class PreconditionError(HominvError):
    """An operation that requires a passing hypothesis check was called
    without one (and without an explicit override)."""


class NoBracketError(HominvError):
    """No coercivity bracket exists because the empirical minimum of ``|f|``
    on the sphere is zero."""


class SingularJacobianError(HominvError):
    """A numerically singular Jacobian was encountered where the algorithm
    needs an invertible one; evidence that the nonvanishing-determinant
    hypothesis fails."""


class ContinuationFailedError(HominvError):
    """Path continuation aborted: the step size underflowed before reaching
    the target.  ``last_t`` and ``last_xi`` record the furthest waypoint that
    was still tracked successfully.

    ``seed_failures`` holds one ``(sample index, reason)`` pair per seed
    tried, in the order tried.  ``reason`` is the mode of the last failed
    Newton correction on that seed's path (``"singular"``, ``"diverged"`` or
    ``"no-convergence"``), ``"residual-over-tol"`` for a path tracked to
    ``t = 1`` whose rescaled residual missed the tolerance, or
    ``"antipodal"`` for a seed whose image points opposite the target in
    ``R^1``, where no path between them avoids the origin."""

    def __init__(self, message: str, last_t: float | None = None, last_xi=None,
                 seed_failures: tuple = ()):
        self.last_t = last_t
        self.last_xi = last_xi
        self.seed_failures = seed_failures
        super().__init__(message)
