"""Semantic exception hierarchy.

Public functions never raise bare ``ValueError``; every failure mode has a
named class so callers (and the CLI exit-code mapping) can branch on type.
"""

from __future__ import annotations


class RiskShareError(Exception):
    """Base class for all errors raised by this package."""


class InputError(RiskShareError, ValueError):
    """Malformed or schema-violating user input (files, CLI arguments)."""


class ProblemTooLarge(InputError):
    """A grid, program or cost profile would exceed its size limit."""


class DimensionMismatch(RiskShareError, ValueError):
    """Operands live in incompatible dimensions or agent counts."""


class NonPositiveWeight(RiskShareError, ValueError):
    """A measure atom carries weight <= 0."""


class WeightSumOutOfTolerance(RiskShareError, ValueError):
    """Atom weights do not sum to 1 within the normalization tolerance."""


class IndexOutOfRange(RiskShareError, IndexError):
    """Agent index outside 0..p-1."""


class SumLawMismatch(RiskShareError, ValueError):
    """Two allocations do not share the same aggregate law."""


class XOutsideDomain(RiskShareError, ValueError):
    """A sharing query point lies outside the scaled ball p*B."""


class NoConvergence(RiskShareError, RuntimeError):
    """An iterative solve hit its iteration cap before reaching tolerance."""


class NotPositiveDefinite(RiskShareError, ValueError):
    """A matrix expected to be symmetric positive definite is not."""


class SingularSum(RiskShareError, ValueError):
    """The sum of agent matrices is numerically singular."""


class ParameterOutOfRange(RiskShareError, ValueError):
    """A scalar parameter lies outside its documented range."""


class SolverFailure(RiskShareError, RuntimeError):
    """The linear-program solver failed or returned an unusable status."""


class NumericalBreakdown(SolverFailure):
    """Simplex pivot breakdown: no acceptable pivot element remains."""
