"""Exception types raised by the library.

Audit results are never signalled through exceptions: an infinite observed
privacy level is a legal report value. Exceptions are reserved for malformed
inputs and for solver states that cannot occur on valid data.
"""


class DistpError(ValueError):
    """Base class for all errors raised by this package."""


class ValidationError(DistpError):
    """A constructed object violates a structural invariant (mass, sign, shape)."""


class UnknownLabelError(DistpError):
    """A label is not present in the relevant ground set."""


class GroundMismatchError(DistpError):
    """Two objects that must share a ground set (or ordering) do not."""


class MetricCoverageError(GroundMismatchError, UnknownLabelError):
    """A cost matrix's ground lacks a label of the objects it must price."""


class DimensionMismatchError(DistpError):
    """Array shapes disagree with the declared grounds."""


class InvalidGeneratorError(DistpError):
    """A custom divergence generator fails the convexity / normalization spot checks."""


class EmptyRelationError(DistpError):
    """An adjacency relation with no pairs was supplied where one is required."""


class InvalidEpsilonError(DistpError):
    """A privacy parameter is outside its admissible range."""


class InvalidCouplingError(DistpError):
    """A supplied joint table is not a coupling of the stated marginals."""


class UnsupportedInputError(DistpError):
    """A mechanism was asked to handle an input its construction cannot serve."""


class SolverNonconvergenceError(DistpError):
    """The transportation solver exceeded its pivot budget (should not happen on valid inputs)."""


class InfiniteEpsilonError(DistpError):
    """A finite privacy level was required but the inputs force an infinite one."""
