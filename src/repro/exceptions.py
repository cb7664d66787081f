"""Exception hierarchy for the LOLOHA reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers can
catch a single base class.  Errors are deliberately fine grained: parameter
errors raised during protocol construction are distinct from runtime errors
raised while sanitizing or aggregating reports.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` package."""


class ParameterError(ReproError, ValueError):
    """A protocol or experiment was configured with invalid parameters.

    Examples include a non-positive privacy budget, a domain size below two,
    or a first-report budget that is not strictly smaller than the
    longitudinal budget.
    """


class DomainError(ParameterError):
    """A value outside of the declared input domain was supplied."""


class EncodingError(ReproError):
    """A report could not be encoded or decoded.

    Raised, for instance, when a server receives a unary-encoded report whose
    length does not match the domain size it was configured with.
    """


class AggregationError(ReproError):
    """Server-side aggregation failed.

    Typical causes: aggregating an empty report set, mixing reports produced
    by clients configured with different parameters, or estimating
    frequencies before any report was collected.
    """


class DatasetError(ReproError):
    """A dataset generator received invalid arguments or produced an
    inconsistent longitudinal table."""


class ExperimentError(ReproError):
    """An experiment harness was configured or executed incorrectly."""
