"""Exception hierarchy shared across the :mod:`repro` library.

Every error raised intentionally by the library derives from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` etc.)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphFormatError(ReproError):
    """An edge list or matrix payload is malformed (bad shape, dtype,
    out-of-range vertex id, negative weight where disallowed...)."""


class PartitionError(ReproError):
    """A block/subgraph partitioning request is inconsistent with the
    graph or the accelerator geometry."""


class ConfigError(ReproError):
    """An accelerator or platform configuration is invalid."""


class MappingError(ReproError):
    """A graph algorithm cannot be mapped onto the requested execution
    pattern (e.g. a non-SpMV vertex program on a MAC mapper)."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration
    budget."""


class DeviceError(ReproError):
    """A ReRAM device-level operation is invalid (value out of the cell's
    programmable range, crossbar shape mismatch...)."""


class DatasetError(ReproError):
    """A named dataset is unknown or its generation parameters are
    invalid."""


class JobError(ReproError):
    """A batch job is malformed, or its execution failed inside a
    worker (the original traceback is carried in the message)."""


class CacheError(ReproError):
    """A result-cache operation received invalid arguments or found an
    inconsistent on-disk state."""


class ResidencyError(ReproError):
    """A shared-memory residency operation is invalid (bad budget,
    malformed segment name...)."""


class RequestError(ReproError):
    """An HTTP request to the batch service is malformed; the service
    layer maps this (like every ReproError) to a 400 response."""


class RequestTooLarge(RequestError):
    """An HTTP request body exceeds the service's size cap; the service
    answers 413 without reading it and closes the connection."""


class LintError(ReproError):
    """``repro lint`` itself was misused: unknown rule IDs, paths
    outside a package, or a policy naming modules that do not exist."""
