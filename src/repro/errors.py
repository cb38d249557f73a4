"""Exception hierarchy for the VStore reproduction.

All library errors derive from :class:`VStoreError` so callers can catch a
single base class at the API boundary.
"""


class VStoreError(Exception):
    """Base class for every error raised by this library."""


class KnobError(VStoreError):
    """An unknown knob name or an illegal knob value was supplied."""


class FidelityError(VStoreError):
    """A fidelity operation violated the richer-than partial order."""


class CodecError(VStoreError):
    """Encoding or decoding was attempted with inconsistent parameters."""


class StorageError(VStoreError):
    """The storage backend failed (missing key, corrupt record, ...)."""


class ShardFailedError(StorageError):
    """An I/O operation targeted a shard that is currently failed."""


class ReplicaUnavailableError(StorageError):
    """Every replica of a segment is gone: the data is lost."""


class BudgetError(VStoreError):
    """A resource budget cannot be met by any feasible configuration."""


class ConfigurationError(VStoreError):
    """Backward derivation failed to produce a valid configuration."""


class QueryError(VStoreError):
    """A query referenced unknown operators, accuracies, or time ranges."""


class ErosionError(VStoreError):
    """The erosion planner was given an infeasible storage budget."""
