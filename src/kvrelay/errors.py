"""Exception types shared across the library.

Everything subclasses :class:`KvRelayError`, which itself subclasses
``ValueError`` so callers can catch domain errors coarsely or precisely.
"""


class KvRelayError(ValueError):
    """Base class for all domain errors raised by this package."""


class UnknownPosition(KvRelayError):
    """An index refers to a global position absent from the cache."""


class ShapeMismatch(KvRelayError):
    """Caches disagree on layer/head counts or per-head dimensions."""


class PositionOverlap(KvRelayError):
    """Position ranges that must be ordered interleave or collide."""


class SinkTooLarge(KvRelayError):
    """Requested sink exceeds the available first-round prompt positions."""


class EmptyInput(KvRelayError):
    """A kernel received a matrix with no rows."""


class DimensionMismatch(KvRelayError):
    """Operand dimensions are incompatible."""


class MissingColumn(KvRelayError):
    """A requested position has no matching attention column or row."""


class WrongGranularity(KvRelayError):
    """A mass table of a different granularity was expected."""


class BudgetUnset(KvRelayError):
    """An eviction method needs exactly one of budget_k / budget_ratio."""


class EmptyKeep(KvRelayError):
    """Backfill is undefined without retained rows."""


class EmptyList(KvRelayError):
    """An aggregate over an empty collection was requested."""


class ZeroLength(KvRelayError):
    """A ratio over a non-positive total length was requested."""


class ChainEmpty(KvRelayError):
    """A relay chain must contain at least one agent round."""


class NumericalFailure(KvRelayError):
    """A kernel received non-finite input or its SVD did not converge."""
