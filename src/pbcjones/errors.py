"""Exception types and the number checks shared across the package."""

import math
import numbers


class PbcJonesError(Exception):
    """Base class for errors raised by this package."""


class NonGenericDirectionError(PbcJonesError):
    """Projection along a direction failed a genericity check.

    ``feature`` names the offending check, e.g. ``"tangency"`` or
    ``"crossing_separation"``.
    """

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"projection is not generic: {feature}")

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so a worker process can return it
        return type(self), (self.feature,)


class StateSumTooLargeError(PbcJonesError):
    """A diagram has more crossings than the configured cap allows."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"diagram has {count} crossings, exceeding the cap of {cap}; "
            f"raise the cap explicitly to proceed"
        )

    def __reduce__(self):
        return type(self), (self.count, self.cap)


class ChainConnectivityError(PbcJonesError):
    """Arcs of a generating chain do not assemble into the declared topology."""


class AmbiguousMatchError(ChainConnectivityError):
    """More than one arc image continues a chain within tolerance."""


def require_nonnegative(name: str, value: float) -> None:
    """Reject a tolerance-like number that is not real (bool is not one), not
    finite, or below 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise PbcJonesError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value >= 0):
        raise PbcJonesError(f"{name} must be finite and at least 0, got {value}")


def require_count(name: str, value, least: int) -> None:
    """Reject a count that is not an integer (bool is not one) or is below ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise PbcJonesError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise PbcJonesError(f"{name} must be at least {least}, got {value}")
