"""Exception types and the number check shared across the package."""

import math


class PbcJonesError(Exception):
    """Base class for errors raised by this package."""


class NonGenericDirectionError(PbcJonesError):
    """Projection along a direction failed a genericity check.

    ``feature`` names the offending check, e.g. ``"tangency"`` or
    ``"crossing_separation"``.
    """

    def __init__(self, feature: str, detail: str = ""):
        self.feature = feature
        msg = f"projection is not generic: {feature}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class StateSumTooLargeError(PbcJonesError):
    """A diagram has more crossings than the configured cap allows."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"diagram has {count} crossings, exceeding the cap of {cap}; "
            f"raise the cap explicitly to proceed"
        )


class ChainConnectivityError(PbcJonesError):
    """Arcs of a generating chain do not assemble into the declared topology."""


class AmbiguousMatchError(ChainConnectivityError):
    """More than one arc image continues a chain within tolerance."""


def require_nonnegative(name: str, value: float) -> None:
    """Reject a tolerance-like number that is not finite or is below 0."""
    if not (math.isfinite(value) and value >= 0):
        raise PbcJonesError(f"{name} must be finite and at least 0, got {value}")
