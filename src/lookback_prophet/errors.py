"""Semantic exceptions shared across the library."""


class LookbackError(Exception):
    """Base class for all library errors."""


class ParameterOutOfRange(LookbackError, ValueError):
    """A constructor or generator parameter violates its domain."""


class IntegrationFailure(LookbackError):
    """Numeric integration did not reach the requested tolerance."""


class InvariantViolation(LookbackError):
    """A computed reward broke an invariant, such as exceeding the largest
    observation (a decay map above the identity)."""


class DegenerateInstance(LookbackError):
    """A quantile target cannot be realized on this instance.

    Defensive only: with stochastic tie-breaking every p in (0,1) is
    achievable, so seeing this indicates an internal bracketing bug.
    """


class KindMismatch(LookbackError, TypeError):
    """An operation was applied to a decay kind that does not support it."""


class UnsupportedDistribution(LookbackError, TypeError):
    """Exact computation requires finite-support distributions."""


class InstanceTooLarge(LookbackError):
    """The exact state space exceeds the configured budget."""


class SpaceTooLarge(LookbackError):
    """Total enumeration would exceed the outcome-space budget."""

    def __init__(self, size: float, budget: float):
        self.size = size
        self.budget = budget
        super().__init__(f"enumeration space {size:g} exceeds budget {budget:g}")


class UnsupportedDecay(LookbackError):
    """Exact evaluation is not available for this decay sequence."""


class OrderMismatch(LookbackError, ValueError):
    """An instance transform requires a different observation-order model."""
