"""Exception types shared across the planner modules."""


class PlannerError(Exception):
    """Base class for all solver and harness errors.

    `tau` is the time index where the failure happened, when one applies.
    """

    def __init__(self, message="", tau=None):
        super().__init__(message)
        self.tau = tau


class DomainError(PlannerError):
    """A kinematic step left the model's valid domain.

    Raised when the back-wheel rolling distance has no real solution,
    i.e. the commanded speed/steer pair cannot be realized in one sample
    period with the given wheelbase.
    """


class NonConvergence(PlannerError):
    """An iterative routine hit its iteration budget without meeting tolerance."""


class RegularizationExhausted(PlannerError):
    """Backward-pass regularization grew past its cap without a usable Hessian."""


class BarrierDomainViolation(PlannerError):
    """A trajectory point sits on or inside a constraint boundary.

    The log-barrier solver requires strictly feasible iterates; this carries
    the first offending time index.
    """


class ConfigError(PlannerError):
    """A configuration file or option set is invalid."""


class UnknownScenario(ConfigError):
    """Requested built-in scenario id does not exist."""


class DegenerateProjection(UserWarning):
    """Projection target is the exact ellipse center; nearest point is non-unique.

    The projection returns the minor-axis boundary point and flags the
    ambiguity through this warning category.
    """
