"""Exception hierarchy. Validation problems map to CLI exit code 2,
numerical failures to exit code 3."""


class RadcompError(Exception):
    """Base class for all toolkit errors."""


class DomainError(RadcompError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested at a pole of a formula (r=0 for cot_k, etc.)."""


class NumericalError(RadcompError):
    """Base class for runtime numerical failures (CLI exit code 3)."""


class SolveFailure(NumericalError):
    """A profile solve that is not admissible; `profile` is the failed profile
    (None only on the StepFailure that a leg raises inside the solve)."""

    def __init__(self, message, profile=None):
        super().__init__(message)
        self.profile = profile


class NoZeroFound(SolveFailure):
    """A leg reached its outward cap, the far singular endpoint or the floor
    above the pole at the lower end without a sign change of the profile."""


class NotAdmissible(SolveFailure):
    """f(M) <= 0, or a leg turned (U' vanished) before a zero, grew past
    its cap or could not refine its zero."""


class StepFailure(SolveFailure):
    """The integrator's step size fell below the spacing of floats."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge."""


class InsufficientRange(NumericalError):
    """Sampled data does not extend far enough for a stable estimate."""
