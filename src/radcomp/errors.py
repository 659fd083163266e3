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
    """Integration reached its cap / the opposite singular endpoint without
    a sign change of the profile."""


class NotAdmissible(SolveFailure):
    """Profile violates the admissibility requirements (derivative vanishes
    or the profile turns before reaching zero)."""


class StepFailure(SolveFailure):
    """The adaptive integrator could not meet its tolerances."""


class QuadratureError(NumericalError):
    """Adaptive quadrature failed to converge."""


class InsufficientRange(NumericalError):
    """Sampled data does not extend far enough for a stable estimate."""
