"""Profiles along isoparametric foliations of the round sphere.

A family is described by the degree ell in {1, 2, 3, 4, 6}, the two
principal-curvature multiplicities, and the ambient dimension; the reduced
equation lives on the leaf parameter s in (0, pi/ell) with first-order
coefficient (n-1) cot(ell s) - c / (ell sin(ell s)), c = ell^2 (m2 - m1) / 2.
Both endpoints are focal poles, with the residues m1 at s = 0 and m2 at
s = pi/ell (by Muenzner's n - 1 = ell (m1 + m2) / 2). A family states its
equation as a space form states the radial one, by `coefficient`,
`interval` and `residues`, so `ode.solve_profile` shoots both alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .nonlinearity import Nonlinearity
from .ode import CauchyData, ModelProfile, SolveOptions, solve_profile

_ALLOWED_DEGREES = (1, 2, 3, 4, 6)
# the multiplicities that degrees 3 (Cartan) and 6 (Abresch) allow, with m1 = m2
_MULTIPLICITIES = {3: (1, 2, 4, 8), 6: (1, 2)}


@dataclass(frozen=True)
class IsoparametricFamily:
    ell: int
    m1: int
    m2: int
    n: int

    def __post_init__(self):
        if self.ell not in _ALLOWED_DEGREES:
            raise DomainError(f"degree must be one of {_ALLOWED_DEGREES}, got {self.ell}")
        if self.m1 < 1 or self.m2 < 1:
            raise DomainError("multiplicities must be positive integers")
        if self.ell % 2 == 1 and self.m1 != self.m2:
            raise DomainError("odd degree requires equal multiplicities")
        allowed = _MULTIPLICITIES.get(self.ell, ())
        if allowed and not (self.m1 == self.m2 and self.m1 in allowed):
            raise DomainError(f"degree {self.ell} needs equal multiplicities in {allowed}, "
                              f"got {self.m1} and {self.m2}")
        if self.n < 2:
            raise DomainError("ambient dimension must be >= 2")
        if 2 * (self.n - 1) != self.ell * (self.m1 + self.m2):  # Muenzner
            raise DomainError(f"dimension bookkeeping off: n-1 = {self.n - 1} but "
                              f"ell (m1+m2)/2 = {self.ell * (self.m1 + self.m2) / 2}")

    @property
    def c(self) -> float:
        return self.ell ** 2 * (self.m2 - self.m1) / 2.0

    @property
    def s_max(self) -> float:
        return math.pi / self.ell

    @property
    def interval(self) -> tuple:
        return (0.0, self.s_max)

    @property
    def residues(self) -> tuple:
        return (self.m1, self.m2)

    def describe(self) -> dict:
        """The data that names the equation, for output headers."""
        return {"ell": self.ell, "m1": self.m1, "m2": self.m2, "c": self.c, "n": self.n}

    def coefficient(self, s: float) -> float:
        if not (0.0 < s < self.s_max):
            raise DomainError(f"leaf parameter {s} outside (0, pi/ell = {self.s_max})")
        ls = self.ell * s
        return (self.n - 1) * math.cos(ls) / math.sin(ls) - self.c / (self.ell * math.sin(ls))


def solve_iso_profile(family: IsoparametricFamily, f: Nonlinearity, S: float,
                      M: float, opts: SolveOptions = SolveOptions()) -> ModelProfile:
    """`solve_profile(family, f, CauchyData(S, M), opts)`, under the name the
    benchmark harness calls. A core leaf S on a focal pole gives a focal cap,
    whose profile has one zero (r_minus or r_plus is None); an interior S
    gives a band between two interior zeros."""
    return solve_profile(family, f, CauchyData(S, M), opts)


@dataclass(frozen=True)
class DescentResult:
    ok: bool
    conditional: bool
    note: str

    def __bool__(self):
        return self.ok


def descent_check(family: IsoparametricFamily, group: str) -> DescentResult:
    """Whether the foliation-invariant profiles pass to a quotient.

    antipodal: needs even degree (the defining polynomial must be even);
    hopf_circle: odd ambient dimension, conditional on the family being
    invariant under the circle action (asserted metadata, not verified);
    cyclic_p: free subgroups of the circle action, same condition.
    """
    if group == "antipodal":
        if family.ell % 2 == 0:
            return DescentResult(True, False, "even degree: antipodal-invariant level sets")
        return DescentResult(False, False, "odd degree: the foliation is not antipodal-invariant")
    if group in ("hopf_circle", "cyclic_p"):
        if family.n % 2 != 1:
            return DescentResult(False, False,
                                 f"circle action needs odd ambient dimension, got n = {family.n}")
        label = "free finite subgroups of the circle action" if group == "cyclic_p" \
            else "the circle action"
        return DescentResult(True, True,
                             f"descends under {label} provided the family is "
                             "circle-invariant (asserted metadata, not verified here)")
    raise DomainError(f"unsupported group {group!r}; "
                      "use antipodal, hopf_circle, or cyclic_p")
