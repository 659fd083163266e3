"""Profiles along isoparametric foliations of the round sphere.

A family is described by the degree ell in {1, 2, 3, 4, 6}, the two
principal-curvature multiplicities, and the ambient dimension; the reduced
equation lives on the leaf parameter s in (0, pi/ell) with first-order
coefficient (n-1) cot(ell s) - c / (ell sin(ell s)), c = ell^2 (m2 - m1) / 2.
Both endpoints are focal poles; the solver starts there with the numeric
pole residue.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .nonlinearity import Nonlinearity
from .ode import CauchyData, ModelProfile, SolveOptions, solve_generic

_ALLOWED_DEGREES = (1, 2, 3, 4, 6)


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
        if self.n < 2:
            raise DomainError("ambient dimension must be >= 2")
        if 2 * (self.n - 1) != self.ell * (self.m1 + self.m2):
            warnings.warn(
                f"dimension bookkeeping off: n-1 = {self.n - 1} but "
                f"ell (m1+m2)/2 = {self.ell * (self.m1 + self.m2) / 2}",
                stacklevel=2)

    @property
    def c(self) -> float:
        return self.ell ** 2 * (self.m2 - self.m1) / 2.0

    @property
    def s_max(self) -> float:
        return math.pi / self.ell

    def coefficient(self, s: float) -> float:
        if not (0.0 < s < self.s_max):
            raise DomainError(f"leaf parameter {s} outside (0, pi/ell = {self.s_max})")
        ls = self.ell * s
        return (self.n - 1) * math.cos(ls) / math.sin(ls) - self.c / (self.ell * math.sin(ls))


@dataclass
class IsoProfile:
    family: IsoparametricFamily
    f: Nonlinearity
    S: float
    M: float
    profile: ModelProfile
    R_param: float          # cos(ell * S) in [-1, 1]
    domain: str             # leaf-band | focal-cap-plus | focal-cap-minus

    @property
    def s_minus(self) -> Optional[float]:
        return self.profile.r_minus

    @property
    def s_plus(self) -> Optional[float]:
        return self.profile.r_plus

    @property
    def admissible(self) -> bool:
        return self.profile.admissible

    def z(self, s):
        return self.profile.u(s)

    def dz(self, s):
        return self.profile.du(s)

    def header(self) -> dict:
        fam = self.family
        return {"ell": fam.ell, "m1": fam.m1, "m2": fam.m2, "c": fam.c, "n": fam.n,
                "S": self.S, "M": self.M, "s_minus": self.s_minus,
                "s_plus": self.s_plus, "domain": self.domain}


def solve_iso_profile(family: IsoparametricFamily, f: Nonlinearity, S: float,
                      M: float, opts: SolveOptions = SolveOptions(),
                      strict: bool = True) -> IsoProfile:
    """Shoot the reduced equation from Z(S) = M, Z'(S) = 0.

    S = 0 and S = pi/ell start at a focal pole (singular startup with the
    numeric residue); interior S gives a band between two interior zeros.
    """
    smax = family.s_max
    if not (0.0 <= S <= smax):
        raise DomainError(f"focal parameter S = {S} outside [0, pi/ell = {smax}]")
    cd = CauchyData(S, M)
    prof = solve_generic(family.coefficient, f, cd, (0.0, smax), opts,
                         singular_lo=True, singular_hi=True, strict=strict)
    if S == 0.0:
        domain = "focal-cap-plus"
    elif abs(S - smax) <= 1e-12 * smax:
        domain = "focal-cap-minus"
    else:
        domain = "leaf-band"
    return IsoProfile(family=family, f=f, S=float(S), M=float(M), profile=prof,
                      R_param=math.cos(family.ell * S), domain=domain)


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
