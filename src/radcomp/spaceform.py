"""Closed-form geometric kernel of the warped-product model spaces.

A space form here is the pair (n, k): dimension and the constant curvature
bound entering the radial coefficient. All formulas are scalar functions of
the radius; the generalized sine s_k and its derivative switch between the
hyperbolic / flat / trigonometric branches and go through a power series
near k = 0 so that k can be scanned continuously.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SingularityError

# |k| * r^2 below this: evaluate s_k and its derivative by series to avoid
# cancellation between the 1/sqrt(|k|) prefactor and the sin/sinh argument.
_SERIES_CUT = 1e-8


def _sk_series(k, r):
    # s_k(r) = r * (1 - q/6 + q^2/120 - q^3/5040), q = k r^2
    q = k * r * r
    return r * (1.0 - q / 6.0 * (1.0 - q / 20.0 * (1.0 - q / 42.0)))


def _dsk_series(k, r):
    # s_k'(r) = 1 - q/2 + q^2/24 - q^3/720, q = k r^2
    q = k * r * r
    return 1.0 - q / 2.0 * (1.0 - q / 12.0 * (1.0 - q / 30.0))


@dataclass(frozen=True)
class SpaceForm:
    """Ambient data (dimension, curvature) with the derived endpoint r_bar.

    r_bar is pi/sqrt(k) for k > 0 and +inf otherwise; every range check in
    the toolkit goes through it.
    """

    n: int
    k: float
    r_bar: float = field(init=False)
    _sqrt_abs_k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", float(self.k))
        s = math.sqrt(abs(self.k))
        object.__setattr__(self, "_sqrt_abs_k", s)
        object.__setattr__(self, "r_bar", math.pi / s if self.k > 0 else math.inf)

    # -- warping function and derivative ------------------------------------

    def sk(self, r: float) -> float:
        """Generalized sine: sinh-type (k<0), r (k=0), sin-type (k>0)."""
        r = float(r)
        if r < 0.0:
            raise DomainError(f"radius must be nonnegative, got {r}")
        if r > self.r_bar * (1.0 + 1e-14):
            raise DomainError(f"radius {r} exceeds r_bar = {self.r_bar}")
        k = self.k
        if abs(k) * r * r < _SERIES_CUT:
            return _sk_series(k, r)
        s = self._sqrt_abs_k
        if k > 0.0:
            return math.sin(s * min(r, self.r_bar)) / s
        return math.sinh(s * r) / s

    def dsk(self, r: float) -> float:
        """Derivative of the warping function (cos / 1 / cosh type)."""
        r = float(r)
        if r < 0.0:
            raise DomainError(f"radius must be nonnegative, got {r}")
        k = self.k
        if abs(k) * r * r < _SERIES_CUT:
            return _dsk_series(k, r)
        if k > 0.0:
            return math.cos(self._sqrt_abs_k * r)
        return math.cosh(self._sqrt_abs_k * r)

    # -- cotangent / tangent ratios ------------------------------------------

    def cotk(self, r: float) -> float:
        """s_k'(r) / s_k(r); simple pole at r = 0 (and at r_bar for k > 0).

        The shooting loop calls this at every stage, so `dsk(r) / sk(r)` is
        spelled out here: the same operations in the same order, without the
        range checks that the two checks below already imply.
        """
        r = float(r)
        if r <= 0.0:
            raise SingularityError(f"cot_k has a pole at r = 0 (got r = {r})")
        if r >= self.r_bar:
            raise DomainError(f"radius {r} outside (0, r_bar = {self.r_bar})")
        k = self.k
        if abs(k) * r * r < _SERIES_CUT:
            q = k * r * r
            return ((1.0 - q / 2.0 * (1.0 - q / 12.0 * (1.0 - q / 30.0)))
                    / (r * (1.0 - q / 6.0 * (1.0 - q / 20.0 * (1.0 - q / 42.0)))))
        s = self._sqrt_abs_k
        if k > 0.0:
            return math.cos(s * r) / (math.sin(s * r) / s)
        return math.cosh(s * r) / (math.sinh(s * r) / s)

    def tank(self, r: float) -> float:
        """s_k(r) / s_k'(r); for k > 0 singular at r_bar/2 where s_k' vanishes."""
        r = float(r)
        if r < 0.0 or r >= self.r_bar:
            raise DomainError(f"radius {r} outside [0, r_bar = {self.r_bar})")
        if self.k > 0.0 and abs(r - 0.5 * self.r_bar) < 1e-14 * self.r_bar:
            raise SingularityError(f"tan_k singular at r_bar/2 = {0.5 * self.r_bar}")
        return self.sk(r) / self.dsk(r)

    def volume_integrand(self, r: float) -> float:
        """s_k(r)^(n-1), the density of the radial volume element."""
        return self.sk(r) ** (self.n - 1)

    # -- radial drift of the Laplace operator ---------------------------------

    def radial_coefficient(self, r: float) -> float:
        """(n-1) cot_k(r), the first-order coefficient of the radial equation."""
        return (self.n - 1) * self.cotk(r)

    def sk_array(self, r: np.ndarray) -> np.ndarray:
        """Vectorized warping function (no range checks)."""
        r = np.asarray(r, dtype=float)
        k = self.k
        out = np.empty_like(r)
        small = np.abs(k) * r * r < _SERIES_CUT
        q = k * r[small] * r[small]
        out[small] = r[small] * (1.0 - q / 6.0 * (1.0 - q / 20.0 * (1.0 - q / 42.0)))
        big = ~small
        s = self._sqrt_abs_k
        if k > 0.0:
            out[big] = np.sin(s * r[big]) / s
        elif k < 0.0:
            out[big] = np.sinh(s * r[big]) / s
        else:
            out[big] = r[big]
        return out
