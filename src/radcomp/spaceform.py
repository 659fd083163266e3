"""Closed-form geometric kernel of the warped-product model spaces.

A space form here is the pair (n, k): dimension and the constant curvature
bound entering the radial coefficient. All formulas are scalar functions of
the radius; the generalized sine s_k and its derivative switch between the
hyperbolic / flat / trigonometric branches and go through a power series
near k = 0 so that k can be scanned continuously. The ratio s_k'/s_k, which
the shooting loop evaluates at every stage, is built once per form as a
closure for its curvature branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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


def _cot_kernel(k: float, s: float, r_bar: float, scale: int) -> Callable[[float], float]:
    """r -> scale * s_k'(r) / s_k(r) for the form with curvature k, s = sqrt|k|
    and endpoint r_bar, with a simple pole at r = 0 (and at r_bar for k > 0).

    The constants are bound as locals and each curvature branch has its own
    closure, so a call runs in one frame without branching on k. The quotient
    is `dsk(r) / sk(r)` spelled out with the same operations in the same
    order, so it agrees with them to the last bit; at k = 0 the series gives
    exactly 1 / r. The range checks imply those of `sk` and `dsk`.
    """
    def check(r):
        if r <= 0.0:
            raise SingularityError(f"cot_k has a pole at r = 0 (got r = {r})")
        raise DomainError(f"radius {r} outside (0, r_bar = {r_bar})")

    if k == 0.0:
        def flat(r):
            r = float(r)
            if r <= 0.0 or r >= r_bar:
                check(r)
            return scale * (1.0 / r)
        return flat

    abs_k, cut = abs(k), _SERIES_CUT
    cos, sin = (math.cos, math.sin) if k > 0.0 else (math.cosh, math.sinh)

    def curved(r):
        r = float(r)
        if r <= 0.0 or r >= r_bar:
            check(r)
        if abs_k * r * r < cut:
            q = k * r * r
            return scale * ((1.0 - q / 2.0 * (1.0 - q / 12.0 * (1.0 - q / 30.0)))
                            / (r * (1.0 - q / 6.0 * (1.0 - q / 20.0 * (1.0 - q / 42.0)))))
        return scale * (cos(s * r) / (sin(s * r) / s))
    return curved


@dataclass(frozen=True)
class SpaceForm:
    """Ambient data (dimension, curvature) with the derived endpoint r_bar.

    r_bar is pi/sqrt(k) for k > 0 and +inf otherwise; every range check in
    the toolkit goes through it. `cotk(r)` = s_k'(r) / s_k(r) and
    `coefficient(r)` = (n - 1) cot_k(r) are functions built at construction
    (`_cot_kernel`): SingularityError at r <= 0, DomainError at r >= r_bar.
    The radial equation U'' + coefficient U' + f(U) = 0 lives on `interval`
    = (0, r_bar), with the pole `residues` (n - 1, n - 1) at its two ends.
    """

    n: int
    k: float
    r_bar: float = field(init=False)
    _sqrt_abs_k: float = field(init=False, repr=False, compare=False)
    cotk: Callable[[float], float] = field(init=False, repr=False, compare=False)
    coefficient: Callable[[float], float] = field(init=False, repr=False, compare=False)
    interval: tuple = field(init=False, repr=False, compare=False)
    residues: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 2:
            raise DomainError(f"dimension must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "k", float(self.k))
        if not math.isfinite(self.k):
            raise DomainError(f"curvature bound must be finite, got k = {self.k}")
        s = math.sqrt(abs(self.k))
        object.__setattr__(self, "_sqrt_abs_k", s)
        object.__setattr__(self, "r_bar", math.pi / s if self.k > 0 else math.inf)
        object.__setattr__(self, "cotk", _cot_kernel(self.k, s, self.r_bar, 1))
        object.__setattr__(self, "coefficient", _cot_kernel(self.k, s, self.r_bar, self.n - 1))
        object.__setattr__(self, "interval", (0.0, self.r_bar))
        object.__setattr__(self, "residues", (self.n - 1, self.n - 1))

    def __reduce__(self):
        # the kernels are closures, which do not pickle; rebuild them instead
        return (SpaceForm, (self.n, self.k))

    def describe(self) -> dict:
        """The data that names the equation, for output headers."""
        return {"n": self.n, "k": self.k}

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

    # -- tangent ratio --------------------------------------------------------

    def tank(self, r: float) -> float:
        """s_k(r) / s_k'(r); for k > 0 singular at r_bar/2 where s_k' vanishes."""
        r = float(r)
        if r < 0.0 or r >= self.r_bar:
            raise DomainError(f"radius {r} outside [0, r_bar = {self.r_bar})")
        if self.k > 0.0 and abs(r - 0.5 * self.r_bar) < 1e-14 * self.r_bar:
            raise SingularityError(f"tan_k singular at r_bar/2 = {0.5 * self.r_bar}")
        return self.sk(r) / self.dsk(r)

