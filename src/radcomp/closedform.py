"""Independent analytic oracles used for cross-validation.

Everything in this module is evaluated without the shooting integrator:
elementary formulas, reduction-of-order representations with adaptive
quadrature, and bracketed Newton root finding on analytic derivatives.
Oracle quality is certified by the residual of the defining equation, which
the test suite checks directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .ode import bracketed_newton, gauss_kronrod
from .spaceform import SpaceForm

# -- flat Serrin ball -----------------------------------------------------------

def serrin_flat_centered(n: int, M: float, r):
    """Centered flat torsion profile U = M - r^2/(2n); returns (U, U')."""
    if n < 2 or M <= 0:
        raise DomainError("need n >= 2 and M > 0")
    rp = math.sqrt(2.0 * n * M)
    r = np.asarray(r, dtype=float)
    if np.any(r < 0) or np.any(r > rp * (1 + 1e-12)):
        raise DomainError(f"radius outside [0, sqrt(2nM) = {rp}]")
    U = M - r * r / (2.0 * n)
    dU = -r / n
    if U.ndim == 0:
        return float(U), float(dU)
    return U, dU


def serrin_flat_radius(n: int, M: float) -> float:
    return math.sqrt(2.0 * n * M)


# -- explicit affine profile on the unit-curvature forms -------------------------

_PHI_INF = 60.0  # hyperbolic quadrature cutoff; the tail is ~ sech(60) ~ 2e-26


_LN2 = math.log(2.0)


def _g_integrand(n: int, k: int, phi: float) -> float:
    if k == 1:
        sn, cs = math.sin(phi), math.cos(phi)
        if sn < 0.9:
            num = 1.0 - sn ** n
        else:
            # 1 - sin^n in cancellation-free form (removable point at pi/2)
            num = -math.expm1(0.5 * n * math.log1p(-cs * cs))
        return num / (cs * cs * sn ** (n - 1))
    if phi <= 20.0:
        sh, ch = math.sinh(phi), math.cosh(phi)
        return math.expm1(n * math.log(sh)) / (ch * ch * sh ** (n - 1))
    # large-argument form through logarithms (avoids pow overflow)
    lc = phi - _LN2 + math.log1p(math.exp(-2.0 * phi))
    ls = phi - _LN2 + math.log1p(-math.exp(-2.0 * phi))
    return math.exp(ls - 2.0 * lc) - math.exp(-2.0 * lc - (n - 1) * ls)


def _g_integrand_deriv(n: int, k: int, phi: float) -> float:
    # quotient rule on the integrand; safe where the numerator vanishes
    if k == 1:
        s, c = math.sin(phi), math.cos(phi)
        num, den = 1.0 - s ** n, c * c * s ** (n - 1)
        dnum = -n * s ** (n - 1) * c
        dden = s ** (n - 2) * ((n - 1) * c ** 3 - 2.0 * c * s * s)
    else:
        s, c = math.sinh(phi), math.cosh(phi)
        num, den = s ** n - 1.0, c * c * s ** (n - 1)
        dnum = n * s ** (n - 1) * c
        dden = s ** (n - 2) * ((n - 1) * c ** 3 + 2.0 * c * s * s)
    return (dnum * den - num * dden) / (den * den)


def g_regularized(n: int, k: int, r: float) -> float:
    """Regularized reduction-of-order integral in the radial variable.

    k=+1: integral of (1 - sin^n)/(cos^2 sin^(n-1)) from r to pi/2 (the
    integrand has a removable point at pi/2); k=-1: integral of
    (sinh^n - 1)/(cosh^2 sinh^(n-1)) from r to infinity. Raises
    QuadratureError if a quadrature misses its error target.
    """
    if k not in (1, -1):
        raise DomainError("explicit affine profile requires k = +-1")
    if r <= 0 or (k == 1 and r >= math.pi):
        raise DomainError(f"radius {r} outside the open domain")
    if k == 1 and r > math.pi / 2.0:
        # the integrand is symmetric about pi/2, so G is odd under r -> pi - r
        return -g_regularized(n, 1, math.pi - r)
    hi = math.pi / 2.0 if k == 1 else _PHI_INF
    split = 0.1
    val = 0.0
    lo = r
    if r < split:
        # the integrand spikes like phi^(1-n) toward 0: integrate in log(phi)
        val, _ = gauss_kronrod(lambda t: _g_integrand(n, k, math.exp(t)) * math.exp(t),
                               math.log(r), math.log(split), epsabs=1e-12, epsrel=1e-12,
                               limit=800)
        lo = split
    v, _ = gauss_kronrod(lambda p: _g_integrand(n, k, p), lo, hi,
                         epsabs=1e-12, epsrel=1e-12, limit=800)
    return val + v


class SerrinExplicit:
    """Closed-form solution of U'' + (n-1) cot_k U' + nkU + 1 = 0, k = +-1.

    Basis: the particular constant -1/(nk); the cosine-type homogeneous
    solution h1 = c_k(r); and h2 = -1 + c_k(r) G(r) with the regularized
    integral G, the combination that stays bounded across zeros of c_k.
    The coefficients (A, B) solve the 2x2 Cauchy system at (R, M).
    """

    def __init__(self, sf: SpaceForm, R: float, M: float):
        if sf.k not in (1.0, -1.0):
            raise DomainError("serrin_explicit uses the unit-curvature normalization k = +-1")
        if R <= 0 or (sf.k > 0 and R >= sf.r_bar):
            raise DomainError("core radius must be interior (0 < R < r_bar)")
        self.sf, self.n, self.k = sf, sf.n, int(sf.k)
        self.R, self.M = float(R), float(M)
        h1, dh1 = self._ck(R), self._dck(R)
        h2, dh2 = self._h2(R), self._dh2(R)
        det = h1 * dh2 - h2 * dh1
        rhs = M + 1.0 / (self.n * self.k)
        self.A = rhs * dh2 / det
        self.B = -rhs * dh1 / det

    def _ck(self, r):
        return math.cos(r) if self.k == 1 else math.cosh(r)

    def _dck(self, r):
        return -math.sin(r) if self.k == 1 else math.sinh(r)

    def _h2(self, r):
        return -1.0 + self._ck(r) * g_regularized(self.n, self.k, r)

    def _dh2(self, r):
        # d/dr [c G] = c' G - c * integrand(r)
        return (self._dck(r) * g_regularized(self.n, self.k, r)
                - self._ck(r) * _g_integrand(self.n, self.k, r))

    def _d2h2(self, r):
        # d2/dr2 [-1 + c G] = c'' G - 2 c' g - c g', with c'' = -k c
        return (-self.k * self._ck(r) * g_regularized(self.n, self.k, r)
                - 2.0 * self._dck(r) * _g_integrand(self.n, self.k, r)
                - self._ck(r) * _g_integrand_deriv(self.n, self.k, r))

    def u(self, r: float) -> float:
        return (-1.0 / (self.n * self.k) + self.A * self._ck(r) + self.B * self._h2(r))

    def du(self, r: float) -> float:
        return self.A * self._dck(r) + self.B * self._dh2(r)

    def d2u(self, r: float) -> float:
        return -self.k * self.A * self._ck(r) + self.B * self._d2h2(r)

    def residual(self, r: float) -> float:
        """|U'' + (n-1) cot_k U' + nkU + 1| with every derivative taken
        analytically on the represented formula."""
        cot = self.sf.cotk(r)
        return abs(self.d2u(r) + (self.n - 1) * cot * self.du(r)
                   + self.n * self.k * self.u(r) + 1.0)


def serrin_explicit(sf: SpaceForm, R: float, M: float, r) -> float:
    """Value of the explicit affine profile at r (see SerrinExplicit)."""
    sol = SerrinExplicit(sf, R, M)
    if np.ndim(r) == 0:
        return sol.u(float(r))
    return np.array([sol.u(float(x)) for x in np.asarray(r).ravel()])


# -- affine Helmholtz profile on the 3-sphere -------------------------------------

class HelmholtzS3:
    """Radial solution of U'' + 2 cot(r) U' + lam U + beta = 0 on (0, pi)
    with U(R) = M, U'(R) = 0, for lam in (-1, 0) u (0, pi)."""

    def __init__(self, lam: float, beta: float, R: float, M: float):
        if lam == 0.0 or 1.0 + lam <= 0.0:
            raise DomainError("need lam != 0 and lam + 1 > 0")
        if not (0.0 <= R < math.pi):
            raise DomainError("core radius must lie in [0, pi)")
        self.lam, self.beta, self.R, self.M = lam, beta, float(R), float(M)
        self.a = math.sqrt(lam + 1.0)
        self.C = lam * M + beta

    def _P(self, r):
        a, R, C = self.a, self.R, self.C
        return (math.sin(R) * C * math.cos(a * (r - R))
                + math.cos(R) * C * math.sin(a * (r - R)) / a)

    def _dP(self, r):
        a, R, C = self.a, self.R, self.C
        return (-a * math.sin(R) * C * math.sin(a * (r - R))
                + math.cos(R) * C * math.cos(a * (r - R)))

    def u(self, r: float) -> float:
        if not (0.0 < r < math.pi):
            raise DomainError(f"radius {r} outside (0, pi)")
        return (self._P(r) / math.sin(r) - self.beta) / self.lam

    def du(self, r: float) -> float:
        s, c = math.sin(r), math.cos(r)
        return (self._dP(r) / s - self._P(r) * c / (s * s)) / self.lam

    def d2u(self, r: float) -> float:
        # P'' = -a^2 P, so d2/dr2 [P/sin] has a fully closed form
        s, c = math.sin(r), math.cos(r)
        P, dP = self._P(r), self._dP(r)
        a2 = self.a * self.a
        return (-a2 * P / s - 2.0 * dP * c / (s * s)
                + P * (1.0 / s + 2.0 * c * c / (s ** 3))) / self.lam

    def residual(self, r: float) -> float:
        return abs(self.d2u(r) + 2.0 * math.cos(r) / math.sin(r) * self.du(r)
                   + self.lam * self.u(r) + self.beta)


def helmholtz_s3(lam: float, beta: float, R: float, M: float, r) -> float:
    sol = HelmholtzS3(lam, beta, R, M)
    if np.ndim(r) == 0:
        return sol.u(float(r))
    return np.array([sol.u(float(x)) for x in np.asarray(r).ravel()])


# -- large-core-radius asymptotic profile (hyperbolic torsion) --------------------

@dataclass(frozen=True)
class AsymptoticProfile:
    """Large-R limit profile V(s) = 1 - (e^{-ns} + n e^s) / ((n+1)(M+1))
    in the rescaled normalization, with its two roots and the predicted
    boundary-derivative limits of the rescaled profile."""

    n: int
    M: float
    s_minus: float
    s_plus: float
    limit_plus: float   # lim of -V'(s_plus) as R -> inf (rescaled profile)
    limit_minus: float  # lim of  V'(s_minus)

    def value(self, s):
        a = 1.0 / ((self.n + 1) * (self.M + 1))
        return 1.0 - a * (np.exp(-self.n * np.asarray(s)) + self.n * np.exp(np.asarray(s)))

    # the rescaled profile is n times the Cauchy profile of f(x) = -n x + 1
    def cauchy_max(self) -> float:
        """Cauchy maximum of the unit-normalized profile with this asymptote."""
        return self.M / (self.n * (self.M + 1.0))

    def profile_derivative_limits(self):
        """Predicted |U'| limits at (r_plus, r_minus) for the unit-normalized
        profile of f(x) = -n x + 1 with M_ode = cauchy_max()."""
        return self.limit_plus / self.n, self.limit_minus / self.n

    def predicted_s_tail(self) -> float:
        """Predicted tail of s(R) = |U'(r_minus) + U'(r_plus)|."""
        lp, lm = self.profile_derivative_limits()
        return lm - lp

    def predicted_gap_length(self, c_norm: float) -> float:
        """Predicted length of the admissibility gap, given the normalization."""
        lp, lm = self.profile_derivative_limits()
        return (lm * lm - lp * lp) / c_norm


def asymptotic_gap(n: int, M: float) -> AsymptoticProfile:
    """Roots and derivative limits of the large-R limit profile."""
    if n < 2 or M <= 0:
        raise DomainError("need n >= 2 and M > 0")
    a = 1.0 / ((n + 1) * (M + 1))

    # V and V' through expm1: written as 1 - a (...), V cancels to first order
    # in s, and near M = 0 its rounding leaves the roots uncertain by 1e-13
    def V(s):
        return a * ((n + 1) * M - math.expm1(-n * s) - n * math.expm1(s))

    def dV(s):
        return n * a * (math.expm1(-n * s) - math.expm1(s))

    def root(lo, hi, side):
        # V is positive at 0 and falls away from it on either side: the
        # oriented side * V rises across [lo, hi]; start from the chord
        v_lo, v_hi = V(lo), V(hi)
        r = lo + (hi - lo) * v_lo / (v_lo - v_hi)
        return bracketed_newton(lambda s: (side * V(s), side * dV(s)), lo, hi, r)

    hi = 1.0
    while V(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise DomainError("root bracketing failed on the plus side")
    s_plus = root(0.0, hi, -1.0)
    lo = -1.0
    while V(lo) > 0:
        lo *= 2.0
        if lo < -1e6:
            raise DomainError("root bracketing failed on the minus side")
    s_minus = root(lo, 0.0, 1.0)
    lim_p = n * a * (math.exp(s_plus) - math.exp(-n * s_plus))
    lim_m = n * a * (math.exp(-n * s_minus) - math.exp(s_minus))
    return AsymptoticProfile(n, float(M), s_minus, s_plus, lim_p, lim_m)


def asymptote_parameter_from_cauchy_max(n: int, m_ode: float) -> float:
    """Inverse of AsymptoticProfile.cauchy_max: M_tilde = n m / (1 - n m)."""
    if not (0 < m_ode < 1.0 / n):
        raise DomainError(f"Cauchy maximum must lie in (0, 1/n), got {m_ode}")
    return n * m_ode / (1.0 - n * m_ode)
