"""Closed-form bound quantities evaluated on model profiles: branch inverses,
the model squared gradient, the lambda/mu coefficient pair, curvature bounds
for the boundary and top level set, area and isoperimetric ratios, the
distance-to-boundary lower bound, and hot-spot distance bounds.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, QuadratureError
from .ode import ModelProfile, bracketed_newton
from .spaceform import SpaceForm


class ComparisonPair:
    """One monotone branch of an admissible model profile.

    sign='plus' is the outer branch [R, r_plus] (profile decreasing in r),
    sign='minus' the inner branch [r_minus, R]. chi, the inverse that maps a
    level value back to its radius on the branch, is computed one way
    (chi_inverse): a bisection of the tabulated piece ends of the profile's
    dense output finds the polynomial piece that holds the level, and
    `ode.bracketed_newton`, the root finder that also locates the solver's
    events, finds the radius on that piece. chi_fast is the same method
    under the name of a former interpolant route, kept because the benchmark
    harness calls it.
    """

    def __init__(self, profile: ModelProfile, sign: str):
        if sign not in ("plus", "minus"):
            raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")
        if not profile.admissible:
            raise DomainError(f"profile is not admissible: {profile.failure}")
        if sign == "minus" and profile.r_minus is None:
            raise DomainError("minus branch requires a positive core radius")
        if profile.sf is None:
            raise DomainError("comparison pairs need the ambient space form")
        self.profile = profile
        self.sign = sign
        self.sf: SpaceForm = profile.sf
        self.R = profile.cauchy.R
        self.M = profile.cauchy.M
        lo, hi = profile.branch_interval(sign)
        self.r_boundary = lo if sign == "minus" else hi
        self._lo, self._hi = lo, hi
        # U rises with r on the minus branch; +-U is ascending in r on both
        self._ascending = 1.0 if sign == "minus" else -1.0
        self._chi_table = None  # (radii, +-U there), built on first use

    # -- chi: value -> radius on this branch ---------------------------------------

    def _tabulate(self):
        """The branch ends and every piece end between them, with +-U at each;
        U is exactly 0 at the boundary and exactly M at the core."""
        lo, hi = self._lo, self._hi
        radii = [lo, *self.profile.piece_ends(lo, hi), hi]
        levels = self.profile.u(np.array(radii)).tolist()
        levels[0], levels[-1] = (0.0, self.M) if self.sign == "minus" else (self.M, 0.0)
        return radii, [self._ascending * u for u in levels]

    def chi_inverse(self, s: float) -> float:
        """Radius on this branch with U(radius) = s, for 0 <= s < M."""
        if not (0.0 <= s < self.M):
            raise DomainError(f"level value {s} outside [0, M = {self.M})")
        if self._chi_table is None:
            self._chi_table = self._tabulate()
        radii, keys = self._chi_table
        x = self._ascending * s
        i = bisect_right(keys, x) - 1
        if keys[i] == x:
            return radii[i]
        # one piece of the dense output holds the level: bracketed Newton on
        # +-(U - s), which rises across the piece, from the chord
        a, b = radii[i], radii[i + 1]
        r = a + (b - a) * (x - keys[i]) / (keys[i + 1] - keys[i])
        asc, state = self._ascending, self.profile._state

        def gd(r):
            u, du = state(r)
            return asc * (u - s), asc * du

        return bracketed_newton(gd, a, b, r)

    chi_fast = chi_inverse

    # -- pointwise quantities --------------------------------------------------------

    def model_gradient(self, s: float) -> float:
        """The model squared gradient at level s: U'(chi(s))^2; vanishes at
        the critical level s = M."""
        if s == self.M:
            return 0.0
        return self.profile.du(self.chi_inverse(s)) ** 2

    def lambda_of_r(self, r: float) -> float:
        """(-U'' + cot_k U') / U'^2, with U'' taken from the equation."""
        self._check_interior(r)
        du = self.profile.du(r)
        if du == 0.0:
            raise DomainError("lambda undefined where U' vanishes (core radius)")
        d2 = self.profile.d2u(r)
        return (-d2 + self.sf.cotk(r) * du) / (du * du)

    def mu_of_r(self, r: float) -> float:
        """f'(U) - n k + ((n+2)/n) lambda f(U)."""
        u = self.profile.u(r)
        lam = self.lambda_of_r(r)
        n, k = self.sf.n, self.sf.k
        return self.profile.f.d(u) - n * k + (n + 2.0) / n * lam * self.profile.f(u)

    def _check_interior(self, r):
        lo, hi = self._lo, self._hi
        if not (lo <= r <= hi):
            raise DomainError(f"radius {r} outside the branch [{lo}, {hi}]")


@dataclass
class MuScanReport:
    min_mu: float
    argmin: float
    all_nonnegative: bool
    tol: float
    grid_size: int


def mu_sign_scan(pair: ComparisonPair, grid=None, npoints: int = 400,
                 core_exclusion: float = 0.05, edge_exclusion: float = 1e-4,
                 tol: float = 1e-8) -> MuScanReport:
    """Minimum of mu over the branch grid.

    The default grid excludes a larger band near the core than near the
    boundary: lambda is a 0/0 ratio at the core and its floating-point noise
    grows like (distance)^-3 there, while it is well conditioned at the
    boundary where U' is bounded away from zero.
    """
    if grid is None:
        lo, hi = pair._lo, pair._hi
        w = hi - lo
        if pair.sign == "plus":
            a, b = lo + core_exclusion * w, hi - edge_exclusion * w
        else:
            a, b = lo + edge_exclusion * w, hi - core_exclusion * w
        grid = np.linspace(a, b, npoints)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty scan grid")
    vals = np.array([pair.mu_of_r(float(r)) for r in grid])
    i = int(np.argmin(vals))
    return MuScanReport(min_mu=float(vals[i]), argmin=float(grid[i]),
                        all_nonnegative=bool(vals[i] >= -tol), tol=tol,
                        grid_size=grid.size)


def mu_at_boundary(pair: ComparisonPair, rel_offset: float = 1e-3) -> float:
    """Boundary value of mu by one-sided Richardson extrapolation (3 nodes)."""
    rb = pair.r_boundary
    w = pair._hi - pair._lo
    d = rel_offset * w
    sgn = -1.0 if pair.sign == "plus" else 1.0
    m1 = pair.mu_of_r(rb + sgn * d)
    m2 = pair.mu_of_r(rb + sgn * 2 * d)
    m3 = pair.mu_of_r(rb + sgn * 4 * d)
    return (8.0 * m1 - 6.0 * m2 + m3) / 3.0


@dataclass
class CurvatureBounds:
    boundary_H_bound: float
    maxset_H_bound: Optional[float]


def curvature_bounds(pair: ComparisonPair) -> CurvatureBounds:
    """Mean-curvature bounds (inner orientation): at the extremal boundary
    point, and along a regular top level set (the latter needs R > 0)."""
    sf = pair.sf
    if pair.sign == "plus":
        boundary = sf.cotk(pair.profile.r_plus) if pair.profile.r_plus < sf.r_bar \
            else -math.inf
        maxset = -sf.cotk(pair.R) if pair.R > 0 else None
    else:
        boundary = -sf.cotk(pair.profile.r_minus)
        maxset = sf.cotk(pair.R) if pair.R > 0 else None
    return CurvatureBounds(boundary_H_bound=boundary, maxset_H_bound=maxset)


def area_ratio_factor(pair: ComparisonPair, t: float) -> float:
    """(s_k(R) / s_k(chi(t)))^(n-1): top-level-set area against the t level set."""
    if pair.R <= 0:
        raise DomainError("area factor needs a hypersurface top level set (R > 0)")
    if not (0.0 <= t < pair.M):
        raise DomainError(f"level value {t} outside [0, M)")
    sf = pair.sf
    return (sf.sk(pair.R) / sf.sk(pair.chi_inverse(t))) ** (sf.n - 1)


def isoperimetric_model_ratio(pair: ComparisonPair) -> float:
    """Volume-to-top-area ratio of the model branch:
    integral of s_k^(n-1) over the branch, divided by s_k(R)^(n-1)."""
    if pair.R <= 0:
        raise DomainError("isoperimetric ratio needs R > 0")
    from scipy.integrate import quad  # deferred, so importing the package does not load scipy

    sf = pair.sf
    lo, hi = pair._lo, pair._hi
    val, err = quad(lambda r: sf.sk(r) ** (sf.n - 1), lo, hi,
                    epsabs=1e-14, epsrel=1e-12, limit=300)
    if not math.isfinite(val):
        raise QuadratureError("volume quadrature failed")
    return val / sf.sk(pair.R) ** (sf.n - 1)


def isoperimetric_coarea_ratio(pair: ComparisonPair) -> float:
    """Same ratio computed through the level-value parameterization:
    integral over t of s_k(chi(t))^(n-1) / |U'(chi(t))|, with the square-root
    substitution t = M - w^2 removing the endpoint singularity at t = M."""
    if pair.R <= 0:
        raise DomainError("isoperimetric ratio needs R > 0")
    from scipy.integrate import quad  # deferred, so importing the package does not load scipy

    sf, M = pair.sf, pair.M
    t_cap = M * (1.0 - 1e-15)

    def integrand(w):
        t = min(max(M - w * w, 0.0), t_cap)
        r = pair.chi_inverse(t)
        du = abs(pair.profile.du(r))
        if du == 0.0:
            return 0.0
        return sf.sk(r) ** (sf.n - 1) / du * 2.0 * w

    val, err = quad(integrand, 0.0, math.sqrt(M), epsabs=1e-13, epsrel=1e-10, limit=400)
    if not math.isfinite(val) or err > 1e-7 * max(1.0, abs(val)):
        raise QuadratureError(f"coarea quadrature failed (err={err})")
    return val / sf.sk(pair.R) ** (sf.n - 1)


def serrin_lower_bound(sf: SpaceForm, d: float) -> float:
    """(2/n) s_k(d/2)^2 / s_k'(d): pointwise value floor at distance d from
    the boundary. For k > 0 the formula needs s_k'(d) > 0, i.e. d < r_bar/2."""
    if d < 0:
        raise DomainError("distance must be nonnegative")
    if d == 0:
        return 0.0
    dsk = sf.dsk(d)
    if dsk <= 0:
        raise DomainError(f"s_k'(d) = {dsk} <= 0 at d = {d}; the bound needs d < r_bar/2")
    return (2.0 / sf.n) * sf.sk(d / 2.0) ** 2 / dsk


@dataclass
class HotspotBounds:
    raw: float
    normalized: float
    strict: bool
    distance_bound: Optional[float] = None


def hotspot_bounds(pair: ComparisonPair, r_Omega: Optional[float] = None) -> HotspotBounds:
    """Distance of the maximum set from the boundary.

    raw: the branch width (r_plus - R, resp. R - r_minus). normalized: raw
    divided by sqrt((2/n) M + k M^2); multiplied by tan_k(r_Omega)/n it gives
    the distance lower bound. The minus branch version is strict.
    """
    sf, M = pair.sf, pair.M
    if pair.sign == "plus":
        # the spherical cap hypothesis constrains the branch touching r_plus
        if sf.k > 0 and pair.profile.r_plus > 0.5 * sf.r_bar + 1e-12:
            raise DomainError("hot-spot bound needs r_plus <= r_bar / 2 when k > 0")
        raw = pair.profile.r_plus - pair.R
    else:
        raw = pair.R - pair.profile.r_minus
    denom_sq = (2.0 / sf.n) * M + sf.k * M * M
    if denom_sq <= 0:
        raise DomainError("normalization sqrt((2/n)M + kM^2) is not real")
    normalized = raw / math.sqrt(denom_sq)
    dist = None
    if r_Omega is not None:
        dist = sf.tank(r_Omega) / sf.n * normalized
    return HotspotBounds(raw=raw, normalized=normalized,
                         strict=pair.sign == "minus", distance_bound=dist)


def bound_report(pair: ComparisonPair, r_Omega: Optional[float] = None) -> dict:
    """JSON-ready bound summary for one comparison pair. A bound whose
    hypothesis fails on this pair reports null for each of its fields, with
    the reason under "<field>_reason"; the other bounds are still reported."""
    reasons = {}

    def applicable(fields, fn):
        try:
            return fn()
        except DomainError as e:
            reasons.update((f"{name}_reason", str(e)) for name in fields)
            return None

    cb = curvature_bounds(pair)
    hs_fields = ("hotspot_raw", "hotspot_normalized") + (
        ("hotspot_distance_bound",) if r_Omega is not None else ())
    hs = applicable(hs_fields, lambda: hotspot_bounds(pair, r_Omega))
    mu_scan = applicable(("mu_min",), lambda: mu_sign_scan(pair))
    report = {
        "sign": pair.sign,
        "R": pair.R,
        "M": pair.M,
        "r_minus": pair.profile.r_minus,
        "r_plus": pair.profile.r_plus,
        "curvature_bounds": {
            "boundary_H_bound": cb.boundary_H_bound,
            "maxset_H_bound": cb.maxset_H_bound,
        },
        "iso_ratio": applicable(("iso_ratio",), lambda: isoperimetric_model_ratio(pair)),
        "hotspot_raw": None if hs is None else hs.raw,
        "hotspot_normalized": None if hs is None else hs.normalized,
        "mu_min": None if mu_scan is None else mu_scan.min_mu,
    }
    if r_Omega is not None:
        report["hotspot_distance_bound"] = None if hs is None else hs.distance_bound
    report.update(reasons)
    return report
