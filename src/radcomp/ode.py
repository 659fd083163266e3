"""Shooting engine for the radial profile equation

    U'' + b(r) U' + f(U) = 0,    U(R) = M, U'(R) = 0,

with event detection for the zeros of U on both sides of the core radius R.
The equation is stated by a space: a `SpaceForm` (the radial equation) or an
`IsoparametricFamily` (the reduction along its leaves) gives the coefficient
b, the interval it lives on, and the residues of the simple poles of b at
the interval's ends, which are known in closed form. Integration from a
pole starts from a second-order Taylor state at a small offset from it.

Each leg is integrated by the adaptive Dormand-Prince 5(4) pair on plain
floats (Dormand & Prince 1980; step control, error norm and initial step as
in Hairer, Norsett & Wanner, Solving ODEs I, II.4).
Every accepted step keeps its stages, from which the quartic dense-output
polynomial of the step (Shampine 1986) is built when the profile is first
evaluated. The events of a leg are roots of the polynomial of its last step,
found by `bracketed_newton`, the one root finder of the package (the branch
inverse in `bounds` and the limit-profile roots in `closedform` call it too).
`gauss_kronrod` is likewise the one quadrature of the package: the
isoperimetric ratios in `bounds` and the regularized integral in
`closedform` call it.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NoZeroFound, NotAdmissible, QuadratureError, StepFailure
from .nonlinearity import Nonlinearity

_ZERO_FLOOR = 1e-13  # inward integration floor above a pole at the left endpoint
_ZERO_TOL = 1e-11    # |U| acceptance at refined zeros, relative to M
_GROWTH_CAP = 1e6    # |U| > cap * max(1, M) aborts a runaway leg
_RANGE_TOL = 1e-12   # evaluation slack past the ends of the computed range
_EPS_START = 1e-6    # startup offset from the core (scaled down on short intervals)
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

# leg events, in the order that breaks ties between simultaneous roots
_ZERO, _TURN, _GROWTH = 0, 1, 2


# the exception class a failed solve raises is its failure code; when the
# diagnostics name several classes, the first of them in this order
_FAILURE_ORDER = (StepFailure, NoZeroFound, NotAdmissible)


@dataclass(frozen=True)
class CauchyData:
    """Core radius R (location of the maximum) and maximum value M > 0."""
    R: float
    M: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and math.isfinite(self.M)):
            raise DomainError(f"Cauchy data must be finite, got R = {self.R}, M = {self.M}")
        if not self.M > 0:
            raise DomainError(f"maximum value must be positive, got M = {self.M}")
        if self.R < 0:
            raise DomainError(f"core radius must be nonnegative, got R = {self.R}")


@dataclass(frozen=True)
class SolveOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    r_max_cap: float = 200.0      # outward span past R on unbounded intervals


@dataclass(frozen=True)
class SolveStats:
    """What the integrator did in a solve, summed over the legs that ran to
    an end: integration legs and accepted and rejected trial steps."""
    legs: int = 0
    steps: int = 0
    rejected: int = 0

    @property
    def rhs_evals(self) -> int:
        """Right-hand-side evaluations: 6 per attempted step, plus one at the
        start of each leg and one for its initial step size."""
        return 6 * (self.steps + self.rejected) + 2 * self.legs


class ModelProfile:
    """Dense numerical solution of the profile equation with its zeros.

    The profile is a sorted run of polynomial pieces: the startup Taylor
    patch around the core (or next to a singular start pole) and the
    dense-output quartic of every accepted integrator step. The pieces are
    built from the stored step rows on the first evaluation, so a solve whose
    profile is never evaluated does not pay for them. `u`, `du` and `d2u`
    take a radius or an array of radii. `stats` counts the integrator's work.
    """

    def __init__(self, space, f, cauchy):
        self.space = space  # SpaceForm or IsoparametricFamily: the equation solved
        self.f = f
        self.cauchy = cauchy
        self.r_minus: Optional[float] = None
        self.r_plus: Optional[float] = None
        self.dU_minus: Optional[float] = None
        self.dU_plus: Optional[float] = None
        self.r_minus_err: Optional[float] = None  # zero-location error estimates
        self.r_plus_err: Optional[float] = None
        self.failure: Optional[str] = None  # the diagnostics of a failed solve
        self.r_lo: float = math.nan    # computed radial range
        self.r_hi: float = math.nan
        self.stats = SolveStats()
        self._taylor = None    # (startup patch as a piece, its lower end)
        self._legs = []        # the accepted-step rows of each leg
        self._pieces = None    # built on first use; rows: t, h, U(t), U'(t), q of U, q of U'
        self._lower = None     # ascending lower ends of the pieces
        self._piece_list = None  # the same as floats, for scalar evaluation
        self._lower_list = None

    def _build(self):
        """Make the sorted pieces from the startup patch and the step rows."""
        taylor, taylor_lo = self._taylor
        pieces, lower = [np.array([taylor])], [np.array([taylor_lo])]
        for steps in self._legs:
            p, lo = _leg_pieces(steps)
            pieces.append(p)
            lower.append(lo)
        pieces, lower = np.concatenate(pieces), np.concatenate(lower)
        order = np.argsort(lower, kind="stable")
        self._pieces, self._lower = pieces[order], lower[order]
        self._piece_list = self._pieces.tolist()
        self._lower_list = self._lower.tolist()
        self._legs = None  # the pieces hold the same data; free the step rows

    @property
    def admissible(self) -> bool:
        return self.failure is None

    # -- evaluation ------------------------------------------------------------

    def _state(self, r: float):
        """(U, U') at one radius."""
        if not self.r_lo - _RANGE_TOL <= r <= self.r_hi + _RANGE_TOL:
            raise DomainError(f"radius {r} outside the computed profile range")
        if self._pieces is None:
            self._build()
        r = min(max(r, self.r_lo), self.r_hi)
        i = bisect_right(self._lower_list, r) - 1
        return _eval_piece(self._piece_list[max(i, 0)], r)

    def _states(self, r):
        """(U, U') on an array of radii; the same arithmetic as `_state`, so
        the values agree bitwise with pointwise evaluation."""
        r = np.asarray(r, dtype=float)
        inside = (r >= self.r_lo - _RANGE_TOL) & (r <= self.r_hi + _RANGE_TOL)
        if not inside.all():
            raise DomainError(f"radius {r[~inside].flat[0]} outside the computed profile range")
        if self._pieces is None:
            self._build()
        r = np.minimum(np.maximum(r, self.r_lo), self.r_hi)
        i = np.maximum(np.searchsorted(self._lower, r, side="right") - 1, 0)
        return _eval_piece(np.moveaxis(self._pieces[i], -1, 0), r)

    def u(self, r):
        if _is_scalar(r):
            return self._state(float(r))[0]
        return self._states(r)[0]

    def du(self, r):
        if _is_scalar(r):
            return self._state(float(r))[1]
        return self._states(r)[1]

    def d2u(self, r):
        """U'' recovered from the equation itself."""
        if _is_scalar(r):
            u, du = self._state(float(r))
            return -self.space.coefficient(float(r)) * du - self.f(u)
        rs = np.asarray(r, dtype=float)
        us, dus = self._states(rs)
        b = self.space.coefficient
        return np.array([-b(x) * dv - self.f(uv) for x, uv, dv in
                         zip(rs.ravel().tolist(), us.ravel().tolist(), dus.ravel().tolist())]
                        ).reshape(rs.shape)

    def piece_ends(self, lo: float, hi: float) -> list:
        """The radii strictly inside (lo, hi) where one polynomial piece of
        the profile ends and the next begins, ascending. Between two
        consecutive ones, `u` and `du` evaluate a single piece."""
        if self._pieces is None:
            self._build()
        ends = self._lower_list
        return ends[bisect_right(ends, lo):bisect_left(ends, hi)]

    def branch_interval(self, sign: str):
        """Radial interval of the monotone branch ('plus' or 'minus')."""
        R = self.cauchy.R
        if sign == "plus":
            if self.r_plus is None:
                raise DomainError("profile has no outer zero")
            return (R, self.r_plus)
        if sign == "minus":
            if self.r_minus is None:
                raise DomainError("profile has no inner zero")
            return (self.r_minus, R)
        raise DomainError(f"sign must be 'plus' or 'minus', got {sign!r}")

    def summary(self) -> dict:
        """The solve's data and results, with the space's and the
        nonlinearity's own descriptions: the header of the profile CSV."""
        out = {
            "R": self.cauchy.R, "M": self.cauchy.M,
            "r_minus": self.r_minus, "r_plus": self.r_plus,
            "dU_minus": self.dU_minus, "dU_plus": self.dU_plus,
            "admissible": self.admissible,
            **self.space.describe(), "f": self.f.describe(),
        }
        if self.failure:
            out["failure"] = self.failure
        return out


def _is_scalar(r):
    # np.ndim alone takes longer than a whole scalar evaluation
    return type(r) is float or np.ndim(r) == 0


def _eval_piece(p, r):
    """(U, U') of one polynomial piece (a row of ModelProfile._pieces) at r;
    with the columns of many rows and an array r, the same arithmetic
    elementwise."""
    t, h, u0, v0, a0, a1, a2, a3, c0, c1, c2, c3 = p
    d = r - t
    x = d / h
    return (u0 + d * (a0 + x * (a1 + x * (a2 + x * a3))),
            v0 + d * (c0 + x * (c1 + x * (c2 + x * c3))))


def _taylor_piece(center, M, fM, one_plus_residue):
    """The startup patch U = M - f(M) d^2 / (2 (1 + residue)), d = r - center,
    as a piece of unit scale."""
    return [center, 1.0, M, 0.0, 0.0, -fM / (2.0 * one_plus_residue), 0.0, 0.0,
            -fM / one_plus_residue, 0.0, 0.0, 0.0]


def _quartic(k1, k3, k4, k5, k6, k7):
    """Coefficients (q0, q1, q2, q3) of the quartic dense output of one
    Dormand-Prince step (Shampine 1986) from its stages k1, k3, ..., k7 (k2
    does not enter): over the step from t with size h,
    y(t + d) = y(t) + d (q0 + x (q1 + x (q2 + x q3))), x = d / h.

    The stages are floats of one step or arrays of a whole leg's steps. The
    products and sums are written out in one fixed order, so both give the
    same bits; a matrix product would round by its BLAS kernel and its tiling.
    """
    return (k1,
            -8048581381 / 2820520608 * k1 + 131558114200 / 32700410799 * k3
            - 1754552775 / 470086768 * k4 + 127303824393 / 49829197408 * k5
            - 282668133 / 205662961 * k6 + 40617522 / 29380423 * k7,
            8663915743 / 2820520608 * k1 - 68118460800 / 10900136933 * k3
            + 14199869525 / 1410260304 * k4 - 318862633887 / 49829197408 * k5
            + 2019193451 / 616988883 * k6 - 110615467 / 29380423 * k7,
            -12715105075 / 11282082432 * k1 + 87487479700 / 32700410799 * k3
            - 10690763975 / 1880347072 * k4 + 701980252875 / 199316789632 * k5
            - 1453857185 / 822651844 * k6 + 69997945 / 29380423 * k7)


def _leg_pieces(steps):
    """The pieces of a leg's accepted-step rows and their lower ends."""
    t, h, u, v, t_new, *k = np.array(steps, dtype=float).reshape(-1, 17).T.copy()
    pieces = np.column_stack((t, h, u, v, *_quartic(*k[:6]), *_quartic(*k[6:])))
    return pieces, np.minimum(t, t_new)


def bracketed_newton(gd, a: float, b: float, r: float) -> float:
    """Root of g in the bracket [a, b], starting from r; gd(r) returns
    (g(r), g'(r)), and g rises across the bracket (g(a) < 0 < g(b)).

    Each iterate replaces the end of the bracket on its side of the root, so
    the bracket shrinks on every iteration; where a Newton step would leave
    it, or g' vanishes, the iteration bisects instead. Stops when the step or
    the bracket reaches 2 ulp.
    """
    if not a <= r <= b:
        r = 0.5 * (a + b)
    while True:
        g, dg = gd(r)
        if g == 0.0:
            return r
        if g < 0.0:
            a = r
        else:
            b = r
        r_new = r - g / dg if dg != 0.0 else 0.5 * (a + b)
        tol = 2.0 * math.ulp(r)
        if abs(r_new - r) <= tol or b - a <= tol:
            return min(max(r_new, a), b)
        r = r_new if a < r_new < b else 0.5 * (a + b)


def _event_root(p, event: int, start: float, end: float, cap: float) -> float:
    """Radius between the ends of a step where the event function of the step
    piece p vanishes: U for a zero, U' for a turn, U - cap for growth. The
    derivative comes from the same piece."""
    if event == _TURN:
        t, h, _, v0, _, _, _, _, c0, c1, c2, c3 = p

        def gd(r):
            d = r - t
            x = d / h
            return (v0 + d * (c0 + x * (c1 + x * (c2 + x * c3))),
                    c0 + x * (2.0 * c1 + x * (3.0 * c2 + x * (4.0 * c3))))
    else:
        shift = cap if event == _GROWTH else 0.0

        def gd(r):
            u, du = _eval_piece(p, r)
            return u - shift, du
    g_start, g_end = gd(start)[0], gd(end)[0]
    if g_start == 0.0:
        return start
    if g_end == 0.0:
        return end
    r = start + (end - start) * g_start / (g_start - g_end)  # the chord
    a, b, g_b = (start, end, g_end) if start < end else (end, start, g_start)
    sign = math.copysign(1.0, g_b)  # orients g to rise across [a, b]; exact

    def rising(r):
        g, dg = gd(r)
        return sign * g, sign * dg

    return bracketed_newton(rising, a, b, r)


# QUADPACK's 21-point Gauss-Kronrod rule (Piessens et al. 1983, dqk21): the
# nodes on [-1, 1] are 0 and +-_XGK[j]; the odd j are the 10-point Gauss nodes,
# with the Gauss weights _WG[j // 2]. _WGK[10] is the weight of the centre.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208980059507, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_QK21_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)  # Gauss nodes first, as in dqk21


def _qk21(f, a: float, b: float):
    """The 21-point Kronrod value of the integral of f over [a, b] and
    QUADPACK's error estimate for it: the Kronrod-Gauss difference, scaled
    by the variation of f and floored at 50 eps times the integral of |f|."""
    centr, hlgth = 0.5 * (a + b), 0.5 * (b - a)
    fc = f(centr)
    resg, resk = 0.0, _WGK[10] * fc
    resabs = abs(resk)
    fv = [None] * 10
    for j in _QK21_ORDER:
        dx = hlgth * _XGK[j]
        f1, f2 = f(centr - dx), f(centr + dx)
        fv[j] = (f1, f2)
        fsum = f1 + f2
        if j % 2:
            resg += _WG[j // 2] * fsum
        resk += _WGK[j] * fsum
        resabs += _WGK[j] * (abs(f1) + abs(f2))
    reskh = 0.5 * resk
    resasc = _WGK[10] * abs(fc - reskh)
    for w, (f1, f2) in zip(_WGK, fv):
        resasc += w * (abs(f1 - reskh) + abs(f2 - reskh))
    resabs *= abs(hlgth)
    resasc *= abs(hlgth)
    err = abs((resk - resg) * hlgth)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _TINY / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * hlgth, err


def gauss_kronrod(f, a: float, b: float, epsabs: float, epsrel: float,
                  limit: int) -> tuple:
    """Integral of f over [a, b] and an estimate of its absolute error.

    Globally adaptive 21-point Gauss-Kronrod quadrature (QUADPACK's QAG with
    the QK21 rule): the interval with the largest error estimate is bisected
    until the summed estimate is at most max(epsabs, epsrel |integral|) or
    `limit` intervals are in use. Raises QuadratureError, naming the estimate
    and the target, when the estimate misses the target or is not finite.
    """
    val, err = _qk21(f, a, b)
    parts = [(a, b, val, err)]  # the integral is summed in this order
    heap = [(-err, 0)]
    area, errsum = val, err
    target = max(epsabs, epsrel * abs(area))
    while errsum > target and len(parts) < limit:
        _, i = heapq.heappop(heap)
        lo, hi, whole, whole_err = parts[i]
        mid = 0.5 * (lo + hi)
        left, right = (lo, mid, *_qk21(f, lo, mid)), (mid, hi, *_qk21(f, mid, hi))
        area += left[2] + right[2] - whole
        errsum += left[3] + right[3] - whole_err
        if right[3] > left[3]:  # as QUADPACK: the larger error keeps the slot
            left, right = right, left
        parts[i] = left
        parts.append(right)
        heapq.heappush(heap, (-left[3], i))
        heapq.heappush(heap, (-right[3], len(parts) - 1))
        target = max(epsabs, epsrel * abs(area))
    if not errsum <= target:
        raise QuadratureError(
            f"quadrature error estimate {errsum:.3g} exceeds the target {target:.3g} "
            f"on [{a!r}, {b!r}] with {len(parts)} intervals")
    total = 0.0
    for part in parts:  # not sum(), which compensates from Python 3.12 on
        total += part[2]
    return total, errsum


@dataclass
class _Leg:
    """One integrated leg: its accepted-step rows, where it stopped, (U, U')
    there, the event that stopped it (None at the target), the local error
    estimates of the steps carried to the end as an error in U, and its
    rejected trial steps."""
    steps: list
    end: float
    state: tuple
    event: Optional[int]
    u_error: float
    rejected: int


def _rms(a, b):
    return math.hypot(a, b) * math.sqrt(0.5)


def _initial_step(b, f, t, u, v, w, target, direction, rtol, atol):
    """Starting step size from the local scale of the solution and of its
    first two derivatives (Hairer, Norsett & Wanner, II.4)."""
    span = abs(target - t)
    su, sv = atol + abs(u) * rtol, atol + abs(v) * rtol
    d0, d1 = _rms(u / su, v / sv), _rms(v / su, w / sv)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    u1, v1 = u + h0 * direction * v, v + h0 * direction * w
    w1 = -b(t + h0 * direction) * v1 - f(u1)
    d2 = _rms((v1 - v) / su, (w1 - w) / sv) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, span)


def _run_leg(b, f, r0: float, u0: float, du0: float, target: float, opts: SolveOptions,
             M: float) -> _Leg:
    """Integrate one leg from (U, U') = (u0, du0) at r0, stopping at the first
    zero of U, a vanishing of U', runaway growth, or the target endpoint.

    The state is (U, V = U') with V' = W = -b(r) V - f(U), where b and f are
    plain scalar functions. An event fires when U falls to 0, V changes sign,
    or U rises to the growth cap between two step ends; its radius is the
    root of that step's dense output.
    """
    rtol = max(opts.rtol, 100 * _EPS)  # the floor RK45 puts on rtol
    atol = opts.atol
    cap = _GROWTH_CAP * max(1.0, M)
    t, u, v = r0, u0, du0
    w = -b(t) * v - f(u)
    steps = []   # t, h, U, V, t_new, then the stages of U' and of V'
    fired = []
    err_u = err_v = err_vr = 0.0  # sums of |local error| of U, of U', of U' times r
    direction = 1.0 if target >= t else -1.0
    toward = direction * math.inf
    h_abs = (_initial_step(b, f, t, u, v, w, target, direction, rtol, atol)
             if t != target else 0.0)
    rejected_steps = 0
    while t != target and not fired:
        min_step = 10.0 * abs(math.nextafter(t, toward) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if not h_abs >= min_step:  # a nan step size fails here too
                raise StepFailure(f"integrator failed: required step size at r = {t} "
                                  "is less than the spacing between floats")
            t_new = t + h_abs * direction
            if direction * (t_new - target) > 0:
                t_new = target
            h = t_new - t
            h_abs = abs(h)
            try:
                u2 = u + h * (1 / 5 * v)
                v2 = v + h * (1 / 5 * w)
                w2 = -b(t + 1 / 5 * h) * v2 - f(u2)
                u3 = u + h * (3 / 40 * v + 9 / 40 * v2)
                v3 = v + h * (3 / 40 * w + 9 / 40 * w2)
                w3 = -b(t + 3 / 10 * h) * v3 - f(u3)
                u4 = u + h * (44 / 45 * v - 56 / 15 * v2 + 32 / 9 * v3)
                v4 = v + h * (44 / 45 * w - 56 / 15 * w2 + 32 / 9 * w3)
                w4 = -b(t + 4 / 5 * h) * v4 - f(u4)
                u5 = u + h * (19372 / 6561 * v - 25360 / 2187 * v2 + 64448 / 6561 * v3
                              - 212 / 729 * v4)
                v5 = v + h * (19372 / 6561 * w - 25360 / 2187 * w2 + 64448 / 6561 * w3
                              - 212 / 729 * w4)
                w5 = -b(t + 8 / 9 * h) * v5 - f(u5)
                b_end = b(t + h)  # stage 6 and the last (FSAL) stage share this node
                u6 = u + h * (9017 / 3168 * v - 355 / 33 * v2 + 46732 / 5247 * v3
                              + 49 / 176 * v4 - 5103 / 18656 * v5)
                v6 = v + h * (9017 / 3168 * w - 355 / 33 * w2 + 46732 / 5247 * w3
                              + 49 / 176 * w4 - 5103 / 18656 * w5)
                w6 = -b_end * v6 - f(u6)
                un = u + h * (35 / 384 * v + 500 / 1113 * v3 + 125 / 192 * v4
                              - 2187 / 6784 * v5 + 11 / 84 * v6)
                vn = v + h * (35 / 384 * w + 500 / 1113 * w3 + 125 / 192 * w4
                              - 2187 / 6784 * w5 + 11 / 84 * w6)
                wn = -b_end * vn - f(un)
                # 5th- minus embedded 4th-order solution, scaled per component
                eu = h * (-71 / 57600 * v + 71 / 16695 * v3 - 71 / 1920 * v4
                          + 17253 / 339200 * v5 - 22 / 525 * v6 + 1 / 40 * vn)
                ev = h * (-71 / 57600 * w + 71 / 16695 * w3 - 71 / 1920 * w4
                          + 17253 / 339200 * w5 - 22 / 525 * w6 + 1 / 40 * wn)
                err = _rms(eu / (atol + max(abs(u), abs(un)) * rtol),
                           ev / (atol + max(abs(v), abs(vn)) * rtol))
            except (ArithmeticError, TypeError):
                # plain floats raise (overflow, division by zero, complex
                # powers) where array arithmetic gives inf or nan: either way
                # the trial step is not finite and is rejected
                err = math.nan
            if err < 1.0:
                factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.2)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
            rejected_steps += 1

        steps.append((t, h, u, v, t_new, v, v3, v4, v5, v6, vn, w, w3, w4, w5, w6, wn))
        err_u += abs(eu)
        err_v += abs(ev)
        err_vr += abs(ev) * t
        if u >= 0.0 and un <= 0.0:
            fired.append(_ZERO)
        if (v <= 0.0 and vn >= 0.0) or (v >= 0.0 and vn <= 0.0):
            fired.append(_TURN)
        if u - cap <= 0.0 and un - cap >= 0.0:
            fired.append(_GROWTH)
        t, u, v, w = t_new, un, vn, wn

    def u_error(end):
        # an error e in U' at r_i shifts U at the end by about e |end - r_i|
        return err_u + abs(end * err_v - err_vr)

    if not fired:
        return _Leg(steps, t, (u, v), None, u_error(t), rejected_steps)
    last = steps[-1]
    p = [*last[:4], *_quartic(*last[5:11]), *_quartic(*last[11:17])]
    roots = []
    for e in fired:
        root = _event_root(p, e, last[0], t, cap)
        roots.append((direction * root, e, root))
    _, event, end = min(roots)  # the first root along the leg; ties go by event order
    return _Leg(steps, end, _eval_piece(p, end), event, u_error(end), rejected_steps)


def solve_profile(space, f: Nonlinearity, cd: CauchyData,
                  opts: SolveOptions = SolveOptions()) -> ModelProfile:
    """Shoot from the Cauchy data in both directions inside the interval of
    the equation U'' + b U' + f(U) = 0 that `space` states (a SpaceForm the
    radial one, an IsoparametricFamily its reduction): b is
    `space.coefficient`, on `space.interval` = (lo, hi).

    b may have a simple pole at either end of the interval: the lower end is
    always treated as one (a leg stops at the floor `_ZERO_FLOOR` above it,
    and a core there starts from the pole), and so is the upper end exactly
    when it is finite; an infinite upper end caps the outward leg at
    `opts.r_max_cap` past R. `space.residues` gives the limits of
    (r - pole) b(r) at the lower and the upper end, which are properties of
    the equation and known in closed form; a core on a pole starts from the
    Taylor state U = M - f(M) d^2 / (2 (1 + residue)), d = r - pole, and an
    interior core from the same state with residue 0. Every leg runs, also
    after a step failure of the other. A solve that is not admissible raises
    StepFailure, NoZeroFound or NotAdmissible, the first of them that a
    diagnostic names (f(M) <= 0 outranks every leg); the class is the failure
    code, and its `profile` has `.failure`, the diagnostics of the failed
    legs joined by "; ".
    """
    b, (lo, hi), residues = space.coefficient, space.interval, space.residues
    R, M = cd.R, cd.M
    hi_pole = math.isfinite(hi)
    at_hi_pole = hi_pole and abs(R - hi) <= 1e-12 * max(1.0, abs(hi))
    if not (lo <= R < hi) and not at_hi_pole:
        raise DomainError(f"core radius {R} outside the interval [{lo}, {hi})")

    prof = ModelProfile(space, f, cd)
    eps = _EPS_START * min(1.0, hi - lo)

    at_lo_pole = abs(R - lo) <= _ZERO_FLOOR
    if not at_lo_pole and R - lo < 100 * _ZERO_FLOOR:
        raise DomainError(f"core radius {R} too close to the pole at {lo} to resolve")

    if at_lo_pole:
        center, sides, residue = lo, (+1,), residues[0]
    elif at_hi_pole:
        center, sides, residue = hi, (-1,), residues[1]
    else:
        center, sides, residue = R, (+1, -1), 0.0
        eps = min(eps, min(R - lo, hi - R) / 100.0)
    if not residue > -1.0:
        raise DomainError(f"pole residue must exceed -1, got {residue}")
    fM = f(M)
    u0 = M - fM * eps * eps / (2.0 * (1.0 + residue))
    du0 = fM * eps / (1.0 + residue)  # U' at the start is -side * du0
    r_lo = center - eps if -1 in sides else center
    r_hi = center + eps if +1 in sides else center
    prof._taylor = (_taylor_piece(center, M, fM, 1.0 + residue), r_lo)

    pole_eps_hi = max(1e-9, 1e-12 * abs(hi)) if hi_pole else 0.0
    diagnostics = []  # (exception class, text)

    for side in sides:
        if side > 0:
            target = (hi - pole_eps_hi) if hi_pole else R + opts.r_max_cap
        else:
            target = lo + _ZERO_FLOOR
        try:
            leg = _run_leg(b, f.func, center + side * eps, u0, -side * du0, target, opts, M)
        except StepFailure as e:
            diagnostics.append((StepFailure, str(e)))
            continue
        prof._legs.append(leg.steps)
        stats = prof.stats
        prof.stats = SolveStats(stats.legs + 1, stats.steps + len(leg.steps),
                                stats.rejected + leg.rejected)
        r_lo, r_hi = min(r_lo, leg.end), max(r_hi, leg.end)

        if leg.event == _ZERO:
            rz, (uz, duz) = leg.end, leg.state
            # stall threshold scales with the slope: what matters is the
            # radius error |U|/|U'|, not |U| itself
            if abs(uz) > _ZERO_TOL * max(1.0, M) * (1.0 + abs(duz)):
                diagnostics.append((NotAdmissible,
                                    f"zero refinement stalled at r={rz} (|U|={abs(uz)})"))
            # location error ~ (accumulated value error of U at the zero) / slope:
            # the tolerance floor plus the leg's local error estimates, which
            # dominate on long or curved legs; plus the resolution of the root
            err = ((opts.rtol * M + opts.atol + leg.u_error + abs(uz)) / max(abs(duz), 1e-300)
                   + 4 * _EPS * (1.0 + abs(rz)))
            if side > 0:
                prof.r_plus, prof.dU_plus, prof.r_plus_err = rz, duz, err
            else:
                prof.r_minus, prof.dU_minus, prof.r_minus_err = rz, duz, err
        elif leg.event == _TURN:
            # U <= 0 here means that the last step's quartic dips below zero
            # between step ends where U is positive: no zero is resolved, and
            # none is known to lie ahead
            u = leg.state[0]
            diagnostics.append((NotAdmissible, (
                f"derivative vanished before the zero at r={leg.end} (U={u})" if u > 0 else
                f"derivative vanished at r={leg.end} with U={u} <= 0, but U did not "
                "change sign at the step ends") + "; profile turns"))
        elif leg.event == _GROWTH:
            diagnostics.append((NotAdmissible,
                                f"profile grew past {_GROWTH_CAP} * max(1, M); aborted leg"))
        elif hi_pole and side > 0:
            diagnostics.append((NoZeroFound, f"reached the singular endpoint r={hi} "
                                "with U > 0; no zero on the plus side"))
        elif side > 0:
            diagnostics.append((NoZeroFound, f"no sign change of U before the cap "
                                f"r={target} (r_max_cap={opts.r_max_cap})"))
        else:
            diagnostics.append((NoZeroFound, f"no sign change of U down to r={target}"))

    prof.r_lo, prof.r_hi = r_lo, r_hi
    if fM <= 0:
        diagnostics = [(NotAdmissible, f"core is not a strict local maximum: f(M) = {fM} <= 0")]
    if diagnostics:
        prof.failure = "; ".join(text for _, text in diagnostics)
        kinds = {kind for kind, _ in diagnostics}
        raise next(kind for kind in _FAILURE_ORDER if kind in kinds)(prof.failure, profile=prof)
    return prof
