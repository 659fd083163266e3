"""Boundary-response analysis: the normalization constant, the normalized
squared boundary gradients tau_plus / tau_minus as functions of the core
radius, and the admissible-set / gap estimation built on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import closedform
from .errors import DomainError, InsufficientRange, NumericalError
from .nonlinearity import Nonlinearity, serrin_fk
from .ode import CauchyData, SolveOptions, solve_profile
from .spaceform import SpaceForm

_GAP_WIDTH_TOL = 1e-8  # tail limits closer than this report a one-point gap
_FLAT_FIT_TOL = 1e-4   # the same, and the largest error estimate, for the flat tails
_FLAT_ROWS = 6         # annular rows of each flat tail's extrapolation in 1/R


@dataclass
class TauRow:
    R: float
    tau_plus: float = math.nan
    tau_minus: float = math.nan
    r_minus: float = math.nan
    r_plus: float = math.nan
    dU_minus: float = math.nan
    dU_plus: float = math.nan
    ok: bool = False
    diagnostic: Optional[str] = None


@dataclass
class TauTable:
    sf: SpaceForm
    f: Nonlinearity
    M: float
    c_norm: float
    rows: list = field(default_factory=list)

    @property
    def ok_rows(self):
        return [row for row in self.rows if row.ok]

    @property
    def tau0(self) -> float:
        """Infimum of the sampled tau_plus curve."""
        vals = [row.tau_plus for row in self.ok_rows if math.isfinite(row.tau_plus)]
        if not vals:
            raise NumericalError("no successful rows in the tau table")
        return min(vals)

    @property
    def tau_plus_sup(self) -> float:
        vals = [row.tau_plus for row in self.ok_rows if math.isfinite(row.tau_plus)]
        return max(vals) if vals else math.nan

    @property
    def tau_minus_inf(self) -> float:
        vals = [row.tau_minus for row in self.ok_rows if math.isfinite(row.tau_minus)]
        return min(vals) if vals else math.nan


@dataclass
class GapEstimate:
    adm: list                 # one or two [lo, hi] closed intervals (numerical closure)
    gap: list                 # [] (empty), [v] (point), or [lo, hi]
    method: str               # exact-symmetry | asymptote-fit | single-point
    asymptote_data: Optional[dict] = None


def normalization_constant(sf: SpaceForm, f: Nonlinearity, M: float,
                           opts: SolveOptions = SolveOptions()) -> float:
    """Squared boundary gradient of the centered profile, U'(r_plus(0,M))^2."""
    prof = solve_profile(sf, f, CauchyData(0.0, M), opts)
    return prof.dU_plus ** 2


def _scan_row(sf, f, M, R, c, opts) -> TauRow:
    row = TauRow(R=float(R))
    prof = solve_profile(sf, f, CauchyData(float(R), M), opts, strict=False)
    if prof.r_plus is not None:
        row.r_plus, row.dU_plus = prof.r_plus, prof.dU_plus
        row.tau_plus = prof.dU_plus ** 2 / c
    if prof.r_minus is not None:
        row.r_minus, row.dU_minus = prof.r_minus, prof.dU_minus
        row.tau_minus = prof.dU_minus ** 2 / c
    row.ok = prof.admissible
    row.diagnostic = prof.failure
    return row


def tau_scan(sf: SpaceForm, f: Nonlinearity, M: float, R_grid,
             opts: SolveOptions = SolveOptions()) -> TauTable:
    """One profile solve per grid radius; failed radii keep their diagnostic."""
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0:
        raise DomainError("empty R grid")
    if sf.k > 0 and np.any(R_grid >= sf.r_bar):
        raise DomainError("R grid must stay strictly below r_bar for k > 0")
    if np.any(R_grid < 0):
        raise DomainError("core radii must be nonnegative")
    if not M > 0 or (math.isfinite(f.sup_if) and M > f.sup_if):
        raise DomainError(f"M = {M} outside I_f = (0, {f.sup_if})")
    c = normalization_constant(sf, f, M, opts)
    rows = [_scan_row(sf, f, M, R, c, opts) for R in R_grid]

    table = TauTable(sf=sf, f=f, M=M, c_norm=c, rows=rows)
    if not table.ok_rows:
        raise NumericalError("all rows of the tau scan failed")
    return table


# -- gap estimation ----------------------------------------------------------------

def _median(vals):
    """np.median's value in plain floats: the middle of the sorted values, or
    the mean of the two middle ones."""
    s = sorted(vals)
    h = len(s) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2


def _tail_average(vals):
    """Average of the trailing tenth (at least 3 values) after checking the
    tail has settled: the last increment must not exceed 4 times the median
    of the last four (Cauchy-style) before averaging."""
    m = max(3, int(math.ceil(0.10 * len(vals))))
    tail = vals[-m:]
    inc = np.abs(np.diff(vals))
    if len(inc) >= 4 and not (inc[-1] <= 4.0 * _median(inc[-4:].tolist()) + 1e-15):
        raise InsufficientRange("tau tail has not settled; extend the R grid")
    if len(inc) and inc[-1] > 1e-3 * max(1.0, abs(tail[-1])):
        raise InsufficientRange(
            f"tau tail still moving by {inc[-1]}; extend the R grid")
    return float(np.mean(tail))


def _inverse_r_extrapolation(R, vals):
    """Limit at R = inf of samples that are smooth in 1/R, and its error estimate.

    Neville's algorithm (Richardson extrapolation) in x = 1/R to x = 0 on the
    last _FLAT_ROWS radii, in plain floats and one fixed order of operations.
    The extrapolant of degree d interpolates the d + 1 largest radii; its
    error estimate is its difference from the degree d - 1 extrapolant, and
    the degree with the smallest estimate gives (limit, estimate).
    """
    # Neville needs distinct radii; a repeated radius repeats its row (the
    # solve is deterministic), so each radius is used once
    last = list(dict(zip(R.tolist(), vals.tolist())).items())[-_FLAT_ROWS:][::-1]
    x = [1.0 / r for r, _ in last]  # largest radius first
    p = [v for _, v in last]
    limit, err = p[0], math.inf
    for d in range(1, len(x)):
        prev = p[0]
        for i in range(len(x) - d):  # p[i] becomes the extrapolant on rows i..i+d
            p[i] = (x[i + d] * p[i] - x[i] * p[i + 1]) / (x[i + d] - x[i])
        if abs(p[0] - prev) < err:
            limit, err = p[0], abs(p[0] - prev)
    return limit, err


def gap_estimate(table: TauTable) -> GapEstimate:
    """Admissible set and gap from a sampled tau table.

    k > 0: the two curves meet (reflection symmetry), gap is empty.
    k = 0 with the torsion-type nonlinearity: both tails converge to the same
    value n algebraically (~1/R); each curve is extrapolated to 1/R = 0 by
    Neville's algorithm on its last six rows, and the gap collapses to a point
    when the two limits agree to 1e-4, with each extrapolation's error
    estimate, and the limit n and each extrapolant's offset from it, attached
    to `asymptote_data`. An error estimate above 1e-4, or a plus limit above
    the minus limit by more than 1e-4, raises InsufficientRange.
    k < 0: the tails converge exponentially; the gap is the interval between
    the tail averages, a point when they agree to 1e-8; for the torsion-type
    nonlinearity at k = -1 the limit-profile prediction is always attached
    as `asymptote_data["vinfty"]`.
    """
    rows = table.ok_rows
    if not rows:
        raise NumericalError("tau table has no successful rows")
    k = table.sf.k
    Rv = np.array([row.R for row in rows])
    order = np.argsort(Rv)
    Rv = Rv[order]
    tp = np.array([row.tau_plus for row in rows])[order]
    tm = np.array([row.tau_minus for row in rows])[order]
    has_minus = np.isfinite(tm)

    tp_f = tp[np.isfinite(tp)]
    adm_plus = [float(tp_f.min()), float(tp_f.max())]
    if has_minus.any():
        tm_f = tm[has_minus]
        adm_minus = [float(tm_f.min()), float(tm_f.max())]
    else:
        adm_minus = None

    if k > 0:
        adm = [adm_plus] if adm_minus is None else _merge(adm_plus, adm_minus)
        return GapEstimate(adm=adm, gap=[], method="exact-symmetry")

    if not has_minus.any():
        raise InsufficientRange("gap estimation needs annular rows (R > 0)")

    serrin_like = (table.f.name == "serrin_fk"
                   and table.f.params.get("n") == table.sf.n
                   and table.f.params.get("k") == k)

    if k == 0 and serrin_like:
        Rm = Rv[has_minus]
        lp, ep = _inverse_r_extrapolation(Rm, tp[has_minus])
        lm, em = _inverse_r_extrapolation(Rm, tm[has_minus])
        # the limits bound the monotone samples: clamp the extrapolants accordingly
        lp, lm = max(lp, adm_plus[1]), min(lm, adm_minus[0])
        width = lm - lp
        data = {"R_max": float(Rm[-1]), "tau_plus_limit": lp, "tau_minus_limit": lm,
                "width": width, "tau_plus_error": ep, "tau_minus_error": em}
        n = table.sf.n  # the closed-form limit of both tails
        if max(ep, em) > _FLAT_FIT_TOL or width < -_FLAT_FIT_TOL:
            problem = (f"error estimates {ep} and {em} exceed {_FLAT_FIT_TOL}"
                       if max(ep, em) > _FLAT_FIT_TOL else
                       f"plus limit {lp} exceeds minus limit {lm}")
            raise InsufficientRange(
                f"tau tail extrapolation: {problem}; extend the R grid "
                f"(both tails tend to the closed-form limit n = {n}; "
                f"the extrapolants are off by {lp - n} and {lm - n})")
        data["prediction"] = {"limit": n, "plus_offset": lp - n, "minus_offset": lm - n}
        adm = _merge([adm_plus[0], max(adm_plus[1], lp)],
                     [min(adm_minus[0], lm), adm_minus[1]])
        if abs(width) <= _FLAT_FIT_TOL:
            point = 0.5 * (lp + lm)
            return GapEstimate(adm=adm, gap=[point],
                               method="single-point", asymptote_data=data)
        return GapEstimate(adm=adm, gap=[lp, lm], method="single-point",
                           asymptote_data=data)

    # k < 0 (and k = 0 without the closed-form tail): exponential/settled tails
    Rm = Rv[has_minus]
    lp = max(_tail_average(tp[has_minus]), adm_plus[1])
    lm = min(_tail_average(tm[has_minus]), adm_minus[0])
    data = {"R_max": float(Rm[-1]), "tau_plus_limit": lp, "tau_minus_limit": lm}
    if k == -1 and serrin_like:
        m_tilde = closedform.asymptote_parameter_from_cauchy_max(table.sf.n, table.M)
        ap = closedform.asymptotic_gap(table.sf.n, m_tilde)
        data["vinfty"] = {
            "M_tilde": m_tilde,
            "s_minus": ap.s_minus, "s_plus": ap.s_plus,
            "predicted_gap_length": ap.predicted_gap_length(table.c_norm),
            "predicted_s_tail": ap.predicted_s_tail(),
        }
    if lm - lp <= _GAP_WIDTH_TOL:
        gap = [0.5 * (lp + lm)]
    else:
        gap = [lp, lm]
    # extend the sampled-image closures to the fitted limits so the reported
    # admissible set and gap share at most their (numerical) endpoints
    adm = _merge([adm_plus[0], max(adm_plus[1], lp)],
                 [min(adm_minus[0], lm), adm_minus[1]])
    return GapEstimate(adm=adm, gap=gap, method="asymptote-fit", asymptote_data=data)


def _merge(a, b):
    """Union of two closed intervals; keeps them separate when disjoint."""
    lo1, hi1 = min(a[0], b[0]), max(a[1], b[1])
    if a[1] >= b[0] - 1e-15 and b[1] >= a[0] - 1e-15:
        return [[lo1, hi1]]
    first, second = (a, b) if a[0] <= b[0] else (b, a)
    return [list(first), list(second)]


# -- boundary-derivative sum curve (gap visualization) -------------------------------

@dataclass
class GapCurve:
    n: int
    m_tilde: float
    m_ode: float
    rows: list  # (R, s) pairs
    c_norm: float
    prediction: dict


def figure_gap_curve(sf: SpaceForm, m_tilde: float, R_grid,
                     opts: SolveOptions = SolveOptions()) -> GapCurve:
    """s(R) = |U'(r_minus) + U'(r_plus)| for the torsion-type profile at k = -1.

    `m_tilde` is the asymptote-normalized maximum (the parameter of the limit
    profile); the Cauchy maximum of the underlying ODE is
    m_tilde / (n (m_tilde + 1)), which keeps the profile admissible.
    """
    if sf.k != -1:
        raise DomainError("the gap curve is defined for the k = -1 normalization")
    ap = closedform.asymptotic_gap(sf.n, m_tilde)
    m_ode = ap.cauchy_max()
    f = serrin_fk(sf.n, -1.0)
    table = tau_scan(sf, f, m_ode, R_grid, opts)
    rows = []
    for row in table.ok_rows:
        if math.isfinite(row.dU_minus) and math.isfinite(row.dU_plus):
            rows.append((row.R, abs(row.dU_minus + row.dU_plus)))
    if not rows:
        raise NumericalError("no annular rows for the gap curve")
    lp, lm = ap.profile_derivative_limits()
    prediction = {
        "s_tail": ap.predicted_s_tail(),
        "gap_length": ap.predicted_gap_length(table.c_norm),
        "limit_plus": lp, "limit_minus": lm,
    }
    return GapCurve(n=sf.n, m_tilde=m_tilde, m_ode=m_ode, rows=rows,
                    c_norm=table.c_norm, prediction=prediction)
