"""Boundary-response analysis: the normalization constant, the normalized
squared boundary gradients tau_plus / tau_minus as functions of the core
radius, and the admissible-set / gap estimation built on top of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import closedform
from .errors import DomainError, InsufficientRange, NumericalError, SolveFailure
from .nonlinearity import Nonlinearity, serrin_fk
from .ode import CauchyData, SolveOptions, solve_profile
from .spaceform import SpaceForm

_GAP_WIDTH_TOL = 1e-8  # tail limits closer than this report a one-point gap
_FLAT_FIT_TOL = 1e-4   # the same, and the largest error estimate, for the flat tails
_FLAT_ROWS = 6         # annular rows of each flat tail's extrapolation in 1/R


@dataclass
class TauRow:
    R: float
    tau_plus: float
    tau_minus: float
    r_minus: float
    r_plus: float
    dU_minus: float
    dU_plus: float
    diagnostic: Optional[str]  # the failure text of the row's solve

    @property
    def ok(self) -> bool:
        return self.diagnostic is None


@dataclass
class TauTable:
    space: object  # a SpaceForm, or an IsoparametricFamily with its leaf parameter
    f: Nonlinearity
    M: float
    c_norm: float
    rows: list

    @property
    def ok_rows(self):
        return [row for row in self.rows if row.ok]

    @property
    def images(self) -> tuple:
        """The sampled images [min, max] of tau_plus and of tau_minus over
        the successful rows; None for a curve with no finite sample."""
        def image(vals):
            vals = [v for v in vals if math.isfinite(v)]
            return [min(vals), max(vals)] if vals else None
        rows = self.ok_rows
        return (image(row.tau_plus for row in rows), image(row.tau_minus for row in rows))


@dataclass
class GapEstimate:
    adm: list                 # one or two [lo, hi] closed intervals (numerical closure)
    gap: list                 # [] (empty), [v] (point), or [lo, hi]
    method: str               # exact-symmetry | asymptote-fit | single-point
    asymptote_data: Optional[dict]


def normalization_constant(space, f: Nonlinearity, M: float,
                           opts: SolveOptions = SolveOptions()) -> float:
    """Squared boundary gradient of the profile with its core at 0, the lower
    end of the space's interval: U'(r_plus(0,M))^2 of the centered radial
    profile, or of the focal cap at s = 0 on an isoparametric family."""
    prof = solve_profile(space, f, CauchyData(0.0, M), opts)
    return prof.dU_plus ** 2


def _scan_row(space, f, M, R, c, opts) -> TauRow:
    try:
        prof = solve_profile(space, f, CauchyData(float(R), M), opts)
    except SolveFailure as e:
        prof = e.profile
    nan = math.nan
    r_minus, dU_minus = (nan, nan) if prof.r_minus is None else (prof.r_minus, prof.dU_minus)
    r_plus, dU_plus = (nan, nan) if prof.r_plus is None else (prof.r_plus, prof.dU_plus)
    return TauRow(R=float(R), tau_plus=dU_plus ** 2 / c, tau_minus=dU_minus ** 2 / c,
                  r_minus=r_minus, r_plus=r_plus, dU_minus=dU_minus, dU_plus=dU_plus,
                  diagnostic=prof.failure)


def tau_scan(space, f: Nonlinearity, M: float, R_grid,
             opts: SolveOptions = SolveOptions()) -> TauTable:
    """One profile solve per grid radius of the space's interval (a core
    position S on an isoparametric family); failed radii keep their
    diagnostic. The first radius outside the interval raises the solver's
    DomainError."""
    R_grid = np.asarray(R_grid, dtype=float)
    if R_grid.size == 0:
        raise DomainError("empty R grid")
    if not 0 < M < f.sup_if:
        raise DomainError(f"M = {M} outside I_f = (0, {f.sup_if})")
    c = normalization_constant(space, f, M, opts)
    rows = [_scan_row(space, f, M, R, c, opts) for R in R_grid]

    table = TauTable(space=space, f=f, M=M, c_norm=c, rows=rows)
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
    last = list(dict(zip(R, vals)).items())[-_FLAT_ROWS:][::-1]
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


def _gap_space(space) -> SpaceForm:
    """The space form whose radial equation the gap estimate reads; it raises
    DomainError on any other space, so a caller can refuse one before a scan."""
    if not isinstance(space, SpaceForm):
        raise DomainError("gap estimation needs the radial equation of a space form")
    return space


def gap_estimate(table: TauTable) -> GapEstimate:
    """Admissible set and gap from a sampled tau table.

    k > 0: the two curves meet (reflection symmetry), gap is empty, and the
    admissible set is the union of the two sampled images.
    k <= 0: each curve's tail limit comes from its annular rows, sorted by R.
    - k = 0 with the torsion-type nonlinearity: both tails converge to the
      same value n algebraically (~1/R); each curve is extrapolated to
      1/R = 0 by Neville's algorithm on its last six rows, with tolerance
      1e-4. Each extrapolation's error estimate, and the limit n and each
      extrapolant's offset from it, go to `asymptote_data`. An error
      estimate above 1e-4, or a plus limit above the minus limit by more
      than 1e-4, raises InsufficientRange.
    - k < 0 (and k = 0 with another nonlinearity): the tails settle, and
      each limit is its tail average, with tolerance 1e-8. For the
      torsion-type nonlinearity at k = -1 the limit-profile prediction is
      attached as `asymptote_data["vinfty"]`.
    One shared step follows. Each limit is clamped to its curve's sampled
    image (lp >= max tau_plus, lm <= min tau_minus). When lm - lp exceeds
    the tolerance, the gap is [lp, lm] and `adm` is [min tau_plus, lp] and
    [lm, max tau_minus]. Otherwise the gap is the point g = (lp + lm) / 2,
    and `adm` is [min tau_plus, min(lp, g)] and [max(lm, g), max tau_minus];
    when these touch, they are returned as [min tau_plus, g] and
    [g, max tau_minus], so no admissible interval holds g inside.
    A table over an isoparametric family raises DomainError, and one whose
    successful rows have no finite tau_plus raises InsufficientRange.
    """
    sf, f = _gap_space(table.space), table.f
    plus, minus = table.images
    if plus is None:
        raise InsufficientRange("gap estimation needs a successful row with an outer "
                                "zero (tau_plus)")
    if sf.k > 0:
        adm = _merge(plus, minus) if minus else [plus]
        return GapEstimate(adm=adm, gap=[], method="exact-symmetry", asymptote_data=None)
    if not minus:
        raise InsufficientRange("gap estimation needs annular rows (R > 0)")

    annular = sorted((row for row in table.ok_rows if math.isfinite(row.tau_minus)),
                     key=lambda row: row.R)  # R > 0
    R, tp = [row.R for row in annular], [row.tau_plus for row in annular]
    tm = [row.tau_minus for row in annular]
    serrin_like = (f.name == "serrin_fk" and f.params.get("n") == sf.n
                   and f.params.get("k") == sf.k)
    flat = sf.k == 0 and serrin_like
    if flat:
        (lp, ep), (lm, em) = _inverse_r_extrapolation(R, tp), _inverse_r_extrapolation(R, tm)
        tol = _FLAT_FIT_TOL
    else:  # k < 0, and k = 0 without the closed-form tail: settled tails
        lp, lm = _tail_average(tp), _tail_average(tm)
        tol = _GAP_WIDTH_TOL
    # the limits bound the monotone samples: clamp them to the sampled images
    lp, lm = max(lp, plus[1]), min(lm, minus[0])
    data = {"R_max": float(R[-1]), "tau_plus_limit": lp, "tau_minus_limit": lm}
    if flat:
        n = sf.n  # the closed-form limit of both tails
        data.update(width=lm - lp, tau_plus_error=ep, tau_minus_error=em)
        if max(ep, em) > tol or lm - lp < -tol:
            problem = (f"error estimates {ep} and {em} exceed {tol}"
                       if max(ep, em) > tol else
                       f"plus limit {lp} exceeds minus limit {lm}")
            raise InsufficientRange(
                f"tau tail extrapolation: {problem}; extend the R grid "
                f"(both tails tend to the closed-form limit n = {n}; "
                f"the extrapolants are off by {lp - n} and {lm - n})")
        data["prediction"] = {"limit": n, "plus_offset": lp - n, "minus_offset": lm - n}
    elif sf.k == -1 and serrin_like:
        m_tilde = closedform.asymptote_parameter_from_cauchy_max(sf.n, table.M)
        ap = closedform.asymptotic_gap(sf.n, m_tilde)
        data["vinfty"] = {"M_tilde": m_tilde, "s_minus": ap.s_minus, "s_plus": ap.s_plus,
                          "predicted_gap_length": ap.predicted_gap_length(table.c_norm),
                          "predicted_s_tail": ap.predicted_s_tail()}

    # the shared step: a point or an interval gap, and the sampled images
    # extended to the limits, so the admissible set and the gap share at most
    # their (numerical) endpoints
    if lm - lp > tol:
        gap, adm = [lp, lm], _merge([plus[0], lp], [lm, minus[1]])
    else:  # a point g: each closure stops at g, and no interval holds g inside
        g = 0.5 * (lp + lm)
        gap, adm = [g], _merge([plus[0], min(lp, g)], [max(lm, g), minus[1]])
        if len(adm) == 1:
            adm = [[plus[0], g], [g, minus[1]]]
    return GapEstimate(adm=adm, gap=gap, method="single-point" if flat else "asymptote-fit",
                       asymptote_data=data)


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
