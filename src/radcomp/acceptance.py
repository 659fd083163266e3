"""Acceptance suite: every shipped claim of the toolkit as an executable
check with its tolerance pinned. `run_all` powers both the `selftest` CLI
subcommand and tests/test_acceptance.py; each criterion prints one pass/fail
line. Numerical constants (dimensions, maxima, grids) are fixed here so the
suite is deterministic.

Each tolerance is 100 times the worst value of the criterion's own cases on
a 2-vCPU x86-64 host, rounded up to two significant digits, or an older and
tighter 1e-9; a value that reads exactly 0 gets _ZERO_ULPS ulps of the
quantity it is compared with.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import output
from .bounds import (ComparisonPair, hotspot_bounds, isoperimetric_coarea_ratio,
                     isoperimetric_model_ratio, mu_at_boundary, mu_sign_scan,
                     serrin_lower_bound)
from .closedform import (SerrinExplicit, HelmholtzS3, serrin_flat_centered,
                         serrin_flat_radius)
from .errors import DomainError, RadcompError
from .isoparametric import IsoparametricFamily, descent_check
from .nonlinearity import affine, allen_cahn, constant, serrin_fk
from .ode import CauchyData, solve_profile
from .spaceform import SpaceForm
from .tau import figure_gap_curve, gap_estimate, normalization_constant, tau_scan

FIG_GAP_M_TILDE = math.cosh(3.0) - 1.0
_SEED = 20260808
_ZERO_ULPS = 100


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} {self.name}: {self.detail} ({self.elapsed:.2f}s)"


def _check(cond, msgs, text):
    if not cond:
        msgs.append(text)
    return cond


# -- criterion 1 ---------------------------------------------------------------------

def crit_flat_serrin_oracle():
    """Flat centered profiles against the quadratic closed form."""
    msgs = []
    worst_u = worst_r = worst_c = 0.0
    for n in range(2, 7):
        sf = SpaceForm(n, 0.0)
        for M in (0.1, 1.0, 10.0):
            prof = solve_profile(sf, constant(1.0), CauchyData(0.0, M))
            rp_exact = serrin_flat_radius(n, M)
            rs = np.linspace(0.0, min(prof.r_plus, rp_exact), 101)
            u_exact, _ = serrin_flat_centered(n, M, rs)
            err_u = max(abs(prof.u(r) - u) for r, u in zip(rs, u_exact))
            err_r = abs(prof.r_plus - rp_exact)
            err_c = abs(prof.dU_plus ** 2 - 2.0 * M / n)
            worst_u, worst_r, worst_c = (max(worst_u, err_u), max(worst_r, err_r),
                                         max(worst_c, err_c))
    _check(worst_u <= 1.2e-9, msgs, f"profile error {worst_u}")
    _check(worst_r <= 6.4e-10, msgs, f"r_plus error {worst_r}")
    _check(worst_c < 1e-9, msgs, f"normalization error {worst_c}")
    detail = f"max errors: U {worst_u:.2e}, r_plus {worst_r:.2e}, c {worst_c:.2e}"
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- criterion 2 ---------------------------------------------------------------------

def crit_tau_normalization_monotonicity():
    """tau_plus(0) = 1 and strict monotonicity of both curves (50-point grids)."""
    msgs = []
    cases = [
        (SpaceForm(3, -1.0), serrin_fk(3, -1.0), 0.25,
         np.concatenate([[0.0], np.linspace(0.12, 10.0, 50)])),
        (SpaceForm(3, 1.0), serrin_fk(3, 1.0), 1.0,
         np.concatenate([[0.0], np.linspace(0.05, math.pi - 0.05, 50)])),
    ]
    details = []
    for sf, f, M, grid in cases:
        table = tau_scan(sf, f, M, grid)
        row0 = table.rows[0]
        _check(abs(row0.tau_plus - 1.0) <= _ZERO_ULPS * math.ulp(1.0), msgs,
               f"k={sf.k}: tau_plus(0) = {row0.tau_plus}")
        tp = [r.tau_plus for r in table.ok_rows]
        tm = [r.tau_minus for r in table.ok_rows if math.isfinite(r.tau_minus)]
        _check(len(table.ok_rows) == len(grid), msgs,
               f"k={sf.k}: {len(grid) - len(table.ok_rows)} rows failed")
        _check(bool(np.all(np.diff(tp) > 0)), msgs, f"k={sf.k}: tau_plus not increasing")
        _check(bool(np.all(np.diff(tm) < 0)), msgs, f"k={sf.k}: tau_minus not decreasing")
        details.append(f"k={sf.k:g}: tau_plus(0)-1 = {row0.tau_plus - 1:.1e}, "
                       f"{len(tm)} annular rows monotone")
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 3 ---------------------------------------------------------------------

def crit_blowup():
    """Inner boundary-response blow-up as R -> 0, with explicit-coefficient tracking."""
    msgs = []
    n = 3
    details = []
    for k, M in ((-1.0, 0.25), (0.0, 1.0), (1.0, 1.0)):
        sf = SpaceForm(n, k)
        f = serrin_fk(n, k)
        c = normalization_constant(sf, f, M)
        taus = []
        ratios = []
        for R in (1e-1, 1e-2, 1e-3):
            prof = solve_profile(sf, f, CauchyData(R, M))
            taus.append(prof.dU_minus ** 2 / c)
            if k != 0.0:
                B = SerrinExplicit(sf, R, M).B
                ratios.append(abs(prof.dU_minus) * prof.r_minus ** (n - 1) / abs(B))
        _check(taus[0] < taus[1] < taus[2], msgs, f"k={k}: tau_minus not increasing")
        _check(taus[2] > 1e3, msgs, f"k={k}: tau_minus({1e-3}) = {taus[2]} <= 1e3")
        if ratios:
            _check(all(abs(q - 1.0) <= 3.0e-4 for q in ratios), msgs,
                   f"k={k}: growth-tracking ratios {ratios}")
        details.append(f"k={k:g}: tau_minus(1e-3) = {taus[2]:.2e}"
                       + (f", tracking {min(ratios):.3f}..{max(ratios):.3f}" if ratios else ""))
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 4 ---------------------------------------------------------------------

def crit_ordering():
    """Curve ordering for k=-1; matching half-way limits and empty gap for k=1."""
    msgs = []
    n = 3
    sf = SpaceForm(n, -1.0)
    f = serrin_fk(n, -1.0)
    plus, minus = tau_scan(sf, f, 0.25, np.linspace(0.3, 12.0, 25)).images
    _check(plus[1] <= minus[0], msgs,
           f"k=-1: max tau_plus {plus[1]} > min tau_minus {minus[0]}")

    sf1 = SpaceForm(n, 1.0)
    f1 = serrin_fk(n, 1.0)
    prof = solve_profile(sf1, f1, CauchyData(sf1.r_bar / 2.0, 1.0))
    c = normalization_constant(sf1, f1, 1.0)
    gap_sym = abs(prof.dU_minus ** 2 - prof.dU_plus ** 2) / c
    _check(gap_sym <= 4.3e-13, msgs, f"k=1: half-way limits differ by {gap_sym}")
    tb1 = tau_scan(sf1, f1, 1.0, np.linspace(0.0, 2.9, 15))
    est = gap_estimate(tb1)
    _check(est.gap == [], msgs, f"k=1: gap = {est.gap} not empty")
    detail = (f"k=-1 ordering margin {minus[0] - plus[1]:.3f}; "
              f"k=1 symmetry defect {gap_sym:.1e}, gap empty")
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- criterion 5 ---------------------------------------------------------------------

def crit_figure_gap(outdir: Optional[Path]):
    """Boundary-derivative-sum curves: positive, decreasing, tail within 9.1e-8
    (relative) of the limit-profile prediction. The curves are drawn at the
    asymptote-normalized maximum FIG_GAP_M_TILDE, the parameter of the limit
    profile; the Cauchy maximum of the ODE is derived from it. With outdir,
    each curve goes to gap_curve_n{2,3,4}.csv."""
    msgs = []
    details = []
    grid = np.linspace(0.5, 12.0, 24)
    for n in (2, 3, 4):
        curve = figure_gap_curve(SpaceForm(n, -1.0), FIG_GAP_M_TILDE, grid)
        svals = np.array([s for _, s in curve.rows])
        _check(bool(np.all(svals > 0)), msgs, f"n={n}: s(R) not positive")
        _check(bool(np.all(np.diff(svals) < 0)), msgs, f"n={n}: s(R) not decreasing")
        pred = curve.prediction["s_tail"]
        rel = abs(svals[-1] - pred) / pred
        _check(rel <= 9.1e-8, msgs, f"n={n}: tail {svals[-1]} vs predicted {pred} ({rel:.2e})")
        details.append(f"n={n}: tail {svals[-1]:.6f} vs {pred:.6f} ({rel:.2e})")
        if outdir is not None:
            output.write_text(Path(outdir) / f"gap_curve_n{n}.csv",
                              output.gap_curve_csv_lines(curve))
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 6 ---------------------------------------------------------------------

def crit_gap_degenerate_flat():
    """k=0 torsion gap collapses to a point (width <= 2.9e-5 at R_max = 50)."""
    msgs = []
    details = []
    for n in (2, 3):
        sf = SpaceForm(n, 0.0)
        f = serrin_fk(n, 0.0)
        grid = np.concatenate([np.linspace(0.5, 4.0, 6), np.linspace(5.0, 50.0, 16)])
        table = tau_scan(sf, f, 1.0, grid)
        est = gap_estimate(table)
        width = abs(est.asymptote_data["width"])
        _check(est.method == "single-point", msgs, f"n={n}: method {est.method}")
        _check(width <= 2.9e-5, msgs, f"n={n}: width {width}")
        details.append(f"n={n}: width {width:.2e}")
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 7 ---------------------------------------------------------------------

def crit_helmholtz_s3():
    """Closed-form affine profiles on the 3-sphere: residual and integrator agreement."""
    msgs = []
    sf = SpaceForm(3, 1.0)
    details = []
    for lam, beta, R in ((-0.25, 2.5, 0.8), (1.0, 2.9, math.pi / 2.0)):
        sol = HelmholtzS3(lam, beta, R, 1.0)
        f = affine(lam, beta)
        prof = solve_profile(sf, f, CauchyData(R, 1.0))
        rs = np.linspace(prof.r_minus * 1.001, prof.r_plus * 0.999, 60)
        res = max(sol.residual(r) for r in rs)
        agree = max(abs(sol.u(r) - prof.u(r)) for r in rs)
        _check(res <= 1.7e-11, msgs, f"lam={lam}: residual {res}")
        _check(agree <= 2.0e-8, msgs, f"lam={lam}: integrator disagreement {agree}")
        details.append(f"lam={lam:g}: residual {res:.1e}, agreement {agree:.1e}")
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 8 ---------------------------------------------------------------------

def crit_mu_facts(outdir: Optional[Path]):
    """mu vanishes on the flat profile, hits 1-n at Allen-Cahn boundaries, and
    stays nonnegative on both affine panels at M = 1: the first across random
    core radii, the second at R = pi/2. With outdir, each panel's scans go to
    mu_scan_{left,right}.csv."""
    msgs = []
    n = 3
    # flat centered: mu identically zero
    prof = solve_profile(SpaceForm(n, 0.0), constant(1.0), CauchyData(0.0, 1.0))
    pair = ComparisonPair(prof, "plus")
    rs = np.linspace(0.05 * prof.r_plus, 0.995 * prof.r_plus, 201)
    mu_max = max(abs(pair.mu_of_r(r)) for r in rs)
    _check(mu_max <= 7.3e-11, msgs, f"flat |mu| = {mu_max}")

    # Allen-Cahn boundary values -> 1 - n k = 1 - n on the unit sphere
    sf1 = SpaceForm(n, 1.0)
    prof_ac = solve_profile(sf1, allen_cahn(3.0), CauchyData(0.9, 0.5))
    worst_bdry = 0.0
    for sign in ("plus", "minus"):
        val = mu_at_boundary(ComparisonPair(prof_ac, sign))
        worst_bdry = max(worst_bdry, abs(val - (1.0 - n)))
    _check(worst_bdry <= _ZERO_ULPS * math.ulp(1.0 - n), msgs,
           f"Allen-Cahn boundary error {worst_bdry}")

    # the affine panels: nonnegative on both branches, across random core
    # radii on the first and at the equator on the second
    rng = np.random.default_rng(_SEED)
    seeded = sorted(float(R) for R in rng.uniform(0.6, math.pi - 0.6, 10))
    panels = {"left": (-0.25, 2.5, seeded), "right": (1.0, 2.9, [math.pi / 2.0])}
    mins = []
    for name, (lam, beta, cores) in panels.items():
        rows = []
        for R in cores:
            prof_a = solve_profile(sf1, affine(lam, beta), CauchyData(R, 1.0))
            for sign, branch in (("plus", 1), ("minus", -1)):
                scan = mu_sign_scan(ComparisonPair(prof_a, sign))
                rows.append((R, branch, scan.min_mu, scan.argmin, scan.all_nonnegative))
                _check(scan.all_nonnegative, msgs,
                       f"{name} panel R={R:.3f} {sign}: min mu = {scan.min_mu}")
        mins.append(f"{name} {min(row[2] for row in rows):.3f}")
        if outdir is not None:
            header = {"panel": name, "lam": lam, "beta": beta, "M": 1.0}
            output.write_text(Path(outdir) / f"mu_scan_{name}.csv", output.csv_lines(
                ("R", "branch", "min_mu", "argmin", "all_nonnegative"), rows, header))
    detail = (f"flat |mu| {mu_max:.1e}; boundary error {worst_bdry:.1e}; "
              f"panel min mu {', '.join(mins)}")
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- criterion 9 ---------------------------------------------------------------------

def crit_hotspot_equality():
    """Flat ball: normalized hot-spot bound equals n; value floor equals M."""
    msgs = []
    details = []
    for n, M in ((2, 1.0), (3, 1.0), (4, 0.5)):
        sf = SpaceForm(n, 0.0)
        prof = solve_profile(sf, constant(1.0), CauchyData(0.0, M))
        hs = hotspot_bounds(ComparisonPair(prof, "plus"), r_Omega=prof.r_plus)
        _check(abs(hs.normalized - n) <= 8.9e-13, msgs,
               f"n={n}: normalized {hs.normalized}")
        lb = serrin_lower_bound(sf, serrin_flat_radius(n, M))
        _check(abs(lb - M) <= _ZERO_ULPS * math.ulp(M), msgs,
               f"n={n}: value floor {lb} vs M={M}")
        details.append(f"n={n}: |normalized-n| {abs(hs.normalized - n):.1e}, "
                       f"|floor-M| {abs(lb - M):.1e}")
    return not msgs, "; ".join(details if not msgs else msgs)


# -- criterion 10 --------------------------------------------------------------------

def crit_isoperimetric():
    """Volume-to-area ratios: quadrature route vs level-set route, and the
    exact flat annulus value."""
    msgs = []
    M_flat2 = 0.75 - math.log(2.0) / 2.0  # flat n=2 annulus with R=1, r_plus=2
    cases = [
        (SpaceForm(2, 0.0), constant(1.0), 1.0, M_flat2, "plus"),
        (SpaceForm(3, 0.0), constant(1.0), 1.2, 0.8, "plus"),
        (SpaceForm(3, -1.0), serrin_fk(3, -1.0), 1.0, 0.25, "minus"),
        (SpaceForm(3, 1.0), serrin_fk(3, 1.0), math.pi / 2.0, 1.0, "plus"),
        (SpaceForm(4, 1.0), constant(1.0), 1.2, 0.7, "minus"),
    ]
    worst = 0.0
    for sf, f, R, M, sign in cases:
        prof = solve_profile(sf, f, CauchyData(R, M))
        pair = ComparisonPair(prof, sign)
        a = isoperimetric_model_ratio(pair)
        b = isoperimetric_coarea_ratio(pair)
        worst = max(worst, abs(a - b))
        _check(abs(a - b) <= 5.1e-8, msgs,
               f"(n={sf.n},k={sf.k:g},{sign}): routes differ by {abs(a - b)}")
    prof2 = solve_profile(SpaceForm(2, 0.0), constant(1.0), CauchyData(1.0, M_flat2))
    ratio = isoperimetric_model_ratio(ComparisonPair(prof2, "plus"))
    _check(abs(ratio - 1.5) < 1e-9, msgs, f"flat annulus ratio {ratio} vs 1.5")
    detail = f"max route discrepancy {worst:.1e}; flat annulus |ratio-1.5| = {abs(ratio - 1.5):.1e}"
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- criterion 11 --------------------------------------------------------------------

def crit_isoparametric():
    """Degree-1 reduction equals the radial profile; reflection symmetry for
    balanced families; quotient-descent truth table."""
    msgs = []
    f = constant(1.0)
    fam1 = IsoparametricFamily(1, 2, 2, 3)
    M = 0.5  # the largest value of u, so the scale of its ulps
    iso = solve_profile(fam1, f, CauchyData(0.7, M))
    prof = solve_profile(SpaceForm(3, 1.0), f, CauchyData(0.7, M))
    ss = np.linspace(iso.r_minus, iso.r_plus, 41)
    err1 = max(abs(iso.u(s) - prof.u(s)) for s in ss)
    _check(err1 <= _ZERO_ULPS * math.ulp(M), msgs, f"degree-1 vs radial: {err1}")

    fam2 = IsoparametricFamily(2, 1, 1, 3)
    S = 0.6
    a = solve_profile(fam2, f, CauchyData(S, 0.1))
    b = solve_profile(fam2, f, CauchyData(fam2.s_max - S, 0.1))
    ss = np.linspace(a.r_minus, a.r_plus, 41)
    err2 = max(abs(a.u(s) - b.u(fam2.s_max - s)) for s in ss)
    _check(err2 <= 8.4e-15, msgs, f"reflection identity: {err2}")

    families = [IsoparametricFamily(1, 2, 2, 3), IsoparametricFamily(2, 1, 1, 3),
                IsoparametricFamily(3, 1, 1, 4), IsoparametricFamily(4, 1, 1, 5),
                IsoparametricFamily(6, 1, 1, 7)]
    for fam in families:
        res = descent_check(fam, "antipodal")
        _check(res.ok == (fam.ell % 2 == 0), msgs,
               f"antipodal descent wrong for degree {fam.ell}")
    hop = descent_check(IsoparametricFamily(4, 1, 1, 5), "hopf_circle")
    _check(hop.ok and hop.conditional, msgs, "circle descent should be conditional true")
    detail = f"degree-1 error {err1:.1e}; reflection error {err2:.1e}; descent table exact"
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- criterion 12 --------------------------------------------------------------------

def _artifact_bundle(outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    files = {}
    prof = solve_profile(SpaceForm(3, 0.0), constant(1.0), CauchyData(0.0, 1.0))
    files["profile_flat.csv"] = output.profile_csv_lines(prof, npoints=101)
    sf1 = SpaceForm(3, 1.0)
    table = tau_scan(sf1, serrin_fk(3, 1.0), 1.0, np.linspace(0.0, 2.8, 9))
    files["tau_scan_k1.csv"] = output.tau_csv_lines(table)
    est = gap_estimate(table)
    files["gap_k1.json"] = [output.dumps_json(output.gap_json(table, est))]
    iso = solve_profile(IsoparametricFamily(2, 1, 1, 3), constant(1.0),
                        CauchyData(math.pi / 4.0, 0.1))
    files["iso_band.csv"] = output.profile_csv_lines(iso, npoints=101)
    curve = figure_gap_curve(SpaceForm(2, -1.0), FIG_GAP_M_TILDE,
                             np.linspace(1.0, 8.0, 8))
    files["gap_curve_n2.csv"] = output.gap_curve_csv_lines(curve)
    digests = {}
    for name, lines in files.items():
        output.write_text(outdir / name, lines)
        digests[name] = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
    return digests


def crit_determinism(outdir: Optional[Path]):
    """Two full artifact-bundle runs must be byte-identical. Without outdir
    they go to a temporary directory that is removed afterwards."""
    if outdir is None:
        import tempfile
        with tempfile.TemporaryDirectory(prefix="radcomp-") as tmp:
            return crit_determinism(Path(tmp))
    msgs = []
    d1 = _artifact_bundle(Path(outdir) / "run1")
    d2 = _artifact_bundle(Path(outdir) / "run2")
    for name in d1:
        _check(d1[name] == d2[name], msgs, f"{name} differs between runs")
    detail = f"{len(d1)} artifacts byte-identical"
    return not msgs, detail if not msgs else "; ".join(msgs)


# -- driver --------------------------------------------------------------------------

_CRITERIA: list[tuple[int, str, Callable]] = [
    (1, "flat-oracle", crit_flat_serrin_oracle),
    (2, "tau-normalization-monotonicity", crit_tau_normalization_monotonicity),
    (3, "tau-minus-blowup", crit_blowup),
    (4, "tau-ordering", crit_ordering),
    (5, "gap-curve-reproduction", crit_figure_gap),
    (6, "flat-gap-degeneracy", crit_gap_degenerate_flat),
    (7, "helmholtz-closed-form", crit_helmholtz_s3),
    (8, "mu-facts", crit_mu_facts),
    (9, "hotspot-equality", crit_hotspot_equality),
    (10, "isoperimetric-consistency", crit_isoperimetric),
    (11, "isoparametric-reduction", crit_isoparametric),
    (12, "determinism", crit_determinism),
]

_TAKES_OUTDIR = {5, 8, 12}
# runtime budgets in s: 10 times the slowest of five runs on the host above,
# rounded up to a whole second, and never under 1 s
_RUNTIME_LIMITS = {1: 1.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 2.0, 6: 1.0, 7: 1.0, 8: 2.0,
                   9: 1.0, 10: 1.0, 11: 1.0, 12: 1.0}


def run_one(number: int, outdir=None) -> CriterionResult:
    entry = next((e for e in _CRITERIA if e[0] == number), None)
    if entry is None:
        raise DomainError(f"no criterion {number}; the criteria are 1-{len(_CRITERIA)}")
    num, name, fn = entry
    t0 = time.perf_counter()
    try:
        if num in _TAKES_OUTDIR:
            passed, detail = fn(None if outdir is None else Path(outdir))
        else:
            passed, detail = fn()
    except RadcompError as e:
        passed, detail = False, f"raised {type(e).__name__}: {e}"
    elapsed = time.perf_counter() - t0
    limit = _RUNTIME_LIMITS[num]
    if passed and elapsed > limit:
        passed = False
        detail += f"; runtime {elapsed:.1f}s exceeded the {limit:.0f}s budget"
    return CriterionResult(num, name, passed, detail, elapsed)


def run_all(outdir=None, only=None) -> list[CriterionResult]:
    """Run the criteria numbered in the list `only`, or all of them; unknown
    numbers are refused before any runs."""
    known = [num for num, _, _ in _CRITERIA]
    numbers = list(only) if only else known
    unknown = [num for num in numbers if num not in known]
    if unknown:
        raise DomainError(f"no criterion {unknown[0]}; the criteria are 1-{len(known)}")
    if outdir is not None:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    return [run_one(num, outdir=outdir) for num in numbers]
