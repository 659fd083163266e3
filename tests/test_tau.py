import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from radcomp import (CauchyData, IsoparametricFamily, SolveOptions, SpaceForm, constant,
                     figure_gap_curve, gap_estimate, normalization_constant,
                     serrin_fk, solve_profile, tau_scan)
from radcomp.errors import DomainError, InsufficientRange
from radcomp.output import tau_csv_lines
from radcomp.tau import TauRow, TauTable, _inverse_r_extrapolation, _median

M_TILDE = math.cosh(3.0) - 1.0


def test_normalization_flat_closed_form():
    for n, M in ((2, 1.0), (3, 0.7), (4, 2.0)):
        c = normalization_constant(SpaceForm(n, 0.0), constant(1.0), M)
        assert c == pytest.approx(2.0 * M / n, abs=1e-10)
    assert normalization_constant(SpaceForm(2, 0.0), constant(1.0), 1.0) \
        == pytest.approx(1.0, abs=1e-10)


def test_normalization_stable_under_tol_halving():
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    c1 = normalization_constant(sf, f, 0.25, SolveOptions(rtol=1e-10, atol=1e-12))
    c2 = normalization_constant(sf, f, 0.25, SolveOptions(rtol=5e-11, atol=5e-13))
    assert abs(c1 - c2) < 1e-9


def test_tau_table_structure():
    sf = SpaceForm(3, 0.0)
    f = serrin_fk(3, 0.0)
    table = tau_scan(sf, f, 1.0, [0.0, 1.0, 2.0])
    assert table.rows[0].tau_plus == pytest.approx(1.0, abs=1e-10)
    assert math.isnan(table.rows[0].tau_minus)
    assert table.images[0][0] == pytest.approx(1.0, abs=1e-10)
    assert table.c_norm == pytest.approx(2.0 / 3.0, abs=1e-10)
    lines = tau_csv_lines(table)
    assert lines[1] == "R,tau_plus,tau_minus,r_minus,r_plus"
    assert lines[2].split(",")[2] == "nan"  # no inner zero at R = 0


def test_tau_blowup_factor_sequence():
    """tau_minus grows by at least 10x per decade of R."""
    sf = SpaceForm(3, 0.0)
    f = serrin_fk(3, 0.0)
    table = tau_scan(sf, f, 1.0, [1e-1, 1e-2, 1e-3])
    tm = [row.tau_minus for row in table.rows]
    assert tm[1] > 10.0 * tm[0]
    assert tm[2] > 10.0 * tm[1]


def test_reflection_relation_k_positive():
    """tau_plus(R) = tau_minus(r_bar - R) for k > 0."""
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    M = 1.0
    table = tau_scan(sf, f, M, [0.8, math.pi - 0.8, 1.3, math.pi - 1.3])
    rows = {round(r.R, 6): r for r in table.rows}
    for R in (0.8, 1.3):
        a = rows[round(R, 6)].tau_plus
        b = rows[round(math.pi - R, 6)].tau_minus
        assert abs(a - b) < 1e-8


def test_ordering_k_nonpositive():
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    plus, minus = tau_scan(sf, f, 0.25, np.linspace(0.4, 10.0, 12)).images
    assert plus[1] <= minus[0] + 1e-8


def test_spherical_inner_curve_floor():
    """For k > 0 the decreasing inner curve approaches the centered
    normalization value 1 as the core radius approaches the far endpoint."""
    sf = SpaceForm(3, 1.0)
    table = tau_scan(sf, serrin_fk(3, 1.0), 1.0, [2.6, 2.9, 3.05])
    tm = [row.tau_minus for row in table.rows]
    assert tm[0] > tm[1] > tm[2] > 1.0
    assert tm[2] < 1.05


def test_vinfty_prediction_second_parameter():
    """The limit-profile prediction is parameter-uniform, not tuned to one M."""
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    from radcomp import asymptotic_gap
    ap = asymptotic_gap(3, 1.5)
    grid = np.concatenate([[0.0], np.linspace(0.5, 11.0, 15)])
    table = tau_scan(sf, f, ap.cauchy_max(), grid)
    est = gap_estimate(table)
    lo, hi = est.gap
    pred = est.asymptote_data["vinfty"]["predicted_gap_length"]
    assert abs((hi - lo) - pred) / pred < 0.02
    assert est.asymptote_data["vinfty"]["M_tilde"] == pytest.approx(1.5, rel=1e-12)


def test_gap_empty_for_positive_curvature():
    sf = SpaceForm(3, 1.0)
    table = tau_scan(sf, serrin_fk(3, 1.0), 1.0, np.linspace(0.0, 2.9, 13))
    est = gap_estimate(table)
    assert est.gap == [] and est.method == "exact-symmetry"
    assert len(est.adm) == 1  # the two sampled images overlap


def test_gap_interval_k_negative_consistent():
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    grid = np.concatenate([[0.0], np.geomspace(0.1, 2.0, 8),
                           np.linspace(2.5, 13.0, 15)])
    table = tau_scan(sf, f, 0.25, grid)
    est = gap_estimate(table)
    assert est.method == "asymptote-fit"
    assert len(est.gap) == 2
    lo, hi = est.gap
    assert table.images[0][0] <= 1.0 + 1e-10 <= lo  # gap sits above the admissible floor
    # interiors of gap and admissible set do not overlap
    adm_plus, adm_minus = est.adm
    assert adm_plus[1] <= lo + 1e-12
    assert adm_minus[0] >= hi - 1e-12
    # limit-profile prediction within 2 percent
    pred = est.asymptote_data["vinfty"]["predicted_gap_length"]
    assert abs((hi - lo) - pred) / pred < 0.02


def test_gap_insufficient_range():
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    table = tau_scan(sf, f, 0.25, np.linspace(0.3, 2.0, 8))  # tail not settled
    with pytest.raises(InsufficientRange):
        gap_estimate(table)


def test_flat_gap_answers_a_grid_the_cubic_fit_refused():
    """A k = 0 grid shaped like the benchmark's scan inputs, on which the
    former least-squares cubic in 1/R put the plus limit above the minus
    limit: the extrapolation gives a one-point gap within 1e-4 of n = 4."""
    sf = SpaceForm(4, 0.0)
    grid = np.concatenate([[0.0], np.geomspace(0.46777640403385373, 46.68821753297772, 11)])
    est = gap_estimate(tau_scan(sf, serrin_fk(4, 0.0), 0.5274190798783935, grid))
    assert est.method == "single-point" and len(est.gap) == 1
    assert abs(est.gap[0] - 4) <= 1e-4
    data = est.asymptote_data
    assert max(data["tau_plus_error"], data["tau_minus_error"]) <= 1e-4
    assert data["tau_plus_limit"] <= data["tau_minus_limit"]


def test_flat_gap_refuses_a_short_grid():
    """Radii up to 5 are far from the 1/R asymptote: the extrapolations'
    error estimates exceed 1e-4 and the gap is refused."""
    sf = SpaceForm(3, 0.0)
    grid = np.concatenate([[0.0], np.linspace(0.5, 5.0, 11)])
    table = tau_scan(sf, serrin_fk(3, 0.0), 1.0, grid)
    with pytest.raises(InsufficientRange, match="error estimates.*extend the R grid.*limit n = 3"):
        gap_estimate(table)


def test_flat_gap_ignores_repeated_radii():
    """A radius listed twice gives the same row twice; the extrapolation,
    which needs distinct radii, uses it once."""
    sf, f = SpaceForm(2, 0.0), serrin_fk(2, 0.0)
    grid = np.concatenate([[0.0], np.geomspace(0.5, 40.0, 11)])
    once = gap_estimate(tau_scan(sf, f, 1.0, grid))
    twice = gap_estimate(tau_scan(sf, f, 1.0, np.repeat(grid, 2)))
    assert (twice.gap, twice.asymptote_data) == (once.gap, once.asymptote_data)


def test_flat_gap_refuses_crossed_limits():
    """Settled tails whose plus limit lies above the minus limit are refused,
    not returned as an inverted interval."""
    sf = SpaceForm(2, 0.0)
    nan = math.nan
    rows = [TauRow(R=R, tau_plus=2.001, tau_minus=1.999, r_minus=nan, r_plus=nan,
                   dU_minus=nan, dU_plus=nan, diagnostic=None)
            for R in range(10, 70, 10)]
    table = TauTable(space=sf, f=serrin_fk(2, 0.0), M=1.0, c_norm=1.0, rows=rows)
    with pytest.raises(InsufficientRange, match="plus limit 2.00.* exceeds minus limit 1.99"):
        gap_estimate(table)


@given(u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), limit=st.floats(-5.0, 5.0),
       coeffs=st.lists(st.floats(0.0, 10.0), max_size=5), sign=st.sampled_from([-1.0, 1.0]))
@settings(max_examples=200, deadline=None)
def test_inverse_r_extrapolation_on_polynomials(u, limit, coeffs, sign):
    """Samples that are a polynomial in 1/R, on the last six rows of a
    geometric grid like the benchmark's: of degree <= 4 they extrapolate to
    the constant term to rounding, and of degree 5 the error estimate bounds
    the error. The terms share one sign, as in a monotone tail; with mixed
    signs a difference of extrapolants can vanish by coincidence and the
    smallest-estimate rule can then pick a wrong degree."""
    R = np.geomspace(0.3 + 0.5 * u[0], 30.0 + 20.0 * u[1], 11)
    vals = np.array([limit + sum(sign * c * r ** -(j + 1) for j, c in enumerate(coeffs))
                     for r in R])
    value, err = _inverse_r_extrapolation(R, vals)
    if len(coeffs) <= 4:
        assert abs(value - limit) <= 1e-13 and err <= 1e-13
    else:
        assert abs(value - limit) <= err + 1e-13


@given(n=st.integers(2, 4), u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                        st.floats(0.0, 1.0)))
@settings(max_examples=20, deadline=None)
def test_flat_gap_on_scan_like_grids(n, u):
    """On geometric k = 0 grids like the benchmark's (R_max in [30, 50]) the
    torsion-type gap is one point within 1e-4 of the closed-form limit n,
    with ordered admissible intervals that do not hold it inside and both
    error estimates within 1e-4;
    the only refusal is an error estimate above 1e-4 (large M, short grid)."""
    M, grid = scan_like_grid(n, 0.0, u)
    table = tau_scan(SpaceForm(n, 0.0), serrin_fk(n, 0.0), M, grid)
    try:
        est = gap_estimate(table)
    except InsufficientRange as exc:
        assert "error estimates" in str(exc)
        return
    assert est.method == "single-point" and len(est.gap) == 1
    assert abs(est.gap[0] - n) <= 1e-4
    for lo, hi in est.adm:
        assert lo <= hi
        assert not lo < est.gap[0] < hi  # the gap point is not inside the admissible set
    data = est.asymptote_data
    assert max(data["tau_plus_error"], data["tau_minus_error"]) <= 1e-4


@given(st.lists(st.floats(0.0, 1e300), min_size=1, max_size=8))
def test_median_is_numpys_bitwise(vals):
    """The tail check's plain-float median is the value np.median returns."""
    expected = float(np.median(vals))
    assert struct.pack("<d", _median(vals)) == struct.pack("<d", expected)


def test_single_point_gap_flat():
    sf = SpaceForm(2, 0.0)
    f = serrin_fk(2, 0.0)
    grid = np.concatenate([np.linspace(0.5, 4.0, 5), np.linspace(5.0, 50.0, 16)])
    est = gap_estimate(tau_scan(sf, f, 1.0, grid))
    assert est.method == "single-point"
    assert len(est.gap) == 1
    assert est.gap[0] == pytest.approx(2.0, abs=1e-3)  # both curves converge to n
    data = est.asymptote_data
    assert data["prediction"] == {"limit": 2, "plus_offset": data["tau_plus_limit"] - 2,
                                  "minus_offset": data["tau_minus_limit"] - 2}


def scan_like_grid(n, k, u):
    """M and a 12-row core-radius grid (R = 0 and 11 radii reaching the
    tails) shaped like the benchmark's scan inputs, from three draws in [0, 1]."""
    if k < 0:
        M = (0.1 + 0.8 * u[0]) / n  # inside I_f = (0, 1/n) of serrin_fk
        radii = np.linspace(0.1 + 0.3 * u[1], 9.0 + 3.0 * u[2], 11)
    elif k == 0:
        M = 0.3 + 1.7 * u[0]
        radii = np.geomspace(0.3 + 0.5 * u[1], 30.0 + 20.0 * u[2], 11)
    else:
        M = 0.3 + 1.7 * u[0]
        radii = np.linspace(0.05 + 0.25 * u[1], math.pi * (0.95 + 0.04 * u[2]), 11)
    return M, np.concatenate([[0.0], radii])


@given(k=st.sampled_from([-1.0, 0.0, 1.0]), n=st.integers(2, 4),
       family=st.sampled_from(["serrin_fk", "constant"]),
       u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
@settings(max_examples=30, deadline=None)
def test_scan_tau0_and_ordered_intervals(k, n, family, u):
    """tau_plus(0) = 1, and every gap and admissible interval that
    gap_estimate returns has lo <= hi, with a one-point gap inside none of the
    admissible intervals; a refusal (InsufficientRange) is a valid outcome."""
    M, grid = scan_like_grid(n, k, u)
    f = serrin_fk(n, k) if family == "serrin_fk" else constant(1.0)
    table = tau_scan(SpaceForm(n, k), f, M, grid)
    row0 = table.rows[0]
    assert row0.R == 0.0 and abs(row0.tau_plus - 1.0) <= 1e-10
    try:
        est = gap_estimate(table)
    except InsufficientRange:
        return
    for lo, hi in est.adm:
        assert lo <= hi
        assert len(est.gap) != 1 or not lo < est.gap[0] < hi
    if len(est.gap) == 2:
        assert est.gap[0] <= est.gap[1]


def test_figure_gap_curve_properties():
    sf = SpaceForm(2, -1.0)
    curve = figure_gap_curve(sf, M_TILDE, np.linspace(0.8, 10.0, 12))
    svals = np.array([s for _, s in curve.rows])
    assert np.all(svals > 0)
    assert np.all(np.diff(svals) < 0)
    assert svals[-1] == pytest.approx(curve.prediction["s_tail"], rel=2e-2)
    # gap length and its prediction stay mutually consistent through c_norm
    pred_len = curve.prediction["gap_length"]
    lp, lm = curve.prediction["limit_plus"], curve.prediction["limit_minus"]
    assert pred_len == pytest.approx((lm ** 2 - lp ** 2) / curve.c_norm, rel=1e-12)


def test_tau_curves_match_explicit_route():
    """End-to-end: the scanned response curves reproduce the values computed
    entirely through the explicit affine solutions (independent route)."""
    from scipy.optimize import brentq
    from radcomp import SerrinExplicit

    for n, k, M in ((3, 1.0, 1.0), (3, -1.0, 0.25)):
        sf = SpaceForm(n, k)
        # centered profile in closed form: -1/(nk) + (M + 1/(nk)) c_k(r)
        amp = M + 1.0 / (n * k)
        if k > 0:
            r_plus0 = math.acos((1.0 / (n * k)) / amp)
            c_explicit = (amp * math.sin(r_plus0)) ** 2
        else:
            r_plus0 = math.acosh((1.0 / (-n * k)) / (-amp))
            c_explicit = (amp * math.sinh(r_plus0)) ** 2
        radii = (0.9, 1.7) if k > 0 else (0.8, 1.6)
        table = tau_scan(sf, serrin_fk(n, k), M, [0.0] + list(radii))
        assert table.c_norm == pytest.approx(c_explicit, rel=1e-9)
        assert table.rows[0].r_plus == pytest.approx(r_plus0, abs=1e-9)
        for row in table.rows[1:]:
            sol = SerrinExplicit(sf, row.R, M)
            hi = math.pi - 1e-9 if k > 0 else row.R + 30.0
            rm = brentq(sol.u, 1e-9, row.R * (1 - 1e-12), xtol=1e-15)
            rp = brentq(sol.u, row.R * (1 + 1e-12), hi, xtol=1e-15)
            assert row.tau_minus == pytest.approx(sol.du(rm) ** 2 / c_explicit, rel=1e-7)
            assert row.tau_plus == pytest.approx(sol.du(rp) ** 2 / c_explicit, rel=1e-7)


def test_figure_gap_requires_unit_hyperbolic():
    with pytest.raises(DomainError):
        figure_gap_curve(SpaceForm(2, 0.0), M_TILDE, [1.0, 2.0])


def test_scan_grid_validation():
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    with pytest.raises(DomainError):
        tau_scan(sf, f, 1.0, [])
    with pytest.raises(DomainError):
        tau_scan(sf, f, 1.0, [0.5, 4.0])  # past r_bar
    with pytest.raises(DomainError):
        tau_scan(sf, f, 1.0, [-0.1, 0.5])


def test_far_pole_row_reflects_the_centered_profile():
    """A grid radius on r_bar is a far-pole start: its row has only the
    inner curve, whose zero sits at pi - r_plus(0) by reflection and whose
    tau_minus is the centered normalization value 1."""
    table = tau_scan(SpaceForm(3, 1.0), serrin_fk(3, 1.0), 1.0, np.linspace(0.0, math.pi, 5))
    centered, far = table.rows[0], table.rows[-1]
    assert far.ok and far.R == math.pi
    assert math.isnan(far.r_plus) and math.isnan(far.tau_plus)
    assert abs(far.r_minus - (math.pi - centered.r_plus)) < 1e-9
    assert abs(far.tau_minus - 1.0) < 1e-12


def test_degree_one_family_scans_as_the_round_sphere():
    """The degree-1 family (1, 2, 2, 3) states the radial equation of S^3:
    its scan over S gives the rows and normalization of SpaceForm(3, 1),
    bit for bit."""
    grid = np.linspace(0.0, math.pi, 9)
    fam = tau_scan(IsoparametricFamily(1, 2, 2, 3), constant(1.0), 0.5, grid)
    rad = tau_scan(SpaceForm(3, 1.0), constant(1.0), 0.5, grid)
    assert struct.pack("<d", fam.c_norm) == struct.pack("<d", rad.c_norm)
    assert repr(fam.rows) == repr(rad.rows)


@pytest.mark.parametrize("R", [-0.1, math.pi * (1 + 1e-13), math.pi + 1e-6, 4.0, math.nan])
def test_scan_and_solver_share_one_range_rule(R):
    """tau_scan keeps no range rule of its own: it refuses a core radius
    exactly when solve_profile does."""
    sf, f = SpaceForm(3, 1.0), serrin_fk(3, 1.0)

    def refused(call):
        try:
            call()
        except DomainError:
            return True
        return False

    solver = refused(lambda: solve_profile(sf, f, CauchyData(R, 1.0)))
    assert solver == (R != math.pi * (1 + 1e-13))  # only the far pole is inside
    assert refused(lambda: tau_scan(sf, f, 1.0, [0.5, R])) == solver


def test_gap_refuses_a_family_table():
    table = tau_scan(IsoparametricFamily(2, 1, 2, 4), constant(1.0), 0.05, [0.3, 0.6])
    with pytest.raises(DomainError, match="radial equation of a space form"):
        gap_estimate(table)


def test_gap_refuses_a_table_without_outer_zeros():
    """A grid on the far pole alone has successful rows but no tau_plus."""
    table = tau_scan(SpaceForm(3, 1.0), serrin_fk(3, 1.0), 1.0, [math.pi])
    with pytest.raises(InsufficientRange, match="outer zero"):
        gap_estimate(table)


def test_centered_failure_propagates():
    # if the centered profile fails, the normalization is undefined and the
    # scan raises rather than producing meaningless rows
    from radcomp.errors import NotAdmissible
    from radcomp.nonlinearity import polynomial
    sf = SpaceForm(3, 0.0)
    bad = polynomial([-0.5, 1.0])  # turns before reaching zero
    with pytest.raises(NotAdmissible):
        tau_scan(sf, bad, 1.0, [0.0, 1.0], SolveOptions(r_max_cap=30.0))


def test_row_ok_is_read_from_its_diagnostic():
    nan = math.nan
    row = TauRow(R=1.0, tau_plus=nan, tau_minus=nan, r_minus=nan, r_plus=nan,
                 dU_minus=nan, dU_plus=nan, diagnostic="no sign change of U")
    assert not row.ok and dataclasses.replace(row, diagnostic=None).ok
    with pytest.raises(AttributeError):
        row.ok = True


def test_failed_rows_carry_diagnostics():
    # a row that hits the outward cap keeps its diagnostic instead of raising
    from radcomp.tau import _scan_row
    sf = SpaceForm(3, 0.0)
    f = constant(1.0)
    row = _scan_row(sf, f, 1.0, 0.0, 2.0 / 3.0, SolveOptions(r_max_cap=1.5))
    assert not row.ok
    assert "cap" in row.diagnostic
    assert math.isnan(row.tau_plus)
