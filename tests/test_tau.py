import math

import numpy as np
import pytest

from radcomp import (CauchyData, SolveOptions, SpaceForm, constant,
                     figure_gap_curve, gap_estimate, normalization_constant,
                     serrin_fk, solve_profile, tau_scan)
from radcomp.errors import DomainError, InsufficientRange
from radcomp.output import tau_csv_lines

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
    assert table.tau0 == pytest.approx(1.0, abs=1e-10)
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
    table = tau_scan(sf, f, 0.25, np.linspace(0.4, 10.0, 12))
    assert table.tau_plus_sup <= table.tau_minus_inf + 1e-8


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
    assert table.tau0 <= 1.0 + 1e-10 <= lo  # gap sits above the admissible floor
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


def test_flat_gap_refuses_disagreeing_tail_fits():
    """A short k = 0 grid whose cubic tail fits put the plus limit above the
    minus limit: refused, where an inverted interval used to be returned."""
    sf = SpaceForm(4, 0.0)
    grid = np.concatenate([[0.0], np.geomspace(0.46777640403385373, 46.68821753297772, 11)])
    table = tau_scan(sf, serrin_fk(4, 0.0), 0.5274190798783935, grid)
    with pytest.raises(InsufficientRange, match="extend the R grid.*limit n = 4"):
        gap_estimate(table)


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
        tau_scan(sf, f, 1.0, [0.5, math.pi])  # touches r_bar
    with pytest.raises(DomainError):
        tau_scan(sf, f, 1.0, [-0.1, 0.5])


def test_centered_failure_propagates():
    # if the centered profile fails, the normalization is undefined and the
    # scan raises rather than producing meaningless rows
    from radcomp.errors import NotAdmissible
    from radcomp.nonlinearity import polynomial
    sf = SpaceForm(3, 0.0)
    bad = polynomial([-0.5, 1.0])  # turns before reaching zero
    with pytest.raises(NotAdmissible):
        tau_scan(sf, bad, 1.0, [0.0, 1.0], SolveOptions(r_max_cap=30.0))


def test_failed_rows_carry_diagnostics():
    # a row that hits the outward cap keeps its diagnostic instead of raising
    from radcomp.tau import _scan_row
    sf = SpaceForm(3, 0.0)
    f = constant(1.0)
    row = _scan_row(sf, f, 1.0, 0.0, 2.0 / 3.0, SolveOptions(r_max_cap=1.5))
    assert not row.ok
    assert "cap" in row.diagnostic
    assert math.isnan(row.tau_plus)
