import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from radcomp import (CauchyData, ComparisonPair, SolveOptions, SpaceForm, affine,
                     allen_cahn, area_ratio_factor, constant, curvature_bounds,
                     hotspot_bounds, isoperimetric_coarea_ratio,
                     isoperimetric_model_ratio, mu_at_boundary, mu_sign_scan,
                     serrin_fk, serrin_lower_bound, solve_profile)
from radcomp.errors import DomainError


def flat_pair(n=3, M=1.0):
    prof = solve_profile(SpaceForm(n, 0.0), constant(1.0), CauchyData(0.0, M))
    return ComparisonPair(prof, "plus")


def annulus_profile(n=3, k=0.0, R=2.0, M=1.0, f=None):
    f = f if f is not None else constant(1.0)
    return solve_profile(SpaceForm(n, k), f, CauchyData(R, M))


# -- chi ---------------------------------------------------------------------------

def test_chi_boundary_and_core_limits():
    prof = annulus_profile()
    plus = ComparisonPair(prof, "plus")
    minus = ComparisonPair(prof, "minus")
    assert plus.chi_inverse(0.0) == prof.r_plus
    assert minus.chi_inverse(0.0) == prof.r_minus
    # monotone approach to the core radius as s -> M
    radii = [plus.chi_inverse(s) for s in (0.5, 0.9, 0.99, 0.9999)]
    assert all(a > b for a, b in zip(radii, radii[1:]))
    assert radii[-1] == pytest.approx(2.0, abs=2e-2)
    radii_m = [minus.chi_inverse(s) for s in (0.5, 0.9, 0.99)]
    assert all(a < b for a, b in zip(radii_m, radii_m[1:]))


def test_chi_flat_closed_form():
    n, M = 3, 1.0
    pair = flat_pair(n, M)
    for s in (0.0, 0.25, 0.7, 0.99):
        assert pair.chi_inverse(s) == pytest.approx(math.sqrt(2 * n * (M - s)), abs=1e-9)
    with pytest.raises(DomainError):
        pair.chi_inverse(M)
    with pytest.raises(DomainError):
        pair.chi_inverse(-0.1)


def bracketed_chi(pair, s):
    """The former route to chi, kept as the oracle: brentq on U - s over the
    whole branch, with U taken as exactly 0 at the boundary."""
    lo, hi = pair.profile.branch_interval(pair.sign)
    g = lambda r: (0.0 if r == pair.r_boundary else pair.profile.u(r)) - s
    return brentq(g, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@given(k=st.sampled_from([-1.0, 0.0, 1.0]),
       family=st.sampled_from(["constant", "serrin_fk", "affine"]),
       n=st.integers(2, 4), sign=st.sampled_from(["plus", "minus"]),
       u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       fracs=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=6))
@settings(max_examples=60, deadline=None)
def test_chi_inverse_property(k, family, n, sign, u, v, fracs):
    """chi lies inside the branch, is monotone in the level, and agrees with
    bracketed root finding on the dense profile, from the boundary level 0
    up to levels next to the critical level M."""
    f = {"constant": constant(1.0), "serrin_fk": serrin_fk(n, k),
         "affine": affine(-0.25, 2.5)}[family]
    M = (0.1 + 0.8 * u) / n if family == "serrin_fk" and k < 0 else 0.2 + 1.8 * u
    R = (0.15 + 0.7 * v) * math.pi / math.sqrt(k) if k > 0 else 0.5 + 2.5 * v
    pair = ComparisonPair(annulus_profile(n, k, R, M, f), sign)
    lo, hi = pair.profile.branch_interval(sign)
    levels = sorted({0.0, math.nextafter(0.0, 1.0), M * (1 - 1e-13), *(M * x for x in fracs)})
    radii = [pair.chi_inverse(s) for s in levels]
    assert all(lo <= r <= hi for r in radii)
    steps = np.diff(radii) if sign == "minus" else -np.diff(radii)
    assert np.all(steps >= 0)
    for s, r in zip(levels, radii):
        # near the core U' -> 0, and U rounds to s over a band of radii of
        # width about ulp(M) / |U'|: every root finder may land anywhere in it
        band = 2.0 * math.ulp(M) / abs(pair.profile.du(r))
        assert abs(r - bracketed_chi(pair, s)) <= 1e-12 * max(1.0, r) + band, (s, r)


def test_chi_inverse_near_critical_level():
    pair = ComparisonPair(annulus_profile(), "plus")
    M = pair.M
    assert pair.chi_inverse(M * (1 - 1e-13)) == pytest.approx(2.0, abs=1e-5)


def test_mu_scan_empty_grid_rejected():
    pair = ComparisonPair(annulus_profile(), "plus")
    with pytest.raises(DomainError):
        mu_sign_scan(pair, grid=np.array([]))


def test_model_gradient_two_paths():
    n, M = 3, 1.0
    pair = flat_pair(n, M)
    for s in (0.0, 0.4, 0.9):
        w = pair.model_gradient(s)
        assert w == pytest.approx(2 * (M - s) / n, abs=1e-10)
        w2 = pair.profile.du(pair.chi_inverse(s)) ** 2
        assert w == pytest.approx(w2, abs=1e-9)
    assert pair.model_gradient(0.0) == pytest.approx(pair.profile.dU_plus ** 2, abs=1e-12)


# -- lambda / mu ---------------------------------------------------------------------

def test_lambda_mu_flat_vanish():
    pair = flat_pair()
    for r in np.linspace(0.2, 2.3, 9):
        assert abs(pair.lambda_of_r(r)) < 1e-11
        assert abs(pair.mu_of_r(r)) < 1e-11


def test_mu_serrin_identity():
    """With an affine slope matching n k, mu reduces to its lambda part."""
    n, k = 3, 1.0
    prof = solve_profile(SpaceForm(n, k), serrin_fk(n, k), CauchyData(1.0, 1.0))
    pair = ComparisonPair(prof, "plus")
    for r in np.linspace(1.1, prof.r_plus - 0.05, 7):
        lam = pair.lambda_of_r(r)
        u = prof.u(r)
        expected = (n + 2) / n * lam * (n * k * u + 1.0)
        assert pair.mu_of_r(r) == pytest.approx(expected, abs=1e-9)


def test_mu_allen_cahn_boundary_values():
    n = 3
    prof = solve_profile(SpaceForm(n, 1.0), allen_cahn(3.0), CauchyData(0.9, 0.5))
    for sign in ("plus", "minus"):
        val = mu_at_boundary(ComparisonPair(prof, sign))
        assert val == pytest.approx(1.0 - n, abs=1e-3)


def test_mu_sign_scan_serrin_nonnegative():
    opts = SolveOptions(rtol=1e-12, atol=1e-14)
    for n, k, R, M in ((3, 1.0, 1.0, 1.0), (3, -1.0, 1.5, 0.25), (2, 0.0, 2.0, 1.0)):
        prof = solve_profile(SpaceForm(n, k), serrin_fk(n, k), CauchyData(R, M), opts)
        for sign in ("plus", "minus"):
            scan = mu_sign_scan(ComparisonPair(prof, sign))
            assert scan.all_nonnegative, (n, k, sign, scan.min_mu)


def test_mu_sign_scan_affine_panel_cases():
    sf = SpaceForm(3, 1.0)
    prof = solve_profile(sf, affine(-0.25, 2.5), CauchyData(1.0, 1.0))
    scan = mu_sign_scan(ComparisonPair(prof, "plus"))
    assert scan.all_nonnegative and scan.min_mu > 0
    prof2 = solve_profile(sf, affine(1.0, 2.9), CauchyData(math.pi / 2, 1.0))
    for sign in ("plus", "minus"):
        scan2 = mu_sign_scan(ComparisonPair(prof2, sign))
        assert scan2.all_nonnegative


# -- curvature ----------------------------------------------------------------------

def test_curvature_bounds_flat_centered():
    n, M = 3, 1.0
    cb = curvature_bounds(flat_pair(n, M))
    assert cb.boundary_H_bound == pytest.approx(1.0 / math.sqrt(2 * n * M), rel=1e-9)
    assert cb.maxset_H_bound is None


def test_curvature_bounds_equator_and_minus():
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0),
                         CauchyData(math.pi / 2, 1.0))
    cb = curvature_bounds(ComparisonPair(prof, "plus"))
    assert cb.maxset_H_bound == pytest.approx(0.0, abs=1e-12)
    prof0 = annulus_profile()
    cbm = curvature_bounds(ComparisonPair(prof0, "minus"))
    assert cbm.boundary_H_bound == pytest.approx(-1.0 / prof0.r_minus, rel=1e-9)
    assert cbm.boundary_H_bound < 0
    assert cbm.maxset_H_bound == pytest.approx(1.0 / 2.0, rel=1e-9)


# -- area and isoperimetric ------------------------------------------------------------

def test_area_ratio_limits():
    prof = annulus_profile()
    pair = ComparisonPair(prof, "plus")
    assert area_ratio_factor(pair, 0.9999) == pytest.approx(1.0, abs=3e-2)
    vals = [area_ratio_factor(pair, t) for t in (0.0, 0.3, 0.6, 0.9)]
    assert all(v < 1 for v in vals[:2])  # outer radius exceeds the core radius
    assert all(a < b for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        area_ratio_factor(flat_pair(), 0.5)  # R = 0 has no top hypersurface


def test_area_ratio_symmetric_sphere():
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0),
                         CauchyData(math.pi / 2, 1.0))
    pair = ComparisonPair(prof, "plus")
    expected = (1.0 / math.sin(prof.r_plus)) ** 2
    assert area_ratio_factor(pair, 0.0) == pytest.approx(expected, rel=1e-8)


def test_isoperimetric_symmetric_pair_equal_branches():
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0),
                         CauchyData(math.pi / 2, 1.0))
    a = isoperimetric_model_ratio(ComparisonPair(prof, "plus"))
    b = isoperimetric_model_ratio(ComparisonPair(prof, "minus"))
    assert a == pytest.approx(b, rel=1e-9)


def test_isoperimetric_coarea_agreement_hyperbolic():
    prof = solve_profile(SpaceForm(3, -1.0), serrin_fk(3, -1.0), CauchyData(1.5, 0.25))
    for sign in ("plus", "minus"):
        pair = ComparisonPair(prof, sign)
        assert isoperimetric_model_ratio(pair) == pytest.approx(
            isoperimetric_coarea_ratio(pair), abs=1e-7)


# -- distance bounds -------------------------------------------------------------------

def test_serrin_lower_bound_values():
    sf = SpaceForm(3, 0.0)
    assert serrin_lower_bound(sf, 0.0) == 0.0
    d = 0.8
    assert serrin_lower_bound(sf, d) == pytest.approx(d * d / 6.0, rel=1e-12)
    M = 1.3
    assert serrin_lower_bound(sf, math.sqrt(6 * M)) == pytest.approx(M, rel=1e-12)
    sf1 = SpaceForm(3, 1.0)
    with pytest.raises(DomainError):
        serrin_lower_bound(sf1, math.pi / 2 + 0.1)  # s_k' <= 0 there


def test_hotspot_bounds_flat_equality():
    n, M = 4, 0.7
    pair = flat_pair(n, M)
    hs = hotspot_bounds(pair, r_Omega=pair.profile.r_plus)
    assert hs.raw == pytest.approx(math.sqrt(2 * n * M), abs=1e-9)
    assert hs.normalized == pytest.approx(n, abs=1e-9)
    assert hs.distance_bound == pytest.approx(pair.profile.r_plus, abs=1e-9)
    assert not hs.strict


def test_hotspot_symmetric_sphere_branches():
    # symmetric profile: the two branch widths coincide; the plus branch is
    # guarded by the spherical-cap hypothesis (r_plus > r_bar/2 here)
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0),
                         CauchyData(math.pi / 2, 0.2))
    hm = hotspot_bounds(ComparisonPair(prof, "minus"))
    assert hm.raw == pytest.approx(prof.r_plus - math.pi / 2, abs=1e-9)
    assert hm.strict
    with pytest.raises(DomainError):
        hotspot_bounds(ComparisonPair(prof, "plus"))
    # a hemispherical pair passes the guard on the plus branch
    prof2 = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0),
                          CauchyData(0.3, 0.1))
    assert prof2.r_plus < math.pi / 2
    hp = hotspot_bounds(ComparisonPair(prof2, "plus"))
    assert hp.raw > 0 and not hp.strict


def test_hotspot_normalization_blows_up_as_M_vanishes():
    vals = []
    for M in (0.25, 0.05, 0.01):
        pair = flat_pair(3, M)
        vals.append(hotspot_bounds(pair).normalized / pair.profile.r_plus)
    assert vals[0] < vals[1] < vals[2]


def test_hotspot_guard_spherical_outer_radius():
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0), CauchyData(2.2, 1.0))
    assert prof.r_plus > math.pi / 2
    with pytest.raises(DomainError):
        hotspot_bounds(ComparisonPair(prof, "plus"))


# -- report ------------------------------------------------------------------------------

def test_bound_report_schema():
    from radcomp import bound_report
    prof = annulus_profile()
    rep = bound_report(ComparisonPair(prof, "plus"), r_Omega=1.0)
    for key in ("sign", "R", "M", "r_minus", "r_plus", "curvature_bounds",
                "iso_ratio", "hotspot_raw", "hotspot_normalized", "mu_min"):
        assert key in rep
    assert rep["sign"] == "plus"
    assert rep["curvature_bounds"]["maxset_H_bound"] is not None


def test_pair_requires_admissible_profile():
    prof = solve_profile(SpaceForm(3, 0.0), constant(1e-3), CauchyData(0.0, 1.0),
                         SolveOptions(r_max_cap=10.0), strict=False)
    with pytest.raises(DomainError):
        ComparisonPair(prof, "plus")
    good = flat_pair()
    with pytest.raises(DomainError):
        ComparisonPair(good.profile, "minus")  # centered pair has no inner branch