import math

import numpy as np
import pytest
from scipy.optimize import brentq

from radcomp import (CauchyData, SerrinExplicit, HelmholtzS3, SolveOptions,
                     SpaceForm, asymptote_parameter_from_cauchy_max,
                     asymptotic_gap, helmholtz_s3, serrin_explicit,
                     serrin_flat_centered, serrin_flat_radius, serrin_fk,
                     solve_profile)
from radcomp.errors import DomainError


# -- flat profile ---------------------------------------------------------------

def test_flat_centered_values():
    assert serrin_flat_centered(2, 0.5, 0.0) == (0.5, 0.0)
    u, du = serrin_flat_centered(2, 0.5, math.sqrt(2.0))
    assert u == pytest.approx(0.0, abs=1e-15)
    assert du == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-15)
    u, du = serrin_flat_centered(3, 1.0, 1.0)
    assert u == pytest.approx(1.0 - 1.0 / 6.0)
    assert du == pytest.approx(-1.0 / 3.0)
    assert serrin_flat_radius(3, 1.0) == pytest.approx(math.sqrt(6.0))
    with pytest.raises(DomainError):
        serrin_flat_centered(2, 0.5, 2.0)


# -- explicit affine profile -------------------------------------------------------

@pytest.mark.parametrize("k", [1, -1])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_serrin_explicit_residual(n, k):
    sol = SerrinExplicit(SpaceForm(n, float(k)), 1.0, 1.0)
    rs = np.linspace(0.3, 2.8 if k == 1 else 3.5, 9)
    assert max(sol.residual(r) for r in rs) < 1e-8
    assert sol.u(1.0) == pytest.approx(1.0, abs=1e-12)
    assert sol.du(1.0) == pytest.approx(0.0, abs=1e-12)


def test_serrin_explicit_agrees_with_integrator():
    # not admissible (f(M) < 0), but still the unique Cauchy solution
    sf = SpaceForm(2, -1.0)
    sol = SerrinExplicit(sf, 1.0, 1.0)
    prof = solve_profile(sf, serrin_fk(2, -1.0), CauchyData(1.0, 1.0),
                         SolveOptions(rtol=1e-12, atol=1e-14, r_max_cap=2.5),
                         strict=False)
    rs = np.linspace(0.05, 3.0, 25)
    err = max(abs(sol.u(r) - prof.u(r)) for r in rs if prof.r_lo <= r <= prof.r_hi)
    assert err < 1e-7
    vec = serrin_explicit(sf, 1.0, 1.0, rs[:5])
    assert np.allclose(vec, [sol.u(r) for r in rs[:5]], atol=1e-14)


def test_serrin_explicit_crosses_equator_smoothly():
    sol = SerrinExplicit(SpaceForm(3, 1.0), 0.6, 1.0)
    eps = 1e-5
    a, b, c = (sol.u(math.pi / 2 - eps), sol.u(math.pi / 2), sol.u(math.pi / 2 + eps))
    assert abs((a + c) / 2 - b) < 1e-8  # no kink where the cosine solution vanishes


def test_g_term_growth_rate():
    """The derivative of the regularized term grows like r^(1-n) toward the
    center: |(c_k G)'(r)| * r^(n-1) approaches 1."""
    for k in (1, -1):
        for n in (2, 3, 4):
            sol = SerrinExplicit(SpaceForm(n, float(k)), 1.0, 1.0)
            vals = []
            for r in (1e-2, 1e-3):
                vals.append(abs(sol._dh2(r)) * r ** (n - 1))
            assert vals[-1] == pytest.approx(1.0, rel=5e-3), (k, n)


def test_inner_gradient_blowup_of_explicit_solution():
    """|V'(r_minus)| grows monotonically as the core radius shrinks."""
    sf = SpaceForm(3, 1.0)
    mags = []
    for R in (0.1, 0.01, 0.001):
        sol = SerrinExplicit(sf, R, 1.0)
        r_minus = brentq(sol.u, 1e-12, R * (1 - 1e-9), xtol=1e-16, rtol=8.9e-16)
        mags.append(abs(sol.du(r_minus)))
    assert mags[0] < mags[1] < mags[2]


def test_serrin_explicit_rejects_other_curvatures():
    with pytest.raises(DomainError):
        SerrinExplicit(SpaceForm(3, 0.5), 1.0, 1.0)
    with pytest.raises(DomainError):
        SerrinExplicit(SpaceForm(3, 1.0), 0.0, 1.0)  # core at the pole


# -- affine Helmholtz on the 3-sphere ----------------------------------------------

@pytest.mark.parametrize("lam,beta,R", [(-0.25, 2.5, 0.8), (1.0, 2.9, math.pi / 2)])
def test_helmholtz_residual_and_cauchy(lam, beta, R):
    sol = HelmholtzS3(lam, beta, R, 1.0)
    rs = np.linspace(0.3, 2.8, 11)
    assert max(sol.residual(r) for r in rs) < 1e-8
    assert sol.u(R) == pytest.approx(1.0, abs=1e-10)
    assert sol.du(R) == pytest.approx(0.0, abs=1e-10)


def test_helmholtz_centered_value():
    # the formula stays finite at R = 0 and reproduces the maximum as r -> 0
    sol = HelmholtzS3(-0.25, 2.5, 0.0, 1.0)
    assert sol.u(1e-8) == pytest.approx(1.0, abs=1e-8)


def test_helmholtz_matches_integrator():
    from radcomp import affine
    sf = SpaceForm(3, 1.0)
    lam, beta, R = -0.25, 2.5, 0.8
    sol = HelmholtzS3(lam, beta, R, 1.0)
    prof = solve_profile(sf, affine(lam, beta), CauchyData(R, 1.0))
    rs = np.linspace(prof.r_minus, prof.r_plus, 31)
    assert max(abs(sol.u(r) - prof.u(r)) for r in rs) < 1e-6
    assert helmholtz_s3(lam, beta, R, 1.0, rs[3]) == pytest.approx(sol.u(rs[3]))


def test_helmholtz_parameter_guards():
    with pytest.raises(DomainError):
        HelmholtzS3(0.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        HelmholtzS3(-1.5, 1.0, 0.5, 1.0)
    sol = HelmholtzS3(1.0, 1.0, 0.5, 1.0)
    with pytest.raises(DomainError):
        sol.u(0.0)


# -- asymptotic limit profile --------------------------------------------------------

def test_asymptotic_profile_roots_and_value():
    for n in (2, 3, 4):
        for M in (1.0, math.cosh(3.0) - 1.0, 9.0):
            ap = asymptotic_gap(n, M)
            assert ap.s_minus < 0 < ap.s_plus
            assert abs(ap.value(ap.s_minus)) < 1e-12
            assert abs(ap.value(ap.s_plus)) < 1e-12
            assert ap.value(0.0) == pytest.approx(1.0 - 1.0 / (M + 1.0), abs=1e-14)
            # the outer derivative limit is strictly smaller than the inner one
            assert ap.limit_plus < ap.limit_minus


def test_asymptotic_roots_to_the_last_bits():
    """s_plus and s_minus are roots of V = 1 - a (e^(-ns) + n e^s) to the
    resolution of its floating evaluation, |V(s)| <= 4 ulp(1) + 2 ulp(s) |V'(s)|,
    and agree to 1e-14 with brentq on the same V written without cancellation,
    over n and M across twelve decades."""
    for n in range(2, 9):
        for M in np.geomspace(1e-6, 1e6, 25):
            M = float(M)
            ap = asymptotic_gap(n, M)
            a = 1.0 / ((n + 1) * (M + 1))

            def V(s):
                return 1.0 - a * (math.exp(-n * s) + n * math.exp(s))

            def V_expm1(s):
                return a * ((n + 1) * M - math.expm1(-n * s) - n * math.expm1(s))

            for s, lo, hi in ((ap.s_plus, 0.0, 2.0 * ap.s_plus + 1.0),
                              (ap.s_minus, 2.0 * ap.s_minus - 1.0, 0.0)):
                dV = n * a * (math.exp(-n * s) - math.exp(s))
                assert abs(V(s)) <= 4 * math.ulp(1.0) + 2 * math.ulp(s) * abs(dV)
                assert abs(s - brentq(V_expm1, lo, hi, xtol=1e-15, rtol=8.9e-16)) <= 1e-14


def test_asymptote_parameter_mappings():
    m_tilde = math.cosh(3.0) - 1.0
    ap = asymptotic_gap(3, m_tilde)
    m_ode = ap.cauchy_max()
    assert asymptote_parameter_from_cauchy_max(3, m_ode) == pytest.approx(m_tilde, rel=1e-12)
    # centered profile with that maximum hits zero exactly at radius 3
    sf = SpaceForm(3, -1.0)
    prof = solve_profile(sf, serrin_fk(3, -1.0), CauchyData(0.0, m_ode))
    assert prof.r_plus == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(DomainError):
        asymptote_parameter_from_cauchy_max(3, 0.5)  # outside (0, 1/n)


def test_asymptotic_limits_match_large_core_solve():
    n = 3
    m_tilde = math.cosh(3.0) - 1.0
    ap = asymptotic_gap(n, m_tilde)
    lp, lm = ap.profile_derivative_limits()
    sf = SpaceForm(n, -1.0)
    prof = solve_profile(sf, serrin_fk(n, -1.0), CauchyData(16.0, ap.cauchy_max()))
    assert abs(prof.dU_plus) == pytest.approx(lp, rel=1e-6)
    assert prof.dU_minus == pytest.approx(lm, rel=1e-6)
