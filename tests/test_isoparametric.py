import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from radcomp import (CauchyData, IsoparametricFamily, SolveOptions, SpaceForm,
                     allen_cahn, constant, descent_check, solve_iso_profile,
                     solve_profile, tau_scan)
from radcomp.errors import DomainError
from radcomp.output import profile_csv_lines, tau_csv_lines

from solver_checks import assert_residue_is_the_limit, fd_residual


def test_family_validation():
    fam = IsoparametricFamily(4, 2, 2, 9)
    assert fam.c == 0.0 and fam.s_max == pytest.approx(math.pi / 4)
    assert IsoparametricFamily(2, 1, 3, 5).c == pytest.approx(4.0)
    with pytest.raises(DomainError):
        IsoparametricFamily(5, 1, 1, 6)
    with pytest.raises(DomainError):
        IsoparametricFamily(3, 1, 2, 4)  # odd degree needs equal multiplicities
    with pytest.raises(DomainError):
        IsoparametricFamily(2, 0, 1, 2)
    with pytest.raises(DomainError, match="bookkeeping"):
        IsoparametricFamily(2, 1, 1, 7)  # Muenzner: n-1 = ell (m1+m2)/2
    with pytest.raises(DomainError, match="multiplicities in"):
        IsoparametricFamily(3, 3, 3, 10)  # Cartan: m in {1, 2, 4, 8}
    with pytest.raises(DomainError, match="multiplicities in"):
        IsoparametricFamily(6, 4, 4, 25)  # Abresch: m in {1, 2}


def test_coefficient_values():
    # degree 1: exactly the radial coefficient with k = 1
    fam = IsoparametricFamily(1, 2, 2, 3)
    sf = SpaceForm(3, 1.0)
    for s in (0.3, 1.0, 2.5):
        assert fam.coefficient(s) == pytest.approx(2.0 * sf.cotk(s), rel=1e-14)
    # degree 2 with equal multiplicities: (n-1) cot(2s)
    fam2 = IsoparametricFamily(2, 1, 1, 3)
    for s in (0.2, 0.7, 1.4):
        assert fam2.coefficient(s) == pytest.approx(
            2.0 * math.cos(2 * s) / math.sin(2 * s), rel=1e-13)
    # degree 3 with equal multiplicities: 3 cot(3s)
    fam3 = IsoparametricFamily(3, 1, 1, 4)
    assert fam3.c == 0.0
    for s in (0.1, 0.5, 1.0):
        assert fam3.coefficient(s) == pytest.approx(
            3.0 * math.cos(3 * s) / math.sin(3 * s), rel=1e-13)
    with pytest.raises(DomainError):
        fam2.coefficient(fam2.s_max)


@pytest.mark.parametrize("ell, m1, m2, n", [(1, 2, 2, 3), (2, 1, 1, 3), (2, 1, 3, 5),
                                             (3, 1, 1, 4), (4, 1, 2, 7), (4, 2, 5, 15),
                                             (6, 1, 1, 7)])
def test_focal_residues_are_the_limits_at_both_poles(ell, m1, m2, n):
    """A family states m1 at s = 0 and m2 at s = pi/ell, the limits of
    (s - pole) times the coefficient; (4, 2, 5, 15) tells the two apart."""
    fam = IsoparametricFamily(ell, m1, m2, n)
    assert fam.residues == (m1, m2) and fam.interval == (0.0, fam.s_max)
    curvature = ell * ell * n
    assert_residue_is_the_limit(fam.coefficient, 0.0, +1, fam.residues[0], curvature)
    assert_residue_is_the_limit(fam.coefficient, fam.s_max, -1, fam.residues[1], curvature)


@given(m=st.integers(1, 3), t=st.floats(0.05, 0.95), q=st.floats(0.01, 1.0))
@example(m=2, t=0.7 / math.pi, q=0.5 / 0.7 ** 2)
@settings(max_examples=25, deadline=None)
def test_degree_one_reduces_to_radial(m, t, q):
    """Degree 1 with multiplicities m is the radial problem on the round
    sphere of dimension m + 1. M scales with the squared distance from S to
    the nearer focal pole, which keeps both zeros inside (0, pi)."""
    fam = IsoparametricFamily(1, m, m, m + 1)
    f = constant(1.0)
    S = t * math.pi
    M = q * min(S, math.pi - S) ** 2
    iso = solve_profile(fam, f, CauchyData(S, M))
    prof = solve_profile(SpaceForm(m + 1, 1.0), f, CauchyData(S, M))
    assert iso.r_minus == pytest.approx(prof.r_minus, abs=1e-10)
    assert iso.r_plus == pytest.approx(prof.r_plus, abs=1e-10)
    for s in np.linspace(iso.r_minus, iso.r_plus, 31):
        assert abs(iso.u(s) - prof.u(s)) < 1e-8


def test_band_profile_and_admissibility():
    fam = IsoparametricFamily(2, 1, 1, 3)
    iso = solve_profile(fam, constant(1.0), CauchyData(math.pi / 4, 0.1))
    assert 0 < iso.r_minus < math.pi / 4 < iso.r_plus < math.pi / 2
    assert iso.admissible
    # derivative changes sign only at the core leaf
    ss = np.linspace(iso.r_minus + 1e-4, iso.r_plus - 1e-4, 101)
    dz = np.array([iso.du(s) for s in ss])
    assert np.all(dz[ss < math.pi / 4 - 1e-3] > 0)
    assert np.all(dz[ss > math.pi / 4 + 1e-3] < 0)
    # boundary gradients are finite and nonzero (the extremal property)
    assert abs(iso.du(iso.r_minus)) > 1e-3
    assert abs(iso.du(iso.r_plus)) > 1e-3


def test_focal_cap_startups():
    fam = IsoparametricFamily(2, 1, 1, 3)
    f = constant(1.0)
    cap = solve_profile(fam, f, CauchyData(0.0, 0.1))
    assert cap.r_minus is None and cap.r_plus is not None  # a focal cap
    # Taylor startup slope: Z'(eps) = -f(M) eps / (1 + b1), b1 = m1 = 1
    eps = 2e-6
    assert cap.du(eps) == pytest.approx(-1.0 * eps / 2.0, rel=1e-4)

    far = solve_profile(fam, f, CauchyData(fam.s_max, 0.1))
    assert far.r_plus is None and far.r_minus is not None  # a focal cap
    assert far.u(fam.s_max) == pytest.approx(0.1)


def test_reflection_symmetry_balanced_family():
    fam = IsoparametricFamily(2, 1, 1, 3)
    f = constant(1.0)
    S = 0.5
    a = solve_profile(fam, f, CauchyData(S, 0.08))
    b = solve_profile(fam, f, CauchyData(fam.s_max - S, 0.08))
    for s in np.linspace(a.r_minus, a.r_plus, 25):
        assert abs(a.u(s) - b.u(fam.s_max - s)) < 1e-8


def test_iso_ode_residual():
    fam = IsoparametricFamily(3, 1, 1, 4)
    iso = solve_profile(fam, constant(1.0), CauchyData(0.55, 0.2),
                        SolveOptions(rtol=1e-12, atol=1e-14))
    h = 7e-4
    S = 0.55
    # margins scale with the branch width: the stencil truncation involves
    # high derivatives of Z, which grow sharply toward the focal poles
    w = iso.r_plus - iso.r_minus
    rs = np.concatenate([np.linspace(iso.r_minus + 0.15 * w, S - 5 * h, 9),
                         np.linspace(S + 5 * h, iso.r_plus - 0.15 * w, 9)])
    worst = max(fd_residual(iso, fam.coefficient, s, h) for s in rs)
    assert worst < 1e-8


def test_near_focal_zeros_allen_cahn():
    # vanishing forcing at zero: the zeros park exponentially close to the
    # focal radii; they must still be located and the profile stays admissible
    fam = IsoparametricFamily(3, 1, 1, 4)
    iso = solve_profile(fam, allen_cahn(3.0), CauchyData(0.55, 0.5))
    assert iso.admissible
    assert 0 < iso.r_minus < 1e-4
    assert fam.s_max - 1e-4 < iso.r_plus < fam.s_max


def test_unbalanced_band():
    fam = IsoparametricFamily(4, 2, 5, 15)  # genuinely asymmetric coefficient
    iso = solve_profile(fam, constant(1.0), CauchyData(0.4, 0.05))
    assert iso.admissible
    assert 0 < iso.r_minus < 0.4 < iso.r_plus < fam.s_max


def test_descent_table():
    table = {
        1: IsoparametricFamily(1, 2, 2, 3),
        2: IsoparametricFamily(2, 1, 1, 3),
        3: IsoparametricFamily(3, 1, 1, 4),
        4: IsoparametricFamily(4, 1, 1, 5),
        6: IsoparametricFamily(6, 1, 1, 7),
    }
    for ell, fam in table.items():
        assert descent_check(fam, "antipodal").ok == (ell % 2 == 0)
    hopf = descent_check(table[4], "hopf_circle")
    assert hopf.ok and hopf.conditional and "invariant" in hopf.note
    cyc = descent_check(table[4], "cyclic_p")
    assert cyc.ok and cyc.conditional
    even_dim = IsoparametricFamily(2, 1, 2, 4)  # wrong parity for a circle action
    assert not descent_check(even_dim, "hopf_circle").ok
    with pytest.raises(DomainError):
        descent_check(table[2], "icosahedral")


def test_solve_iso_profile_is_solve_profile():
    fam = IsoparametricFamily(2, 1, 2, 4)
    f = constant(1.0)
    iso = solve_iso_profile(fam, f, 0.6, 0.05)
    prof = solve_profile(fam, f, CauchyData(0.6, 0.05))
    assert iso.summary() == prof.summary()


def test_iso_csv_header():
    """A family's profile goes through the radial writer: the header is the
    profile summary with the family's data in place of (n, k)."""
    fam = IsoparametricFamily(2, 1, 1, 3)
    prof = solve_profile(fam, constant(1.0), CauchyData(math.pi / 4, 0.1))
    lines = profile_csv_lines(prof, npoints=11)
    header = json.loads(lines[0][2:])
    assert set(header) == {"ell", "m1", "m2", "c", "n", "R", "M", "r_minus", "r_plus",
                           "dU_minus", "dU_plus", "admissible", "f"}
    assert {key: header[key] for key in fam.describe()} == fam.describe()
    assert (header["R"], header["r_minus"], header["r_plus"]) == \
        (math.pi / 4, prof.r_minus, prof.r_plus)
    assert (header["dU_minus"], header["dU_plus"]) == (prof.dU_minus, prof.dU_plus)
    assert lines[1] == "r,U,dU"
    assert lines[2].split(",")[0] == "%.17g" % prof.r_minus


def test_family_tau_csv_header():
    """A family's tau table is written with the family's data in its header,
    and no curvature k."""
    fam = IsoparametricFamily(2, 1, 2, 4)
    table = tau_scan(fam, constant(1.0), 0.05, [0.3, 0.6])
    lines = tau_csv_lines(table)
    header = json.loads(lines[0][2:])
    assert {key: header[key] for key in ("ell", "m1", "m2", "c", "n")} == \
        {"ell": 2, "m1": 1, "m2": 2, "c": 2.0, "n": 4}
    assert "k" not in header
    assert lines[1] == "R,tau_plus,tau_minus,r_minus,r_plus"
    assert len(lines) == 4
