import math
import warnings

import numpy as np
import pytest

from radcomp import (CauchyData, IsoparametricFamily, SolveOptions, SpaceForm,
                     allen_cahn, constant, descent_check,
                     pole_residue, solve_iso_profile, solve_profile)
from radcomp.errors import DomainError

from test_ode import fd_residual


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
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        IsoparametricFamily(2, 1, 1, 7)  # bookkeeping off: n-1 != ell (m1+m2)/2
    assert rec and "bookkeeping" in str(rec[0].message)


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


def test_unbalanced_coefficient_pole_residues():
    fam = IsoparametricFamily(4, 2, 5, 15)
    assert pole_residue(fam.coefficient, 0.0, +1, scale=fam.s_max) \
        == pytest.approx(fam.m1, abs=1e-7)
    assert pole_residue(fam.coefficient, fam.s_max, -1, scale=fam.s_max) \
        == pytest.approx(fam.m2, abs=1e-7)


def test_degree_one_reduces_to_radial():
    fam = IsoparametricFamily(1, 2, 2, 3)
    f = constant(1.0)
    iso = solve_iso_profile(fam, f, 0.7, 0.5)
    prof = solve_profile(SpaceForm(3, 1.0), f, CauchyData(0.7, 0.5))
    assert iso.s_minus == pytest.approx(prof.r_minus, abs=1e-10)
    assert iso.s_plus == pytest.approx(prof.r_plus, abs=1e-10)
    for s in np.linspace(iso.s_minus, iso.s_plus, 31):
        assert abs(iso.z(s) - prof.u(s)) < 1e-8


def test_band_profile_and_admissibility():
    fam = IsoparametricFamily(2, 1, 1, 3)
    iso = solve_iso_profile(fam, constant(1.0), math.pi / 4, 0.1)
    assert iso.domain == "leaf-band"
    assert iso.R_param == pytest.approx(0.0, abs=1e-15)
    assert 0 < iso.s_minus < math.pi / 4 < iso.s_plus < math.pi / 2
    assert iso.admissible
    # derivative changes sign only at the core leaf
    ss = np.linspace(iso.s_minus + 1e-4, iso.s_plus - 1e-4, 101)
    dz = np.array([iso.dz(s) for s in ss])
    assert np.all(dz[ss < math.pi / 4 - 1e-3] > 0)
    assert np.all(dz[ss > math.pi / 4 + 1e-3] < 0)
    # boundary gradients are finite and nonzero (the extremal property)
    assert abs(iso.dz(iso.s_minus)) > 1e-3
    assert abs(iso.dz(iso.s_plus)) > 1e-3


def test_focal_cap_startups():
    fam = IsoparametricFamily(2, 1, 1, 3)
    f = constant(1.0)
    cap = solve_iso_profile(fam, f, 0.0, 0.1)
    assert cap.domain == "focal-cap-plus"
    assert cap.s_minus is None and cap.s_plus is not None
    # Taylor startup slope: Z'(eps) = -f(M) eps / (1 + b1), b1 = m1 = 1
    eps = 2e-6
    assert cap.dz(eps) == pytest.approx(-1.0 * eps / 2.0, rel=1e-4)

    far = solve_iso_profile(fam, f, fam.s_max, 0.1)
    assert far.domain == "focal-cap-minus"
    assert far.s_plus is None and far.s_minus is not None
    assert far.z(fam.s_max) == pytest.approx(0.1)


def test_reflection_symmetry_balanced_family():
    fam = IsoparametricFamily(2, 1, 1, 3)
    f = constant(1.0)
    S = 0.5
    a = solve_iso_profile(fam, f, S, 0.08)
    b = solve_iso_profile(fam, f, fam.s_max - S, 0.08)
    for s in np.linspace(a.s_minus, a.s_plus, 25):
        assert abs(a.z(s) - b.z(fam.s_max - s)) < 1e-8


def test_iso_ode_residual():
    fam = IsoparametricFamily(3, 1, 1, 4)
    iso = solve_iso_profile(fam, constant(1.0), 0.55, 0.2,
                            SolveOptions(rtol=1e-12, atol=1e-14))
    h = 7e-4
    S = 0.55
    # margins scale with the branch width: the stencil truncation involves
    # high derivatives of Z, which grow sharply toward the focal poles
    w = iso.s_plus - iso.s_minus
    rs = np.concatenate([np.linspace(iso.s_minus + 0.15 * w, S - 5 * h, 9),
                         np.linspace(S + 5 * h, iso.s_plus - 0.15 * w, 9)])
    worst = max(fd_residual(iso.profile, fam.coefficient, s, h) for s in rs)
    assert worst < 1e-8


def test_near_focal_zeros_allen_cahn():
    # vanishing forcing at zero: the zeros park exponentially close to the
    # focal radii; they must still be located and the profile stays admissible
    fam = IsoparametricFamily(3, 1, 1, 4)
    iso = solve_iso_profile(fam, allen_cahn(3.0), 0.55, 0.5)
    assert iso.admissible
    assert 0 < iso.s_minus < 1e-4
    assert fam.s_max - 1e-4 < iso.s_plus < fam.s_max


def test_unbalanced_band():
    fam = IsoparametricFamily(4, 2, 5, 15)  # genuinely asymmetric coefficient
    iso = solve_iso_profile(fam, constant(1.0), 0.4, 0.05)
    assert iso.admissible
    assert 0 < iso.s_minus < 0.4 < iso.s_plus < fam.s_max


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


def test_iso_csv_header():
    import json
    from radcomp.output import iso_csv_lines
    fam = IsoparametricFamily(2, 1, 1, 3)
    iso = solve_iso_profile(fam, constant(1.0), math.pi / 4, 0.1)
    lines = iso_csv_lines(iso, npoints=11)
    header = json.loads(lines[0][2:])
    for key in ("ell", "m1", "m2", "c", "n", "S", "M", "s_minus", "s_plus", "domain"):
        assert key in header
    assert lines[1] == "s,Z,dZ"
