import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from radcomp import (CauchyData, HelmholtzS3, Nonlinearity, SerrinExplicit, SolveOptions,
                     SpaceForm, affine, allen_cahn, constant, serrin_fk, serrin_flat_radius,
                     solve_profile, polynomial)
from radcomp import ode
from radcomp.closedform import _g_integrand
from radcomp.errors import (DomainError, NoZeroFound, NotAdmissible, QuadratureError,
                            SolveFailure, StepFailure)
from radcomp.ode import (_GROWTH, _WG, _XGK, _ZERO_FLOOR, _ZERO_TOL, SolveStats, _eval_piece,
                         _event_root, _leg_pieces, _qk21, _quartic, _run_leg,
                         bracketed_newton, gauss_kronrod)
from radcomp.spaceform import _SERIES_CUT

from solver_checks import (NO_DRIFT, Equation, assert_residue_is_the_limit, fd_residual,
                           solve_or_failure)

EPS = np.finfo(float).eps


def test_flat_centered_oracle():
    # U = M - r^2/(2n), r_plus = sqrt(2nM), dU_plus = -sqrt(2M/n)
    sf = SpaceForm(2, 0.0)
    prof = solve_profile(sf, constant(1.0), CauchyData(0.0, 0.5))
    assert prof.r_plus == pytest.approx(math.sqrt(2.0), abs=1e-10)
    assert prof.dU_plus == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-10)
    rs = np.linspace(0.0, prof.r_plus, 40)
    assert max(abs(prof.u(r) - (0.5 - r * r / 4.0)) for r in rs) < 1e-10
    assert prof.admissible and prof.failure is None
    assert prof.u(0.0) == 0.5 and prof.du(0.0) == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("M", [0.1, 1.0, 10.0])
def test_flat_boundary_gradient_identity(n, M):
    prof = solve_profile(SpaceForm(n, 0.0), constant(1.0), CauchyData(0.0, M))
    assert prof.dU_plus ** 2 == pytest.approx(2.0 * M / n, abs=1e-10)


def reflect_profile_check(sf, f, cd):
    """Max |U_R(r) - U_{r_bar - R}(r_bar - r)| over a shared grid (k > 0)."""
    p1 = solve_profile(sf, f, cd)
    p2 = solve_profile(sf, f, CauchyData(sf.r_bar - cd.R, cd.M))
    lo = max(p1.r_lo, sf.r_bar - p2.r_hi)
    hi = min(p1.r_hi, sf.r_bar - p2.r_lo)
    rs = np.linspace(lo, hi, 41)
    return float(np.max(np.abs(p1.u(rs) - p2.u(sf.r_bar - rs))))


@given(R=st.floats(0.3, 2.8), M=st.floats(0.2, 2.0))
@settings(max_examples=12, deadline=None)
def test_spherical_reflection_symmetry(R, M):
    sf = SpaceForm(3, 1.0)
    err = reflect_profile_check(sf, serrin_fk(3, 1.0), CauchyData(R, M))
    assert err < 1e-8


@given(n=st.integers(2, 4), k=st.floats(0.25, 4.0),
       family=st.sampled_from(["constant", "serrin_fk", "affine"]),
       t=st.floats(0.05, 0.95), m=st.floats(0.01, 1.0))
@example(n=3, k=1.0, family="serrin_fk", t=0.5, m=1.0)
@settings(max_examples=30, deadline=None)
def test_spherical_reflection_symmetry_across_families(n, k, family, t, m):
    """For k > 0 the profile of the core radius r_bar - R is the mirror image
    of that of R. M scales with the squared distance d from the core to the
    nearer pole, which keeps both zeros inside (0, r_bar)."""
    sf = SpaceForm(n, k)
    f = {"constant": constant(1.0), "serrin_fk": serrin_fk(n, k),
         "affine": affine(-0.25, 2.5)}[family]
    R = t * sf.r_bar
    M = m * min(R, sf.r_bar - R) ** 2
    err = reflect_profile_check(sf, f, CauchyData(R, M))
    assert err < 1e-8


@given(k=st.sampled_from([-1.0, 0.0, 1.0]), R=st.floats(0.5, 2.2),
       M=st.floats(0.05, 0.3))
@settings(max_examples=15, deadline=None)
def test_profile_structure_property(k, R, M):
    """Admissible profiles are positive between their zeros and strictly
    monotone away from the core, across curvature signs and Cauchy data."""
    sf = SpaceForm(3, k)
    prof = solve_profile(sf, serrin_fk(3, k), CauchyData(R, M))
    assert prof.admissible
    assert 0 < prof.r_minus < R < prof.r_plus
    rs = np.linspace(prof.r_minus + 1e-8, prof.r_plus - 1e-8, 120)
    assert np.all(prof.u(rs) > 0)
    inner = rs[rs < R - 1e-4]
    outer = rs[rs > R + 1e-4]
    assert np.all(prof.du(inner) > 0)
    assert np.all(prof.du(outer) < 0)
    assert prof.dU_minus > 0 > prof.dU_plus


def test_annulus_structure():
    sf = SpaceForm(3, 0.0)
    prof = solve_profile(sf, constant(1.0), CauchyData(2.0, 1.0))
    assert prof.r_minus is not None and 0 < prof.r_minus < 2.0 < prof.r_plus
    assert prof.dU_minus > 0 > prof.dU_plus
    # monotone away from the core, positive between the zeros
    rs = np.linspace(prof.r_minus + 1e-6, prof.r_plus - 1e-6, 200)
    us = prof.u(rs)
    assert np.all(us > 0)
    left = rs < 2.0 - 1e-3
    right = rs > 2.0 + 1e-3
    assert np.all(prof.du(rs[left]) > 0)
    assert np.all(prof.du(rs[right]) < 0)


def test_ode_residual_of_dense_output():
    """The dense profile satisfies the equation on an interior grid
    (stencils kept clear of the startup seam at the core)."""
    sf = SpaceForm(3, 1.0)
    opts = SolveOptions(rtol=1e-12, atol=1e-14)
    prof = solve_profile(sf, serrin_fk(3, 1.0), CauchyData(1.0, 1.0), opts)
    h = 1e-3
    rs = np.concatenate([np.linspace(prof.r_minus + 0.05, 1.0 - 5 * h, 12),
                         np.linspace(1.0 + 5 * h, prof.r_plus - 0.05, 12)])
    worst = max(fd_residual(prof, sf.coefficient, r, h) for r in rs)
    assert worst < 1e-8


def test_integral_identity_divergence_form():
    """U'(r) s_k^{n-1} + integral of s_k^{n-1} f(U) from R to r vanishes."""
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    prof = solve_profile(sf, f, CauchyData(1.5, 0.25))
    for r in (0.8, 1.2, 2.0, prof.r_plus):
        integral, _ = quad(lambda x: sf.sk(x) ** 2 * f(prof.u(x)), 1.5, r, limit=200)
        lhs = prof.du(r) * sf.sk(r) ** 2 + integral
        assert abs(lhs) < 1e-9


def test_event_convergence_under_tol_halving():
    sf = SpaceForm(3, -1.0)
    f = serrin_fk(3, -1.0)
    o1 = SolveOptions(rtol=1e-9, atol=1e-11)
    o2 = SolveOptions(rtol=5e-10, atol=5e-12)
    p1 = solve_profile(sf, f, CauchyData(1.0, 0.25), o1)
    p2 = solve_profile(sf, f, CauchyData(1.0, 0.25), o2)
    assert abs(p1.r_plus - p2.r_plus) < 10.0 * p1.r_plus_err
    assert abs(p1.r_minus - p2.r_minus) < 10.0 * p1.r_minus_err


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [-1.0, 0.0, 1.0])
def test_radial_residues_are_the_limits_at_both_poles(n, k):
    """A space form states n - 1 at r = 0 and at r_bar; (n - 1) r cot_k(r) =
    (n - 1) (1 - k r^2 / 3 + ...) tends to it at both poles."""
    sf = SpaceForm(n, k)
    assert sf.residues == (n - 1, n - 1) and sf.interval == (0.0, sf.r_bar)
    assert_residue_is_the_limit(sf.coefficient, 0.0, +1, sf.residues[0], n * abs(k))
    if k > 0:
        assert_residue_is_the_limit(sf.coefficient, sf.r_bar, -1, sf.residues[1], n * k)


def test_far_pole_startup_slope_is_exact():
    """Next to a far pole the startup patch is U = M - f(M) d^2 / (2 n) for the
    residue n - 1, d = r - r_bar: U' there is -f(M) d / n to rounding. A
    residue taken as a numeric limit of b at the pole of r_bar = 3.1e4 is off
    by 2.3e-8, which moves this slope by 6e-9."""
    n, M = 4, 0.5
    sf, f = SpaceForm(n, 1e-8), constant(1.0)
    prof = solve_profile(sf, f, CauchyData(sf.r_bar, M))
    assert prof.admissible and prof.r_hi == sf.r_bar
    patch_lo = prof._taylor[1]
    assert sf.r_bar - patch_lo == pytest.approx(ode._EPS_START, rel=1e-9)
    for r in np.linspace(patch_lo, sf.r_bar, 7)[1:-1].tolist():
        assert prof.du(r) == pytest.approx(-f(M) * (r - sf.r_bar) / n, rel=1e-13, abs=0.0)
        assert prof.u(r) == pytest.approx(M - f(M) * (r - sf.r_bar) ** 2 / (2 * n),
                                          rel=1e-15, abs=0.0)


def test_singular_start_richardson_consistency(monkeypatch):
    """Halving the startup offset from the pole moves the zero within tolerance."""
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    zeros = []
    for eps in (1e-5, 5e-6):
        monkeypatch.setattr(ode, "_EPS_START", eps)
        prof = solve_profile(sf, f, CauchyData(0.0, 1.0))
        assert prof._taylor[0][0] == 0.0 and prof._legs[0][0][0] == eps
        zeros.append(prof.r_plus)
    assert abs(zeros[0] - zeros[1]) < 1e-9


def test_singular_start_degenerate_forcing():
    """f(M) = 0: the start is flat, U = M and U' = 0, and the core is no
    strict maximum."""
    sf = SpaceForm(3, 0.0)
    opts = SolveOptions(r_max_cap=5.0)
    with pytest.raises(NotAdmissible) as exc:
        solve_profile(sf, constant(0.0), CauchyData(0.0, 1.0), opts)
    prof = exc.value.profile
    start = prof._legs[0][0]
    assert start[0] == ode._EPS_START and start[2] == 1.0 and start[3] == 0.0
    assert exc.type is NotAdmissible
    # the flat leg ends at the cap without a zero, and f(M) <= 0 outranks it
    assert prof.failure == "core is not a strict local maximum: f(M) = 0.0 <= 0"


def test_solve_generic_matches_radial_bitwise():
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    cd = CauchyData(1.0, 1.0)
    p1 = solve_profile(sf, f, cd)
    p2 = solve_profile(Equation(lambda r: 2.0 * sf.cotk(r), (0.0, sf.r_bar), (2.0, 2.0)), f, cd)
    assert p1.r_plus == p2.r_plus and p1.r_minus == p2.r_minus
    for r in np.linspace(p1.r_minus, p1.r_plus, 23):
        assert p1.u(r) == p2.u(r)


def test_solve_generic_no_drift():
    # b = 0: U = M - f (r - R)^2 / 2 exactly
    f = constant(1.0)
    prof = solve_profile(NO_DRIFT, f, CauchyData(2.0, 1.0))
    assert prof.r_plus == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-10)
    assert prof.r_minus == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)
    for r in np.linspace(prof.r_minus, prof.r_plus, 17):
        assert prof.u(r) == pytest.approx(1.0 - (r - 2.0) ** 2 / 2.0, abs=1e-11)


def test_solve_generic_refuses_a_residue_not_above_minus_one():
    """The start from a pole divides by 1 + residue."""
    for residues in ((-1.0, 0.0), (math.nan, 0.0)):
        with pytest.raises(DomainError, match="residue"):
            solve_profile(Equation(lambda r: -1.0 / r, (0.0, math.inf), residues),
                          constant(1.0), CauchyData(0.0, 1.0))


def test_no_zero_found_at_cap():
    sf = SpaceForm(3, 0.0)
    with pytest.raises(NoZeroFound) as exc:
        solve_profile(sf, constant(1e-3), CauchyData(0.0, 1.0),
                      SolveOptions(r_max_cap=10.0))
    prof = exc.value.profile
    assert prof is not None and not prof.admissible
    assert "cap" in prof.failure


def test_not_admissible_turning_profile():
    # f(x) = x - 0.5 becomes negative before the profile can reach zero
    sf = SpaceForm(3, 0.0)
    f = polynomial([-0.5, 1.0])
    with pytest.raises(NotAdmissible) as exc:
        solve_profile(sf, f, CauchyData(0.0, 1.0), SolveOptions(r_max_cap=50.0))
    assert "derivative vanished" in str(exc.value)
    # the turn is the root of U' on the last piece, where the leg stopped
    prof = exc.value.profile
    last = prof._legs[0][-1]
    turn = brentq(lambda r: _eval_piece(step_piece(last), r)[1], last[0], last[4],
                  xtol=4 * EPS, rtol=4 * EPS)
    assert abs(prof.r_hi - turn) <= 4 * EPS * (1.0 + abs(turn))
    assert abs(prof.du(prof.r_hi)) < 1e-12


def test_failure_precedence_over_the_legs():
    """The outward leg turns at U = 2.60 (NotAdmissible) and the inward leg
    ends without a zero (NoZeroFound): the solve raises NoZeroFound, which
    comes before NotAdmissible, with both diagnostics joined by "; "."""
    with pytest.raises(SolveFailure) as exc:
        solve_profile(SpaceForm(2, -1.0), polynomial([1.0, -3.0, 1.0]),
                      CauchyData(1.8572718701325317, 2.6632442509422094))
    prof = exc.value.profile
    assert exc.type is NoZeroFound and str(exc.value) == prof.failure
    assert prof.r_minus is None and prof.r_plus is None
    turn, no_zero = prof.failure.split("; profile turns; ")
    assert turn.startswith("derivative vanished before the zero at r=")
    assert float(turn.split("(U=")[1].rstrip(")")) == pytest.approx(2.603, abs=1e-3)
    assert no_zero == f"no sign change of U down to r={_ZERO_FLOOR}"


def test_admissible_is_read_from_the_failure():
    prof = solve_profile(SpaceForm(3, 0.0), constant(1.0), CauchyData(0.0, 1.0))
    assert prof.admissible and prof.failure is None
    with pytest.raises(AttributeError):
        prof.admissible = False
    prof.failure = "a diagnostic"
    assert not prof.admissible and not prof.summary()["admissible"]


def test_no_zero_found_at_singular_endpoint():
    # n = 2 on the sphere: U' ~ 2 f / (r - pi) near the far pole, so U falls
    # only logarithmically and a small forcing keeps U > 0 up to r_bar
    sf = SpaceForm(2, 1.0)
    with pytest.raises(NoZeroFound) as exc:
        solve_profile(sf, constant(1e-3), CauchyData(0.0, 1.0))
    prof = exc.value.profile
    assert "reached the singular endpoint" in str(exc.value)
    assert exc.type is NoZeroFound and prof.r_plus is None


def test_failed_solve_carries_diagnostic_profile():
    sf = SpaceForm(3, 0.0)
    prof = solve_or_failure(solve_profile, sf, constant(1e-3), CauchyData(0.0, 1.0),
                            SolveOptions(r_max_cap=10.0))
    assert not prof.admissible and prof.r_plus is None
    assert prof.u(5.0) > 0  # dense data still available


def test_spherical_near_pole_zero():
    # tiny positive forcing: the profile stays nearly flat and then dives to
    # zero just before the far pole; the zero must still be resolved
    sf = SpaceForm(3, 1.0)
    prof = solve_profile(sf, constant(1e-4), CauchyData(0.0, 1.0))
    assert prof.admissible
    assert math.pi - 1e-3 < prof.r_plus < math.pi
    assert prof.dU_plus < -1.0  # steep dive at the pole-adjacent zero


def test_cauchy_validation():
    with pytest.raises(DomainError):
        CauchyData(0.0, -1.0)
    with pytest.raises(DomainError):
        CauchyData(-0.5, 1.0)
    for R, M in ((math.nan, 1.0), (math.inf, 1.0), (0.5, math.inf), (0.5, math.nan)):
        with pytest.raises(DomainError):
            CauchyData(R, M)
    sf = SpaceForm(3, 1.0)
    with pytest.raises(DomainError):
        solve_profile(sf, constant(1.0), CauchyData(4.0, 1.0))  # beyond r_bar


def test_profile_csv_export():
    from radcomp.output import profile_csv_lines
    sf = SpaceForm(2, 0.0)
    prof = solve_profile(sf, constant(1.0), CauchyData(0.0, 0.5))
    lines = profile_csv_lines(prof, npoints=11)
    assert lines[0].startswith("# {")
    assert lines[1] == "r,U,dU"
    assert len(lines) == 13
    import json
    header = json.loads(lines[0][2:])
    for key in ("n", "k", "f", "R", "M", "r_minus", "r_plus",
                "dU_minus", "dU_plus", "admissible"):
        assert key in header


# -- integrator and dense output ---------------------------------------------------

def profile_with_both_legs():
    prof = solve_profile(SpaceForm(3, -1.0), serrin_fk(3, -1.0), CauchyData(1.5, 0.25))
    prof.u(1.5)  # the pieces are built on the first evaluation
    return prof


def test_dense_array_matches_pointwise_bitwise():
    prof = profile_with_both_legs()
    breaks = prof._lower[(prof._lower > prof.r_lo) & (prof._lower < prof.r_hi)]
    rs = np.concatenate([np.linspace(prof.r_lo, prof.r_hi, 301), breaks,
                         [prof.r_lo - 1e-13, prof.r_hi + 1e-13, 1.5]])
    for name in ("u", "du", "d2u"):
        fn = getattr(prof, name)
        vec = fn(rs)
        assert vec.shape == rs.shape
        assert np.array_equal(vec, [fn(float(r)) for r in rs]), name
    assert prof.u(rs[:300].reshape(3, 100)).shape == (3, 100)
    with pytest.raises(DomainError):
        prof.u(np.array([prof.r_lo, prof.r_hi + 1e-9]))
    with pytest.raises(DomainError):
        prof.du(np.array([math.nan]))


def test_dense_output_continuous_across_steps():
    """Neighbouring pieces agree at their shared end, the seams of the startup
    patch included, to 1e-12 relative."""
    prof = profile_with_both_legs()
    pieces = prof._pieces.tolist()
    assert len(pieces) > 20
    for left, right, r in zip(pieces, pieces[1:], prof._lower[1:].tolist()):
        for a, b in zip(_eval_piece(left, r), _eval_piece(right, r)):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_each_stage_node_is_evaluated_once():
    """Per attempted step, b at its 5 distinct nodes (stage 6 and the FSAL
    stage share t + h) and f at its 6 stages; plus one call of each at the
    start and one for the initial-step probe. The leg's own counts agree."""
    sf, f = SpaceForm(3, -1.0), serrin_fk(3, -1.0)
    calls = {"b": 0, "f": 0}

    def b(r):
        calls["b"] += 1
        return sf.coefficient(r)

    def g(u):
        calls["f"] += 1
        return f(u)

    eps, fM = 1e-6, f(0.25)
    leg = _run_leg(b, g, 1.5 + eps, 0.25 - fM * eps * eps / 2.0, -fM * eps, 50.0,
                   SolveOptions(), 0.25)
    assert leg.event is not None and len(leg.steps) > 10
    assert (calls["b"] - 2) / 5 == (calls["f"] - 2) / 6 >= len(leg.steps)
    assert calls["f"] == 6 * (len(leg.steps) + leg.rejected) + 2 \
        == SolveStats(1, len(leg.steps), leg.rejected).rhs_evals


def test_solve_stats_of_one_profile():
    """The integrator's work in one two-leg solve, summed over the legs: the
    counts are deterministic, so they are pinned."""
    prof = solve_profile(SpaceForm(3, 1.0), serrin_fk(3, 1.0), CauchyData(1.0, 1.0))
    assert prof.stats == SolveStats(legs=2, steps=87, rejected=3)
    assert prof.stats.rhs_evals == 6 * 90 + 2 * 2
    assert prof.stats.steps == sum(len(p) for p in prof._legs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        prof.stats.steps = 0


def test_dense_output_built_on_first_use_matches_immediate():
    """A profile first evaluated after other solves gives bitwise the values
    of one evaluated at once, and its zeros are where its pieces vanish."""
    sf, f, cd = SpaceForm(3, 1.0), serrin_fk(3, 1.0), CauchyData(1.0, 1.0)
    now = solve_profile(sf, f, cd)
    rs = np.linspace(now.r_lo, now.r_hi, 257)
    expected = [now.u(rs), now.du(rs), now.d2u(rs), now.u(1.25)]
    later = solve_profile(sf, f, cd)
    solve_profile(sf, f, CauchyData(0.5, 0.3))
    solve_profile(SpaceForm(2, -1.0), serrin_fk(2, -1.0), CauchyData(1.0, 0.2))
    assert later._pieces is None and later.r_lo == now.r_lo and later.r_hi == now.r_hi
    first = later.u(1.25)  # the scalar path builds the pieces here
    got = [later.u(rs), later.du(rs), later.d2u(rs), first]
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)
    # the event root came from the same polynomial as the built last piece
    assert later.du(later.r_plus) == later.dU_plus
    assert later.du(later.r_minus) == later.dU_minus


def step_piece(row):
    """The dense-output piece of one accepted-step row, as event location builds it."""
    return [*row[:4], *_quartic(*row[5:11]), *_quartic(*row[11:17])]


def test_step_quartic_is_bitwise_its_row_of_the_leg_pieces():
    """Event location builds one step's quartic from floats, the dense output
    a whole leg's from arrays; on random step rows they must agree bitwise."""
    rng = np.random.default_rng(7)
    for n in range(1, 41):
        for _ in range(10):
            steps = (rng.standard_normal((n, 17)) * rng.uniform(0.1, 10.0, (n, 1))).tolist()
            pieces = _leg_pieces(steps)[0].tolist()
            for s, piece in zip(steps, pieces):
                assert step_piece(s) == piece


# -- event location by the shared bracketed Newton -----------------------------------

@given(k=st.sampled_from([-1.0, 0.0, 1.0]), n=st.sampled_from([2, 2, 2, 3, 4]),
       family=st.sampled_from(["constant", "serrin_fk"]),
       R=st.floats(0.3, 2.5), depth=st.floats(1.0, 27.0))
@example(k=-1.0, n=2, family="serrin_fk", R=0.20583809620210564,
         depth=12.961337153722036)  # a benchmark input whose inner zero sits at 6.1e-13
@settings(max_examples=60, deadline=None)
def test_event_roots_match_brentq_on_the_step_quartic(k, n, family, R, depth):
    """Every zero that ends a leg is the root of U on the leg's last step
    quartic, as brentq finds it on the same piece. For n = 2 the pole at
    r = 0 is logarithmic: with M = R^2 (depth / 2 - 1/4) the flat profile of
    f = 1 has its inner zero near R exp(-depth), down to about 1e-12."""
    sf = SpaceForm(n, k)
    f = constant(1.0) if family == "constant" else serrin_fk(n, k)
    M = R * R * (depth / 2.0 - 0.25)
    assume(k >= 0 or family == "constant" or M < 1.0 / n)  # I_f = (0, 1/n)
    prof = solve_or_failure(solve_profile, sf, f, CauchyData(R, M))
    checked = 0
    for steps in prof._legs:
        last = steps[-1]
        r = prof.r_plus if last[1] > 0 else prof.r_minus
        if r is None:
            continue
        oracle = brentq(lambda x: _eval_piece(step_piece(last), x)[0], last[0], last[4],
                        xtol=4 * EPS, rtol=4 * EPS)
        assert abs(r - oracle) <= 4 * EPS * (1.0 + abs(oracle))
        checked += 1
    assume(checked)


def test_growth_event_root_on_a_step_quartic():
    """U rising through the growth cap stops a leg. In a solve U' vanishes
    first and fires a turn, so the growth root is checked on constructed
    step rows, ascending and descending."""
    rng = np.random.default_rng(11)
    cap = 1e6
    for _ in range(200):
        h = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 0.3)
        t = rng.uniform(0.1, 5.0)
        # U' of the size of U, as on a runaway leg: U - cap then resolves
        # its root to the last bits of r
        slope = cap * rng.uniform(0.5, 5.0)
        u = cap - 0.5 * slope * h * rng.uniform(0.05, 0.95) * np.sign(h)
        stages = slope * np.sign(h) * (1.0 + 0.05 * rng.standard_normal(6))
        row = [t, h, u, stages[0], t + h, *stages, *rng.standard_normal(6)]
        p = step_piece(row)
        lo, hi = sorted((row[0], row[4]))
        root = _event_root(p, _GROWTH, row[0], row[4], cap)
        oracle = brentq(lambda x: _eval_piece(p, x)[0] - cap, lo, hi,
                        xtol=4 * EPS, rtol=4 * EPS)
        assert lo <= root <= hi
        assert abs(root - oracle) <= 4 * EPS * (1.0 + abs(oracle))


def test_bracketed_newton_bisects_where_the_derivative_vanishes():
    """g = r^3 - 1 from r = 0, where g' = 0: a Newton step would divide by
    zero, so the first step bisects [0, 2] and lands on the root."""
    seen = []

    def gd(r):
        seen.append(r)
        return r ** 3 - 1.0, 3.0 * r * r

    assert bracketed_newton(gd, 0.0, 2.0, 0.0) == 1.0
    assert seen == [0.0, 1.0]


@pytest.mark.parametrize("a, b", [(-1.0, 1.0), (0.5, 2.0)])
def test_gauss_kronrod_rule_degrees(a, b):
    """The 21-point Kronrod rule integrates polynomials of degree <= 31
    exactly and the embedded 10-point Gauss rule those of degree <= 19; one
    degree more and each is off by far more than rounding. While the Gauss
    rule is exact, the error estimate of the rule is its rounding floor, 50
    eps times the integral of |f|. The polynomial is (x - c)^d with c inside
    [a, b], off its centre; `scale` is the integral of its absolute value."""
    c = 0.5 * (a + b) + 0.1
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    for d in range(34):
        def poly(x):
            return (x - c) ** d
        exact = ((b - c) ** (d + 1) - (a - c) ** (d + 1)) / (d + 1)
        scale = ((b - c) ** (d + 1) + (c - a) ** (d + 1)) / (d + 1)
        kronrod, err = _qk21(poly, a, b)
        gauss = half * sum(w * (poly(centre - half * x) + poly(centre + half * x))
                           for x, w in zip(_XGK[1::2], _WG))
        assert (abs(kronrod - exact) <= 1e-14 * scale) == (d <= 31), d
        assert (abs(gauss - exact) <= 1e-14 * scale) == (d <= 19), d
        if d <= 19:
            assert 40 * EPS * scale <= err <= 60 * EPS * scale, d


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k, a, b", [(-1.0, 0.2, 3.0), (0.0, 0.0, 2.5), (1.0, 0.3, 2.9)])
def test_gauss_kronrod_agrees_with_quadpack_on_volume_integrands(k, n, a, b):
    """s_k^(n-1) over a branch-like interval, at the volume ratio's targets:
    the two results differ by no more than the sum of their error estimates."""
    sf = SpaceForm(n, k)

    def f(r):
        return sf.sk(r) ** (n - 1)
    val, err = gauss_kronrod(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=300)
    ref, ref_err = quad(f, a, b, epsabs=1e-14, epsrel=1e-12, limit=300)
    assert abs(val - ref) <= err + ref_err
    assert err <= max(1e-14, 1e-12 * abs(val))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [-1, 1])
@pytest.mark.parametrize("r", [1e-4, 0.003, 0.05])
def test_gauss_kronrod_agrees_with_quadpack_on_the_log_substituted_oracle(k, n, r):
    """The log(phi) piece of closedform.g_regularized, at its targets."""
    def f(t):
        return _g_integrand(n, k, math.exp(t)) * math.exp(t)
    val, err = gauss_kronrod(f, math.log(r), math.log(0.1), epsabs=1e-12, epsrel=1e-12,
                             limit=800)
    ref, ref_err = quad(f, math.log(r), math.log(0.1), epsabs=1e-12, epsrel=1e-12, limit=800)
    assert abs(val - ref) <= err + ref_err


# antiderivatives as tuples of terms, so the rounding of the exact value can
# be bounded by that of its terms
CLOSED_FORMS = [
    ("r", lambda r: r, lambda r: (r * r / 2.0,)),
    ("r^2", lambda r: r * r, lambda r: (r ** 3 / 3.0,)),
    ("r^3", lambda r: r ** 3, lambda r: (r ** 4 / 4.0,)),
    ("sinh", math.sinh, lambda r: (math.cosh(r),)),
    ("sinh^2", lambda r: math.sinh(r) ** 2, lambda r: (math.sinh(2.0 * r) / 4.0, -r / 2.0)),
    ("sinh^3", lambda r: math.sinh(r) ** 3,
     lambda r: (math.cosh(r) ** 3 / 3.0, -math.cosh(r))),
    ("sqrt", math.sqrt, lambda r: (2.0 / 3.0 * r ** 1.5,)),  # singular derivative at 0
]


@given(form=st.sampled_from(CLOSED_FORMS), a=st.floats(0.0, 2.0),
       width=st.floats(0.01, 4.0), epsrel=st.sampled_from([1e-4, 1e-8, 1e-12]))
@settings(max_examples=60, deadline=None)
def test_gauss_kronrod_error_estimate_bounds_the_true_error(form, a, width, epsrel):
    _, f, terms = form
    b = a + width
    val, err = gauss_kronrod(f, a, b, epsabs=0.0, epsrel=epsrel, limit=200)
    exact = sum(terms(b)) - sum(terms(a))
    rounding = 4 * EPS * sum(abs(t) for t in terms(a) + terms(b))  # of `exact`
    assert abs(val - exact) <= err + rounding
    assert err <= epsrel * abs(val)


def test_gauss_kronrod_raises_when_the_target_is_missed():
    """A jump at 1/3 needs many bisections: with three intervals the estimate
    misses the target and the failure names both; with enough intervals the
    same integral is met. A nan integrand never meets a target."""
    def step(x):
        return 1.0 if x > 1.0 / 3.0 else 0.0
    with pytest.raises(QuadratureError, match=r"error estimate \S+ exceeds the target 1e-10"):
        gauss_kronrod(step, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=3)
    val, err = gauss_kronrod(step, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=200)
    assert abs(val - 2.0 / 3.0) <= err <= 1e-10
    with pytest.raises(QuadratureError):
        gauss_kronrod(lambda x: math.nan, 0.0, 1.0, epsabs=1e-10, epsrel=1e-10, limit=50)


def test_d2u_accepts_arrays():
    sf = SpaceForm(3, 1.0)
    prof = solve_profile(sf, serrin_fk(3, 1.0), CauchyData(1.0, 1.0))
    rs = np.linspace(prof.r_minus + 0.05, prof.r_plus - 0.05, 9)
    d2 = prof.d2u(rs)
    h = 2e-3
    fd = (-prof.du(rs + 2 * h) + 8 * prof.du(rs + h)
          - 8 * prof.du(rs - h) + prof.du(rs - 2 * h)) / (12 * h)
    assert np.max(np.abs(d2 - fd) / np.maximum(1.0, np.abs(d2))) < 1e-6


def test_descending_leg_from_the_far_pole_locates_its_zero():
    """A core at r_bar shoots inward only; by reflection its zero sits at
    r_bar - r_plus of the centered profile."""
    sf, f, M = SpaceForm(3, 1.0), serrin_fk(3, 1.0), 0.7
    centered = solve_profile(sf, f, CauchyData(0.0, M))
    far = solve_profile(sf, f, CauchyData(sf.r_bar, M))
    assert far.admissible and far.r_plus is None
    assert abs(far.r_minus - (sf.r_bar - centered.r_plus)) < 1e-9
    assert far.dU_minus == pytest.approx(-centered.dU_plus, rel=1e-8)
    assert abs(far.u(far.r_minus)) < 1e-12
    assert far.u(sf.r_bar) == M


@pytest.mark.parametrize("f", [
    Nonlinearity("cut", lambda x: 1.0 if x > 0.5 else math.nan,  # nan below U = 1/2
                 lambda x: 0.0 if x > 0.5 else math.nan),
    allen_cahn(2.5),  # complex powers of negative U in the stage that crosses zero
    Nonlinearity("nan", lambda x: math.nan, lambda x: math.nan),  # no finite start at all
], ids=["nan-below", "complex", "nan"])
def test_step_size_underflow_raises_step_failure(f):
    """Every trial step that reaches where f is not real is rejected, until
    the step size falls below the spacing of floats (at once when the
    starting step is not finite). The exception carries the failed profile."""
    with pytest.raises(StepFailure) as exc:
        solve_profile(SpaceForm(3, 1.0), f, CauchyData(0.9, 0.75))
    prof = exc.value.profile
    assert not prof.admissible and exc.type is StepFailure
    assert "spacing between floats" in prof.failure


def test_step_failure_of_one_leg_keeps_the_other_leg():
    """The far-pole draw of a tiny positive k: the outward leg underflows its
    step next to r_bar, where cot_k loses its accuracy. The inward leg still
    runs and finds its zero, and the raised StepFailure carries both."""
    sf = SpaceForm(2, 5.960464477539063e-08)
    with pytest.raises(StepFailure) as exc:
        solve_profile(sf, constant(1.0), CauchyData(sf.r_bar - 4.1e-3, 0.02))
    prof = exc.value.profile
    assert exc.type is StepFailure and not prof.admissible
    assert str(exc.value) == prof.failure and "spacing between floats" in prof.failure
    assert prof.r_plus is None and prof.r_minus == pytest.approx(12867.68, abs=1e-2)
    assert abs(prof.u(prof.r_minus)) < 1e-12


# -- zero-location error estimates against closed forms ------------------------------

def oracle_zero(u, r, lo, hi):
    """Root of a closed-form profile next to the numerical zero r, in the
    narrowest bracket of relative width that changes sign (zeros can sit
    within 1e-12 of a pole at lo = 0)."""
    for w in (1e-9, 1e-7, 1e-5, 1e-3, 1e-1):
        a, b = max(lo, r - w * r), min(hi, r + w * r)
        if u(a) * u(b) < 0:
            return brentq(u, a, b, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    raise AssertionError(f"closed form has no sign change next to r = {r}")


def assert_zero_errors_bounded(prof, u, lo, hi):
    zeros = [(prof.r_plus, prof.r_plus_err), (prof.r_minus, prof.r_minus_err)]
    for r, err in zeros:
        if r is not None:
            assert abs(oracle_zero(u, r, lo, hi) - r) <= err


@given(M=st.floats(0.05, 3.0), gap=st.floats(0.05, 3.0))
@settings(max_examples=20, deadline=None)
def test_zero_error_estimate_flat_quadratic(M, gap):
    # b = 0, f = 1: U = M - (r - R)^2 / 2 with zeros R -+ sqrt(2 M)
    R = math.sqrt(2.0 * M) + gap
    prof = solve_profile(NO_DRIFT, constant(1.0), CauchyData(R, M))
    assert prof.r_minus is not None
    assert_zero_errors_bounded(prof, lambda r: M - (r - R) ** 2 / 2.0, 0.0, math.inf)


@given(n=st.integers(2, 5), M=st.floats(0.05, 5.0))
@settings(max_examples=20, deadline=None)
def test_zero_error_estimate_flat_ball(n, M):
    prof = solve_profile(SpaceForm(n, 0.0), constant(1.0), CauchyData(0.0, M))
    assert abs(prof.r_plus - serrin_flat_radius(n, M)) <= prof.r_plus_err


@given(lam=st.one_of(st.floats(-0.9, -0.05), st.floats(0.05, 3.0)),
       beta=st.floats(0.5, 3.0), R=st.floats(0.2, 2.9), M=st.floats(0.1, 2.0))
@example(lam=2.0597779930324918, beta=2.1223337195283114, R=1.249334055644908,
         M=1.3494707798717325)  # the estimate (rtol M + atol + |U|) / |U'| was 2.1x short
@settings(max_examples=20, deadline=None)
def test_zero_error_estimate_helmholtz_s3(lam, beta, R, M):
    assume(lam * M + beta > 0.05)
    prof = solve_or_failure(solve_profile, SpaceForm(3, 1.0), affine(lam, beta),
                            CauchyData(R, M))
    assume(prof.admissible)
    assert_zero_errors_bounded(prof, HelmholtzS3(lam, beta, R, M).u, 0.0,
                               math.nextafter(math.pi, 0.0))


@given(k=st.sampled_from([-1.0, 1.0]), n=st.integers(2, 4),
       x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
@example(k=-1.0, n=4, x=0.09144435088992021, y=1.0)  # (rtol M + atol + |U|) / |U'| was 1.6x short
@settings(max_examples=20, deadline=None)
def test_zero_error_estimate_serrin_explicit(k, n, x, y):
    sf = SpaceForm(n, k)
    if k > 0:
        R, M = 0.2 + 2.7 * x, 0.1 + 1.9 * y
    else:
        # M inside I_f = (0, 1/n); R <= 3 because the oracle's quadrature error
        # (1e-12 in its regularized integral) grows with cosh(r) and reaches
        # the size of the estimate near R = 4
        R, M = 0.3 + 2.7 * x, (0.05 + 0.9 * y) / n
    prof = solve_or_failure(solve_profile, sf, serrin_fk(n, k), CauchyData(R, M))
    assume(prof.admissible)  # for n = 2 and k < 0, large M and small R have no inner zero
    assert_zero_errors_bounded(prof, SerrinExplicit(sf, R, M).u, 0.0,
                               math.nextafter(sf.r_bar, 0.0))


# -- the whole domain: both curvature signs, k = 0, the poles and the series cut ------

def _core_radius(sf, where, t):
    """A core radius next to the pole at 0 (from 100 _ZERO_FLOOR, the closest
    the solver resolves, or on the pole itself at t = 0), next to r_bar for
    k > 0 (far out in the tail otherwise), at the series cutover
    |k| R^2 = _SERIES_CUT, or in between."""
    k = sf.k
    if where == "pole":
        return 100.0 * _ZERO_FLOOR * 10.0 ** (10.0 * t) if t > 0 else 0.0
    if where == "far":
        return sf.r_bar * (1.0 - 10.0 ** (-12.0 + 11.0 * t)) if k > 0 else 5.0 + 45.0 * t
    if where == "cut" and k != 0:
        return math.sqrt(_SERIES_CUT / abs(k)) * (1.0 + 1e-3 * (t - 0.5))
    return t * min(sf.r_bar, 5.0)


@given(k=st.one_of(st.sampled_from([-1.0, 0.0, 1.0]),
                   st.builds(lambda a, sign: sign * a, st.floats(1e-9, 1e-7),
                             st.sampled_from([-1.0, 1.0]))),
       family=st.sampled_from(["constant", "serrin_fk", "affine"]),
       n=st.integers(2, 4), where=st.sampled_from(["pole", "far", "cut", "middle"]),
       t=st.floats(0.0, 1.0, exclude_max=True), u=st.floats(0.0, 1.0))
@example(k=1.0, n=4, family="constant", where="far", t=0.0, u=0.5)
@example(k=-1.0, n=2, family="serrin_fk", where="pole", t=0.0, u=1.0)
@example(k=-1.0, n=2, family="constant", where="middle", t=1e-13, u=0.0)  # refused: R = 5e-13
# cot_k loses its accuracy next to a large r_bar: the leg towards it underflows its step
@example(k=5.960464477539063e-08, n=2, family="constant", where="far", t=0.5, u=0.0)
@settings(max_examples=150, deadline=None)
def test_every_solve_is_admissible_or_diagnosed(k, family, n, where, t, u):
    """A solve gives either an admissible profile, whose zeros bracket the
    core and pass the solver's slope-scaled zero test, or raises one of the
    three failure classes, carrying the failed profile and its explanation.
    A core radius too close to the pole at 0 to resolve, but not on it, is
    refused before any solve."""
    sf = SpaceForm(n, k)
    f = {"constant": constant(1.0), "serrin_fk": serrin_fk(n, k),
         "affine": affine(-0.25, 2.5)}[family]
    R = _core_radius(sf, where, t)
    M = (0.02 + 0.96 * u) * min(f.sup_if, 3.0)  # inside I_f
    if _ZERO_FLOOR < R < 100.0 * _ZERO_FLOOR:
        with pytest.raises(DomainError, match="too close to the pole"):
            solve_profile(sf, f, CauchyData(R, M))
        return
    try:
        prof = solve_profile(sf, f, CauchyData(R, M))
    except SolveFailure as e:
        prof = e.profile
        assert type(e) in (StepFailure, NoZeroFound, NotAdmissible)
        assert not prof.admissible and prof.failure and str(e) == prof.failure
        return
    assert prof.failure is None and prof.admissible
    assert prof.r_minus is not None or prof.r_plus is not None
    for r, du in ((prof.r_minus, prof.dU_minus), (prof.r_plus, prof.dU_plus)):
        if r is not None:
            assert abs(prof.u(r)) <= _ZERO_TOL * max(1.0, M) * (1.0 + abs(du))
    assert prof.r_minus is None or prof.r_minus < R
    assert prof.r_plus is None or R < prof.r_plus
