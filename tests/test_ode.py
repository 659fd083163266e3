import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from radcomp import (CauchyData, HelmholtzS3, Nonlinearity, SerrinExplicit, SolveOptions,
                     SpaceForm, affine, allen_cahn, constant, serrin_fk, serrin_flat_radius,
                     solve_generic, solve_profile, pole_residue,
                     polynomial)
from radcomp.errors import DomainError, NoZeroFound, NotAdmissible, StepFailure
from radcomp.ode import (_GROWTH, FailureCode, _eval_piece, _event_root, _leg_pieces,
                         _pole_start, _quartic, _regular_start, _run_leg, bracketed_newton)

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


def fd_residual(prof, b, r, h=2e-3):
    """|U'' + b U' + f(U)| with U'' from a five-point stencil on the dense
    derivative channel (differencing the value channel would amplify the
    interpolant's value error by 1/h^2)."""
    d2 = (-prof.du(r + 2 * h) + 8 * prof.du(r + h)
          - 8 * prof.du(r - h) + prof.du(r - 2 * h)) / (12 * h)
    return abs(d2 + b(r) * prof.du(r) + prof.f(prof.u(r)))


def test_ode_residual_of_dense_output():
    """The dense profile satisfies the equation on an interior grid
    (stencils kept clear of the startup seam at the core)."""
    sf = SpaceForm(3, 1.0)
    opts = SolveOptions(rtol=1e-12, atol=1e-14)
    prof = solve_profile(sf, serrin_fk(3, 1.0), CauchyData(1.0, 1.0), opts)
    h = 1e-3
    rs = np.concatenate([np.linspace(prof.r_minus + 0.05, 1.0 - 5 * h, 12),
                         np.linspace(1.0 + 5 * h, prof.r_plus - 0.05, 12)])
    worst = max(fd_residual(prof, sf.radial_coefficient, r, h) for r in rs)
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


def test_singular_start_taylor():
    sf = SpaceForm(3, 0.0)
    st_ = _pole_start(sf.radial_coefficient, constant(1.0), 1.0, 0.0, +1, 1e-4)
    assert st_.b1 == pytest.approx(2.0, abs=1e-9)
    assert st_.u0 == pytest.approx(1.0 - 1e-8 / 6.0, abs=1e-18)
    assert st_.du0 == pytest.approx(-1e-4 / 3.0, rel=1e-9)


def test_singular_start_richardson_consistency():
    """Halving the offset changes the downstream solution within tolerance."""
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    p1 = solve_profile(sf, f, CauchyData(0.0, 1.0), SolveOptions(eps_start=1e-5))
    p2 = solve_profile(sf, f, CauchyData(0.0, 1.0), SolveOptions(eps_start=5e-6))
    assert abs(p1.r_plus - p2.r_plus) < 1e-9


def test_singular_start_far_pole():
    sf = SpaceForm(3, 1.0)
    st_ = _pole_start(sf.radial_coefficient, constant(2.0), 1.0, sf.r_bar, -1, 1e-5,
                      scale=sf.r_bar)
    assert st_.r0 == pytest.approx(math.pi - 1e-5)
    assert st_.b1 == pytest.approx(2.0, abs=1e-8)
    assert st_.du0 > 0  # increasing toward the pole maximum


def test_singular_start_degenerate_forcing():
    sf = SpaceForm(3, 0.0)
    st_ = _pole_start(sf.radial_coefficient, constant(0.0), 1.0, 0.0, +1, 1e-5)
    assert st_.u0 == 1.0 and st_.du0 == 0.0
    with pytest.raises(NotAdmissible):
        solve_profile(sf, constant(0.0), CauchyData(0.0, 1.0),
                      SolveOptions(r_max_cap=5.0))


def test_pole_residue_radial():
    sf = SpaceForm(4, 1.0)
    assert pole_residue(sf.radial_coefficient, 0.0, +1) == pytest.approx(3.0, abs=1e-9)
    assert pole_residue(sf.radial_coefficient, sf.r_bar, -1) == pytest.approx(3.0, abs=1e-9)


def test_solve_generic_matches_radial_bitwise():
    sf = SpaceForm(3, 1.0)
    f = serrin_fk(3, 1.0)
    cd = CauchyData(1.0, 1.0)
    p1 = solve_profile(sf, f, cd)
    p2 = solve_generic(lambda r: 2.0 * sf.cotk(r), f, cd, (0.0, sf.r_bar),
                       singular_lo=True, singular_hi=True)
    assert p1.r_plus == p2.r_plus and p1.r_minus == p2.r_minus
    for r in np.linspace(p1.r_minus, p1.r_plus, 23):
        assert p1.u(r) == p2.u(r)


def test_solve_generic_no_drift():
    # b = 0: U = M - f (r - R)^2 / 2 exactly
    f = constant(1.0)
    prof = solve_generic(lambda r: 0.0, f, CauchyData(2.0, 1.0), (0.0, math.inf))
    assert prof.r_plus == pytest.approx(2.0 + math.sqrt(2.0), abs=1e-10)
    assert prof.r_minus == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-10)
    for r in np.linspace(prof.r_minus, prof.r_plus, 17):
        assert prof.u(r) == pytest.approx(1.0 - (r - 2.0) ** 2 / 2.0, abs=1e-11)


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


def test_no_zero_found_at_singular_endpoint():
    # n = 2 on the sphere: U' ~ 2 f / (r - pi) near the far pole, so U falls
    # only logarithmically and a small forcing keeps U > 0 up to r_bar
    sf = SpaceForm(2, 1.0)
    with pytest.raises(NoZeroFound) as exc:
        solve_profile(sf, constant(1e-3), CauchyData(0.0, 1.0))
    prof = exc.value.profile
    assert "reached the singular endpoint" in str(exc.value)
    assert prof.failure_code is FailureCode.NO_ZERO and prof.r_plus is None


def test_nonstrict_returns_diagnostic_profile():
    sf = SpaceForm(3, 0.0)
    prof = solve_profile(sf, constant(1e-3), CauchyData(0.0, 1.0),
                         SolveOptions(r_max_cap=10.0), strict=False)
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
    start and one for the initial-step probe."""
    sf, f = SpaceForm(3, -1.0), serrin_fk(3, -1.0)
    calls = {"b": 0, "f": 0}

    def b(r):
        calls["b"] += 1
        return sf.radial_coefficient(r)

    def g(u):
        calls["f"] += 1
        return f(u)

    start = _regular_start(f, 1.5, 0.25, +1, 1e-6)
    leg = _run_leg(b, g, start, 50.0, SolveOptions(), 0.25)
    assert leg.event is not None and len(leg.steps) > 10
    assert (calls["b"] - 2) / 5 == (calls["f"] - 2) / 6 >= len(leg.steps)


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
    prof = solve_profile(sf, f, CauchyData(R, M), strict=False)
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
    far = solve_generic(sf.radial_coefficient, f, CauchyData(sf.r_bar, M), (0.0, sf.r_bar),
                        singular_lo=True, singular_hi=True)
    assert far.admissible and far.r_plus is None
    assert abs(far.r_minus - (sf.r_bar - centered.r_plus)) < 1e-9
    assert far.dU_minus == pytest.approx(-centered.dU_plus, rel=1e-8)
    assert abs(far.u(far.r_minus)) < 1e-12
    assert far.u(sf.r_bar) == M


@pytest.mark.parametrize("f", [
    Nonlinearity("cut", lambda x: 1.0 if x > 0.5 else math.nan),  # nan below U = 1/2
    allen_cahn(2.5),  # complex powers of negative U in the stage that crosses zero
    Nonlinearity("nan", lambda x: math.nan),  # no finite start at all
], ids=["nan-below", "complex", "nan"])
def test_step_size_underflow_raises_step_failure(f):
    """Every trial step that reaches where f is not real is rejected, until
    the step size falls below the spacing of floats (at once when the
    starting step is not finite)."""
    with pytest.raises(StepFailure):
        solve_profile(SpaceForm(3, 1.0), f, CauchyData(0.9, 0.75))


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
    prof = solve_generic(lambda r: 0.0, constant(1.0), CauchyData(R, M), (0.0, math.inf))
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
    prof = solve_profile(SpaceForm(3, 1.0), affine(lam, beta), CauchyData(R, M), strict=False)
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
    prof = solve_profile(sf, serrin_fk(n, k), CauchyData(R, M), strict=False)
    assume(prof.admissible)  # for n = 2 and k < 0, large M and small R have no inner zero
    assert_zero_errors_bounded(prof, SerrinExplicit(sf, R, M).u, 0.0,
                               math.nextafter(sf.r_bar, 0.0))
