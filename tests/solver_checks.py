"""Checks shared by the test modules of the solvers."""

import pytest

from radcomp.errors import SolveFailure


def fd_residual(prof, b, r, h=2e-3):
    """|U'' + b U' + f(U)| with U'' from a five-point stencil on the dense
    derivative channel (differencing the value channel would amplify the
    interpolant's value error by 1/h^2)."""
    d2 = (-prof.du(r + 2 * h) + 8 * prof.du(r + h)
          - 8 * prof.du(r - h) + prof.du(r - 2 * h)) / (12 * h)
    return abs(d2 + b(r) * prof.du(r) + prof.f(prof.u(r)))


def solve_or_failure(solve, *args):
    """The profile that `solve(*args)` returns, or the failed one that its
    exception carries."""
    try:
        return solve(*args)
    except SolveFailure as e:
        return e.profile


class _Given(Exception):
    """Raised by `solve_generic_spy` with the residues a solver was given."""


def solve_generic_spy(b, f, cd, interval, residues, *args, **kwargs):
    raise _Given(residues)


def given_residues(monkeypatch, module, solve):
    """The residues that `solve()` hands to `solve_generic`, as `module` calls it."""
    monkeypatch.setattr(module, "solve_generic", solve_generic_spy)
    with pytest.raises(_Given) as exc:
        solve()
    return exc.value.args[0]


def assert_residue_is_the_limit(b, pole, side, residue, curvature):
    """(r - pole) b(r) tends to the residue as r tends to the pole from the
    given side (+1: above): it differs by O(curvature tau^2) at offset tau,
    down to the rounding of r next to the pole."""
    for tau in (1e-2, 1e-3, 1e-4, 1e-5):
        limit = side * tau * b(pole + side * tau)
        assert abs(limit - residue) <= curvature * tau * tau + 1e-9, (tau, limit)
