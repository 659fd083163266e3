"""Checks shared by the test modules of the solvers."""

import math
from typing import Callable, NamedTuple

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


class Equation(NamedTuple):
    """An equation written out for `solve_profile`, as a SpaceForm or an
    IsoparametricFamily states theirs: U'' + coefficient U' + f(U) = 0 on
    `interval`, with the pole `residues` at its two ends."""
    coefficient: Callable[[float], float]
    interval: tuple
    residues: tuple


NO_DRIFT = Equation(lambda r: 0.0, (0.0, math.inf), (0.0, 0.0))  # b = 0 on [0, inf)


def assert_residue_is_the_limit(b, pole, side, residue, curvature):
    """(r - pole) b(r) tends to the residue as r tends to the pole from the
    given side (+1: above): it differs by O(curvature tau^2) at offset tau,
    down to the rounding of r next to the pole."""
    for tau in (1e-2, 1e-3, 1e-4, 1e-5):
        limit = side * tau * b(pole + side * tau)
        assert abs(limit - residue) <= curvature * tau * tau + 1e-9, (tau, limit)
