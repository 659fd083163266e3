"""Nonlinearity registry and structural condition checks.

Each nonlinearity carries a scalar evaluator, its derivative, its
parameters, and the positivity interval I_f = (0, sup_if) it is meant to be
used on. The three structural predicates are verified on finite sample
grids; the grid is part of the reported result, and a violation found on a
coarse grid persists on any refinement containing the witness.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import DomainError
from .spaceform import SpaceForm

DEFAULT_GRID_POINTS = 2049
DEFAULT_M_MAX = 10.0
_COND_TOL = 1e-10


@dataclass(frozen=True)
class Nonlinearity:
    name: str
    func: Callable[[float], float]
    d: Callable[[float], float]  # f'
    params: dict = field(default_factory=dict)
    sup_if: float = math.inf  # I_f = (0, sup_if)

    def __call__(self, x):
        return self.func(x)

    def describe(self):
        return {"family": self.name, "params": dict(self.params), "sup_if": self.sup_if}


# -- built-in families --------------------------------------------------------

def serrin_fk(n: int, k: float) -> Nonlinearity:
    """f(x) = n k x + 1, the torsion-type right-hand side."""
    nk = n * k
    sup = math.inf if nk >= 0 else -1.0 / nk
    return Nonlinearity("serrin_fk", lambda x: nk * x + 1.0, lambda x: nk,
                        {"n": n, "k": k}, sup)


def affine(lam: float, beta: float) -> Nonlinearity:
    """f(x) = lam x + beta."""
    if lam >= 0:
        sup = math.inf if beta > 0 or lam > 0 else 0.0
    else:
        sup = -beta / lam if beta > 0 else 0.0
    return Nonlinearity("affine", lambda x: lam * x + beta, lambda x: lam,
                        {"lam": lam, "beta": beta}, sup)


def lane_emden(p: float) -> Nonlinearity:
    """f(x) = x |x|^p."""
    return Nonlinearity("lane_emden",
                        lambda x: x * abs(x) ** p,
                        lambda x: (p + 1.0) * abs(x) ** p,
                        {"p": p}, math.inf)


def allen_cahn(p: float) -> Nonlinearity:
    """f(x) = x - x^p, positive on (0, 1)."""
    return Nonlinearity("allen_cahn",
                        lambda x: x - x ** p,
                        lambda x: 1.0 - p * x ** (p - 1.0),
                        {"p": p}, 1.0)


def bratu(kappa: float) -> Nonlinearity:
    """f(x) = kappa * exp(2x)."""
    sup = math.inf if kappa > 0 else 0.0
    return Nonlinearity("bratu",
                        lambda x: kappa * math.exp(2.0 * x),
                        lambda x: 2.0 * kappa * math.exp(2.0 * x),
                        {"kappa": kappa}, sup)


def constant(c: float) -> Nonlinearity:
    sup = math.inf if c > 0 else 0.0
    return Nonlinearity("constant", lambda x: c, lambda x: 0.0, {"c": c}, sup)


def polynomial(coeffs) -> Nonlinearity:
    """f(x) = sum coeffs[i] x^i (ascending order)."""
    co = [float(c) for c in coeffs]
    dco = [i * c for i, c in enumerate(co)][1:]

    def f(x, co=tuple(co)):
        acc = 0.0
        for c in reversed(co):
            acc = acc * x + c
        return acc

    def df(x, dco=tuple(dco)):
        acc = 0.0
        for c in reversed(dco):
            acc = acc * x + c
        return acc

    return Nonlinearity("polynomial", f, df, {"coeffs": co}, math.inf)


_FAMILIES = {
    "serrin_fk": (serrin_fk, ("n", "k")),
    "serrin": (serrin_fk, ("n", "k")),
    "affine": (affine, ("lam", "beta")),
    "lane_emden": (lane_emden, ("p",)),
    "allen_cahn": (allen_cahn, ("p",)),
    "bratu": (bratu, ("kappa",)),
    "constant": (constant, ("c",)),
    "polynomial": (polynomial, ("coeffs",)),
}


def _finite_real(v) -> bool:
    """A real number, not a bool, that is finite as a binary64."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def from_descriptor(desc: dict) -> Nonlinearity:
    """Build from a JSON descriptor {family, params, I_f: [lo, hi)}.

    The one validator of nonlinearity input: unknown families, unknown keys
    and a wrong number of parameters are rejected, and every parameter
    (each polynomial coefficient included) must be a finite real. params is
    an object keyed by parameter name or an array in signature order; an
    explicit I_f, [0, hi] with hi a finite real or +inf, overrides the
    family default.
    """
    if not isinstance(desc, dict):
        raise DomainError("nonlinearity descriptor must be an object")
    unknown = set(desc) - {"family", "params", "I_f"}
    if unknown:
        raise DomainError(f"unknown descriptor keys: {sorted(unknown)}")
    family = desc.get("family")
    if family not in _FAMILIES:
        raise DomainError(f"unknown nonlinearity family {family!r}; "
                          f"known: {sorted(set(_FAMILIES) - {'serrin'})}")
    ctor, argnames = _FAMILIES[family]
    params = desc.get("params", {})
    if isinstance(params, (list, tuple)) and len(params) == len(argnames):
        params = dict(zip(argnames, params))
    if not (isinstance(params, dict) and set(params) == set(argnames)):
        raise DomainError(f"{family!r} takes the parameters {list(argnames)}, as an "
                          f"object or an array, got {params!r}")
    values = params["coeffs"] if family == "polynomial" else list(params.values())
    if not (isinstance(values, (list, tuple)) and all(map(_finite_real, values))):
        raise DomainError(f"parameters for {family!r} must be finite numbers, "
                          f"got {params!r}")
    f = ctor(**params)
    if "I_f" in desc:
        bounds = desc["I_f"]
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise DomainError(f"I_f must be a pair [0, hi], got {bounds!r}")
        lo, hi = bounds
        if not (_finite_real(lo) and lo == 0):
            raise DomainError(f"I_f must have 0 as its lower endpoint, got {lo!r}")
        if not (_finite_real(hi) or hi == math.inf):
            raise DomainError(f"I_f upper endpoint must be a finite number or +inf, "
                              f"got {hi!r}")
        f = replace(f, sup_if=float(hi))
    return f


def from_cli_spec(spec: str, sf: SpaceForm | None = None) -> Nonlinearity:
    """Parse a 'family:p1,p2' command-line spec into a descriptor for
    `from_descriptor` (polynomial's parameters are its coefficients); a bare
    'serrin' takes (n, k) from sf."""
    family, colon, tail = spec.partition(":")
    if family in ("serrin", "serrin_fk") and not colon:
        if sf is None:
            raise DomainError("serrin nonlinearity needs the ambient (n, k)")
        return from_descriptor({"family": "serrin_fk", "params": [sf.n, sf.k]})
    try:
        args = [float(tok) for tok in tail.split(",")] if tail else []
    except ValueError:
        raise DomainError(f"nonlinearity parameters must be numbers, got {spec!r}") from None
    return from_descriptor({"family": family,
                            "params": [args] if family == "polynomial" else args})


# -- condition checks ----------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    witness: Optional[float]  # first violating sample; None when the condition holds
    message: str

    @property
    def ok(self) -> bool:
        return self.witness is None

    def __bool__(self):
        return self.ok


def condition_grid(f: Nonlinearity, npoints: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Chebyshev-spaced samples of the open interior of I_f, cut at
    DEFAULT_M_MAX (and spanning (0, DEFAULT_M_MAX) when I_f is empty)."""
    hi = min(f.sup_if, DEFAULT_M_MAX)
    if not hi > 0:
        hi = DEFAULT_M_MAX
    if npoints < 1:
        raise DomainError("grid needs at least one point")
    j = np.arange(1, npoints + 1)
    theta = j * math.pi / (npoints + 1)
    return hi * 0.5 * (1.0 - np.cos(theta))


def _check(f: Nonlinearity, grid, slack_of, ok_message: str) -> ConditionResult:
    """The frame of every condition check, on `grid` or the default grid.

    slack_of(grid) returns (samples, slack, message): the first sample whose
    slack is not at least -_COND_TOL (a NaN slack included) is the witness,
    explained by message(witness).
    An empty grid is refused, since every condition holds on it vacuously.
    """
    grid = condition_grid(f) if grid is None else np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty condition grid")
    samples, slack, message = slack_of(grid)
    bad = np.nonzero(~(np.asarray(slack) >= -_COND_TOL))[0]
    if bad.size == 0:
        return ConditionResult(None, ok_message)
    w = float(samples[bad[0]])
    return ConditionResult(w, message(w))


def check_standard_conditions(f: Nonlinearity, sf: SpaceForm,
                              grid: np.ndarray | None = None) -> ConditionResult:
    """f > 0 and f(x) >= n k x + f(0) on the grid; f(0) > 0 when k <= 0."""
    def slack_of(grid):
        f0 = f(0.0)
        if sf.k <= 0 and not f0 > 0:
            return [0.0], [-math.inf], lambda w: f"f(0) = {f0} is not positive (k <= 0)"
        vals = np.array([f(x) for x in grid])
        nonpositive = vals <= _COND_TOL  # strict positivity, reported first
        if nonpositive.any():
            return (grid, np.where(nonpositive, -math.inf, 0.0),
                    lambda w: f"f({w}) = {f(w)} is not positive")
        slack = vals - (sf.n * sf.k * grid + f0)
        return grid, slack, lambda w: f"f({w}) < n k x + f(0) by {-(slack.min())}"
    return _check(f, grid, slack_of, "standard conditions hold on the grid")


def check_derivative_bound(f: Nonlinearity, sf: SpaceForm,
                           grid: np.ndarray | None = None) -> ConditionResult:
    """f'(x) >= n k on the grid."""
    nk = sf.n * sf.k
    return _check(f, grid, lambda grid: (
        grid, np.array([f.d(x) for x in grid]) - nk,
        lambda w: f"f'({w}) = {f.d(w)} < n k = {nk}"), "f' >= n k on the grid")


def check_tau_monotonicity_condition(f: Nonlinearity,
                                     grid: np.ndarray | None = None) -> ConditionResult:
    """f(x) >= x f'(x) on the grid."""
    return _check(f, grid, lambda grid: (
        grid, np.array([f(x) - x * f.d(x) for x in grid]),
        lambda w: f"f(x) < x f'(x) at x = {w}"), "f >= x f' on the grid")
