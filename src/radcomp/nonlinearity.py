"""Nonlinearity registry and structural condition checks.

Each nonlinearity carries a scalar evaluator, an optional derivative, its
parameters, and the positivity interval I_f = (0, sup_if) it is meant to be
used on. The three structural predicates are verified on finite sample
grids; the grid is part of the reported result, and a violation found on a
coarse grid persists on any refinement containing the witness.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
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
    deriv: Optional[Callable[[float], float]] = None
    params: dict = field(default_factory=dict)
    sup_if: float = math.inf  # I_f = (0, sup_if)

    def __call__(self, x):
        return self.func(x)

    def d(self, x):
        """Derivative at x; central finite difference when none was supplied."""
        if self.deriv is not None:
            return self.deriv(x)
        h = 1e-6 * max(1.0, abs(x))
        return (self.func(x + h) - self.func(x - h)) / (2.0 * h)

    def describe(self):
        return {"family": self.name, "params": dict(self.params), "sup_if": self.sup_if}

    def validate(self) -> None:
        """Type invariants on the 257-point condition grid: difference
        quotients bounded by 1e12, and agreement of the supplied derivative
        with central differences to 1e-6 max(1, |f'|)."""
        grid = condition_grid(self, npoints=257)
        vals = np.array([self.func(x) for x in grid])
        dq = np.abs(np.diff(vals) / np.diff(grid))
        if np.any(~np.isfinite(dq)) or np.any(dq > 1e12):
            raise DomainError(f"{self.name}: difference quotients unbounded on the grid")
        if self.deriv is not None:
            for x in grid[1:-1:16]:
                h = 1e-6 * max(1.0, abs(x))
                fd = (self.func(x + h) - self.func(x - h)) / (2.0 * h)
                dv = self.deriv(x)
                if abs(fd - dv) > 1e-6 * max(1.0, abs(dv)):
                    raise DomainError(
                        f"{self.name}: derivative mismatch at x={x}: {dv} vs FD {fd}")


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


def from_descriptor(desc: dict) -> Nonlinearity:
    """Build from a JSON descriptor {family, params, I_f: [lo, hi)}.

    Unknown families and unknown keys are rejected; an explicit I_f
    overrides the family default.
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
    if isinstance(params, dict):
        extra = set(params) - set(argnames)
        if extra:
            raise DomainError(f"unknown parameters for {family!r}: {sorted(extra)}")
        args, kwargs = (), params
    elif isinstance(params, (list, tuple)):
        args, kwargs = params, {}
    else:
        raise DomainError("params must be an object or an array")
    if family != "polynomial" and not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool)
            for v in (*args, *kwargs.values())):
        raise DomainError(f"parameters for {family!r} must be numbers, got {params!r}")
    try:
        f = ctor(*args, **kwargs)
    except (TypeError, ValueError) as e:
        raise DomainError(f"bad parameters for {family!r}: {e}") from None
    if "I_f" in desc:
        bounds = desc["I_f"]
        if not (isinstance(bounds, (list, tuple)) and len(bounds) == 2):
            raise DomainError(f"I_f must be a pair [0, hi], got {bounds!r}")
        lo, hi = bounds
        if lo != 0:
            raise DomainError("I_f must have 0 as its lower endpoint")
        try:
            hi = float(hi)
        except (TypeError, ValueError):
            raise DomainError(f"I_f upper endpoint must be a number, got {hi!r}") from None
        f = Nonlinearity(f.name, f.func, f.deriv, f.params, hi)
    return f


def from_cli_spec(spec: str, sf: SpaceForm | None = None) -> Nonlinearity:
    """Parse 'family:p1,p2' command-line specs; 'serrin' pulls (n,k) from sf."""
    parts = spec.split(":", 1)
    family = parts[0]
    if family in ("serrin", "serrin_fk") and len(parts) == 1:
        if sf is None:
            raise DomainError("serrin nonlinearity needs the ambient (n, k)")
        return serrin_fk(sf.n, sf.k)
    args = []
    if len(parts) == 2 and parts[1]:
        try:
            args = [float(tok) for tok in parts[1].split(",")]
        except ValueError:
            raise DomainError(f"nonlinearity parameters must be numbers, got {spec!r}") from None
    if family == "polynomial":
        return polynomial(args)
    if family not in _FAMILIES:
        raise DomainError(f"unknown nonlinearity family {family!r}")
    ctor, _ = _FAMILIES[family]
    try:
        return ctor(*args)
    except TypeError as e:
        raise DomainError(f"bad parameters for {family!r}: {e}") from None


# -- condition checks ----------------------------------------------------------

@dataclass(frozen=True)
class ConditionResult:
    ok: bool
    witness: Optional[float]  # first violating sample, when not ok
    message: str

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


def _first_violation(grid, values, tol):
    bad = np.nonzero(values < -tol)[0]
    if bad.size == 0:
        return None
    return float(grid[bad[0]])


def check_standard_conditions(f: Nonlinearity, sf: SpaceForm,
                              grid: np.ndarray | None = None) -> ConditionResult:
    """f > 0 and f(x) >= n k x + f(0) on the grid; f(0) > 0 when k <= 0."""
    if grid is None:
        grid = condition_grid(f)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty condition grid")
    f0 = f(0.0)
    if sf.k <= 0 and not f0 > 0:
        return ConditionResult(False, 0.0, f"f(0) = {f0} is not positive (k <= 0)")
    vals = np.array([f(x) for x in grid])
    w = _first_violation(grid, vals, -_COND_TOL)  # need strict positivity
    if w is not None or np.any(vals <= _COND_TOL):
        bad = grid[np.nonzero(vals <= _COND_TOL)[0][0]]
        return ConditionResult(False, float(bad), f"f({bad}) = {f(float(bad))} is not positive")
    slack = vals - (sf.n * sf.k * grid + f0)
    w = _first_violation(grid, slack, _COND_TOL)
    if w is not None:
        return ConditionResult(False, w, f"f({w}) < n k x + f(0) by {-(slack.min())}")
    return ConditionResult(True, None, "standard conditions hold on the grid")


def check_derivative_bound(f: Nonlinearity, sf: SpaceForm,
                           grid: np.ndarray | None = None) -> ConditionResult:
    """f'(x) >= n k on the grid."""
    if grid is None:
        grid = condition_grid(f)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty condition grid")
    dv = np.array([f.d(x) for x in grid])
    slack = dv - sf.n * sf.k
    w = _first_violation(grid, slack, _COND_TOL)
    if w is not None:
        return ConditionResult(False, w, f"f'({w}) = {f.d(w)} < n k = {sf.n * sf.k}")
    return ConditionResult(True, None, "f' >= n k on the grid")


def check_tau_monotonicity_condition(f: Nonlinearity,
                                     grid: np.ndarray | None = None) -> ConditionResult:
    """f(x) >= x f'(x) on the grid."""
    if grid is None:
        grid = condition_grid(f)
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise DomainError("empty condition grid")
    slack = np.array([f(x) - x * f.d(x) for x in grid])
    w = _first_violation(grid, slack, _COND_TOL)
    if w is not None:
        return ConditionResult(False, w, f"f(x) < x f'(x) at x = {w}")
    return ConditionResult(True, None, "f >= x f' on the grid")
