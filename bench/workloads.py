"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload is a closed loop with one caller: an op starts only when the
previous one has returned. Inputs come from two seed streams derived from
the benchmark seed, one for warm-up ops and one for timed ops, so no timed
input repeats a warm-up input. radcomp only ever sees the generated inputs.

    scan      tau_scan + gap_estimate of the torsion problem serrin_fk(n, k)
              over a 12-row grid of core radii (R = 0 plus 11 radii reaching
              the tails used by acceptance criteria 2-6).
    bounds    one Cauchy datum through solve_profile, the 401-point profile
              CSV, and every bound of both branches, each bound called on
              its own so one refusal does not hide the others.
    selftest  one pass of the 12 acceptance criteria through
              acceptance.run_one; the inputs are pinned in acceptance.py, so
              the seed is ignored.

Draws are stratified: each block of nine consecutive ops visits every
(n, k) pair (scan) or every (k, family) pair (bounds) once, in a seeded
order, so the mix of cheap and expensive cases is the same in every run and
only the continuous parameters vary with the seed.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import radcomp
from radcomp import acceptance, bounds, output
from radcomp.errors import DomainError, InsufficientRange

WORKLOADS = ("scan", "bounds", "selftest")
WARMUP_STREAM, TIMED_STREAM = 1, 2
SCAN_ROWS = 12
CSV_POINTS = 401
# volume vs coarea isoperimetric ratio, as in criterion 10; relative once the
# ratio exceeds 1, because on hyperbolic branches it reaches 1e7 and more
ROUTE_TOL = 1e-6
TAU0_TOL = 1e-10     # tau_plus(0) = 1 (criterion 2)
K_VALUES = (-1.0, 0.0, 1.0)
FAMILIES = ("constant", "serrin_fk", "affine")


@dataclass(frozen=True)
class ScanInput:
    n: int
    k: float
    M: float
    grid: tuple


@dataclass(frozen=True)
class BoundsInput:
    n: int
    k: float
    family: str
    R: float
    M: float


@dataclass(frozen=True)
class SelftestInput:
    index: int


@dataclass
class OpResult:
    """What one op returned, and the typed refusals it met on the way."""
    value: object = None
    gap_refused: int = 0
    not_applicable: int = 0
    rows_not_admissible: int = 0


def _strata(rng, count, cells):
    """Cell index per op: consecutive blocks are seeded permutations of all cells."""
    blocks = -(-count // cells)
    return np.concatenate([rng.permutation(cells) for _ in range(blocks)])[:count]


def _scan_inputs(rng, count):
    cells = [(n, k) for k in K_VALUES for n in (2, 3, 4)]
    out = []
    for cell, u in zip(_strata(rng, count, len(cells)), rng.random((count, 3))):
        n, k = cells[cell]
        if k < 0:
            M = (0.1 + 0.8 * u[0]) / n           # inside I_f = (0, 1/n)
            radii = np.linspace(0.1 + 0.3 * u[1], 9.0 + 3.0 * u[2], SCAN_ROWS - 1)
        elif k == 0:
            M = 0.3 + 1.7 * u[0]
            radii = np.geomspace(0.3 + 0.5 * u[1], 30.0 + 20.0 * u[2], SCAN_ROWS - 1)
        else:
            M = 0.3 + 1.7 * u[0]
            r_bar = math.pi / math.sqrt(k)
            radii = np.linspace(0.05 + 0.25 * u[1], r_bar * (0.95 + 0.04 * u[2]),
                                SCAN_ROWS - 1)
        grid = (0.0,) + tuple(float(r) for r in radii)
        out.append(ScanInput(n, k, float(M), grid))
    return out


def _bounds_inputs(rng, count):
    cells = [(k, fam) for k in K_VALUES for fam in FAMILIES]
    out = []
    for cell, n, u in zip(_strata(rng, count, len(cells)),
                          rng.integers(2, 5, count), rng.random((count, 2))):
        k, fam = cells[cell]
        if fam == "serrin_fk" and k < 0:
            M = (0.1 + 0.8 * u[0]) / n           # inside I_f = (0, 1/n)
        else:
            M = 0.2 + 1.8 * u[0]
        # Core radii keep away from the poles at 0 and r_bar: for n = 2 the
        # pole is only logarithmic, and data closer to it have no zero above
        # the integration floor (solve_profile raises NoZeroFound). k > 0 draws
        # still reach r_plus > r_bar / 2, where hotspot_bounds refuses.
        if k > 0:
            R = (0.15 + 0.7 * u[1]) * math.pi / math.sqrt(k)
        else:
            R = 0.5 + 2.5 * u[1]
        out.append(BoundsInput(int(n), k, fam, float(R), float(M)))
    return out


def make_inputs(workload, seed, stream, count):
    """`count` inputs of one seed stream; the same (seed, stream) gives the same list."""
    if workload == "selftest":
        return [SelftestInput(i) for i in range(count)]
    rng = np.random.default_rng([seed, stream])
    return (_scan_inputs if workload == "scan" else _bounds_inputs)(rng, count)


def digest(inputs):
    """Hash of an input list, to show that seeds and streams differ."""
    return hashlib.sha256(repr(inputs).encode()).hexdigest()[:16]


def nonlinearity(family, n, k):
    if family == "constant":
        return radcomp.constant(1.0)
    if family == "serrin_fk":
        return radcomp.serrin_fk(n, k)
    return radcomp.affine(-0.25, 2.5)


# -- ops: everything here is inside the timed region ------------------------------

def op_scan(inp):
    sf = radcomp.SpaceForm(inp.n, inp.k)
    table = radcomp.tau_scan(sf, radcomp.serrin_fk(inp.n, inp.k), inp.M, inp.grid)
    res = OpResult(value=[table, None])
    res.rows_not_admissible = sum(not row.ok for row in table.rows)
    try:
        res.value[1] = radcomp.gap_estimate(table)
    except InsufficientRange:
        res.gap_refused = 1
    return res


def op_bounds(inp):
    sf = radcomp.SpaceForm(inp.n, inp.k)
    f = nonlinearity(inp.family, inp.n, inp.k)
    prof = radcomp.solve_profile(sf, f, radcomp.CauchyData(inp.R, inp.M))
    lines = output.profile_csv_lines(prof, npoints=CSV_POINTS)
    res = OpResult(value={"profile": prof, "csv": lines, "branches": {}})
    for sign in ("plus", "minus"):
        pair = bounds.ComparisonPair(prof, sign)
        br = {"curvature": bounds.curvature_bounds(pair)}
        for key, fn in (("hotspot", bounds.hotspot_bounds), ("mu", bounds.mu_sign_scan)):
            try:
                br[key] = fn(pair)
            except DomainError:
                res.not_applicable += 1
        br["volume"] = bounds.isoperimetric_model_ratio(pair)
        br["coarea"] = bounds.isoperimetric_coarea_ratio(pair)
        br["area_mid"] = bounds.area_ratio_factor(pair, 0.5 * inp.M)
        br["chi_mid"] = pair.chi_fast(0.5 * inp.M)
        res.value["branches"][sign] = br
    return res


def op_selftest(inp, outdir):
    """One acceptance pass with its artifacts under `outdir`."""
    outdir.mkdir(parents=True)
    return OpResult(value=[acceptance.run_one(num, outdir=outdir)
                           for num, _, _ in acceptance._CRITERIA])


# -- correctness checks: outside the timed region ----------------------------------

def check_scan(inp, res):
    """Problems found in a scan op's result (empty when it is correct)."""
    table, est = res.value
    problems = []
    row0 = table.rows[0]
    if not (row0.R == 0.0 and abs(row0.tau_plus - 1.0) <= TAU0_TOL):
        problems.append(f"tau_plus(0) = {row0.tau_plus}")
    if len(table.rows) != len(inp.grid):
        problems.append(f"{len(table.rows)} rows for {len(inp.grid)} radii")
    for row in table.ok_rows:
        inner = row.R == 0.0 or row.r_minus < row.R
        if not (inner and row.R < row.r_plus):
            problems.append(f"row R={row.R}: r_minus={row.r_minus}, r_plus={row.r_plus}")
    if est is not None:
        if inp.k > 0 and est.gap != []:
            problems.append(f"k > 0 gap {est.gap} not empty")
        if not all(math.isfinite(a) and math.isfinite(b) and a <= b for a, b in est.adm):
            problems.append(f"admissible set {est.adm}")
    return problems


def check_bounds(inp, res):
    prof = res.value["profile"]
    problems = []
    if not (prof.r_minus < inp.R < prof.r_plus):
        problems.append(f"r_minus={prof.r_minus}, R={inp.R}, r_plus={prof.r_plus}")
    lines = res.value["csv"]
    if len(lines) != CSV_POINTS + 2:
        problems.append(f"profile CSV has {len(lines)} lines")
    elif not all(math.isfinite(float(v)) for line in lines[2:] for v in line.split(",")):
        problems.append("profile CSV has a non-finite value")
    for sign, br in res.value["branches"].items():
        gap = abs(br["volume"] - br["coarea"])
        if not gap < ROUTE_TOL * max(1.0, abs(br["volume"])):
            problems.append(f"{sign}: volume and coarea ratios differ by {gap}")
        lo, hi = prof.branch_interval(sign)
        if not lo < br["chi_mid"] < hi:
            problems.append(f"{sign}: chi(M/2) = {br['chi_mid']} outside ({lo}, {hi})")
        if not (math.isfinite(br["area_mid"]) and br["area_mid"] > 0):
            problems.append(f"{sign}: area factor {br['area_mid']}")
        if "mu" in br and not math.isfinite(br["mu"].min_mu):
            problems.append(f"{sign}: mu minimum {br['mu'].min_mu}")
    return problems


def check_selftest(inp, res):
    return [r.line() for r in res.value if not r.passed]


class Workload:
    """The op and check of one workload, with the scratch space it needs."""

    def __init__(self, name, tmpdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.tmpdir = tmpdir
        self._passes = 0

    def run(self, inp):
        if self.name == "scan":
            return op_scan(inp)
        if self.name == "bounds":
            return op_bounds(inp)
        self._passes += 1
        return op_selftest(inp, self._outdir())

    def check(self, inp, res):
        return {"scan": check_scan, "bounds": check_bounds,
                "selftest": check_selftest}[self.name](inp, res)

    def cleanup(self):
        """Remove the last selftest pass's artifacts (criterion 12 writes a bundle)."""
        if self.name == "selftest":
            shutil.rmtree(self._outdir(), ignore_errors=True)

    def _outdir(self):
        return self.tmpdir / f"selftest-{self._passes}"

    @staticmethod
    def outcome(res, problems):
        """What must repeat exactly for a given seed: checks and refusals."""
        refusals = (0, 0, 0) if res is None else (
            res.gap_refused, res.not_applicable, res.rows_not_admissible)
        return (not problems,) + refusals
