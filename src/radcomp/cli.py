"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 numerical failure. Errors are
emitted as one-line JSON objects on stderr so callers can machine-read them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance, output
from .bounds import ComparisonPair, bound_report, mu_sign_scan
from .errors import DomainError, NumericalError, RadcompError
from .isoparametric import IsoparametricFamily, solve_iso_profile
from .nonlinearity import from_cli_spec, from_descriptor
from .ode import CauchyData, SolveOptions, solve_profile
from .spaceform import SpaceForm
from .tau import figure_gap_curve, gap_estimate, tau_scan


def _solve_options(args) -> SolveOptions:
    kw = {}
    if getattr(args, "rtol", None) is not None:
        kw["rtol"] = args.rtol
    if getattr(args, "atol", None) is not None:
        kw["atol"] = args.atol
    if getattr(args, "cap", None) is not None:
        kw["r_max_cap"] = args.cap
    return SolveOptions(**kw)


def _grid(spec: str) -> np.ndarray:
    """lo:hi:count (linear) or lo:hi:count:geom."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise DomainError(f"grid spec must be lo:hi:count[:geom], got {spec!r}")
    lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    if count < 1 or hi < lo:
        raise DomainError(f"bad grid spec {spec!r}")
    if len(parts) == 4:
        if parts[3] != "geom":
            raise DomainError(f"unknown grid kind {parts[3]!r}")
        if lo <= 0:
            raise DomainError("geometric grids need lo > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _emit(lines_or_obj, path, as_json=False):
    if as_json:
        text = output.dumps_json(lines_or_obj)
        if path in (None, "-"):
            print(text)
        else:
            Path(path).write_text(text + "\n")
    else:
        if path in (None, "-"):
            print("\n".join(lines_or_obj))
        else:
            output.write_text(path, lines_or_obj)


def _apply_config(args, parser):
    """--config file.json overrides parsed flags; unknown keys are rejected."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    known = set(vars(args))
    for key, val in cfg.items():
        if key not in known:
            raise DomainError(f"unknown config key {key!r}")
        setattr(args, key, val)
    return args


def _nl(args, sf):
    if isinstance(args.f, dict):
        return from_descriptor(args.f)
    return from_cli_spec(args.f, sf)


def cmd_profile(args):
    sf = SpaceForm(args.n, args.k)
    f = _nl(args, sf)
    opts = _solve_options(args)
    prof = solve_profile(sf, f, CauchyData(args.R, args.M), opts)
    lines = output.profile_csv_lines(prof, npoints=args.points)
    _emit(lines, args.csv)
    if args.json:
        _emit(prof.summary(), args.json, as_json=True)
    return 0


def cmd_tau_scan(args):
    sf = SpaceForm(args.n, args.k)
    f = _nl(args, sf)
    table = tau_scan(sf, f, args.M, _grid(args.r_grid), _solve_options(args))
    _emit(output.tau_csv_lines(table), args.csv)
    if args.json:
        est = gap_estimate(table)
        _emit(output.gap_json(table, est), args.json, as_json=True)
    return 0


def cmd_gap(args):
    sf = SpaceForm(args.n, args.k)
    f = _nl(args, sf)
    if args.r_grid:
        grid = _grid(args.r_grid)
    elif sf.k > 0:
        grid = np.linspace(0.0, sf.r_bar * (1 - 1e-3), 41)
    else:
        rmax = 50.0 if sf.k == 0 else 14.0
        grid = np.concatenate([np.geomspace(0.05, 2.0, 10),
                               np.linspace(2.5, rmax, 30)])
    table = tau_scan(sf, f, args.M, grid, _solve_options(args))
    est = gap_estimate(table)
    _emit(output.gap_json(table, est), args.json, as_json=True)
    if args.csv:
        _emit(output.tau_csv_lines(table), args.csv)
    return 0


def cmd_mu_check(args):
    sf = SpaceForm(args.n, args.k)
    f = _nl(args, sf)
    prof = solve_profile(sf, f, CauchyData(args.R, args.M), _solve_options(args))
    report = {}
    for sign in (("plus", "minus") if prof.r_minus is not None else ("plus",)):
        pair = ComparisonPair(prof, sign)
        scan = mu_sign_scan(pair, npoints=args.grid)
        report[sign] = {"min_mu": scan.min_mu, "argmin": scan.argmin,
                        "all_nonnegative": scan.all_nonnegative,
                        "grid_size": scan.grid_size, "tol": scan.tol}
    _emit(report, args.json, as_json=True)
    return 0


def cmd_bounds(args):
    sf = SpaceForm(args.n, args.k)
    f = _nl(args, sf)
    prof = solve_profile(sf, f, CauchyData(args.R, args.M), _solve_options(args))
    pair = ComparisonPair(prof, args.sign)
    _emit(bound_report(pair, r_Omega=args.r_omega), args.json, as_json=True)
    return 0


def cmd_iso(args):
    fam = IsoparametricFamily(args.ell, args.m1, args.m2, args.n)
    f = _nl(args, None)
    iso = solve_iso_profile(fam, f, args.S, args.M, _solve_options(args))
    _emit(output.iso_csv_lines(iso, npoints=args.points), args.csv)
    if args.json:
        _emit(iso.header(), args.json, as_json=True)
    return 0


def cmd_fig_gap(args):
    dims = [int(tok) for tok in str(args.n).split(",")]
    grid = _grid(args.r_grid) if args.r_grid else np.linspace(0.5, 12.0, 24)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for n in dims:
        curve = figure_gap_curve(SpaceForm(n, -1.0), acceptance.FIG_GAP_M_TILDE, grid,
                                 _solve_options(args))
        output.write_text(outdir / f"gap_curve_n{n}.csv",
                          output.gap_curve_csv_lines(curve))
        print(f"n={n}: s tail = {output.fmt(curve.rows[-1][1])}, "
              f"predicted = {output.fmt(curve.prediction['s_tail'])} "
              f"-> {outdir / f'gap_curve_n{n}.csv'}")
    return 0


def cmd_fig_mu(args):
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    opts = _solve_options(args)
    panels = {
        "left": {"lam": -0.25, "beta": 2.5, "M": 1.0,
                 "R": list(np.linspace(0.6, math.pi - 0.6, 9))},
        "right": {"lam": 1.0, "beta": 2.9, "M": 1.0, "R": [math.pi / 2.0]},
    }
    sf = SpaceForm(3, 1.0)
    for name, cfg in panels.items():
        rows = []
        for R in cfg["R"]:
            f = from_cli_spec(f"affine:{cfg['lam']},{cfg['beta']}")
            prof = solve_profile(sf, f, CauchyData(R, cfg["M"]), opts)
            for sign in (("plus", "minus") if prof.r_minus is not None else ("plus",)):
                scan = mu_sign_scan(ComparisonPair(prof, sign))
                rows.append((R, sign == "plus" and 1 or -1, scan.min_mu,
                             scan.argmin, scan.all_nonnegative))
        header = {"panel": name, **{k: v for k, v in cfg.items() if k != "R"}}
        output.write_text(outdir / f"mu_scan_{name}.csv",
                          output.csv_lines(("R", "branch", "min_mu", "argmin",
                                            "all_nonnegative"), rows, header))
        print(f"{name} panel -> {outdir / f'mu_scan_{name}.csv'}")
    return 0


def cmd_selftest(args):
    results = acceptance.run_all(outdir=args.outdir, only=args.only)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    if failed:
        raise NumericalError(f"{len(failed)} acceptance criteria failed")
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="radcomp",
                                description="Radial comparison-model toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cauchy=True):
        sp.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
        sp.add_argument("--k", type=float, required=True, help="curvature bound")
        sp.add_argument("--f", required=True,
                        help="nonlinearity spec, e.g. constant:1 or affine:-0.25,2.5")
        if cauchy:
            sp.add_argument("--R", type=float, required=True, help="core radius")
            sp.add_argument("--M", type=float, required=True, help="maximum value")
        sp.add_argument("--rtol", type=float, default=None)
        sp.add_argument("--atol", type=float, default=None)
        sp.add_argument("--cap", type=float, default=None, help="outward radius cap")
        sp.add_argument("--config", default=None, help="JSON file overriding flags")

    sp = sub.add_parser("profile", help="solve one radial profile, export CSV")
    common(sp)
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--csv", default="-")
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("tau-scan", help="scan the boundary-response curves over R")
    common(sp, cauchy=False)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--r-grid", required=True, help="lo:hi:count[:geom]")
    sp.add_argument("--csv", default="-")
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_tau_scan)

    sp = sub.add_parser("gap", help="estimate the admissible set and gap")
    common(sp, cauchy=False)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--r-grid", default=None)
    sp.add_argument("--csv", default=None)
    sp.add_argument("--json", default="-")
    sp.set_defaults(func=cmd_gap)

    sp = sub.add_parser("mu-check", help="scan the maximum-principle coefficient")
    common(sp)
    sp.add_argument("--grid", type=int, default=400)
    sp.add_argument("--json", default="-")
    sp.set_defaults(func=cmd_mu_check)

    sp = sub.add_parser("bounds", help="curvature / isoperimetric / hot-spot report")
    common(sp)
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus")
    sp.add_argument("--r-omega", type=float, default=None)
    sp.add_argument("--json", default="-")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("iso", help="solve a profile along an isoparametric foliation")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--m1", type=int, required=True)
    sp.add_argument("--m2", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--f", required=True)
    sp.add_argument("--S", type=float, required=True)
    sp.add_argument("--M", type=float, required=True)
    sp.add_argument("--rtol", type=float, default=None)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--cap", type=float, default=None)
    sp.add_argument("--points", type=int, default=401)
    sp.add_argument("--csv", default="-")
    sp.add_argument("--json", default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser("fig-gap", help="boundary-derivative-sum curves (k = -1)")
    sp.add_argument("--n", default="2,3,4", help="comma-separated dimensions")
    sp.add_argument("--r-grid", default=None)
    sp.add_argument("--outdir", default="fig_gap")
    sp.add_argument("--rtol", type=float, default=None)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_fig_gap)

    sp = sub.add_parser("fig-mu", help="mu sign scans for the affine panels")
    sp.add_argument("--outdir", default="fig_mu")
    sp.add_argument("--rtol", type=float, default=None)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--config", default=None)
    sp.set_defaults(func=cmd_fig_mu)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--outdir", default=None, help="directory for CSV artifacts")
    sp.add_argument("--only", default=None,
                    help="comma-separated criterion numbers to run")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, parser)
        return args.func(args)
    except DomainError as e:
        print(json.dumps({"error": "validation", "message": str(e)}), file=sys.stderr)
        return 2
    except NumericalError as e:
        print(json.dumps({"error": "numerical", "message": str(e)}), file=sys.stderr)
        return 3
    except RadcompError as e:
        print(json.dumps({"error": "internal", "message": str(e)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
