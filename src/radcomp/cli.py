"""Command-line front end.

Exit codes: 0 success, 2 validation error, 3 numerical failure, 141 (128 +
SIGPIPE) stdout closed by its reader, which drops the rest of the output.
Errors are emitted as one-line JSON objects on stderr so callers can
machine-read them; that includes the parser's own errors (an unknown flag, a
missing or malformed value). Every flag value is converted by its flag's
type, on the command line and in a --config file alike.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import acceptance, output
from .bounds import ComparisonPair, bound_report, mu_sign_scan
from .errors import DomainError, NumericalError, RadcompError
from .isoparametric import IsoparametricFamily
from .nonlinearity import from_cli_spec, from_descriptor
from .ode import CauchyData, SolveOptions, solve_profile
from .spaceform import SpaceForm
from .tau import _gap_space, gap_estimate, tau_scan


def _solve_options(args) -> SolveOptions:
    kw = {}
    if getattr(args, "rtol", None) is not None:
        kw["rtol"] = args.rtol
    if getattr(args, "atol", None) is not None:
        kw["atol"] = args.atol
    if getattr(args, "cap", None) is not None:
        kw["r_max_cap"] = args.cap
    return SolveOptions(**kw)


class _Parser(argparse.ArgumentParser):
    """Reports its errors as a DomainError, which `main` prints as one line
    of JSON with exit code 2, instead of printing the usage."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _grid(spec: str) -> np.ndarray:
    """lo:hi:count (linear) or lo:hi:count:geom."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"grid spec must be lo:hi:count[:geom], got {spec!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid spec {spec!r}: lo and hi must be numbers "
                                         "and count an integer") from None
    if count < 1 or not math.isfinite(lo) or not math.isfinite(hi) or hi < lo:
        raise argparse.ArgumentTypeError(f"bad grid spec {spec!r}")
    if len(parts) == 4:
        if parts[3] != "geom":
            raise argparse.ArgumentTypeError(f"unknown grid kind {parts[3]!r}")
        if lo <= 0:
            raise argparse.ArgumentTypeError("geometric grids need lo > 0")
        return np.geomspace(lo, hi, count)
    return np.linspace(lo, hi, count)


def _count(text: str) -> int:
    """A number of points: an integer >= 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"number of points must be an integer, "
                                         f"got {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"need at least one point, got {count}")
    return count


def _ints(text: str) -> list:
    """Comma-separated integers."""
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, "
                                         f"got {text!r}") from None


def _family(text: str) -> tuple:
    """ell,m1,m2: the degree and the two multiplicities of an isoparametric
    family."""
    vals = _ints(text)
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(f"expected ell,m1,m2, got {text!r}")
    return tuple(vals)


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


def _config_value(flag, val):
    """A config value converted by its flag's type, as if it had been typed
    on the command line; a JSON object stays allowed for the nonlinearity."""
    if flag.dest == "f" and isinstance(val, dict):
        return val
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise DomainError(f"config key {flag.dest!r}: expected a string or a number, "
                          f"got {val!r}")
    try:
        return (flag.type or str)(str(val))
    except (argparse.ArgumentTypeError, TypeError, ValueError) as e:
        raise DomainError(f"config key {flag.dest!r}: invalid value {val!r} ({e})") from None


def _apply_config(args):
    """--config file.json overrides parsed flags; unknown keys are rejected."""
    if not getattr(args, "config", None):
        return args
    try:
        cfg = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise DomainError(f"cannot read config {args.config}: {e}") from None
    if not isinstance(cfg, dict):
        raise DomainError("config must be a JSON object")
    flags = {action.dest: action for action in args.parser._actions}
    for key, val in cfg.items():
        if key not in flags or key in ("help", "config"):
            raise DomainError(f"unknown config key {key!r}")
        setattr(args, key, _config_value(flags[key], val))
    return args


def _problem(args):
    """The space that --n with --k or --family names, and the nonlinearity
    that --f names on it; a bare serrin takes (n, k) from a space form."""
    if args.family is None:
        space = sf = SpaceForm(args.n, args.k)
    elif args.k is None:
        space, sf = IsoparametricFamily(*args.family, args.n), None
    else:  # the parser excludes this, so only a --config gets here
        raise DomainError("--k and --family exclude each other")
    if isinstance(args.f, dict):
        return space, from_descriptor(args.f)
    return space, from_cli_spec(args.f, sf)


def _branches(prof):
    """The signs of the monotone branches whose zero the profile has."""
    return [sign for sign, zero in (("plus", prof.r_plus), ("minus", prof.r_minus))
            if zero is not None]


def cmd_profile(args):
    space, f = _problem(args)
    prof = solve_profile(space, f, CauchyData(args.R, args.M), _solve_options(args))
    _emit(output.profile_csv_lines(prof, npoints=args.points), args.csv)
    if args.json:
        _emit(prof.summary(), args.json, as_json=True)
    return 0


def cmd_tau_scan(args):
    space, f = _problem(args)
    if args.json:
        _gap_space(space)  # a refused gap solves nothing
    table = tau_scan(space, f, args.M, args.r_grid, _solve_options(args))
    # the gap before the CSV, so that a refused gap prints nothing
    gap = output.gap_json(table, gap_estimate(table)) if args.json else None
    _emit(output.tau_csv_lines(table), args.csv)
    if gap is not None:
        _emit(gap, args.json, as_json=True)
    return 0


def cmd_gap(args):
    space, f = _problem(args)
    lo, hi = _gap_space(space).interval  # a refused space solves nothing
    if args.r_grid is not None:
        grid = args.r_grid
    elif math.isfinite(hi):
        grid = np.linspace(lo, hi * (1 - 1e-3), 41)
    else:
        rmax = 50.0 if space.k == 0 else 14.0
        grid = np.concatenate([np.geomspace(0.05, 2.0, 10),
                               np.linspace(2.5, rmax, 30)])
    table = tau_scan(space, f, args.M, grid, _solve_options(args))
    est = gap_estimate(table)
    _emit(output.gap_json(table, est), args.json, as_json=True)
    if args.csv:
        _emit(output.tau_csv_lines(table), args.csv)
    return 0


def cmd_mu_check(args):
    space, f = _problem(args)
    prof = solve_profile(space, f, CauchyData(args.R, args.M), _solve_options(args))
    report = {sign: dataclasses.asdict(mu_sign_scan(ComparisonPair(prof, sign),
                                                    npoints=args.grid))
              for sign in _branches(prof)}
    _emit(report, args.json, as_json=True)
    return 0


def cmd_bounds(args):
    space, f = _problem(args)
    prof = solve_profile(space, f, CauchyData(args.R, args.M), _solve_options(args))
    pair = ComparisonPair(prof, args.sign)
    _emit(bound_report(pair, r_Omega=args.r_omega), args.json, as_json=True)
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
    p = _Parser(prog="radcomp", description="Radial comparison-model toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func, parser=sp)
        return sp

    def common(sp, core_radius=True):
        sp.add_argument("--n", type=int, required=True, help="dimension (>= 2)")
        space = sp.add_mutually_exclusive_group(required=True)
        space.add_argument("--k", type=float, help="curvature bound of a space form")
        space.add_argument("--family", type=_family,
                           help="ell,m1,m2 of an isoparametric family on the unit sphere")
        sp.add_argument("--f", required=True,
                        help="nonlinearity spec, e.g. constant:1 or affine:-0.25,2.5")
        if core_radius:
            sp.add_argument("--R", type=float, required=True,
                            help="core radius (the core leaf S on a family)")
        sp.add_argument("--M", type=float, required=True, help="maximum value")
        sp.add_argument("--rtol", type=float, default=None)
        sp.add_argument("--atol", type=float, default=None)
        sp.add_argument("--config", default=None, help="JSON file overriding flags")
        sp.add_argument("--cap", type=float, default=None, help="outward radius cap")

    sp = command("profile", cmd_profile, "solve one radial profile, export CSV")
    common(sp)
    sp.add_argument("--points", type=_count, default=401)
    sp.add_argument("--csv", default="-")
    sp.add_argument("--json", default=None)

    sp = command("tau-scan", cmd_tau_scan, "scan the boundary-response curves over R")
    common(sp, core_radius=False)
    sp.add_argument("--r-grid", type=_grid, required=True, help="lo:hi:count[:geom]")
    sp.add_argument("--csv", default="-")
    sp.add_argument("--json", default=None)

    sp = command("gap", cmd_gap, "estimate the admissible set and gap")
    common(sp, core_radius=False)
    sp.add_argument("--r-grid", type=_grid, default=None)
    sp.add_argument("--csv", default=None)
    sp.add_argument("--json", default="-")

    sp = command("mu-check", cmd_mu_check, "scan the maximum-principle coefficient")
    common(sp)
    sp.add_argument("--grid", type=_count, default=400)
    sp.add_argument("--json", default="-")

    sp = command("bounds", cmd_bounds, "curvature / isoperimetric / hot-spot report")
    common(sp)
    sp.add_argument("--sign", choices=("plus", "minus"), default="plus")
    sp.add_argument("--r-omega", type=float, default=None)
    sp.add_argument("--json", default="-")

    sp = command("selftest", cmd_selftest, "run the acceptance suite")
    sp.add_argument("--outdir", default=None, help="directory for CSV artifacts")
    sp.add_argument("--only", type=_ints, default=None,
                    help="comma-separated criterion numbers to run")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser.parse_args(argv))
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: the output ends here, and the interpreter's
        # last flush sends what is left to devnull instead of raising again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
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
