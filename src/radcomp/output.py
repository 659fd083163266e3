"""Deterministic CSV / JSON serialization.

Floats are printed with 17 significant digits (round-trip safe); identical
configurations therefore produce byte-identical artifacts.
"""

from __future__ import annotations

import json
import math

import numpy as np


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % x  # also prints nan, inf, -inf and -0


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def dumps_json(obj) -> str:
    return json.dumps(_jsonify(obj), sort_keys=True, separators=(",", ":"))


def csv_lines(columns, rows, header_obj):
    """Rows of 17-digit CSV after a '# {json}' header line."""
    lines = ["# " + dumps_json(header_obj), ",".join(columns)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    return lines


def write_text(path, lines):
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def profile_csv_lines(profile, npoints: int):
    """r, U, dU on a uniform grid over the computed support, with the exact
    boundary radii included, preceded by the JSON summary header. On an
    isoparametric family r is the leaf parameter."""
    lo = profile.r_minus if profile.r_minus is not None else profile.r_lo
    hi = profile.r_plus if profile.r_plus is not None else profile.r_hi
    rs = np.linspace(lo, hi, npoints)
    rows = zip(rs.tolist(), profile.u(rs).tolist(), profile.du(rs).tolist())
    return csv_lines(("r", "U", "dU"), rows, header_obj=profile.summary())


def tau_csv_lines(table):
    rows = [(row.R, row.tau_plus, row.tau_minus, row.r_minus, row.r_plus)
            for row in table.rows]
    header = {**table.space.describe(), "M": table.M, "c_norm": table.c_norm,
              "f": table.f.describe()}
    return csv_lines(("R", "tau_plus", "tau_minus", "r_minus", "r_plus"),
                     rows, header_obj=header)


def gap_json(table, est) -> dict:
    return {
        "c_norm": table.c_norm,
        "tau0": table.images[0][0],
        "adm": est.adm,
        "gap": est.gap,
        "method": est.method,
        "asymptote_data": est.asymptote_data,
    }


def gap_curve_csv_lines(curve):
    header = {"n": curve.n, "M_tilde": curve.m_tilde, "M_ode": curve.m_ode,
              "c_norm": curve.c_norm, "prediction": curve.prediction}
    return csv_lines(("R", "s"), curve.rows, header_obj=header)
