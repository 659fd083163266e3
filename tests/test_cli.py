import argparse
import ast
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import radcomp
from radcomp.cli import main
from radcomp.output import fmt


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fmt_roundtrip():
    for x in (1.0 / 3.0, math.pi, 1e-300, -2.5, 0.1 + 0.2):
        assert float(fmt(x)) == x
    assert fmt(None) == ""
    assert fmt(float("nan")) == "nan"
    assert fmt(True) == "true"
    assert fmt(7) == "7"


def test_fmt_pinned_values():
    """The 17-digit float format covers the special values with no case of its own."""
    cases = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
             (0.0, "0"), (1e-300, "1e-300"), (0.1, "0.10000000000000001"),
             (np.float64(0.1), "0.10000000000000001"), (np.float64(math.nan), "nan"),
             (np.float64(-math.inf), "-inf"), (np.float64(-0.0), "-0"),
             (True, "true"), (False, "false"), (7, "7"), (np.int64(-3), "-3"), (None, "")]
    for x, text in cases:
        assert fmt(x) == text, x


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)                    # smallest subnormal
@example(-2.225073858507201e-308)  # largest subnormal, negated
@example(1.7976931348623157e308)
def test_fmt_round_trips_finite_floats_bitwise(x):
    """'%.17g' gives back every finite binary64 bit for bit, so JSON output
    can print floats as they are."""
    assert struct.pack("<d", float(fmt(x))) == struct.pack("<d", x)


def test_profile_subcommand(tmp_path, capsys):
    csv = tmp_path / "prof.csv"
    js = tmp_path / "prof.json"
    code, out, err = run_cli(["profile", "--n", "2", "--k", "0", "--f", "constant:1",
                              "--R", "0", "--M", "0.5", "--csv", str(csv),
                              "--json", str(js)], capsys)
    assert code == 0
    summary = json.loads(js.read_text())
    assert summary["r_plus"] == pytest.approx(1.414214, abs=1e-6)
    lines = csv.read_text().splitlines()
    assert lines[1] == "r,U,dU"
    last = lines[-1].split(",")
    assert float(last[0]) == pytest.approx(1.414214, abs=1e-6)
    assert float(last[1]) == pytest.approx(0.0, abs=1e-9)


def test_validation_exit_code(capsys):
    code, out, err = run_cli(["profile", "--n", "2", "--k", "0", "--f", "mystery:1",
                              "--R", "0", "--M", "0.5"], capsys)
    assert code == 2
    msg = json.loads(err.strip())
    assert msg["error"] == "validation"


def test_numerical_exit_code(capsys):
    code, out, err = run_cli(["profile", "--n", "3", "--k", "0", "--f", "constant:0.001",
                              "--R", "0", "--M", "1.0", "--cap", "10"], capsys)
    assert code == 3
    msg = json.loads(err.strip())
    assert msg["error"] == "numerical"


def test_turn_text_states_the_value_of_U(capsys):
    """A turn at U > 0 says that U' vanished before the zero. A turn where
    the last step's quartic dips to U <= 0 states that value and that U kept
    its sign at the step ends, and claims no zero ahead; both exit 3. The
    second is allen_cahn:2 on H^3, whose tail is critically damped."""
    code, out, err = run_cli(["profile", "--n", "3", "--k", "0", "--f", "polynomial:-0.5,1",
                              "--R", "0", "--M", "1.0", "--cap", "50"], capsys)
    msg = json.loads(err)["message"]
    m = re.fullmatch(r"derivative vanished before the zero at r=(\S+) \(U=(\S+)\); "
                     r"profile turns", msg)
    assert code == 3 and out == "" and m and float(m[2]) > 0
    code, out, err = run_cli(["profile", "--n", "3", "--k", "-1", "--f", "allen_cahn:2",
                              "--R", "2", "--M", "0.2"], capsys)
    msg = json.loads(err)["message"]
    m = re.fullmatch(r"derivative vanished at r=(\S+) with U=(\S+) <= 0, but U did not "
                     r"change sign at the step ends; profile turns", msg)
    assert code == 3 and out == "" and m, msg
    assert float(m[1]) == pytest.approx(48.265, abs=1e-3) and float(m[2]) <= 0


def test_gap_positive_curvature_empty(tmp_path, capsys):
    js = tmp_path / "gap.json"
    code, _, _ = run_cli(["gap", "--n", "3", "--k", "1", "--f", "serrin",
                          "--M", "1.0", "--json", str(js)], capsys)
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["gap"] == []
    assert payload["method"] == "exact-symmetry"
    assert payload["tau0"] == pytest.approx(1.0, abs=1e-9)


def test_gap_flat_point_gap_closes_both_admissible_intervals(capsys):
    """At k = 0 the gap is one point near n, and the admissible set is the
    two sampled-image closures, each ending at that point: no admissible
    interval holds the gap point inside."""
    code, out, _ = run_cli(["gap", "--n", "2", "--k", "0", "--f", "serrin",
                            "--M", "0.2"], capsys)
    assert code == 0
    payload = json.loads(out)
    (point,) = payload["gap"]
    assert abs(point - 2) <= 1e-4
    assert payload["adm"] == [[pytest.approx(1.091, abs=1e-3), point],
                              [point, pytest.approx(7.57e10, rel=1e-3)]]


def test_tau_scan_csv_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _, _ = run_cli(["tau-scan", "--n", "3", "--k", "1", "--f", "serrin",
                              "--M", "1.0", "--r-grid", "0:2.5:6",
                              "--csv", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_mu_check_subcommand(capsys):
    code, out, _ = run_cli(["mu-check", "--n", "3", "--k", "1", "--f",
                            "affine:-0.25,2.5", "--R", "1.0", "--M", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["plus"]["all_nonnegative"] is True
    assert payload["minus"]["all_nonnegative"] is True


def test_bounds_subcommand(capsys):
    code, out, _ = run_cli(["bounds", "--n", "2", "--k", "0", "--f", "constant:1",
                            "--R", "1.0", "--M", "0.403426409720027",
                            "--sign", "plus", "--r-omega", "0.5"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["iso_ratio"] == pytest.approx(1.5, abs=1e-6)
    assert payload["sign"] == "plus"


def test_bounds_subcommand_centered(capsys):
    code, out, _ = run_cli(["bounds", "--n", "3", "--k", "0", "--f", "constant:1",
                            "--R", "0", "--M", "1.0", "--sign", "plus"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["iso_ratio"] is None  # centered pair has no top hypersurface
    assert payload["curvature_bounds"]["maxset_H_bound"] is None
    assert payload["hotspot_normalized"] == pytest.approx(3.0, abs=1e-9)
    assert payload["iso_ratio_reason"] == "isoperimetric ratio needs R > 0"


FAR_POLE = ["--n", "3", "--k", "1", "--f", "constant:1", "--R", "3.141592653589793",
            "--M", "0.5"]


def test_mu_check_core_on_the_far_pole(capsys):
    """A core on r_bar has an inner zero and no outer one: mu-check scans
    the branch whose zero exists."""
    code, out, _ = run_cli(["mu-check", *FAR_POLE, "--grid", "40"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"minus"} and payload["minus"]["grid_size"] == 40


def test_bounds_subcommand_core_on_the_far_pole(capsys):
    code, out, _ = run_cli(["bounds", *FAR_POLE, "--sign", "minus"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["r_plus"] is None
    assert payload["curvature_bounds"]["maxset_H_bound"] is None
    assert payload["iso_ratio"] is None
    assert payload["iso_ratio_reason"] == "isoperimetric ratio needs R < r_bar"
    assert payload["mu_min"] is not None and payload["hotspot_raw"] is not None
    code, _, err = run_cli(["bounds", *FAR_POLE, "--sign", "plus"], capsys)
    assert code == 2 and "no outer zero" in json.loads(err)["message"]


def test_bounds_subcommand_inapplicable_hotspot(capsys):
    # r_plus > r_bar / 2 on the sphere: the hot-spot bound does not apply,
    # the other bounds of the report are still computed
    code, out, _ = run_cli(["bounds", "--n", "3", "--k", "1", "--f", "affine:-0.25,2.5",
                            "--R", "1.2", "--M", "1.0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["r_plus"] > math.pi / 2.0
    for field in ("hotspot_raw", "hotspot_normalized"):
        assert payload[field] is None
        assert "r_plus <= r_bar / 2" in payload[f"{field}_reason"]
    assert payload["iso_ratio"] > 0 and payload["mu_min"] is not None
    assert "iso_ratio_reason" not in payload and "mu_min_reason" not in payload


def test_tau_scan_json_summary(tmp_path, capsys):
    js = tmp_path / "summary.json"
    code, _, _ = run_cli(["tau-scan", "--n", "3", "--k", "1", "--f", "serrin",
                          "--M", "1.0", "--r-grid", "0:2.5:6",
                          "--csv", str(tmp_path / "t.csv"), "--json", str(js)], capsys)
    assert code == 0
    payload = json.loads(js.read_text())
    for key in ("c_norm", "tau0", "adm", "gap", "method"):
        assert key in payload


def test_profile_on_a_family(capsys):
    """profile --family solves along the foliation and prints what the
    library's one writer prints for that solve."""
    code, out, _ = run_cli(FAMILY, capsys)
    assert code == 0
    prof = radcomp.solve_profile(radcomp.IsoparametricFamily(2, 1, 1, 3),
                                 radcomp.constant(1.0), radcomp.CauchyData(0.7854, 0.1))
    assert out == "\n".join(radcomp.output.profile_csv_lines(prof, npoints=401)) + "\n"
    header = json.loads(out.splitlines()[0][2:])
    assert header["ell"] == 2 and "k" not in header
    assert header["r_minus"] is not None and header["r_plus"] is not None  # a leaf band


def test_family_profile_json_carries_the_slopes(capsys):
    """profile --json on a family is the profile summary: it carries the
    slopes at both zeros, as on a space form."""
    code, out, _ = run_cli(FAMILY + ["--csv", os.devnull, "--json", "-"], capsys)
    assert code == 0
    payload = json.loads(out)
    prof = radcomp.solve_profile(radcomp.IsoparametricFamily(2, 1, 1, 3),
                                 radcomp.constant(1.0), radcomp.CauchyData(0.7854, 0.1))
    assert (payload["dU_minus"], payload["dU_plus"]) == (prof.dU_minus, prof.dU_plus)
    assert payload["dU_minus"] > 0 > payload["dU_plus"]


def test_tau_scan_on_a_family(capsys):
    """tau-scan --family scans the core leaf and writes the family header."""
    code, out, _ = run_cli(["tau-scan", "--n", "4", "--family", "2,1,2", "--f", "constant:1",
                            "--M", "0.01", "--r-grid", "0:1.5:5"], capsys)
    assert code == 0
    table = radcomp.tau_scan(radcomp.IsoparametricFamily(2, 1, 2, 4), radcomp.constant(1.0),
                             0.01, np.linspace(0, 1.5, 5))
    assert out == "\n".join(radcomp.output.tau_csv_lines(table)) + "\n"
    header = json.loads(out.splitlines()[0][2:])
    assert (header["ell"], header["m1"], header["m2"], header["n"]) == (2, 1, 2, 4)
    assert "k" not in header


def test_config_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 0.5}))
    js = tmp_path / "out.json"
    code, _, _ = run_cli(["profile", "--n", "2", "--k", "0", "--f", "constant:1",
                          "--R", "0", "--M", "9.0", "--config", str(cfg),
                          "--csv", str(tmp_path / "p.csv"), "--json", str(js)], capsys)
    assert code == 0
    assert json.loads(js.read_text())["M"] == 0.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"unknown_key": 1}))
    code, _, err = run_cli(["profile", "--n", "2", "--k", "0", "--f", "constant:1",
                            "--R", "0", "--M", "1.0", "--config", str(bad)], capsys)
    assert code == 2
    assert "unknown_key" in err


PROFILE = ["profile", "--n", "2", "--k", "0", "--f", "constant:1", "--R", "0", "--M", "0.5"]
ANNULUS = ["profile", "--n", "3", "--k", "0", "--f", "constant:1", "--R", "0.5", "--M", "0.1"]
FAMILY = ["profile", "--n", "3", "--family", "2,1,1", "--f", "constant:1",
          "--R", "0.7854", "--M", "0.1"]
MALFORMED = {  # id: (arguments, contents of a --config file or None)
    "f-params-not-numbers": (PROFILE[:6] + ["constant:abc"] + PROFILE[7:], None),
    "profile-points-negative": (PROFILE + ["--points", "-1"], None),
    "family-points-negative": (FAMILY + ["--points", "-1"], None),
    "mu-check-grid-negative": (["mu-check"] + PROFILE[1:] + ["--grid", "-1"], None),
    "r-grid-count-not-integer": (["tau-scan", "--n", "3", "--k", "1", "--f", "serrin",
                                  "--M", "1.0", "--r-grid", "0:1:abc"], None),
    "selftest-unknown-criterion": (["selftest", "--only", "99"], None),
    "selftest-criterion-not-integer": (["selftest", "--only", "a"], None),
    "config-params-arity": (PROFILE, {"f": {"family": "affine", "params": [1.0]}}),
    "config-I_f-arity": (PROFILE, {"f": {"family": "constant", "params": [1.0], "I_f": [0]}}),
    "config-I_f-lower-bool": (PROFILE, {"f": {"family": "constant", "params": [1.0],
                                              "I_f": [False, 2.0]}}),
    "config-I_f-upper-nan": (PROFILE, {"f": {"family": "constant", "params": [1.0],
                                             "I_f": [0, math.nan]}}),
    "config-I_f-upper-nan-string": (PROFILE, {"f": {"family": "constant", "params": [1.0],
                                                    "I_f": [0, "nan"]}}),
    "config-I_f-upper-bool": (PROFILE, {"f": {"family": "constant", "params": [1.0],
                                              "I_f": [0, True]}}),
    "config-I_f-upper-string": (PROFILE, {"f": {"family": "constant", "params": [1.0],
                                                "I_f": [0, "2.5"]}}),
    "config-params-not-numbers": (PROFILE, {"f": {"family": "lane_emden", "params": {"p": "x"}}}),
    "config-n-not-integer": (PROFILE, {"n": "three"}),
    "config-M-not-number": (PROFILE, {"M": "big"}),
    "f-params-not-finite": (PROFILE[:6] + ["affine:nan,1"] + PROFILE[7:], None),
    "f-params-infinite": (PROFILE[:6] + ["constant:inf"] + PROFILE[7:], None),
    "config-polynomial-coeffs-string": (PROFILE, {"f": {"family": "polynomial",
                                                        "params": {"coeffs": "12"}}}),
    "config-polynomial-coeffs-bool": (PROFILE, {"f": {"family": "polynomial",
                                                      "params": {"coeffs": [True, 2]}}}),
    "n-not-integer": (PROFILE[:2] + ["abc"] + PROFILE[3:], None),
    "n-missing": (PROFILE[:1] + PROFILE[3:], None),
    # a core off the pole, so that no start there trips over a non-finite k
    "k-nan": (ANNULUS[:4] + ["nan"] + ANNULUS[5:], None),
    "k-minus-inf": (ANNULUS[:3] + ["--k=-inf"] + ANNULUS[5:], None),
    "k-inf": (ANNULUS[:4] + ["inf"] + ANNULUS[5:], None),
    "M-inf": (ANNULUS[:-1] + ["inf"], None),
    # I_f = (0, sup_if) is open: M at its upper end has f(M) = 0
    "tau-scan-M-at-sup-if": (["tau-scan", "--n", "3", "--k", "0", "--f", "allen_cahn:3",
                              "--M", "1", "--r-grid", "0:2:3"], None),
    "gap-M-at-sup-if": (["gap", "--n", "3", "--k", "-1", "--f", "serrin",
                         "--M", "0.3333333333333333"], None),
    # the space is --k or --family, exactly one of them
    "k-and-family": (PROFILE[:3] + ["--family", "2,1,1"] + PROFILE[3:], None),
    "neither-k-nor-family": (PROFILE[:3] + PROFILE[5:], None),
    "config-k-and-family": (PROFILE, {"family": "2,1,1"}),
    "config-family-and-k": (FAMILY, {"k": 0}),
    "family-not-three-integers": (FAMILY[:4] + ["2,1"] + FAMILY[5:], None),
    "family-serrin": (FAMILY[:6] + ["serrin"] + FAMILY[7:], None),
    # the bounds and the gap need the radial equation; the library refuses a family
    "family-bounds": (["bounds"] + FAMILY[1:], None),
    "family-mu-check": (["mu-check"] + FAMILY[1:], None),
    "family-gap": (["gap"] + FAMILY[1:7] + FAMILY[9:], None),
    "family-tau-scan-json": (["tau-scan"] + FAMILY[1:7] + FAMILY[9:]
                             + ["--r-grid", "0:1.5:4", "--json", "-"], None),
}


@pytest.mark.parametrize("args, config", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_input_is_a_validation_error(args, config, tmp_path, capsys):
    """Malformed flags and config values exit 2 with one line of JSON, also
    where the parser itself rejects them."""
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        args = [*args, "--config", str(path)]
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == "validation"


def test_profile_core_on_the_far_pole(tmp_path, capsys):
    """A core at r_bar starts from that pole and shoots inward only; by
    reflection its zero sits at pi - r_plus of the centered profile."""
    js = tmp_path / "far.json"
    code, _, _ = run_cli(["profile", "--n", "3", "--k", "1", "--f", "constant:1",
                          "--R", "3.141592653589793", "--M", "0.5",
                          "--csv", str(tmp_path / "far.csv"), "--json", str(js)], capsys)
    assert code == 0
    far = json.loads(js.read_text())
    centered = radcomp.solve_profile(radcomp.SpaceForm(3, 1.0), radcomp.constant(1.0),
                                     radcomp.CauchyData(0.0, 0.5))
    assert far["r_plus"] is None
    assert abs(far["r_minus"] - (math.pi - centered.r_plus)) < 1e-9


TAU_SCAN_K1 = ["tau-scan", "--n", "3", "--k", "1", "--f", "serrin", "--M", "1"]


def test_tau_scan_grid_reaching_the_far_pole(capsys):
    """A grid ending at r_bar scans its last radius as a far-pole start."""
    code, out, _ = run_cli(TAU_SCAN_K1 + ["--r-grid", "0:3.141592653589793:5",
                                          "--json", "-"], capsys)
    assert code == 0
    assert json.loads(out.splitlines()[-1])["method"] == "exact-symmetry"


def test_tau_scan_grid_past_the_far_pole(capsys):
    code, _, err = run_cli(TAU_SCAN_K1 + ["--r-grid", "0:4:5"], capsys)
    assert code == 2
    assert json.loads(err) == {"error": "validation", "message": "core radius 4.0 outside "
                               "the interval [0.0, 3.141592653589793)"}


def test_tau_scan_far_pole_only_grid_has_no_gap(capsys):
    """The far-pole row has no outer zero, so the gap is refused as a
    numerical failure, not a crash, before any CSV is printed."""
    code, out, err = run_cli(TAU_SCAN_K1 + ["--r-grid", "3.141592653589793:3.141592653589793:1",
                                            "--json", "-"], capsys)
    assert code == 3
    assert json.loads(err)["error"] == "numerical"
    assert out == ""


def test_tau_scan_refused_gap_writes_no_csv(tmp_path, capsys):
    """The gap is estimated before the CSV is written, so a refused gap
    leaves no CSV file behind."""
    csv = tmp_path / "t.csv"
    code, out, _ = run_cli(TAU_SCAN_K1 + ["--r-grid", "3.141592653589793:3.141592653589793:1",
                                          "--csv", str(csv), "--json", "-"], capsys)
    assert code == 3
    assert out == "" and not csv.exists()


def test_profile_core_on_the_far_focal_pole(tmp_path, capsys):
    """S within the solver's pole tolerance of pi/ell starts from that pole."""
    js = tmp_path / "cap.json"
    code, _, _ = run_cli(["profile", "--n", "7", "--family", "4,1,2", "--f", "constant:1",
                          "--R", "0.7853981633975", "--M", "0.01",
                          "--csv", str(tmp_path / "cap.csv"), "--json", str(js)], capsys)
    assert code == 0
    header = json.loads(js.read_text())
    assert header["r_plus"] is None and header["r_minus"] is not None  # a focal cap


def test_cap_has_no_effect_on_a_family(capsys):
    """The outward cap bounds only an infinite interval; the leaf interval
    (0, pi/ell) is finite."""
    _, plain, _ = run_cli(FAMILY, capsys)
    code, capped, _ = run_cli(FAMILY + ["--cap", "0.01"], capsys)
    assert code == 0 and capped == plain


def test_model_gradient_critical_level():
    from radcomp import CauchyData, ComparisonPair, SpaceForm, constant, solve_profile
    prof = solve_profile(SpaceForm(3, 0.0), constant(1.0), CauchyData(0.0, 1.0))
    assert ComparisonPair(prof, "plus").model_gradient(1.0) == 0.0


def test_config_json_nonlinearity_descriptor(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"f": {"family": "affine", "params": {"lam": -0.25, "beta": 2.5}}}))
    js = tmp_path / "out.json"
    code, _, _ = run_cli(["profile", "--n", "3", "--k", "1", "--f", "constant:1",
                          "--R", "1.0", "--M", "1.0", "--config", str(cfg),
                          "--csv", str(tmp_path / "p.csv"), "--json", str(js)], capsys)
    assert code == 0
    assert json.loads(js.read_text())["f"]["family"] == "affine"


def test_selftest_single_criterion(capsys):
    code, out, _ = run_cli(["selftest", "--only", "1"], capsys)
    assert code == 0
    assert "[PASS] criterion  1" in out


def test_fig_gap_subcommand(tmp_path, capsys):
    """The gap-curve figure data, once the fig-gap command's output, come from
    selftest: criterion 5 writes the three curves, positive and decreasing."""
    code, _, _ = run_cli(["selftest", "--only", "5", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "gap_curve_n2.csv", "gap_curve_n3.csv", "gap_curve_n4.csv"]
    for n in (2, 3, 4):
        lines = (tmp_path / f"gap_curve_n{n}.csv").read_text().splitlines()
        assert lines[1] == "R,s"
        svals = [float(row.split(",")[1]) for row in lines[2:]]
        assert all(v > 0 for v in svals)
        assert all(a > b for a, b in zip(svals, svals[1:]))


def test_fig_mu_subcommand(tmp_path, capsys):
    """The mu figure data, once the fig-mu command's output, come from
    selftest: criterion 8 writes the two panels, every branch with a
    nonnegative mu."""
    code, _, _ = run_cli(["selftest", "--only", "8", "--outdir", str(tmp_path)], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "mu_scan_left.csv", "mu_scan_right.csv"]
    for panel, cores in (("left", 10), ("right", 1)):
        lines = (tmp_path / f"mu_scan_{panel}.csv").read_text().splitlines()
        assert json.loads(lines[0][2:])["panel"] == panel
        assert lines[1] == "R,branch,min_mu,argmin,all_nonnegative"
        rows = [row.split(",") for row in lines[2:]]
        assert len(rows) == 2 * cores
        assert [row[1] for row in rows] == ["1", "-1"] * cores
        assert all(row[-1] == "true" for row in rows)


@pytest.mark.parametrize("args", [
    ["gap", "--n", "4", "--family", "2,1,2", "--f", "constant:1", "--M", "0.01"],
    ["tau-scan", "--n", "4", "--family", "2,1,2", "--f", "constant:1", "--M", "0.01",
     "--r-grid", "0:1.5:5", "--json", "-"],
])
def test_a_refused_gap_solves_nothing(args, monkeypatch, capsys):
    """The library refuses a family's gap before the scan solves a leaf."""
    solves = []

    def spy(*a, **kw):
        solves.append(a)
        return radcomp.ode.solve_profile(*a, **kw)

    for module in (radcomp.tau, radcomp.cli):
        monkeypatch.setattr(module, "solve_profile", spy)
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "validation", "message": "gap estimation needs "
                               "the radial equation of a space form"}
    assert solves == []


def child_env():
    """Environment for a child process that imports the same radcomp as this
    process, installed or not, with OpenBLAS left to pick its own kernel."""
    src = str(Path(radcomp.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_ends_the_output():
    """A reader that closes stdout after one line ends the output: no
    traceback, and exit code 141 (128 + SIGPIPE)."""
    proc = subprocess.Popen([sys.executable, "-m", "radcomp", "profile", "--n", "3",
                             "--k", "1", "--f", "constant:1", "--R", "0", "--M", "0.5",
                             "--points", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline().startswith(b"# {")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 141
    assert "Traceback" not in err
    assert err == ""


def test_console_script_entrypoint():
    res = subprocess.run([sys.executable, "-m", "radcomp.cli", "profile", "--n", "2",
                          "--k", "0", "--f", "constant:1", "--R", "0", "--M", "0.5"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert "r,U,dU" in res.stdout


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.optimize", "scipy.integrate"])
def test_import_leaves_out_scipy(module):
    """Importing the package loads none of these scipy modules: roots come
    from the package's own bracketed Newton, integrals from its own
    Gauss-Kronrod rule."""
    res = subprocess.run([sys.executable, "-c", "import sys, radcomp; "
                          f"print({module!r} in sys.modules)"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_no_unused_module_imports():
    """Every name that a module of the package imports at module level is
    used in that module; the package's __init__ re-exports, so it is left out."""
    unused = []
    for path in sorted(Path(radcomp.__file__).resolve().parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((a.asname or a.name, node.lineno) for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused


def test_defaulted_parameters_do_not_grow():
    """Knob ratchet: the parameters with a default value, over every function
    and method defined in a module of the package (dataclass __init__
    included, exception classes and __main__ left out). A new default is an
    option to test and benchmark, so raising the bound is a deliberate edit."""
    count = 0
    for info in pkgutil.iter_modules(radcomp.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"radcomp.{info.name}")
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                fns = [obj]
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                fns = [m for m in vars(obj).values() if inspect.isfunction(m)]
            else:
                continue
            count += sum(p.default is not p.empty for fn in fns
                         for p in inspect.signature(fn).parameters.values())
    assert count <= 26


def test_public_names_do_not_grow():
    """Name ratchet: the package root exports at most 46 names in __all__,
    and lists there every public name it binds, apart from the submodules
    that importing from them binds. A new export is a deliberate edit."""
    assert len(radcomp.__all__) <= 46
    assert len(set(radcomp.__all__)) == len(radcomp.__all__)
    assert all(hasattr(radcomp, name) for name in radcomp.__all__)
    unlisted = [name for name, obj in vars(radcomp).items()
                if not name.startswith("_") and name not in radcomp.__all__
                and not (inspect.ismodule(obj) and obj.__name__ == f"radcomp.{name}")]
    assert not unlisted


def test_cli_surface_does_not_grow():
    """Command-line ratchet: the subcommands, and the flags summed over them
    (help left out). A new command or flag is an option to test and
    document, so raising the bound is a deliberate edit."""
    sub = next(a for a in radcomp.cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"profile", "tau-scan", "gap", "mu-check", "bounds",
                                "selftest"}
    assert sum(len([a for a in sp._actions if a.option_strings and a.dest != "help"])
               for sp in sub.choices.values()) <= 64


def test_readme_command_lines_parse():
    """Every radcomp command line in the README's sh blocks, trailing comment
    dropped, parses: no document names a deleted command or flag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    lines = [line.split("#")[0].split() for block in blocks for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["radcomp"]]
    assert len(commands) >= 8
    parser = radcomp.cli.build_parser()
    for words in commands:
        parser.parse_args(words)  # a DomainError names the line's fault


def test_no_module_imports_scipy():
    """No module of the package imports scipy, at module level or inside a
    function: numpy is its one runtime dependency."""
    found = []
    for path in sorted(Path(radcomp.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found


def test_no_module_calls_lapack_or_numpy_ma():
    """No module of the package refers to np.linalg (LAPACK) or to the numpy
    functions whose first call starts LAPACK or imports numpy.ma."""
    banned = {"linalg", "polyfit", "median", "percentile", "quantile"}
    found = []
    for path in sorted(Path(radcomp.__file__).resolve().parent.glob("*.py")):
        found += [f"{path.name}:{node.lineno} np.{node.attr}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")]
    assert not found


CLI_MODULES = """
import sys
from radcomp.cli import main
code = main(sys.argv[1:])
print(code, "scipy" in sys.modules)
"""


@pytest.mark.parametrize("args", [
    ["bounds", "--n", "2", "--k", "0", "--f", "constant:1", "--R", "1.0", "--M", "0.403426",
     "--sign", "plus"],
    ["selftest", "--only", "10"]])
def test_bounds_and_selftest_leave_out_scipy(args):
    """A bound report, with both isoperimetric quadratures, and the
    isoperimetric acceptance criterion run without loading scipy."""
    res = subprocess.run([sys.executable, "-c", CLI_MODULES, *args], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "0 False"


COLD_SHOOTING = """
import sys
import numpy as np
import radcomp
from radcomp import bounds

sf, f = radcomp.SpaceForm(3, -1.0), radcomp.serrin_fk(3, -1.0)
prof = radcomp.solve_profile(sf, f, radcomp.CauchyData(1.5, 0.25))
table = radcomp.tau_scan(sf, f, 0.25, np.concatenate([[0.0], np.linspace(0.5, 11.0, 12)]))
est = radcomp.gap_estimate(table)
assert "vinfty" in est.asymptote_data  # the limit-profile roots were found
print(sorted(m for m in ("scipy.optimize", "scipy.integrate") if m in sys.modules))
ratio = bounds.isoperimetric_model_ratio(bounds.ComparisonPair(prof, "plus"))
print(ratio > 0, "scipy.integrate" in sys.modules)
"""


def test_shooting_and_gap_leave_out_scipy():
    """A solve, a tau scan and a k = -1 gap estimate with its limit-profile
    prediction load neither scipy.optimize nor scipy.integrate, and neither
    does the first quadrature: the package integrates with its own rule."""
    res = subprocess.run([sys.executable, "-c", COLD_SHOOTING], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True False"]


COLD_GAP = """
import sys
import numpy as np
import radcomp

def refuse(*args, **kwargs):
    raise AssertionError("numpy.linalg.lstsq called")

original = np.linalg.lstsq  # replaced also where numpy's modules bound it by name
for module in list(sys.modules.values()):
    if getattr(module, "lstsq", None) is original:
        module.lstsq = refuse
for k, grid in ((-1.0, np.concatenate([[0.0], np.linspace(0.5, 11.0, 12)])),
                (0.0, np.concatenate([[0.0], np.linspace(0.5, 4.0, 6), np.linspace(5.0, 50.0, 16)])),
                (1.0, np.linspace(0.0, 2.9, 13))):
    sf = radcomp.SpaceForm(3, k)
    f = radcomp.serrin_fk(3, k)
    radcomp.gap_estimate(radcomp.tau_scan(sf, f, 0.25 if k < 0 else 1.0, grid))
print("numpy.ma" in sys.modules)
"""


def test_tau_scan_and_gap_leave_out_lapack_and_numpy_ma():
    """Tau scans and gap estimates at k = -1, 0 and 1 for the torsion-type
    nonlinearity never reach a least-squares solve and do not import numpy.ma:
    the tail extrapolation and the median are plain-float arithmetic."""
    res = subprocess.run([sys.executable, "-c", COLD_GAP], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["False"]


def test_failing_hypothesis_test_reports_its_example(tmp_path, pytestconfig):
    """Under this suite's warning filters a failing property test prints its
    falsifying example, not an INTERNALERROR from hypothesis's report hook."""
    if pytestconfig.inipath is None:
        pytest.skip("no pytest configuration file in use")
    (tmp_path / "test_always_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_always_fails(x):\n"
        "    assert x < 0\n")
    res = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(pytestconfig.inipath), "--rootdir", str(tmp_path),
                          "test_always_fails.py"],
                         capture_output=True, text=True, cwd=tmp_path, env=child_env())
    assert res.returncode == 1, res.stdout + res.stderr
    assert "Falsifying example" in res.stdout
    assert "INTERNALERROR" not in res.stdout + res.stderr


@pytest.mark.parametrize("args", [
    ["profile", "--n", "3", "--k", "-1", "--f", "serrin", "--R", "1.5", "--M", "0.25"],
    ["profile", "--n", "3", "--family", "2,1,1", "--f", "constant:1", "--R", "0.7854",
     "--M", "0.1"],
    ["gap", "--n", "3", "--k", "0", "--f", "serrin", "--M", "1.0"]])
def test_csv_bytes_do_not_depend_on_the_blas_kernel(args):
    """OpenBLAS built for several CPUs picks its kernels at run time; the
    printed profile, and the flat gap extrapolated from a tau scan, must not
    change when another kernel is forced. A BLAS without that choice ignores
    the variable."""
    env = child_env()
    outputs = []
    for forced in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        res = subprocess.run([sys.executable, "-m", "radcomp", *args], capture_output=True,
                             env={**env, **forced})
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]
