import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_gap_positive_curvature_empty(tmp_path, capsys):
    js = tmp_path / "gap.json"
    code, _, _ = run_cli(["gap", "--n", "3", "--k", "1", "--f", "serrin",
                          "--M", "1.0", "--json", str(js)], capsys)
    assert code == 0
    payload = json.loads(js.read_text())
    assert payload["gap"] == []
    assert payload["method"] == "exact-symmetry"
    assert payload["tau0"] == pytest.approx(1.0, abs=1e-9)


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


def test_iso_subcommand(tmp_path, capsys):
    csv = tmp_path / "iso.csv"
    code, _, _ = run_cli(["iso", "--ell", "2", "--m1", "1", "--m2", "1", "--n", "3",
                          "--f", "constant:1", "--S", "0.785398", "--M", "0.1",
                          "--csv", str(csv)], capsys)
    assert code == 0
    header = json.loads(csv.read_text().splitlines()[0][2:])
    assert header["ell"] == 2 and header["domain"] == "leaf-band"


def test_fig_gap_subcommand(tmp_path, capsys):
    out = tmp_path / "figs"
    code, stdout, _ = run_cli(["fig-gap", "--n", "2,3", "--r-grid", "1:8:8",
                               "--outdir", str(out)], capsys)
    assert code == 0
    for n in (2, 3):
        lines = (out / f"gap_curve_n{n}.csv").read_text().splitlines()
        assert lines[1] == "R,s"
        svals = [float(row.split(",")[1]) for row in lines[2:]]
        assert all(v > 0 for v in svals)
        assert all(a > b for a, b in zip(svals, svals[1:]))


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


def test_fig_mu_subcommand(tmp_path, capsys):
    out = tmp_path / "mu"
    code, _, _ = run_cli(["fig-mu", "--outdir", str(out)], capsys)
    assert code == 0
    for panel in ("left", "right"):
        lines = (out / f"mu_scan_{panel}.csv").read_text().splitlines()
        assert lines[1] == "R,branch,min_mu,argmin,all_nonnegative"
        flags = [row.split(",")[-1] for row in lines[2:]]
        assert all(v == "true" for v in flags)


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


def child_env():
    """Environment for a child process that imports the same radcomp as this
    process, installed or not, with OpenBLAS left to pick its own kernel."""
    src = str(Path(radcomp.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_console_script_entrypoint():
    res = subprocess.run([sys.executable, "-m", "radcomp.cli", "profile", "--n", "2",
                          "--k", "0", "--f", "constant:1", "--R", "0", "--M", "0.5"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0
    assert "r,U,dU" in res.stdout


@pytest.mark.parametrize("module", ["scipy.interpolate", "scipy.optimize", "scipy.integrate"])
def test_import_leaves_out_scipy(module):
    """Importing the package loads none of these scipy modules: roots come
    from the package's own bracketed Newton, and quad is imported by the
    functions that integrate."""
    res = subprocess.run([sys.executable, "-c", "import sys, radcomp; "
                          f"print({module!r} in sys.modules)"],
                         capture_output=True, text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


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
    prediction load neither scipy.optimize nor scipy.integrate; the first
    quadrature then imports quad."""
    res = subprocess.run([sys.executable, "-c", COLD_SHOOTING], capture_output=True,
                         text=True, env=child_env())
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "True True"]


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
    ["iso", "--ell", "2", "--m1", "1", "--m2", "1", "--n", "3", "--f", "constant:1",
     "--S", "0.7854", "--M", "0.1"]])
def test_csv_bytes_do_not_depend_on_the_blas_kernel(args):
    """OpenBLAS built for several CPUs picks its kernels at run time; the
    printed profile must not change when another kernel is forced. A BLAS
    without that choice ignores the variable."""
    env = child_env()
    outputs = []
    for forced in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        res = subprocess.run([sys.executable, "-m", "radcomp", *args], capture_output=True,
                             env={**env, **forced})
        assert res.returncode == 0, res.stderr
        outputs.append(res.stdout)
    assert outputs[0] == outputs[1]
