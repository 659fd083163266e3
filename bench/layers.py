"""Isolated per-layer timings: one public function on fixed inputs, timed
after one warm-up call, reported as the median of several repeats. Run with
tracing removed. Each entry notes the end-to-end metric it should move.

    spaceform.cotk_ns, nonlinearity.f_ns     ops_per_s on scan (less on bounds)
    ode.solve_profile_ms.k-1 / .k0 / .k1     scan latency and ops_per_s; selftest
    ode.one_leg_ms                           scan (single leg from the pole, R = 0)
    ode.dense_eval_us                        op_p50_ms on bounds, nothing on scan
    tau.scan51_ms, tau.gap_estimate_ms       scan
    bounds.*                                 bounds
    closedform.*, isoparametric.*            selftest
    output.profile_csv_ms                    bounds and selftest
    acceptance.critNN_s                      ops_per_s on selftest

The two `cli` entries need a fresh interpreter each and are timed by run.py.
"""

from __future__ import annotations

import math
import shutil
import statistics
from time import perf_counter

import numpy as np

import radcomp
from radcomp import acceptance, bounds, closedform, output
from workloads import op_selftest

SCAN51_GRID = np.concatenate([[0.0], np.linspace(0.12, 10.0, 50)])


def median_time(fn, reps, inner=1):
    """Median over `reps` repeats of the mean time of `inner` calls."""
    fn()
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        times.append((perf_counter() - t0) / inner)
    return statistics.median(times)


def layer_timings():
    """Metric name -> value for every in-process isolated entry."""
    m = {}
    sf_h = radcomp.SpaceForm(3, -1.0)
    f_h = radcomp.serrin_fk(3, -1.0)
    m["spaceform.cotk_ns"] = median_time(lambda: sf_h.cotk(1.3), 5, 20000) * 1e9
    m["nonlinearity.f_ns"] = median_time(lambda: f_h(0.2), 5, 20000) * 1e9

    for label, k, R, M in (("k-1", -1.0, 1.5, 0.25), ("k0", 0.0, 1.0, 1.0),
                           ("k1", 1.0, 1.0, 1.0)):
        sf, f, cd = radcomp.SpaceForm(3, k), radcomp.serrin_fk(3, k), radcomp.CauchyData(R, M)
        m[f"ode.solve_profile_ms.{label}"] = median_time(
            lambda: radcomp.solve_profile(sf, f, cd), 7) * 1e3
    cd0 = radcomp.CauchyData(0.0, 0.25)
    m["ode.one_leg_ms"] = median_time(lambda: radcomp.solve_profile(sf_h, f_h, cd0), 7) * 1e3

    prof = radcomp.solve_profile(sf_h, f_h, radcomp.CauchyData(1.0, 0.25))
    rs = np.linspace(prof.r_minus, prof.r_plus, 2001)
    m["ode.dense_eval_us"] = median_time(lambda: prof.u(rs), 5) / rs.size * 1e6

    table = radcomp.tau_scan(sf_h, f_h, 0.25, SCAN51_GRID)
    m["tau.scan51_ms"] = median_time(
        lambda: radcomp.tau_scan(sf_h, f_h, 0.25, SCAN51_GRID), 3) * 1e3
    m["tau.gap_estimate_ms"] = median_time(lambda: radcomp.gap_estimate(table), 7) * 1e3

    pair = bounds.ComparisonPair(prof, "plus")
    levels = np.linspace(0.05, 0.95, 20) * pair.M
    m["bounds.chi_inverse_us"] = median_time(
        lambda: [pair.chi_inverse(s) for s in levels], 5) / levels.size * 1e6
    m["bounds.chi_cache_ms"] = median_time(
        lambda: bounds.ComparisonPair(prof, "plus").chi_fast(0.5 * pair.M), 5) * 1e3
    m["bounds.mu_sign_scan_ms"] = median_time(lambda: bounds.mu_sign_scan(pair), 5) * 1e3
    m["bounds.coarea_ms"] = median_time(
        lambda: bounds.isoperimetric_coarea_ratio(pair), 5) * 1e3
    m["bounds.volume_ms"] = median_time(
        lambda: bounds.isoperimetric_model_ratio(pair), 5) * 1e3

    m["closedform.serrin_explicit_ms"] = median_time(
        lambda: closedform.serrin_explicit(sf_h, 1.0, 0.25, 1.5), 5) * 1e3
    m["closedform.helmholtz_s3_ms"] = median_time(
        lambda: closedform.helmholtz_s3(-0.25, 2.5, 0.8, 1.0, 1.0), 5) * 1e3
    m["closedform.asymptotic_gap_ms"] = median_time(
        lambda: closedform.asymptotic_gap(3, acceptance.FIG_GAP_M_TILDE), 7) * 1e3

    fam, c1 = radcomp.IsoparametricFamily(2, 1, 1, 3), radcomp.constant(1.0)
    m["isoparametric.band_solve_ms"] = median_time(
        lambda: radcomp.solve_iso_profile(fam, c1, math.pi / 4.0, 0.1), 5) * 1e3
    m["isoparametric.focal_solve_ms"] = median_time(
        lambda: radcomp.solve_iso_profile(fam, c1, 0.0, 0.1), 5) * 1e3

    m["output.profile_csv_ms"] = median_time(
        lambda: output.profile_csv_lines(prof, npoints=401), 5) * 1e3
    return m


def criterion_timings(outdir):
    """acceptance.critNN_s from one pass, and the criteria that failed."""
    try:
        results = op_selftest(None, outdir).value
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    times = {f"acceptance.crit{r.number:02d}_s": r.elapsed for r in results}
    return times, [r.line() for r in results if not r.passed]
