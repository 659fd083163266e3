"""The benchmark harness under bench/ calls the package by name; these tests
run what it calls, so a change to the package that would break a benchmark
run fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracer  # noqa: E402
import workloads  # noqa: E402

STRATUM = 9  # consecutive inputs that visit every (n, k) or (k, family) cell once


@pytest.mark.parametrize("name", ["scan", "bounds"])
def test_first_stratum_of_seed_one_passes_its_checks(name, tmp_path):
    wl = workloads.Workload(name, tmp_path)
    for inp in workloads.make_inputs(name, 1, workloads.TIMED_STREAM, STRATUM):
        assert wl.check(inp, wl.run(inp)) == [], inp


def test_tracer_wraps_every_binding_and_counts_the_solves(tmp_path):
    """install() refuses when a binding of a wrapped function is left; a
    traced scan op counts one solve per grid radius plus the normalization,
    and every solve as admissible except the rows that are not."""
    tr = tracer.Tracer()
    assert tr.install() > 0
    try:
        inp = workloads.make_inputs("scan", 1, workloads.TIMED_STREAM, 1)[0]
        res = tr.run_op(0, workloads.Workload("scan", tmp_path).run, inp)
    finally:
        tr.uninstall()
    assert tr.ops[0].solves == len(inp.grid) + 1
    assert tr.ops[0].admissible == tr.ops[0].solves - res.rows_not_admissible
