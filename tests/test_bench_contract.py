"""The benchmark harness under bench/ calls the package by name; these tests
run what it calls, so a change to the package that would break a benchmark
run fails here first."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from radcomp import CauchyData, ComparisonPair, SpaceForm, constant, solve_profile

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

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


def _bench_reads(tree, pair):
    """(owner, attribute, resolves) for every attribute that `tree` reads from
    radcomp, from one of its modules, from a name imported from them, or from
    a ComparisonPair it builds; `pair` is a sample pair that stands in for
    those."""
    names, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "radcomp":
                    bound = alias.asname or "radcomp"
                    names[bound] = importlib.import_module(alias.name if alias.asname
                                                           else "radcomp")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radcomp"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    try:  # a submodule that nothing has imported yet
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ModuleNotFoundError:
                        reads.append((node.module, alias.name, False))
                        continue
                names[alias.asname or alias.name] = getattr(module, alias.name)

    def resolve(node, reads):
        """The object that an expression reads from radcomp, or None; each
        attribute read on the way goes to `reads`."""
        if isinstance(node, ast.Name):
            return names.get(node.id)
        if isinstance(node, ast.Call):
            return pair if resolve(node.func, reads) is ComparisonPair else None
        if isinstance(node, ast.Attribute):
            owner = resolve(node.value, reads)
            if owner is None:
                return None
            found = hasattr(owner, node.attr)
            reads.append((getattr(owner, "__name__", type(owner).__name__), node.attr, found))
            return getattr(owner, node.attr, None)
        return None

    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and resolve(node.value, []) is pair):
            names[node.targets[0].id] = pair
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node, reads)
    return reads


def test_every_name_the_bench_reads_from_radcomp_resolves():
    """bench/*.py reads names from radcomp, from its modules and from a
    ComparisonPair (layers.py among them, which tier-1 does not run);
    deleting one of them fails here, not in a benchmark run."""
    pair = ComparisonPair(solve_profile(SpaceForm(2, 0.0), constant(1.0),
                                        CauchyData(0.5, 0.1)), "plus")
    reads = []
    for path in sorted(BENCH.glob("*.py")):
        reads += [(path.name, *read) for read in _bench_reads(ast.parse(path.read_text()), pair)]
    assert {"chi_fast", "solve_iso_profile", "serrin_explicit",
            "helmholtz_s3"} <= {attr for _, _, attr, _ in reads}
    assert [read for read in reads if not read[-1]] == []
