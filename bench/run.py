"""radcomp benchmark: seeded closed-loop workloads, end to end or traced.

    python3 bench/run.py --workload scan|bounds|selftest --seed N \\
        --seconds S --trace 0|1

Run from the repository root. The program under test is ./src/radcomp; every
process gets PYTHONPATH=src, RADCOMP_THREADS unset and BLAS pinned to one
thread. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric by name with its unit, the sample counts, the seed, and the Python,
numpy and scipy versions and CPU count.

--trace 0 reports the end-to-end metrics:
    setup_s      launch of a fresh interpreter -> first timed op ready
                 (import radcomp, input generation, warm-up), median of
                 SETUP_LAUNCHES launches
    ops_per_s    completed ops per second of op time
    op_p50_ms    median op latency
    op_p90_ms    90th percentile op latency (nearest rank)
    peak_rss_mb  peak resident memory of the workload process
and prints fail_frac. A failure is an exception other than a typed refusal,
or a failed correctness check; the run exits 1 if there is one.

The times are calibrated to a fixed host speed. On a shared host the speed
of the CPU drifts by tens of percent over seconds to minutes, which swamps
the differences a regression bound has to resolve. So the worker runs a
fixed reference kernel, which radcomp does not touch, after every op and
after start-up, and each time is scaled by REF_S / (reference time measured
next to it). The uncalibrated figures are printed on a line of their own.

--trace 1 reports the per-layer metrics: isolated timings of each layer's
public functions (layers.py), spans traced around every layer boundary on
TRACE_OPS ops (tracer.py), and the tracing overhead against the same number
of other, untraced ops (uncalibrated, so host drift shows in it). A second process repeats the traced ops with the same seed;
the run fails unless its counts and check outcomes are identical, and unless
another seed gives other inputs.

Results and span traces are written to .bench_out/; scratch files live in
.bench_tmp/ and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("scan", "bounds", "selftest")
SETUP_LAUNCHES = 3
REF_S = 0.0014      # reference-kernel seconds that define the calibrated host speed
REF_WINDOW = 9      # ops whose reference times calibrate one op
CLI_REPEATS = 3
RUN_BUDGET_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
SELF_TIME_LAYERS = ("spaceform", "nonlinearity", "ode")   # busy on every workload
EXPECT_NONZERO = {"scan": ("solves", "rhs_calls", "spaceform_calls"),
                  "bounds": ("solves", "rhs_calls", "spaceform_calls", "dense_points"),
                  "selftest": ("solves", "rhs_calls", "spaceform_calls", "dense_points")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pinned_env():
    env = dict(os.environ)
    env.pop("RADCOMP_THREADS", None)
    env.update({v: "1" for v in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def launch(args, mode, env, tmp, deadline):
    """Start one worker; returns (seconds from launch to READY, the worker's
    reference-kernel time right after READY, result or None)."""
    out = tmp / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--root", str(ROOT), "--tmpdir", str(tmp), "--out", str(out)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        line = _readline(proc, deadline)
        setup = perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{mode} worker did not get ready (read {line!r})")
        ref = _readline(proc, deadline).split()
        if len(ref) != 2 or ref[0] != "REF":
            raise BenchError(f"{mode} worker sent no reference time (read {ref!r})")
        proc.wait(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker overran the {RUN_BUDGET_S:.0f} s run budget") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    return setup, float(ref[1]), (json.loads(out.read_text()) if mode != "setup" else None)


def _readline(proc, deadline):
    """Next line of a worker's standard output, or '' once the deadline passes."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        ready = sel.select(timeout=max(0.0, deadline - perf_counter()))
    return proc.stdout.readline() if ready else ""


def calibrated(durations, refs):
    """Durations rescaled to a host on which the reference kernel takes REF_S:
    each op by the median reference time of the REF_WINDOW ops around it."""
    half = REF_WINDOW // 2
    return [d * REF_S / statistics.median(refs[max(0, i - half):i + half + 1])
            for i, d in enumerate(durations)]


def timed_cli(cmd, env, tmp, deadline):
    """Wall time of one fresh-interpreter command, and its standard output."""
    t0 = perf_counter()
    done = subprocess.run(cmd, env=env, cwd=tmp, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise BenchError(f"{cmd[1:4]} exited {done.returncode}: {done.stderr.strip()}")
    return elapsed, done.stdout


def cli_timings(env, tmp, deadline):
    imports, colds = [], []
    csv = tmp / "profile.csv"
    for _ in range(CLI_REPEATS):
        _, text = timed_cli([sys.executable, "-c",
                             "import time; t = time.perf_counter(); import radcomp; "
                             "print(time.perf_counter() - t)"], env, tmp, deadline)
        imports.append(float(text))
        elapsed, _ = timed_cli([sys.executable, "-m", "radcomp", "profile", "--n", "3",
                                "--k=-1", "--f", "serrin", "--R", "1.5", "--M", "0.25",
                                "--csv", str(csv)], env, tmp, deadline)
        if len(csv.read_text().splitlines()) != 403:
            raise BenchError("radcomp profile wrote an unexpected CSV")
        colds.append(elapsed)
    return {"cli.import_s": statistics.median(imports),
            "cli.profile_cold_s": statistics.median(colds)}


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(args, env, tmp, deadline):
    launches = [launch(args, "setup", env, tmp, deadline)
                for _ in range(SETUP_LAUNCHES - 1)]
    launches.append(launch(args, "timed", env, tmp, deadline))
    res = launches[-1][2]
    raw_setups = [s for s, _, _ in launches]
    setups = [s * REF_S / ref for s, ref, _ in launches]
    raw = res["durations"]
    d = calibrated(raw, res["refs"])
    n = len(d)
    beyond = n - math.ceil(0.9 * n)
    warm = res["warmup_ops"]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} launches: "
                    + " ".join(f"{s:.3f}" for s in setups)),
        "ops_per_s": (n / sum(d), "1/s", f"{n} ops in {sum(d):.2f} s of op time"),
        "op_p50_ms": (statistics.median(d) * 1e3, "ms", f"{n} samples"),
        "op_p90_ms": (nearest_rank(d, 0.9) * 1e3, "ms",
                      f"{n} samples, {beyond} beyond p90"
                      + ("" if beyond >= 10 else " (fewer than 10)")),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", "workload process"),
    }
    failures = res["warmup_failures"] + res["failures"]
    attempted = n + warm
    notes = [f"uncalibrated: setup_s {statistics.median(raw_setups):.6g} s, ops_per_s "
             f"{n / sum(raw):.6g} 1/s, op_p50_ms {statistics.median(raw) * 1e3:.6g} ms, "
             f"op_p90_ms {nearest_rank(raw, 0.9) * 1e3:.6g} ms; reference kernel "
             f"median {statistics.median(res['refs']) * 1e3:.4g} ms (REF_S "
             f"{REF_S * 1e3:g} ms)",
             f"{'fail_frac':<12} {len(failures) / attempted:.4g}"
             f"  ({len(failures)} of {attempted} ops, {warm} of them warm-up)"]
    return res, metrics, attempted, failures, notes


def per_layer(args, env, tmp, deadline):
    a = launch(args, "traced", env, tmp, deadline)[2]
    b = launch(args, "counts", env, tmp, deadline)[2]
    failures = a["warmup_failures"] + a["failures"]
    ops = a["ops"]
    n = len(ops)
    counts = [op["counts"] for op in ops]
    lines = []

    # determinism: same seed, same counts and outcomes; another seed, other inputs
    drift = []
    if counts != [op["counts"] for op in b["ops"]]:
        drift.append("traced counts differ between two runs of one seed")
    if a["outcomes"] != b["outcomes"]:
        drift.append("check outcomes differ between two runs of one seed")
    if a["input_digest"] != b["input_digest"]:
        drift.append("inputs differ between two runs of one seed")
    if args.workload != "selftest" and a["input_digest"] == a["other_seed_digest"]:
        drift.append(f"seeds {args.seed} and {args.seed + 1} give the same inputs")
    lines.append(f"determinism: {'; '.join(drift) or 'ok'} (counts and outcomes of "
                 f"{n} traced ops compared; inputs {a['input_digest']}, "
                 f"seed+1 {a['other_seed_digest']})")
    failures += [f"determinism: {d}" for d in drift]
    total = {key: sum(c[key] for c in counts) for key in counts[0]}
    for key in EXPECT_NONZERO[args.workload]:
        if total[key] == 0:
            failures.append(f"self-check: traced count {key} is zero on {args.workload}")

    op_s = sum(op["duration_s"] for op in ops)
    traced_outcomes = a["outcomes"][len(a["untraced_s"]):]
    solves = max(total["solves"], 1)
    m = {
        "trace.overhead_pct": (100.0 * (op_s / sum(a["untraced_s"]) - 1.0), "%"),
        "ode.solves_per_op": (total["solves"] / n, "count"),
        "ode.rhs_calls_per_solve": (total["rhs_calls"] / solves, "count"),
        "ode.dense_evals_per_op": (total["dense_points"] / n, "count"),
        "spaceform.calls_per_op": (total["spaceform_calls"] / n, "count"),
        "ode.admissible_frac": (total["admissible"] / solves, "ratio"),
        "tau.gap_refused": (sum(o[1] for o in traced_outcomes), "count"),
        "bounds.not_applicable": (sum(o[2] for o in traced_outcomes), "count"),
    }
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_s"] = (sum(op["self_s"].get(layer, 0.0) for op in ops) / n, "s")
    for name, value in a["layers"].items():
        m[name] = (value, _unit(name))
    for name, value in cli_timings(env, tmp, deadline).items():
        m[name] = (value, "s")

    lines.append(f"traced ops: {n}; {a['wrapped']} functions wrapped; "
                 f"op time {op_s:.3f} s traced vs {sum(a['untraced_s']):.3f} s untraced")
    lines.append("self time per op, and time under each layer's outermost spans:")
    for layer in ("bench",) + LAYERS:
        self_s = sum(op["self_s"].get(layer, 0.0) for op in ops) / n
        cov = sum(op["covered_s"].get(layer, 0.0) for op in ops)
        lines.append(f"  {layer:<14} self {self_s * 1e3:10.3f} ms   "
                     f"covers {100.0 * cov / op_s:6.2f}% of op time")
    lines += layer_split(args.workload, ops, op_s)
    return a, m, 2 * n + a["warmup_ops"], failures, lines


def layer_split(workload, ops, op_s):
    """How well the workload separates the layers (printed, not enforced)."""
    if workload == "scan":
        share = sum(op["covered_s"].get("ode", 0.0) for op in ops) / op_s
        return [f"layer split: ode spans cover {100 * share:.1f}% of scan op time "
                f"(design target >= 80%)"]
    if workload == "bounds":
        solve = sum(op["top_s"].get("ode.solve_profile", 0.0) for op in ops)
        rest = sum(v for op in ops for k, v in op["top_s"].items()
                   if k.startswith(("bounds.", "output.")))
        dense = sum(op["dense_s"] for op in ops)
        return [f"layer split: solve_profile covers {100 * solve / op_s:.1f}% of bounds op "
                f"time (design target <= 25%); bounds and output spans cover "
                f"{100 * rest / (op_s - solve):.1f}% of the rest, dense evaluation "
                f"inside them {100 * dense / op_s:.1f}% of op time"]
    return []


def _unit(name):
    """Time unit from the name's suffix: cotk_ns, solve_profile_ms.k0, crit01_s."""
    return re.search(r"_(ns|us|ms|s)(\.|$)", name).group(1)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, if it is there."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    deadline = perf_counter() + RUN_BUDGET_S
    if not (ROOT / "src" / "radcomp" / "__init__.py").is_file():
        print(f"bench: no radcomp package under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    env = pinned_env()
    lines = [f"radcomp benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    if args.workload == "selftest":
        lines.append("seed: ignored by selftest (inputs pinned in acceptance.py)")
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_tmp"))
    try:
        run = per_layer if args.trace else end_to_end
        res, metrics, attempted, failures, notes = run(args, env, tmp, deadline)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(f"bench: metrics {sorted(set(metrics) ^ set(declared))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    renv = dict(res["env"], cpus=os.cpu_count(), seed=args.seed, workload=args.workload,
                radcomp_threads="unset", blas_threads=1)
    lines.insert(1, "env: " + json.dumps(renv, sort_keys=True))
    for name, (value, unit, *note) in metrics.items():
        lines.append(f"{name:<12} {value:.6g} {unit}" + (f"  ({note[0]})" if note else ""))
    lines += notes
    for f in failures[:20]:
        lines.append(f"FAILED: {f}")

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": renv, "seconds": args.seconds, "attempted": attempted,
              "failures": failures,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    if args.trace:
        (out / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(res["trace"]))
    else:
        record["op_durations_s"] = res["durations"]
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": record["metrics"]}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
