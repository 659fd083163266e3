"""One benchmark process: import radcomp, generate the seeded inputs, warm up,
print READY, then run one of the modes below and write a JSON result file.

    setup   stop after READY (run.py times launch -> READY several times)
    timed   closed loop of ops for --seconds, tracing off
    traced  TRACE_OPS ops untraced, then TRACE_OPS further ops traced, then
            the isolated layer timings
    counts  as traced, without the layer timings (the determinism rerun)

Started by run.py with the environment pinned; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

WARMUP_OPS = {"scan": 3, "bounds": 3, "selftest": 0}   # one per k for scan/bounds
REF_LOOP = 20000          # iterations of the reference kernel (~2 ms)
REF_AT_SETUP = 5          # reference kernels run right after READY
TRACE_OPS = {"scan": 18, "bounds": 18, "selftest": 1}
INPUTS_PER_SECOND = 100   # input list cap, far above the op rates seen


def reference_kernel():
    """Seconds taken by fixed work that radcomp does not touch: an interpreter
    float loop and a small numpy interpolation. Its time follows the host's
    current speed, which on a shared host drifts by tens of percent."""
    import numpy as np
    t0 = perf_counter()
    x = 0.3
    for _ in range(REF_LOOP):
        x = x * 0.999 + 1.0 / (1.0 + x)
    np.interp(np.linspace(0.0, 1.0, 2000), np.linspace(0.0, 1.0, 50), np.linspace(0.0, x, 50))
    return perf_counter() - t0


def timed_loop(wl, inputs, seconds):
    """Run ops until `seconds` have passed; checks and a reference kernel run
    after each op, outside its timing."""
    durations, refs, failures = [], [], []
    start = perf_counter()
    for inp in inputs:
        if perf_counter() - start >= seconds:
            break
        _, problems, dt = run_checked(wl, inp, lambda: wl.run(inp))
        durations.append(dt)
        refs.append(reference_kernel())
        failures += failure(inp, problems)
    else:
        raise SystemExit(f"all {len(inputs)} inputs used before {seconds} s passed; "
                         "raise INPUTS_PER_SECOND")
    return durations, refs, failures


def failure(inp, problems):
    """One failure entry per failed op."""
    return [f"{inp}: {'; '.join(problems)}"] if problems else []


def run_checked(wl, inp, call):
    """(result, problems, seconds) of one op; an exception is a problem."""
    t0 = perf_counter()
    try:
        res = call()
    except Exception as e:  # a failed op is counted; the loop goes on
        dt = perf_counter() - t0
        wl.cleanup()
        return None, [f"{type(e).__name__}: {e}"], dt
    dt = perf_counter() - t0
    try:
        problems = wl.check(inp, res)
    finally:
        wl.cleanup()
    return res, problems, dt


def traced_segments(wl, name, inputs, with_layers, tmpdir):
    """Untraced then traced ops on disjoint inputs; layer timings if asked."""
    from tracer import Tracer
    n = TRACE_OPS[name]
    plain, fails, outcomes = [], [], []
    for inp in inputs[:n]:
        res, problems, dt = run_checked(wl, inp, lambda: wl.run(inp))
        plain.append(dt)
        outcomes.append(wl.outcome(res, problems))
        fails += failure(inp, problems)
    tracer = Tracer()
    wrapped = tracer.install()
    try:
        for i, inp in enumerate(inputs[n:2 * n]):
            res, problems, _ = run_checked(
                wl, inp, lambda: tracer.run_op(i, wl.run, inp))
            outcomes.append(wl.outcome(res, problems))
            fails += failure(inp, problems)
    finally:
        tracer.uninstall()
    ops = tracer.ops
    if name == "scan":
        for op, inp in zip(ops, inputs[n:2 * n]):
            if op.solves != len(inp.grid) + 1:
                raise SystemExit(f"self-check: scan op {op.op_id} made {op.solves} "
                                 f"solves for {len(inp.grid)} rows (expected rows + 1)")
    out = {"wrapped": wrapped, "untraced_s": plain, "failures": fails,
           "outcomes": outcomes, "ops": [summarize(op) for op in ops],
           "trace": tracer.dump()}
    if with_layers:
        import layers
        out["layers"] = layers.layer_timings()
        crit, crit_fails = layers.criterion_timings(tmpdir / "criteria")
        out["layers"].update(crit)
        out["failures"] += crit_fails
    return out


def summarize(op):
    return {"duration_s": op.duration, "counts": op.counts(), "self_s": dict(op.self_s),
            "covered_s": dict(op.covered_s), "top_s": dict(op.top_s),
            "dense_s": op.dense_s}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced", "counts"), required=True)
    p.add_argument("--root", required=True)
    p.add_argument("--tmpdir", required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()

    import numpy
    import scipy
    import radcomp
    import workloads as W

    src = Path(args.root, "src").resolve()
    if src not in Path(radcomp.__file__).resolve().parents:
        raise SystemExit(f"radcomp imported from {radcomp.__file__}, not from {src}")
    tmpdir = Path(args.tmpdir)
    wl = W.Workload(args.workload, tmpdir)
    cap = max(64, int(INPUTS_PER_SECOND * args.seconds))
    timed = W.make_inputs(args.workload, args.seed, W.TIMED_STREAM, cap)
    warm = W.make_inputs(args.workload, args.seed, W.WARMUP_STREAM,
                         WARMUP_OPS[args.workload])
    if args.workload != "selftest" and (len(set(timed)) != len(timed) or set(timed) & set(warm)):
        raise SystemExit("timed inputs repeat or overlap the warm-up inputs")
    warm_fail = []
    for inp in warm:
        warm_fail += failure(f"warm-up {inp}", run_checked(wl, inp, lambda: wl.run(inp))[1])
    print("READY", flush=True)
    setup_ref = sorted(reference_kernel() for _ in range(REF_AT_SETUP))[REF_AT_SETUP // 2]
    print(f"REF {setup_ref!r}", flush=True)
    if args.mode == "setup":
        return 0

    result = {
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "scipy": scipy.__version__, "radcomp": radcomp.__version__},
        "input_digest": W.digest(timed[:2 * TRACE_OPS[args.workload]]),
        "other_seed_digest": W.digest(W.make_inputs(
            args.workload, args.seed + 1, W.TIMED_STREAM, 2 * TRACE_OPS[args.workload])),
        "warmup_ops": len(warm),
        "warmup_failures": warm_fail,
    }
    if args.mode == "timed":
        durations, refs, failures = timed_loop(wl, timed, args.seconds)
        result.update(durations=durations, refs=refs, failures=failures)
    else:
        result.update(traced_segments(wl, args.workload, timed, args.mode == "traced",
                                      tmpdir))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
