"""Case-study benchmark for miniprob: wall time and ESS per second of the
paper's demos, end to end, and a traced per-layer breakdown.

    python3 bench/run.py --workload linear --seed 1 --seconds 50 --trace 0
    python3 -m pytest bench          # the harness's self-tests

Each run calls ``miniprob demo <workload> --draws N --seed S --out DIR
--quiet`` in this process, one call after another, with demo seeds derived
from ``--seed``, and checks every call's trace (``workloads.gate``).  The
number of calls is fixed by ``--seconds`` and the workload's typical call
time, so a seed always makes the same calls.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
three set-ups (import miniprob, build the workload's model), one in this
process and two in fresh interpreters; ``wall_s`` and ``min_ess`` are means
over the calls, and ``min_ess_per_s`` is their ratio.  Means, because the
spread between demo seeds, not timer noise, dominates a single call.
``--trace 1`` pairs each untraced call with a traced call at the same demo
seed and reports the per-layer metrics of the traced calls (``layers.py``)
and the tracing overhead; the last traced call's spans are written to
``.bench_out/spans-<workload>.csv``.

Every metric is printed by name with its unit, each call with its trace
SHA-256 and gradient count, and the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3

# Set-up in a fresh interpreter: import miniprob, build the workload's model.
_SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
workloads.WORKLOADS[sys.argv[3]].build()
print(time.perf_counter() - t0)
"""


def _import_workloads():
    sys.path.insert(0, SRC)
    import workloads  # imports miniprob
    import miniprob
    if os.path.dirname(os.path.dirname(os.path.abspath(miniprob.__file__))) != SRC:
        raise ImportError(f"miniprob was imported from {miniprob.__file__}, not {SRC}")
    return workloads


def _setup_probe(name: str) -> float:
    out = subprocess.run([sys.executable, "-c", _SETUP_PROBE, BENCH_DIR, SRC, name],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def environment(args, workload) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "draws": workload.draws,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _planned(seconds: float, per_call_s: float) -> int:
    # a fixed plan per seed keeps a run's calls, and so its counts, repeatable
    return max(1, int(seconds // per_call_s))


def run(args) -> tuple[dict, dict, list]:
    t0 = time.perf_counter()
    workloads = _import_workloads()
    workload = workloads.WORKLOADS[args.workload]
    model = workload.build()
    setup = [time.perf_counter() - t0]

    import layers
    from tracing import Counter, Tracer

    sampling_names = model.sampling_names()
    os.makedirs(OUT_ROOT, exist_ok=True)
    deadline = time.perf_counter() + 1.15 * args.seconds  # bounds a run on a slow machine
    calls = []

    def untraced(seed):
        counter = Counter()
        layers.count_gradients(counter)
        c = workloads.run_call(workload, seed, OUT_ROOT, sampling_names, counter)
        c.grad_calls = counter.counts["grad"]
        calls.append(c)
        return c

    if not args.trace:
        setup += [_setup_probe(args.workload) for _ in range(SETUP_REPEATS - 1)]
        for seed in workloads.demo_seeds(args.workload, args.seed,
                                         _planned(args.seconds, workload.call_s)):
            if calls and time.perf_counter() > deadline:
                break
            untraced(seed)
        walls = [c.wall_s for c in calls]
        ess = [c.min_ess for c in calls]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (statistics.fmean(walls), "s"),
            "min_ess": (statistics.fmean(ess), "draws"),
            "min_ess_per_s": (sum(ess) / sum(walls), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": (sum(c.ok for c in calls) / len(calls), "fraction"),
        }
    else:
        totals, overheads = None, []
        for seed in workloads.demo_seeds(args.workload, args.seed,
                                         _planned(args.seconds, 2.2 * workload.call_s)):
            if calls and time.perf_counter() > deadline:
                break
            plain = untraced(seed)
            tracer = Tracer()
            layers.instrument(tracer)
            traced = workloads.run_call(workload, seed, OUT_ROOT, sampling_names, tracer)
            traced.grad_calls = layers.grad_calls(tracer.spans)
            calls.append(traced)
            overheads.append(traced.wall_s - plain.wall_s)
            t = layers.call_totals(tracer.spans, traced.wall_s, traced.bytes_written)
            totals = t if totals is None else layers.add_totals(totals, t)
        tracer.write_csv(os.path.join(OUT_ROOT, f"spans-{args.workload}.csv"))
        metrics = layers.layer_metrics(totals, layers.logp_nodes(model),
                                       statistics.median(overheads))
    return metrics, environment(args, workload), calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["linear", "disasters", "sp500"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        metrics, env, calls = run(args)
    except (ImportError, OSError, subprocess.SubprocessError) as e:
        sys.stderr.write(f"benchmark cannot run: {type(e).__name__}: {e}\n")
        return 2

    print("# environment " + json.dumps(env, sort_keys=True))
    for c in calls:
        print("# call " + json.dumps({
            "seed": c.seed, "ok": c.ok, "wall_s": round(c.wall_s, 4),
            "min_ess": round(c.min_ess, 3), "trace_sha256": c.trace_sha256,
            "grad_calls": c.grad_calls, "error": c.error, "gate": c.gate}))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    failed = sum(not c.ok for c in calls)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
