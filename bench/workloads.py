"""The benchmark's workloads: one ``miniprob demo`` call per seed, timed from
outside, then checked and measured from the trace it wrote.

Importing this module imports miniprob, so importing it and building a
workload's model is the benchmark's set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from miniprob import backends, cli, datasets, demos, stats


def _far_from(targets) -> list[str]:
    """Errors for each (label, draws, centre, tolerance) whose mean misses."""
    errors = []
    for label, draws, centre, tol in targets:
        mean = float(np.mean(draws))
        if not abs(mean - centre) <= tol:
            errors.append(f"{label}: mean {mean:.4g} not within {tol} of {centre}")
    return errors


def check_linear(trace) -> list[str]:
    """alpha, sigma and the identified slope beta0 + beta1/5 cover their
    simulated truths 1, 1 and 1.5 (the demo's x2 is x1/5, so only that slope
    is identified).  Each tolerance is five posterior sd as the design fixes
    them (100 points, x1 on [0, 1], noise sd 1): 0.2, 0.07 and 0.35.  The sd
    of a 100-draw chain is too noisy to set them."""
    beta = trace["beta"]
    return _far_from([("alpha", trace["alpha"], 1.0, 1.0),
                      ("sigma", trace["sigma"], 1.0, 0.35),
                      ("beta0 + beta1/5", beta[:, 0] + beta[:, 1] / 5.0, 1.5, 1.75)])


def check_disasters(trace) -> list[str]:
    """The switchpoint lies near 1890, the early rate near 3, the late near 1.
    The switchpoint posterior spans about 1886-1895 and a short Metropolis
    chain (ESS 10-40) can sit at one end of it, hence ten years."""
    return _far_from([("switchpoint", trace["switchpoint"], 1890.0, 10.0),
                      ("early_rate", trace["early_rate"], 3.0, 0.6),
                      ("late_rate", trace["late_rate"], 1.0, 0.3)])


def check_sp500(trace) -> list[str]:
    """The volatility path and the positive parameters stay positive."""
    return [f"{name} has non-positive draws" for name in ("volatility_process", "nu", "sigma")
            if not np.all(trace[name] > 0)]


@dataclass(frozen=True)
class Workload:
    name: str
    draws: int        # --draws given to the demo; stats.ess needs at least 100
    call_s: float     # typical untraced call time; sets the calls made per run
    build: Callable   # the demo's model, built the way the demo builds it
    check: Callable   # workload-specific posterior checks -> error strings


WORKLOADS = {w.name: w for w in [
    Workload("linear", 100, 2.2,
             lambda: demos.linear_model(demos.simulate_linear_data(1)), check_linear),
    # The chain starts at the demo's testval 1900, next to a local mode at
    # 1909-1910 that it can take a few hundred iterations to leave; 1000
    # draws after 500 warm-up iterations keep such a start from moving the
    # mean by the gate's ten years (see SHORT_DISASTERS_SEED in the tests).
    Workload("disasters", 1000, 3.8, demos.disasters_model, check_disasters),
    # about a minute per call on a 2-core machine, too long for the declared
    # workloads' time budget; run by hand with --seconds 60 or more
    Workload("sp500", 100, 60.0,
             lambda: demos.sp500_model(datasets.load_returns()), check_sp500),
]}


def demo_seeds(workload: str, seed: int, n: int) -> list[int]:
    """Per-call demo seeds derived from the benchmark seed."""
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(1, 2 ** 31) for _ in range(n)]


def trace_sha256(trace) -> str:
    """Digest of every stored array, in layout order, with names and shapes."""
    h = hashlib.sha256()
    for name, shape, dtype in trace.layout:
        h.update(f"{name}:{shape}:{dtype}\n".encode())
        for chain in trace.chains:
            h.update(np.ascontiguousarray(chain[name]).tobytes())
    return h.hexdigest()


def min_ess(trace, sampling_names) -> float:
    """Minimum ESS over every scalar column of the sampling coordinates."""
    values = []
    for name in sampling_names:
        flat = trace[name].reshape(len(trace), -1)
        values.extend(stats.ess(flat[:, j]) for j in range(flat.shape[1]))
    return min(values)


def gate(workload: Workload, trace) -> list[str]:
    """Checks shared by all workloads, then the workload's own."""
    errors = []
    if len(trace) != workload.draws:
        errors.append(f"trace holds {len(trace)} draws, expected {workload.draws}")
    for name in trace.names:
        if not np.all(np.isfinite(trace[name])):
            errors.append(f"{name} has non-finite values")
    return errors + workload.check(trace)


@dataclass
class Call:
    seed: int
    wall_s: float = 0.0
    error: str = ""
    gate: list = field(default_factory=list)
    min_ess: float = 0.0
    trace_sha256: str = ""
    grad_calls: int = 0
    bytes_written: int = 0

    @property
    def ok(self) -> bool:
        return not self.error and not self.gate


def run_call(workload: Workload, seed: int, out_root: str, sampling_names,
             patcher=None) -> Call:
    """One ``miniprob demo`` call.  ``patcher`` (a tracer or counter already
    in place) is restored as soon as the call returns, so the gate, ESS and
    fingerprint, computed from the written trace, are neither traced nor
    timed."""
    call = Call(seed)
    out = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_root)
    argv = ["demo", workload.name, "--draws", str(workload.draws), "--seed", str(seed),
            "--out", out, "--quiet"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit) as e:  # any failure of the call counts
                rc = f"{type(e).__name__}: {e}"
            finally:
                call.wall_s = time.perf_counter() - t0
                if patcher is not None:
                    patcher.restore()
        if rc != cli.EXIT_OK:
            call.error = f"demo returned {rc}"
            return call
        trace_dir = os.path.join(out, "trace")
        try:
            trace = backends.load(trace_dir)
            call.gate = gate(workload, trace)
            call.min_ess = min_ess(trace, sampling_names)
        except Exception as e:  # a trace that cannot be read or measured fails
            call.error = f"trace check raised {type(e).__name__}: {e}"
            return call
        call.trace_sha256 = trace_sha256(trace)
        call.bytes_written = sum(os.path.getsize(os.path.join(trace_dir, f))
                                 for f in os.listdir(trace_dir) if f.endswith(".csv"))
        return call
    finally:
        shutil.rmtree(out, ignore_errors=True)
