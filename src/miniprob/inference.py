"""Inference drivers: MAP optimization over ``samplers.Packer`` vectors and
the sample loop."""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .backends import MemoryBackend, Trace
from .exceptions import MiniprobError, NonFiniteStart, SamplingError
from .graph import Point
from .model import Model
from .rng import stream
from .samplers import Packer, _count, flatten_steps, validate_coverage

_BIG = 1e100  # stand-in for an infinite objective so optimizers keep moving


def find_map(model: Model, vars=None, method: str = "quasi_newton",
             start: Mapping | None = None) -> Point:
    """Mode of the posterior in the transformed space.

    ``quasi_newton`` runs BFGS on reverse-mode gradients; ``direction_set``
    runs Powell's derivative-free search, usable when opaque deterministic
    nodes block gradients.  Only the requested continuous variables move;
    everything else stays at its start/test value.  The returned point is
    expanded like a trace row (transformed coordinates, untransformed
    aliases and deterministics) and is never worse than the start point.
    ``scipy.optimize`` is imported on the first call, not with the package:
    sampling alone never loads it.
    """
    from scipy import optimize

    point = model.initial_point(start)
    lp0 = model.logp(point)
    if not np.isfinite(lp0):
        raise NonFiniteStart(f"log posterior is {lp0} at the optimization start")

    if vars is None:
        names = model.continuous_names()
    else:
        # discrete variables are always held fixed
        names = [n for n in model.resolve_names(vars)
                 if model.var(n).dtype == "float"]

    if names:
        packer = Packer(model, names, point)
        if method == "quasi_newton":
            def objective(x):
                lp, g = packer.logp_grad(x)
                if not np.isfinite(lp):
                    return _BIG, np.zeros_like(x)
                return -lp, -g

            res = optimize.minimize(objective, packer.start, jac=True, method="BFGS",
                                    options={"gtol": 1e-8, "maxiter": 5000})
        elif method == "direction_set":
            def objective(x):
                lp = packer.logp(x)
                return _BIG if not np.isfinite(lp) else -lp

            res = optimize.minimize(objective, packer.start, method="Powell",
                                    options={"xtol": 1e-8, "ftol": 1e-8,
                                             "maxiter": 5000, "maxfev": 500000})
        else:
            raise ValueError(f"unknown method {method!r}; use quasi_newton or direction_set")

        found = packer.point(np.atleast_1d(res.x))
        lp_final = model.logp(found)
        if np.isfinite(lp_final) and lp_final >= lp0:
            point = found

    return model.expand_point(point)


@dataclass
class SampleConfig:
    draws: int
    steps: list = field(default_factory=list)
    start: Mapping | None = None
    chains: int = 1
    seed: int = 0
    backend: object | None = None
    discard_tuned: bool = True
    warmup: int | None = None  # default: min(500, draws // 2)
    progress: Callable[[int, int, int], None] | None = None

    def __post_init__(self):
        _count("draws", self.draws, 1)
        _count("chains", self.chains, 1)
        if self.warmup is not None:
            _count("warmup", self.warmup, 0)


def sample(model: Model, config: SampleConfig) -> Trace:
    """Run the configured step methods for each chain and return the trace.

    Chain k draws from the random stream (seed, k), so any chain count with
    the same seed reproduces bit-identically chain by chain.  Warm-up draws
    tune the kernels and are recorded only when ``discard_tuned`` is off.
    When a draw fails, the backend is finished before the error propagates,
    so a ``TextBackend`` directory keeps the rows recorded so far.
    """
    model.finalize()
    steps = flatten_steps(config.steps)
    validate_coverage(model, steps)

    warmup = config.warmup
    if warmup is None:
        warmup = min(500, config.draws // 2)
    backend = config.backend if config.backend is not None else MemoryBackend()
    backend.start(model.trace_layout(), config.chains)

    total = warmup + config.draws
    try:
        for chain in range(config.chains):
            rng = stream(config.seed, chain)
            chain_steps = [s.clone() for s in steps]
            point = model.initial_point(config.start)
            for i in range(total):
                tuning = i < warmup
                try:
                    for s in chain_steps:
                        point = s.step(point, rng, tuning)
                except MiniprobError as e:
                    raise SamplingError(f"chain {chain}, draw {i}: {e}") from e
                if not config.discard_tuned or i >= warmup:
                    backend.record(chain, model.expand_point(point))
                if config.progress is not None and ((i + 1) % 100 == 0 or i + 1 == total):
                    config.progress(chain, i + 1, total)
    except BaseException:
        # keep the rows recorded so far loadable; the original error is the one to report
        with contextlib.suppress(MiniprobError):
            backend.finish()
        raise
    return backend.finish()
