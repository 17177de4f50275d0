"""Inference drivers: ``find_map`` optimizes over ``samplers.Packer``
vectors; ``sample(model, draws, steps, *, start, chains, seed, backend,
warmup, progress)`` runs the paper's sample loop, which hands each step the
log density (and gradient) that the step before it returned with its point."""

from __future__ import annotations

import contextlib
from typing import Callable, Mapping

import numpy as np

from .backends import MemoryBackend, Trace
from .exceptions import MiniprobError, SamplingError
from .graph import Point, _count
from .model import Model, finite_logp
from .rng import stream
from .samplers import Packer, StepMethod, _or_neg_inf, validate_coverage

# Powell's stand-in for an infinite objective: given inf, scipy's Powell warns
# "invalid value encountered in scalar multiply" as it brackets its line search
_BIG = 1e100


def find_map(model: Model, vars=None, method: str = "quasi_newton",
             start: Mapping | None = None) -> Point:
    """Mode of the posterior in the transformed space.

    ``quasi_newton`` runs BFGS on reverse-mode gradients; ``direction_set``
    runs Powell's derivative-free search, usable when opaque deterministic
    nodes block gradients.  A trial point whose log density is not finite
    (-inf or NaN) costs BFGS +inf, as it does every kernel (``_or_neg_inf``),
    and Powell ``_BIG``.  Only the requested continuous variables move;
    everything else stays at its start/test value.  The returned point is
    expanded like a trace row (transformed coordinates, untransformed
    aliases and deterministics) and is never worse than the start point.
    ``scipy.optimize`` is imported on the first call, not with the package:
    sampling alone never loads it.
    """
    if method not in ("quasi_newton", "direction_set"):
        raise ValueError(f"unknown method {method!r}; use quasi_newton or direction_set")
    from scipy import optimize

    point = model.initial_point(start)
    lp0 = finite_logp(model.logp(point), "the optimization start")

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
                return -_or_neg_inf(lp), -g

            res = optimize.minimize(objective, packer.start, jac=True, method="BFGS",
                                    options={"gtol": 1e-8, "maxiter": 5000})
        else:  # direction_set
            def objective(x):
                lp = packer.logp(x)
                return _BIG if not np.isfinite(lp) else -lp

            res = optimize.minimize(objective, packer.start, method="Powell",
                                    options={"xtol": 1e-8, "ftol": 1e-8,
                                             "maxiter": 5000, "maxfev": 500000})

        found = packer.point(np.atleast_1d(res.x))
        lp_final = model.logp(found)
        if np.isfinite(lp_final) and lp_final >= lp0:
            point = found

    return model.expand_point(point)


def sample(model: Model, draws: int, steps: list, *, start: Mapping | None = None,
           chains: int = 1, seed: int = 0, backend=None, warmup: int | None = None,
           progress: Callable | None = None) -> Trace:
    """Draw ``draws`` per chain with the step methods in the list ``steps``.

    Chain k starts at ``start`` and draws from the random stream (seed, k),
    so a seed reproduces each chain bit-identically at any chain count.  The
    first ``warmup`` draws (default min(500, draws // 2)) tune the kernels and
    are not recorded.  Each step gets the ``known`` values that the step
    before it returned with its point (``StepMethod``), as every graph node,
    an opaque one too, is pure; a chain's first step evaluates its start.
    ``backend`` defaults to memory; ``progress(chain, draw, total)`` is
    called every 100 draws.  ``seed`` is read by ``rng.stream``: an integer
    (not a bool) in [0, 2**64).  Bad counts, a bad seed, a bad ``start``,
    ``progress`` or ``backend``, a step built on another model or a model
    with no free variable raise before the backend starts; after a failed
    draw it is still finished, keeping its rows.
    """
    draws = _count("draws", draws, 1)
    chains = _count("chains", chains, 1)
    rngs = [stream(seed, chain) for chain in range(chains)]
    warmup = min(500, draws // 2) if warmup is None else _count("warmup", warmup, 0)
    if not (isinstance(steps, list) and all(isinstance(s, StepMethod) for s in steps)):
        raise ValueError(f"steps must be a list of step methods, got {steps!r}")
    if any(s.model is not model for s in steps):
        raise ValueError("every step method must be built on the model being sampled")
    if not model.free_vars:
        raise ValueError("model has no free variables to sample")
    origin = model.initial_point(start)
    finite_logp(model.logp(origin), "the sampling start")
    validate_coverage(model, steps)
    if progress is not None and not callable(progress):
        raise ValueError(f"progress must be None or callable, got {progress!r}")
    backend = MemoryBackend() if backend is None else backend
    if not all(callable(getattr(backend, f, None)) for f in ("start", "record", "finish")):
        raise ValueError(f"backend needs callable start, record and finish, got {backend!r}")
    backend.start(model.trace_layout(), chains)

    total = warmup + draws
    try:
        for chain in range(chains):
            rng = rngs[chain]
            chain_steps = [s.clone() for s in steps]
            point, known = dict(origin), None
            for i in range(total):
                tuning = i < warmup
                try:
                    for s in chain_steps:
                        point, known = s.step(point, rng, tuning, known)
                except MiniprobError as e:
                    raise SamplingError(f"chain {chain}, draw {i}: {e}") from e
                if i >= warmup:
                    backend.record(chain, model.expand_point(point))
                if progress is not None and ((i + 1) % 100 == 0 or i + 1 == total):
                    progress(chain, i + 1, total)
    except BaseException:
        # keep the rows recorded so far loadable; the original error is the one to report
        with contextlib.suppress(MiniprobError):
            backend.finish()
        raise
    return backend.finish()
