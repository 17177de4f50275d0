"""Seed-fixed case-study and two-chain kernel runs pinned to their trace
digest and gradient count.

The values were recorded before the sampling coordinates were routed through
one flat-vector log-density path; the disasters digest was recorded again when
log-gamma and digamma moved to ``scipy.special`` (same gradient count, same
switchpoint and missing-value columns, rates within 1.1e-13).  The linear
and GLM-linear digests and counts were recorded again when a point
``scaling`` began to give HMC/NUTS a dense mass matrix from the full Hessian
(their betas are nearly collinear).  The disasters rates and the kernel
models have diagonal Hessians in ascending order, so the eigendecomposition
of the mass is the identity and the matrix products of the one metric path
give the bits of the former elementwise products: they keep their pins.
The kernel pins were recorded before the kernels' fixed settings became
class constants and ``clone()`` became a deep copy; each of their chains
runs on a clone.
The gradient counts, and no digest, were recorded again when a kernel step
began to reuse the log density and gradient that the previous step left for
the point it returned (now handed on by ``sample`` as ``known``): a lone
NUTS or HMC chain makes one gradient fewer per step after its first, and
NUTS beside Metropolis one fewer after each rejected Metropolis step.  Each
skipped call would have returned the same bits, so no chain moves.
Any change to the arithmetic of MAP, scaling, leapfrog or kernel bookkeeping
moves the digest, and any extra or missing gradient evaluation moves the count.
"""

import hashlib

import numpy as np
import pytest

from miniprob import demos
from miniprob.distributions import Exponential, Normal
from miniprob.inference import sample
from miniprob.model import Model
from miniprob.samplers import Hmc, Metropolis, Nuts, Slice


def trace_sha256(trace) -> str:
    """Digest of every stored array, in layout order, with names and shapes."""
    h = hashlib.sha256()
    for name, shape, dtype in trace.layout:
        h.update(f"{name}:{shape}:{dtype}\n".encode())
        for chain in trace.chains:
            h.update(np.ascontiguousarray(chain[name]).tobytes())
    return h.hexdigest()


@pytest.fixture
def grad_calls(monkeypatch):
    """Counts every Model.logp_and_dlogp and Model.dlogp call."""
    count = [0]
    for attr in ("logp_and_dlogp", "dlogp"):
        original = getattr(Model, attr)

        def counted(self, *args, _original=original, **kwargs):
            count[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Model, attr, counted)
    return count


@pytest.mark.parametrize("run, sha_prefix, calls", [
    (lambda: demos.run_linear(100, 1)[2], "30e8eee8685ea7d4", 782),
    (lambda: demos.run_disasters(300, 1)[1], "ebbfa216d1b3ec52", 1972),
    (lambda: demos.run_glm_linear(100, 1)[1], "06ca5abe6742d240", 812),
], ids=["linear", "disasters", "glm_linear"])
def test_demo_trace_is_pinned(grad_calls, run, sha_prefix, calls):
    trace = run()
    assert (trace_sha256(trace)[:16], grad_calls[0]) == (sha_prefix, calls)


def kernel_model() -> Model:
    m = Model()
    m.add_free("x", Normal(mu=1.0, sd=2.0), shape=3)
    m.add_free("e", Exponential(1.0))
    return m.finalize()


@pytest.mark.parametrize("steps, draws, sha_prefix, calls", [
    (lambda m: [Slice(m)], 200, "518a17d251fb6a8e", 0),
    (lambda m: [Hmc(m)], 300, "fe4d00ddd17c029f", 3610),
    (lambda m: [Nuts(m, vars=["x"]), Metropolis(m, vars=["e"])], 300,
     "36309773b856faea", 3880),
], ids=["slice", "hmc", "nuts_metropolis"])
def test_two_chain_kernel_trace_is_pinned(grad_calls, steps, draws, sha_prefix, calls):
    m = kernel_model()
    trace = sample(m, draws, steps(m), seed=3, chains=2)
    assert (trace_sha256(trace)[:16], grad_calls[0]) == (sha_prefix, calls)
