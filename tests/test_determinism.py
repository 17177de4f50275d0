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
The disasters, glm_logistic and NUTS-beside-Metropolis pins were recorded
again when Metropolis began to learn a proposal sd per coordinate in warm-up;
beside NUTS it now rejects more often, so NUTS reuses the gradient after more
steps and the gradient counts fell.
No pin moved when each kernel step began to return its point with what it
evaluated there, in place of leaving ``known`` on the kernel.
The disasters pin alone was recorded again when Metropolis began to give
each integer coordinate its own proposal and accept/reject after the joint
move of the continuous ones: its block is all integer, so its chain moves and,
moving more often, it leaves NUTS a gradient to reuse after fewer steps (the
gradient count rose).  A block of continuous coordinates draws as before, so
the glm_logistic and NUTS-beside-Metropolis pins hold.
The linear, disasters, GLM-linear and NUTS-beside-Metropolis pins (and the
sp500 pin in ``test_case_studies``) were recorded again when NUTS stopped
searching for its first step size and began at 0.25 / d**0.25: the search
drew a momentum from the chain's stream and spent gradients on the first
step, so every NUTS chain moves.  Slice, HMC and the Metropolis-only
glm_logistic chain draw no NUTS step, so their pins hold.
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
    (lambda: demos.run_linear(100, 1)[2], "b3704373f9b809fe", 857),
    (lambda: demos.run_disasters(300, 1)[1], "f881a4975518451e", 2017),
    (lambda: demos.run_glm_linear(100, 1)[1], "0a9d4de524e13de7", 905),
    (lambda: demos.run_glm_logistic(200, 1)[1], "0c7c590e2b2cc15e", 0),
], ids=["linear", "disasters", "glm_linear", "glm_logistic"])
def test_demo_trace_is_pinned(grad_calls, run, sha_prefix, calls):
    trace = run()
    assert (trace_sha256(trace)[:16], grad_calls[0]) == (sha_prefix, calls)


def kernel_model() -> Model:
    m = Model()
    m.add_free("x", Normal(mu=1.0, sd=2.0), shape=3)
    m.add_free("e", Exponential(1.0))
    return m.finalize()


@pytest.mark.parametrize("steps, draws, sha_prefix, calls", [
    (lambda m: [Slice(m)], 200, "41ccf40804d54f2f", 0),
    (lambda m: [Hmc(m)], 300, "fe4d00ddd17c029f", 3610),
    (lambda m: [Nuts(m, vars=["x"]), Metropolis(m, vars=["e"])], 300,
     "92a7a857243c4e21", 3693),
], ids=["slice", "hmc", "nuts_metropolis"])
def test_two_chain_kernel_trace_is_pinned(grad_calls, steps, draws, sha_prefix, calls):
    m = kernel_model()
    trace = sample(m, draws, steps(m), seed=3, chains=2)
    assert (trace_sha256(trace)[:16], grad_calls[0]) == (sha_prefix, calls)
