"""Seed-fixed case-study runs pinned to their trace digest and gradient count.

The values were recorded before the sampling coordinates were routed through
one flat-vector log-density path; the disasters digest was recorded again when
log-gamma and digamma moved to ``scipy.special`` (same gradient count, same
switchpoint and missing-value columns, rates within 1.1e-13).  Any change to
the arithmetic of MAP, scaling, leapfrog or kernel bookkeeping moves the
digest, and any extra or missing gradient evaluation moves the count.
"""

import hashlib

import numpy as np
import pytest

from miniprob import demos
from miniprob.model import Model


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
    (lambda: demos.run_linear(100, 1)[2], "3384524a9e23c90d", 3811),
    (lambda: demos.run_disasters(300, 1)[1], "ebbfa216d1b3ec52", 2221),
    (lambda: demos.run_glm_linear(100, 1)[1], "1cff730802a57227", 16923),
], ids=["linear", "disasters", "glm_linear"])
def test_demo_trace_is_pinned(grad_calls, run, sha_prefix, calls):
    trace = run()
    assert (trace_sha256(trace)[:16], grad_calls[0]) == (sha_prefix, calls)
