"""Seeded random streams.

Streams come from the counter-based Philox generator keyed on
``(seed, stream)`` so that chain k of a run is reproducible in isolation:
chain k always uses stream ``(seed, k)`` regardless of how many chains run.
"""

from __future__ import annotations

import numpy as np

from .graph import _count

# stream index reserved for synthetic-data generation in the demos, far away
# from any plausible chain index
DATA_STREAM = 2 ** 32


def stream(seed: int, idx: int = 0) -> np.random.Generator:
    """Stream ``idx`` of ``seed``, each an integer (not a bool) in [0, 2**64)."""
    key = np.array([_count("seed", seed, 0, 2 ** 64), _count("stream index", idx, 0, 2 ** 64)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
