"""Simulation-based calibration of each kernel (Talts et al., arXiv:1804.06788).

Replication r draws mu* from the prior N(0, 1) and five observations from
N(mu*, 1), then samples mu given them.  When a kernel targets the right
posterior, the rank of mu* among L independent posterior draws is uniform on
{0, ..., L}.  After 50 warm-up draws every fifth of 45 draws is kept (on this
posterior the lag-5 autocorrelation is below 0.1 for every kernel), so
L = 9.  The ranks of 100 replications per kernel are binned in pairs, and a
chi-square test on the five bins must give p > 0.001.  The seeds, counts and
threshold were fixed before the first run.
"""

import numpy as np
import pytest
from scipy import stats

from miniprob import Hmc, Metropolis, Model, Normal, Nuts, Slice, sample

REPLICATIONS = 100
WARMUP, DRAWS, THIN = 50, 45, 5
N_OBS = 5
P_MIN = 0.001


def rank_counts(kernel, model_obs_sd=1.0) -> np.ndarray:
    """How often the rank of mu* falls in each bin of two ranks; the sampled
    model's observation sd is ``model_obs_sd``, the data's is 1."""
    ranks = []
    for r in range(REPLICATIONS):
        rng = np.random.default_rng((1804, r))
        mu_true = rng.standard_normal()
        y = mu_true + rng.standard_normal(N_OBS)
        m = Model()
        mu = m.add_free("mu", Normal(mu=0.0, sd=1.0))
        m.add_observed("y", Normal(mu=mu.value, sd=model_obs_sd), y)
        trace = sample(m, DRAWS, [kernel(m)], warmup=WARMUP, seed=r)
        ranks.append(int(np.sum(trace["mu"][THIN - 1::THIN] < mu_true)))
    return np.bincount(np.array(ranks) // 2, minlength=5)


@pytest.mark.parametrize("kernel", [Metropolis, Slice, Hmc, Nuts])
def test_ranks_are_uniform(kernel):
    assert stats.chisquare(rank_counts(kernel)).pvalue > P_MIN


def test_a_wrong_posterior_is_detected():
    # the sampled model has observation sd 0.5; the data were made with sd 1
    assert stats.chisquare(rank_counts(Metropolis, model_obs_sd=0.5)).pvalue < P_MIN
