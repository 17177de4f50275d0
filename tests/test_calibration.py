"""Simulation-based calibration of each kernel (Talts et al., arXiv:1804.06788).

Replication r draws a true value from the prior and data from the model, then
samples the posterior given the data.  When a kernel targets the right
posterior, the rank of the true value among L independent posterior draws is
uniform on {0, ..., L}.  After 50 warm-up draws every fifth of 45 draws is
kept (on these posteriors the lag-5 autocorrelation is below 0.1 for every
kernel), so L = 9.  The ranks of 100 replications per kernel are binned in
pairs, and a chi-square test on the five bins must give p > 0.001.  The
seeds, counts and threshold were fixed before the first run.

Two targets: mu* ~ N(0, 1) with five observations from N(mu*, 1), and
rate* ~ Exponential(1) with five Poisson(rate*) counts.  The rate is sampled
on the log scale, so the second target checks the log-Jacobian path.
"""

import numpy as np
import pytest
from scipy import stats

from miniprob import (
    Custom,
    DiscreteUniform,
    Exponential,
    Hmc,
    Metropolis,
    Model,
    Normal,
    Nuts,
    Poisson,
    Slice,
    graph,
    sample,
)

REPLICATIONS = 100
WARMUP, DRAWS, THIN = 50, 45, 5
N_OBS = 5
P_MIN = 0.001


def normal_target(model_obs_sd=1.0):
    """The conjugate Normal target; the sampled model's observation sd is
    ``model_obs_sd``, the data's is 1."""
    def make(rng):
        mu_true = rng.standard_normal()
        y = mu_true + rng.standard_normal(N_OBS)
        m = Model()
        mu = m.add_free("mu", Normal(mu=0.0, sd=1.0))
        m.add_observed("y", Normal(mu=mu, sd=model_obs_sd), y)
        return m, "mu", mu_true
    return make


def rate_target(jacobian=True):
    """The Poisson-rate target, ranked on ``rate_log``; without ``jacobian``
    the Exponential prior is written on ``rate_log`` itself, with no
    log-Jacobian term."""
    def make(rng):
        rate_true = rng.exponential(1.0)
        y = rng.poisson(rate_true, N_OBS)
        m = Model()
        if jacobian:
            rate = m.add_free("rate", Exponential(1.0))
        else:
            u = m.add_free("rate_log", Custom(lambda u: -graph.exp(u)), testval=0.0)
            rate = graph.exp(u)
        m.add_observed("y", Poisson(rate), y)
        return m, "rate_log", np.log(rate_true)
    return make


def rank_counts(kernel, make, seed) -> np.ndarray:
    """How often the rank of the true value falls in each bin of two ranks;
    ``make(rng)`` gives (model, ranked column, true value)."""
    ranks = []
    for r in range(REPLICATIONS):
        m, column, truth = make(np.random.default_rng((seed, r)))
        trace = sample(m, DRAWS, [kernel(m)], warmup=WARMUP, seed=r)
        ranks.append(int(np.sum(trace[column][THIN - 1::THIN] < truth)))
    return np.bincount(np.array(ranks) // 2, minlength=5)


@pytest.mark.parametrize("kernel", [Metropolis, Slice, Hmc, Nuts])
def test_ranks_are_uniform(kernel):
    assert stats.chisquare(rank_counts(kernel, normal_target(), 1804)).pvalue > P_MIN


def test_a_wrong_posterior_is_detected():
    # the sampled model has observation sd 0.5; the data were made with sd 1
    counts = rank_counts(Metropolis, normal_target(model_obs_sd=0.5), 1804)
    assert stats.chisquare(counts).pvalue < P_MIN


@pytest.mark.parametrize("kernel", [Metropolis, Nuts])
def test_transformed_rate_ranks_are_uniform(kernel):
    assert stats.chisquare(rank_counts(kernel, rate_target(), 1507)).pvalue > P_MIN


def test_a_missing_jacobian_is_detected():
    counts = rank_counts(Metropolis, rate_target(jacobian=False), 1507)
    assert stats.chisquare(counts).pvalue < P_MIN


def test_one_block_on_two_scales_is_calibrated():
    """The disasters failure in miniature: one Metropolis on a block of two
    coordinates whose posterior sds differ about 100 times.  a* ~ N(0, 10) and
    b* ~ N(0, 0.1), each with five observations at its prior's sd, so the
    posterior sds are 4.1 and 0.041.  300 warm-up draws run well past
    ``Metropolis.ADAPT_AFTER``; every tenth of 90 draws is kept (in pilot runs
    on other seeds the lag-10 autocorrelation of either coordinate was at most
    0.23), so L = 9, binned and tested as above.  The seeds, counts and
    threshold were fixed before the first run."""
    ranks = {"a": [], "b": []}
    for r in range(REPLICATIONS):
        rng = np.random.default_rng((1997, r))
        truth = {"a": 10.0 * rng.standard_normal(), "b": 0.1 * rng.standard_normal()}
        m = Model()
        for name, sd in (("a", 10.0), ("b", 0.1)):
            mu = m.add_free(name, Normal(mu=0.0, sd=sd))
            m.add_observed(f"y_{name}", Normal(mu=mu, sd=sd),
                           truth[name] + sd * rng.standard_normal(N_OBS))
        trace = sample(m, 90, [Metropolis(m)], warmup=300, seed=r)
        for name in ranks:
            ranks[name].append(int(np.sum(trace[name][9::10] < truth[name])))
    for name, rank in ranks.items():
        counts = np.bincount(np.array(rank) // 2, minlength=5)
        assert stats.chisquare(counts).pvalue > P_MIN, (name, counts.tolist())


def test_an_all_integer_block_is_calibrated():
    """The disasters Metropolis block in miniature: one Metropolis on a
    switchpoint s* ~ DiscreteUniform(0, 11) and one missing count.  Twelve
    Poisson counts have rate 3 up to year s* and 1 after it; year 6's count is
    missing, and its simulated value is ranked with s*.  After 100 warm-up
    draws, well past ``Metropolis.ADAPT_AFTER``, every fifth of 45 draws is
    kept, so L = 9, binned and tested as above.  A rank among tied draws is
    drawn uniformly over the tie.  The seeds, counts and threshold were fixed
    before the first run."""
    years = np.arange(12)
    ranks = {"s": [], "y.missing_values": []}
    for r in range(REPLICATIONS):
        rng = np.random.default_rng((2009, r))
        s_true = int(rng.integers(0, 12))
        counts = rng.poisson(np.where(years <= s_true, 3.0, 1.0))
        m = Model()
        s = m.add_free("s", DiscreteUniform(0, 11), testval=5)
        rate = graph.switch(s >= years.astype(np.float64), graph.const(3.0), graph.const(1.0))
        m.add_observed("y", Poisson(rate), counts, mask=years == 6)
        trace = sample(m, DRAWS, [Metropolis(m)], warmup=100, seed=r)
        truth = {"s": s_true, "y.missing_values": counts[6]}
        for name, rank in ranks.items():
            kept = np.ravel(trace[name])[THIN - 1::THIN]
            below, tied = int(np.sum(kept < truth[name])), int(np.sum(kept == truth[name]))
            rank.append(below + int(rng.integers(0, tied + 1)))
    for name, rank in ranks.items():
        counts = np.bincount(np.array(rank) // 2, minlength=5)
        assert stats.chisquare(counts).pvalue > P_MIN, (name, counts.tolist())
