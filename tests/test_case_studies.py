"""The paper's case studies, sampled at small draw counts and checked against
what is known of their posteriors."""

import numpy as np
import pytest
from scipy.special import gammaln

from miniprob import demos
from miniprob.datasets import disasters_data, load_returns
from miniprob.inference import SampleConfig, find_map, sample
from miniprob.samplers import Nuts


def exact_disasters_posterior() -> dict[str, tuple[float, float]]:
    """(mean, sd) of the switchpoint and both rates, exactly.

    Each Exponential(1) = Gamma(1, 1) rate integrates out in closed form
    given the switchpoint s: with K counts over N observed years it leaves
    Gamma(K + 1) / (N + 1)^(K + 1) and a Gamma(K + 1, N + 1) posterior.  The
    masked years drop out, since a missing count sums to one.
    """
    counts, mask, years = disasters_data()
    k, y = counts[~mask], years[~mask]
    early = y[None, :] <= years[:, None]  # one row per switchpoint
    k1, n1 = (early * k).sum(1), early.sum(1)
    k2, n2 = k.sum() - k1, len(k) - n1
    log_w = (gammaln(k1 + 1) - (k1 + 1) * np.log(n1 + 1)
             + gammaln(k2 + 1) - (k2 + 1) * np.log(n2 + 1))
    w = np.exp(log_w - log_w.max())
    w /= w.sum()

    def moments(mean, var):
        m = np.dot(w, mean)
        return m, np.sqrt(np.dot(w, var + mean ** 2) - m ** 2)

    return {
        "switchpoint": moments(years.astype(float), np.zeros(len(years))),
        "early_rate": moments((k1 + 1) / (n1 + 1), (k1 + 1) / (n1 + 1) ** 2),
        "late_rate": moments((k2 + 1) / (n2 + 1), (k2 + 1) / (n2 + 1) ** 2),
    }


def test_exact_disasters_posterior():
    exact = exact_disasters_posterior()
    assert exact["switchpoint"] == pytest.approx((1889.784, 2.4406), abs=1e-3)
    assert exact["early_rate"] == pytest.approx((3.0870, 0.2860), abs=1e-4)
    assert exact["late_rate"] == pytest.approx((0.9317, 0.1175), abs=1e-4)


@pytest.mark.parametrize("seed", [1, 2])
def test_disasters_matches_exact_posterior(seed):
    # 1000 kept draws have a minimum ESS near 20, so a mean's Monte Carlo
    # error is about 0.25 posterior sd; the bounds are three times that
    _, trace = demos.run_disasters(1000, seed)
    for name, (mean, sd) in exact_disasters_posterior().items():
        draws = trace.get(name).astype(float)
        assert abs(draws.mean() - mean) < 0.75 * sd, name
        assert 0.5 * sd < draws.std() < 2.0 * sd, name


def test_sp500_short_run_is_finite_and_positive():
    model = demos.sp500_model(load_returns())
    start = find_map(model, vars=["s"], method="quasi_newton")
    step = Nuts(model, scaling=start)
    trace = sample(model, SampleConfig(draws=20, warmup=10, steps=[step],
                                       start=start, seed=1))
    assert len(trace) == 20
    for name in trace.names:
        assert np.all(np.isfinite(trace.get(name))), name
    for name in ("volatility_process", "nu", "sigma"):
        assert np.all(trace.get(name) > 0), name
