"""The paper's case studies, sampled at small draw counts and checked against
what is known of their posteriors."""

import numpy as np
import pytest
from scipy.special import gammaln

from miniprob import demos
from miniprob.datasets import disasters_data, load_returns
from miniprob.exceptions import DataFileError
from miniprob.inference import find_map, sample
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


@pytest.mark.parametrize("text, match", [
    ("0.01\nabc\n0.02\n", "line 2: 'abc'"),
    ("# returns\n0.01\nnan\n", "line 3: 'nan'"),
    ("0.01\n-inf\n", "line 2: '-inf'"),
    ("0.01\n", "1 returns"),
    ("# no data\n\n", "0 returns"),
], ids=["not_a_number", "nan", "infinite", "one_return", "no_returns"])
def test_malformed_returns_file_is_a_data_error(tmp_path, text, match):
    path = tmp_path / "returns.csv"
    path.write_text(text)
    with pytest.raises(DataFileError, match=match) as exc:
        load_returns(str(path))
    assert str(path) in str(exc.value)


def test_missing_returns_file_is_a_data_error(tmp_path):
    with pytest.raises(DataFileError, match="absent.csv"):
        load_returns(str(tmp_path / "absent.csv"))


def test_two_returns_load(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("# two days\n0.01\n\n-0.02\n")
    np.testing.assert_array_equal(load_returns(str(path)), [0.01, -0.02])


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
    trace = sample(model, 20, [step], warmup=10, start=start, seed=1)
    assert len(trace) == 20
    for name in trace.names:
        assert np.all(np.isfinite(trace.get(name))), name
    for name in ("volatility_process", "nu", "sigma"):
        assert np.all(trace.get(name) > 0), name
