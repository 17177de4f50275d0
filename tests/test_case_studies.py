"""The paper's case studies, sampled at small draw counts and checked against
what is known of their posteriors."""

import numpy as np
import pytest
from scipy.special import gammaln

from miniprob import demos
from miniprob.datasets import disasters_data, load_returns
from miniprob.distributions import DiscreteUniform, Exponential, Poisson
from miniprob.exceptions import DataError
from miniprob.graph import opaque_deterministic
from miniprob.inference import find_map, sample
from miniprob.model import Model
from miniprob.samplers import Metropolis, Nuts


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
    with pytest.raises(DataError, match=match) as exc:
        load_returns(str(path))
    assert str(path) in str(exc.value)


def test_missing_returns_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="absent.csv"):
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


def test_as_op_disasters_calls_its_function_once_per_proposal():
    """The paper's arbitrary deterministic: the rate switch as a black-box
    function of (switchpoint, early rate, late rate), sampled by Metropolis."""
    counts, mask, years = disasters_data()
    calls = []

    def rate(s, e, l):
        calls.append(1)
        return np.where(years <= s, e, l)

    m = Model()
    s = m.add_free("switchpoint", DiscreteUniform(int(years.min()), int(years.max())),
                   testval=1900)
    e = m.add_free("early_rate", Exponential(1.0))
    l = m.add_free("late_rate", Exponential(1.0))
    m.add_observed("disasters", Poisson(opaque_deterministic(rate, [s.value, e.value, l.value],
                                                             years.shape)), counts, mask=mask)
    m.finalize()  # evaluates the test point, where the chain starts
    calls.clear()
    trace = sample(m, 1000, [Metropolis(m)], seed=1)
    assert len(calls) == 1500  # every proposal moves the rates: 500 tuning, 1000 kept
    # the graph's own switch gives the same chain, to the bit
    same = demos.disasters_model()
    expected = sample(same, 1000, [Metropolis(same)], seed=1)
    assert trace.names == expected.names
    for name in trace.names:
        np.testing.assert_array_equal(trace.get(name), expected.get(name))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linear_matches_least_squares(seed):
    # x2 == x1 / 5 in the simulated data, so only alpha, beta0 + beta1 / 5
    # and sigma are identified; compare them with least squares of y on
    # [1, x1].  A minimum ESS near 450 puts a mean's Monte Carlo error near
    # 0.05 sd.  The bounds were fixed before the first run.
    data = demos.simulate_linear_data(seed)
    np.testing.assert_allclose(data["x2"], data["x1"] / 5.0, atol=1e-15)
    design = np.column_stack([np.ones_like(data["x1"]), data["x1"]])
    coef, rss, _, _ = np.linalg.lstsq(design, data["y"], rcond=None)
    scale = np.sqrt(rss[0] / (len(data["y"]) - 2))
    se = scale * np.sqrt(np.diag(np.linalg.inv(design.T @ design)))
    _, _, trace = demos.run_linear(500, seed)
    beta = trace.get("beta")
    for draws, mean, sd in zip([trace.get("alpha"), beta[:, 0] + beta[:, 1] / 5.0], coef, se):
        assert abs(draws.mean() - mean) < 0.5 * sd
        assert 0.75 * sd < draws.std() < 1.25 * sd
    assert 0.9 * scale < trace.get("sigma").mean() < 1.1 * scale


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
