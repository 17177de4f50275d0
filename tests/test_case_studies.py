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


def exact_linear_posterior(data) -> dict[str, tuple[float, float]]:
    """(mean, sd) of alpha, both betas, beta0 + beta1/5 and sigma, exactly.

    Given sigma, the Normal(0, 10) priors and the Gaussian likelihood make
    w = (alpha, beta0, beta1) Gaussian with precision Z'Z / sigma^2 + I / 100,
    for the design Z = [1, x1, x2]; integrating w out leaves
    p(sigma | y) ~ HalfNormal(sigma; 1) N(y; 0, sigma^2 I + 100 ZZ').  A grid
    over sigma, whose end weights must be negligible, mixes the Gaussians.
    """
    y = data["y"]
    z = np.column_stack([np.ones_like(y), data["x1"], data["x2"]])
    sigma = np.linspace(0.5, 1.6, 4001)
    var = sigma[:, None] ** 2
    lam, u = np.linalg.eigh(z @ z.T)
    c = var + 100.0 * lam  # eigenvalues of the covariance of y
    log_w = -0.5 * sigma ** 2 - 0.5 * np.log(c).sum(1) - 0.5 * ((u.T @ y) ** 2 / c).sum(1)
    w = np.exp(log_w - log_w.max())
    w /= w.sum()
    assert w[0] < 1e-8 and w[-1] < 1e-8
    d, v = np.linalg.eigh(z.T @ z)
    prec = d / var + 0.01  # one row per sigma, in the eigenbasis of Z'Z
    mean = (v.T @ z.T @ y) / var / prec
    m = v @ (w @ mean)
    cov = v @ (np.diag(w @ (1.0 / prec)) + mean.T @ (w[:, None] * mean)) @ v.T - np.outer(m, m)
    out = {}
    for name, a in [("alpha", [1.0, 0.0, 0.0]), ("beta0", [0.0, 1.0, 0.0]),
                    ("beta1", [0.0, 0.0, 1.0]), ("beta0 + beta1/5", [0.0, 1.0, 0.2])]:
        out[name] = (a @ m, np.sqrt(a @ cov @ a))
    mean_sigma = w @ sigma
    out["sigma"] = (mean_sigma, np.sqrt(w @ sigma ** 2 - mean_sigma ** 2))
    return out


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
    m.add_observed("disasters", Poisson(opaque_deterministic(rate, [s, e, l], years.shape)),
                   counts, mask=mask)
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


def test_exact_linear_posterior():
    exact = exact_linear_posterior(demos.simulate_linear_data(1))
    assert exact["alpha"] == pytest.approx((0.7893, 0.1962), abs=1e-3)
    assert exact["beta0"] == pytest.approx((1.8419, 1.9880), abs=1e-3)
    assert exact["beta1"] == pytest.approx((0.3684, 9.8060), abs=1e-3)
    assert exact["sigma"] == pytest.approx((0.9862, 0.0709), abs=1e-3)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_linear_matches_exact_posterior(seed):
    # a minimum ESS near 450 puts a mean's Monte Carlo error near 0.05 sd;
    # the bounds are those of the least-squares check this test replaced,
    # fixed before its first run
    _, _, trace = demos.run_linear(500, seed)
    beta = trace.get("beta")
    draws = {"alpha": trace.get("alpha"), "beta0": beta[:, 0], "beta1": beta[:, 1],
             "beta0 + beta1/5": beta[:, 0] + beta[:, 1] / 5.0, "sigma": trace.get("sigma")}
    for name, (mean, sd) in exact_linear_posterior(demos.simulate_linear_data(seed)).items():
        assert abs(draws[name].mean() - mean) < 0.5 * sd, name
        assert 0.75 * sd < draws[name].std() < 1.25 * sd, name


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


def test_glm_logistic_as_shipped():
    model, trace = demos.run_glm_logistic(200, 1)
    assert len(trace) == 200 and model.continuous_names() == ["Intercept", "x1", "x2"]
    for name in ("Intercept", "x1", "x2"):
        assert np.all(np.isfinite(trace.get(name))), name
