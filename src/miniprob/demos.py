"""Bundled case-study models and their end-to-end sampling recipes.

The CLI wraps these with file output; tests drive them directly.  Synthetic
data is regenerated from this package's own seeded streams, so published
point values are tolerance targets rather than exact goldens.
"""

from __future__ import annotations

import numpy as np

from . import graph
from .datasets import disasters_data, load_returns
from .distributions import (
    Bernoulli,
    DiscreteUniform,
    Exponential,
    GaussianRandomWalk,
    HalfNormal,
    Normal,
    Poisson,
    StudentT,
)
from .glm import BinomialFamily, build_model
from .inference import find_map, sample
from .model import Model
from .rng import DATA_STREAM, stream
from .samplers import Metropolis, Nuts

LINEAR_ALPHA = 1.0
LINEAR_BETA = (1.0, 2.5)
LINEAR_SIGMA = 1.0
LINEAR_SIZE = 100


def simulate_linear_data(seed: int) -> dict[str, np.ndarray]:
    """y = alpha + beta0*x1 + beta1*x2 + noise on fixed predictor grids."""
    rng = stream(seed, DATA_STREAM)
    x1 = np.linspace(0.0, 1.0, LINEAR_SIZE)
    x2 = np.linspace(0.0, 0.2, LINEAR_SIZE)
    y = (LINEAR_ALPHA + LINEAR_BETA[0] * x1 + LINEAR_BETA[1] * x2
         + rng.standard_normal(LINEAR_SIZE) * LINEAR_SIGMA)
    return {"x1": x1, "x2": x2, "y": y}


def linear_model(data: dict[str, np.ndarray]) -> Model:
    model = Model()
    alpha = model.add_free("alpha", Normal(mu=0.0, sd=10.0))
    beta = model.add_free("beta", Normal(mu=0.0, sd=10.0), shape=2)
    sigma = model.add_free("sigma", HalfNormal(sd=1.0))
    mu = alpha + beta[0] * data["x1"] + beta[1] * data["x2"]
    model.add_observed("Y_obs", Normal(mu=mu, sd=sigma), data["y"])
    return model.finalize()


def run_linear(draws: int, seed: int, backend=None, progress=None):
    data = simulate_linear_data(seed)
    model = linear_model(data)
    start = find_map(model, method="direction_set")
    step = Nuts(model, scaling=start)
    return model, start, sample(model, draws, [step], start=start, seed=seed,
                                backend=backend, progress=progress)


def disasters_model() -> Model:
    counts, mask, years = disasters_data()
    model = Model()
    switchpoint = model.add_free(
        "switchpoint",
        DiscreteUniform(int(years.min()), int(years.max())),
        testval=1900)
    early = model.add_free("early_rate", Exponential(1.0))
    late = model.add_free("late_rate", Exponential(1.0))
    rate = graph.switch(switchpoint >= years.astype(np.float64), early, late)
    model.add_observed("disasters", Poisson(rate), counts, mask=mask)
    return model.finalize()


def run_disasters(draws: int, seed: int, backend=None, progress=None):
    model = disasters_model()
    steps = [
        Nuts(model, vars=["early_rate", "late_rate"]),
        Metropolis(model, vars=["switchpoint", "disasters.missing_values"]),
    ]
    return model, sample(model, draws, steps, seed=seed, backend=backend,
                         progress=progress)


def sp500_model(returns: np.ndarray) -> Model:
    n = returns.shape[0]
    model = Model()
    nu = model.add_free("nu", Exponential(0.1), testval=0.1)
    sigma = model.add_free("sigma", Exponential(50.0), testval=0.1)
    s = model.add_free("s", GaussianRandomWalk(tau=sigma ** -2.0), shape=n)
    volatility = model.add_deterministic("volatility_process", graph.exp(-2.0 * s))
    model.add_observed("r", StudentT(nu=nu, lam=1.0 / volatility), returns)
    return model.finalize()


def run_sp500(draws: int, seed: int, data_path=None, backend=None, progress=None):
    """Staged fit: MAP over the volatility path, a short pilot run, then the
    main run re-scaled at the pilot's final point."""
    returns = load_returns(data_path)
    model = sp500_model(returns)
    start = find_map(model, vars=["s"], method="quasi_newton")

    pilot_step = Nuts(model, scaling=start)
    pilot = sample(model, 50, [pilot_step], start=start, seed=seed)
    restart = pilot[-1]
    step = Nuts(model, scaling=restart, gamma=0.25)
    return model, sample(model, draws, [step], start=restart, seed=seed + 1,
                         backend=backend, progress=progress)


def glm_logistic_table(seed: int) -> dict[str, np.ndarray]:
    data = simulate_linear_data(seed)
    return {"x1": data["x1"], "x2": data["x2"],
            "y": (data["y"] > 0).astype(np.float64)}


def run_glm_linear(draws: int, seed: int, backend=None, progress=None):
    model = build_model("y ~ x1 + x2", simulate_linear_data(seed))
    start = find_map(model, method="quasi_newton")
    step = Nuts(model, scaling=start)
    return model, sample(model, draws, [step], start=start, seed=seed,
                         backend=backend, progress=progress)


def run_glm_logistic(draws: int, seed: int, backend=None, progress=None):
    model = build_model("y ~ x1 + x2", glm_logistic_table(seed),
                        family=BinomialFamily())
    return model, sample(model, draws, [Metropolis(model)], seed=seed,
                         backend=backend, progress=progress)
