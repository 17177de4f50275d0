"""miniprob: a compact probabilistic programming toolkit.

Build a model from distribution recipes, get automatic transforms and a
differentiable joint log posterior, find the MAP, sample with Metropolis /
Slice / HMC / NUTS (a list of kernels, one per group of variables), store
traces in memory or on disk, and summarize the posterior.
"""

from . import graph
from .backends import MemoryBackend, TextBackend, Trace, load
from .distributions import (
    Bernoulli,
    Custom,
    DiscreteUniform,
    Exponential,
    Flat,
    GaussianRandomWalk,
    HalfNormal,
    Normal,
    Poisson,
    StudentT,
    Uniform,
)
from .glm import BinomialFamily, Formula, NormalFamily, build_model, parse_formula
from .graph import (
    Expr,
    concat,
    const,
    eval_expr,
    exp,
    free_input,
    grad,
    lgamma,
    log,
    opaque_deterministic,
    sigmoid,
    sqrt,
    sum_all,
    switch,
)
from .inference import find_map, sample
from .model import FreeVar, Model
from .rng import stream
from .samplers import (
    Hmc,
    Metropolis,
    Nuts,
    Slice,
    hessian,
    hessian_diag,
    leapfrog,
)
from .stats import ess, hpd, mc_error, quantiles, summary, traceplot_data, write_plot_data

__version__ = "0.1.0"

__all__ = [
    "Bernoulli", "BinomialFamily", "Custom", "DiscreteUniform",
    "Expr", "Exponential", "Flat", "Formula", "FreeVar", "GaussianRandomWalk",
    "HalfNormal", "Hmc", "MemoryBackend", "Metropolis", "Model", "Normal",
    "NormalFamily", "Nuts", "Poisson", "Slice",
    "StudentT", "TextBackend", "Trace", "Uniform", "build_model", "concat",
    "const", "ess", "eval_expr", "exp", "find_map", "free_input", "grad",
    "graph", "hessian", "hessian_diag", "hpd", "lgamma", "leapfrog", "load", "log",
    "mc_error", "opaque_deterministic", "parse_formula", "quantiles", "sample",
    "sigmoid", "sqrt", "stream", "sum_all", "summary", "switch",
    "traceplot_data", "write_plot_data",
]
