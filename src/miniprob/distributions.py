"""Log-density recipes for the distribution families used by the models.

Each family states its domain once: ``transform`` maps its continuous
support onto the real line (``None`` for real-valued and discrete
families), and ``_valid`` is the 0/1 graph mask of the values and
parameters at which its elementwise density ``_logp`` holds.  A family also
gives the centre of its default test value.  Parameters may be numbers,
arrays, or graph expressions, a model variable among them.
"""

from __future__ import annotations

import numpy as np

from . import graph
from .exceptions import OutsideSupport, ShapeMismatch
from .graph import Expr, as_expr, const, switch, cmp_ge, cmp_gt, sum_all
from .transforms import IntervalTransform, LogTransform

NEG_INF = float("-inf")


def _positive_mask(p: Expr) -> Expr | None:
    # constant parameters are validated eagerly, so no runtime guard needed
    if p.kind == "constant":
        if not np.all(p.const_value > 0):  # NaN fails too
            raise OutsideSupport(f"parameter must be strictly positive, got {p.const_value}")
        return None
    return cmp_gt(p, 0.0)


def _unit_mask(p: Expr) -> Expr | None:
    # the same rule for a probability, on [0, 1]
    if p.kind == "constant":
        if not np.all((p.const_value >= 0) & (p.const_value <= 1)):
            raise OutsideSupport(f"probability must lie in [0, 1], got {p.const_value}")
        return None
    return graph.mul(cmp_ge(p, 0.0), cmp_ge(1.0, p))


def _and(a: Expr | None, b: Expr | None) -> Expr | None:
    if a is None:
        return b
    if b is None:
        return a
    return graph.mul(a, b)


class Distribution:
    dtype = "float"
    transform = None  # maps a constrained support onto the real line
    _mask: Expr | None = None  # 0/1 validity of the parameters; None: always

    def logp_expr(self, value) -> Expr:
        """Scalar expression: elementwise log density summed over the value,
        -inf wherever ``_valid`` is 0."""
        x = as_expr(value)
        core, valid = self._logp(x), self._valid(x)
        if valid is not None:
            core = switch(valid, core, const(NEG_INF))
        return sum_all(core)

    def _logp(self, x: Expr) -> Expr:
        """Elementwise log density, trusted only where ``_valid`` is 1."""
        raise NotImplementedError

    def _valid(self, x: Expr) -> Expr | None:
        return self._mask

    def default_testval(self, shape, evaluate) -> np.ndarray:
        """Default start value; ``evaluate`` maps parameter Exprs to arrays.
        A centre that does not broadcast to ``shape`` raises ``ShapeMismatch``."""
        centre = self._centre(evaluate)
        try:
            centre = np.broadcast_to(centre, shape)
        except ValueError:
            raise ShapeMismatch(f"default test value of shape {np.shape(centre)} does not "
                                f"broadcast to {shape}") from None
        return centre.astype(np.int64 if self.dtype == "int" else np.float64)

    def _centre(self, evaluate):
        """The default test value, before broadcasting to the shape."""
        raise NotImplementedError


class Normal(Distribution):
    """Normal density with mean mu and standard deviation sd."""

    def __init__(self, mu=0.0, sd=1.0):
        self.mu = as_expr(mu)
        self.sd = as_expr(sd)
        self._mask = _positive_mask(self.sd)
        self.tau = graph.div(1.0, graph.mul(self.sd, self.sd))

    def _logp(self, x):
        d = graph.sub(x, self.mu)
        return (0.5 * graph.log(self.tau)
                - 0.5 * np.log(2.0 * np.pi)
                - 0.5 * self.tau * d * d)

    def _centre(self, evaluate):
        return evaluate(self.mu)


class HalfNormal(Distribution):
    transform = LogTransform()

    def __init__(self, sd=1.0):
        self.sd = as_expr(sd)
        self._mask = _positive_mask(self.sd)
        self.tau = graph.div(1.0, graph.mul(self.sd, self.sd))

    def _logp(self, x):
        return (np.log(2.0) - 0.5 * np.log(2.0 * np.pi)
                + 0.5 * graph.log(self.tau) - 0.5 * self.tau * x * x)

    def _valid(self, x):
        return _and(self._mask, cmp_ge(x, 0.0))

    def _centre(self, evaluate):
        return evaluate(self.sd) * np.sqrt(2.0 / np.pi)


class Uniform(Distribution):
    def __init__(self, lower, upper):
        self.lower = float(lower)
        self.upper = float(upper)
        self.transform = IntervalTransform(self.lower, self.upper)

    def _logp(self, x):
        return const(-np.log(self.upper - self.lower))

    def _valid(self, x):
        return graph.mul(cmp_ge(x, self.lower), cmp_ge(self.upper, x))

    def _centre(self, evaluate):
        return 0.5 * (self.lower + self.upper)


class Exponential(Distribution):
    """Exponential with a RATE parameter (mean 1/rate)."""

    transform = LogTransform()

    def __init__(self, rate):
        self.rate = as_expr(rate)
        self._mask = _positive_mask(self.rate)

    def _logp(self, x):
        return graph.log(self.rate) - self.rate * x

    def _valid(self, x):
        return _and(self._mask, cmp_ge(x, 0.0))

    def _centre(self, evaluate):
        return 1.0 / evaluate(self.rate)


class Poisson(Distribution):
    dtype = "int"

    def __init__(self, rate):
        self.rate = as_expr(rate)
        self._mask = _positive_mask(self.rate)

    def _logp(self, k):
        return k * graph.log(self.rate) - self.rate - graph.lgamma(k + 1.0)

    def _valid(self, k):
        return _and(self._mask, cmp_ge(k, 0.0))

    def _centre(self, evaluate):
        return np.floor(evaluate(self.rate))


class DiscreteUniform(Distribution):
    dtype = "int"

    def __init__(self, lower, upper):
        self.lower = int(lower)
        self.upper = int(upper)
        if not self.upper >= self.lower:
            raise OutsideSupport("DiscreteUniform requires upper >= lower")

    def _logp(self, k):
        return const(-np.log(self.upper - self.lower + 1.0))

    def _valid(self, k):
        return graph.mul(cmp_ge(k, self.lower), cmp_ge(self.upper, k))

    def _centre(self, evaluate):
        return np.floor(0.5 * (self.lower + self.upper))


class StudentT(Distribution):
    """Student-t with degrees of freedom nu and precision-like scale lam."""

    def __init__(self, nu, mu=0.0, lam=1.0):
        self.nu = as_expr(nu)
        self.mu = as_expr(mu)
        self.lam = as_expr(lam)
        self._mask = _and(_positive_mask(self.nu), _positive_mask(self.lam))

    def _logp(self, x):
        nu, lam = self.nu, self.lam
        d = graph.sub(x, self.mu)
        return (graph.lgamma((nu + 1.0) / 2.0) - graph.lgamma(nu / 2.0)
                + 0.5 * graph.log(lam / (nu * np.pi))
                - ((nu + 1.0) / 2.0) * graph.log(1.0 + lam * d * d / nu))

    def _centre(self, evaluate):
        return evaluate(self.mu)


class GaussianRandomWalk(Distribution):
    """Vector prior: increments are iid Normal with precision tau; the first
    element gets a flat (zero) contribution.  The value's shape sets the
    walk's length."""

    def __init__(self, tau):
        self.tau = as_expr(tau)
        self._mask = _positive_mask(self.tau)

    def _logp(self, x):
        if len(x.shape) != 1 or x.shape[0] < 2:
            raise ShapeMismatch("GaussianRandomWalk needs a vector value of length >= 2")
        d = x[1:] - x[:-1]
        return (0.5 * graph.log(self.tau) - 0.5 * np.log(2.0 * np.pi)
                - 0.5 * self.tau * d * d)

    def _centre(self, evaluate):
        return 0.0


class Bernoulli(Distribution):
    dtype = "int"

    def __init__(self, p):
        self.p = as_expr(p)
        self._mask = _unit_mask(self.p)

    def _logp(self, x):
        # select the branch instead of x*log(p) so 0 * -inf never appears
        return switch(cmp_ge(x, 1), graph.log(self.p), graph.log(1.0 - self.p))

    def _valid(self, x):
        return _and(self._mask, graph.mul(cmp_ge(x, 0), cmp_ge(1, x)))

    def _centre(self, evaluate):
        return evaluate(self.p) > 0.5


class Flat(Distribution):
    """Improper constant density: contributes zero everywhere."""

    def logp_expr(self, value) -> Expr:
        return const(0.0)

    def _centre(self, evaluate):
        return 0.0


class Custom(Distribution):
    """Arbitrary log density from a function mapping a value Expr to an Expr."""

    def __init__(self, logp_fn, dtype="float"):
        self.logp_fn = logp_fn
        self.dtype = dtype  # storage/proposal dtype; density defines the support

    def logp_expr(self, value) -> Expr:
        out = as_expr(self.logp_fn(as_expr(value)))
        if out.shape != ():
            out = sum_all(out)
        return out

    def default_testval(self, shape, evaluate):
        return None  # caller must supply a test value
