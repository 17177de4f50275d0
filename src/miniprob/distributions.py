"""Log-density recipes for the distribution families used by the models.

Each family states its domain once: ``transform`` maps its continuous
support onto the real line (``None`` for real-valued and discrete
families), and ``_valid`` lists the 0/1 graph masks of the parameters and
values at which its elementwise density ``_logp`` holds.  A family also
gives the centre of its default test value.  Parameters may be numbers,
arrays, or graph expressions, a model variable among them.  One rule serves
both: a constant parameter is checked at construction by the same rule that
masks an expression parameter.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import graph
from .exceptions import OutsideSupport, ShapeMismatch
from .graph import Expr, as_dtype, as_expr, const, switch, sum_all
from .transforms import IntervalTransform, LogTransform

NEG_INF = float("-inf")


def _guard(p: Expr, rule, what: str) -> list[Expr]:
    """``rule`` of parameter ``p``: checked now on a constant, which it must
    hold for (NaN fails), and as a 0/1 mask of an expression."""
    if p.kind != "constant":
        return [rule(p)]
    if not np.all(rule(p.const_value)):
        raise OutsideSupport(f"{what}, got {p.const_value}")
    return []


def _positive(p: Expr) -> list[Expr]:
    return _guard(p, lambda q: q > 0.0, "parameter must be strictly positive")


def _between(x, lo, hi):
    """1 where lo <= x <= hi, for an expression or an array alike."""
    return (x >= lo) * (hi >= x)


def _bounds(family: Distribution, lower, upper) -> list:
    """The bounds of an interval family as numbers, read by ``as_dtype`` at
    its dtype and each 0-d and finite; else ``OutsideSupport`` naming both."""
    try:
        out = [as_dtype(b, family.dtype, "bound") for b in (lower, upper)]
        if all(b.ndim == 0 and np.isfinite(b) for b in out):
            return [b.item() for b in out]
    except (ShapeMismatch, OutsideSupport):
        pass
    kind = "integers within int64" if family.dtype == "int" else "real numbers"
    raise OutsideSupport(f"{type(family).__name__} bounds must be finite {kind}, "
                         f"got {lower!r} and {upper!r}")


def _gaussian(d: Expr, tau: Expr) -> Expr:
    """Normal log density of the deviations ``d`` at precision ``tau``."""
    return 0.5 * graph.log(tau) - 0.5 * np.log(2.0 * np.pi) - 0.5 * tau * d * d


class Distribution:
    """A family gives ``_logp(x)``, its elementwise log density, trusted only
    where every mask of ``_valid`` is 1, and ``_centre(evaluate)``, its
    default test value, which ``Model`` broadcasts and reads as a given one."""

    dtype = "float"
    transform = None  # maps a constrained support onto the real line
    _guards: list[Expr] = []  # the parameters' masks, from ``_guard``

    def logp_expr(self, value) -> Expr:
        """Scalar expression: elementwise log density summed over the value,
        -inf wherever a mask of ``_valid`` is 0."""
        x = as_expr(value)
        core, masks = self._logp(x), self._valid(x)
        if masks:
            core = switch(functools.reduce(operator.mul, masks), core, const(NEG_INF))
        return sum_all(core)

    def _valid(self, x: Expr) -> list[Expr]:
        return self._guards


class Normal(Distribution):
    """Normal density with mean mu and standard deviation sd."""

    def __init__(self, mu=0.0, sd=1.0):
        self.mu = as_expr(mu)
        self.sd = as_expr(sd)
        self._guards = _positive(self.sd)
        self.tau = 1.0 / (self.sd * self.sd)

    def _logp(self, x):
        return _gaussian(x - self.mu, self.tau)

    def _centre(self, evaluate):
        return evaluate(self.mu)


class HalfNormal(Distribution):
    transform = LogTransform()

    def __init__(self, sd=1.0):
        self.sd = as_expr(sd)
        self._guards = _positive(self.sd)
        self.tau = 1.0 / (self.sd * self.sd)

    def _logp(self, x):
        return (np.log(2.0) - 0.5 * np.log(2.0 * np.pi)
                + 0.5 * graph.log(self.tau) - 0.5 * self.tau * x * x)

    def _valid(self, x):
        return self._guards + [x >= 0.0]

    def _centre(self, evaluate):
        return evaluate(self.sd) * np.sqrt(2.0 / np.pi)


class Uniform(Distribution):
    def __init__(self, lower, upper):
        self.lower, self.upper = _bounds(self, lower, upper)
        self.transform = IntervalTransform(self.lower, self.upper)

    def _logp(self, x):
        return const(-np.log(self.upper - self.lower))

    def _valid(self, x):
        return [_between(x, self.lower, self.upper)]

    def _centre(self, evaluate):
        return 0.5 * (self.lower + self.upper)


class Exponential(Distribution):
    """Exponential with a RATE parameter (mean 1/rate)."""

    transform = LogTransform()

    def __init__(self, rate):
        self.rate = as_expr(rate)
        self._guards = _positive(self.rate)

    def _logp(self, x):
        return graph.log(self.rate) - self.rate * x

    def _valid(self, x):
        return self._guards + [x >= 0.0]

    def _centre(self, evaluate):
        return 1.0 / evaluate(self.rate)


class Poisson(Distribution):
    dtype = "int"

    def __init__(self, rate):
        self.rate = as_expr(rate)
        self._guards = _positive(self.rate)

    def _logp(self, k):
        return k * graph.log(self.rate) - self.rate - graph.lgamma(k + 1.0)

    def _valid(self, k):
        return self._guards + [k >= 0.0]

    def _centre(self, evaluate):
        return np.floor(evaluate(self.rate))


class DiscreteUniform(Distribution):
    dtype = "int"

    def __init__(self, lower, upper):
        self.lower, self.upper = _bounds(self, lower, upper)
        if not self.upper >= self.lower:
            raise OutsideSupport("DiscreteUniform requires upper >= lower")

    def _logp(self, k):
        return const(-np.log(self.upper - self.lower + 1.0))

    def _valid(self, k):
        return [_between(k, self.lower, self.upper)]

    def _centre(self, evaluate):
        return np.floor(0.5 * (self.lower + self.upper))


class StudentT(Distribution):
    """Student-t with degrees of freedom nu and precision-like scale lam."""

    def __init__(self, nu, mu=0.0, lam=1.0):
        self.nu = as_expr(nu)
        self.mu = as_expr(mu)
        self.lam = as_expr(lam)
        self._guards = _positive(self.nu) + _positive(self.lam)

    def _logp(self, x):
        nu, lam = self.nu, self.lam
        d = x - self.mu
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
        self._guards = _positive(self.tau)

    def _logp(self, x):
        if len(x.shape) != 1 or x.shape[0] < 2:
            raise ShapeMismatch("GaussianRandomWalk needs a vector value of length >= 2")
        return _gaussian(x[1:] - x[:-1], self.tau)

    def _centre(self, evaluate):
        return 0.0


class Bernoulli(Distribution):
    dtype = "int"

    def __init__(self, p):
        self.p = as_expr(p)
        self._guards = _guard(self.p, lambda q: _between(q, 0.0, 1.0),
                              "probability must lie in [0, 1]")

    def _logp(self, x):
        # select the branch instead of x*log(p) so 0 * -inf never appears
        return switch(x >= 1, graph.log(self.p), graph.log(1.0 - self.p))

    def _valid(self, x):
        return self._guards + [_between(x, 0, 1)]

    def _centre(self, evaluate):
        return evaluate(self.p) > 0.5


class Flat(Distribution):
    """Improper constant density: contributes zero everywhere."""

    def _logp(self, x):
        return const(0.0)

    def _centre(self, evaluate):
        return 0.0


class Custom(Distribution):
    """Arbitrary log density from a function mapping a value Expr to an Expr."""

    def __init__(self, logp_fn, dtype="float"):
        self.logp_fn = logp_fn
        self.dtype = dtype  # storage/proposal dtype; density defines the support

    def _logp(self, x):
        return self.logp_fn(x)

    def _centre(self, evaluate):
        return None  # no default: the caller gives a test value
