"""Bijections between constrained supports and the unconstrained real line.

Positive variables use a log transform, two-sided intervals a scaled
log-odds transform.  Log densities in the unconstrained space pick up the
log of |dx/dy| so the pushforward density still integrates to one.  The
way back is the graph ``backward_expr`` only, which the log density and the
trace rows both evaluate; ``forward`` checks and maps untransformed values.
"""

from __future__ import annotations

import numpy as np

from . import graph
from .exceptions import OutsideSupport


class LogTransform:
    """y = log x mapping (0, inf) to the real line."""

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= 0):
            raise OutsideSupport("log transform requires strictly positive values")
        return np.log(x)

    def backward_expr(self, y: graph.Expr) -> graph.Expr:
        return graph.exp(y)

    def log_jacobian_expr(self, y: graph.Expr) -> graph.Expr:
        # d(e^y)/dy = e^y, so log|dx/dy| = y
        return graph.sum_all(y)

    def var_name(self, name: str) -> str:
        return name + "_log"


class IntervalTransform:
    """x = a + (b-a) * sigmoid(y) mapping the real line onto (a, b)."""

    def __init__(self, lower: float, upper: float):
        if not upper > lower:
            raise OutsideSupport("interval transform requires upper > lower")
        self.lower = float(lower)
        self.upper = float(upper)

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= self.lower) or np.any(x >= self.upper):
            raise OutsideSupport(
                f"interval transform requires values inside ({self.lower}, {self.upper})")
        p = (x - self.lower) / (self.upper - self.lower)
        return np.log(p) - np.log1p(-p)

    def backward_expr(self, y: graph.Expr) -> graph.Expr:
        return self.lower + (self.upper - self.lower) * graph.sigmoid(y)

    def log_jacobian_expr(self, y: graph.Expr) -> graph.Expr:
        # log(b-a) + log sigmoid(y) + log sigmoid(-y), summed over elements,
        # with log sigmoid(y) = -softplus(-y) finite at every y
        s = -(graph.softplus(y) + graph.softplus(-y))
        return graph.sum_all(s + np.log(self.upper - self.lower))

    def var_name(self, name: str) -> str:
        return name + "_interval"
