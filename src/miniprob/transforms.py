"""Bijections between constrained supports and the unconstrained real line.

Positive variables use a log transform, two-sided intervals a scaled
log-odds transform.  Log densities in the unconstrained space pick up the
log of |dx/dy| so the pushforward density still integrates to one.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from . import graph
from .exceptions import OutsideSupport


class LogTransform:
    """y = log x mapping (0, inf) to the real line."""

    name = "log"

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= 0):
            raise OutsideSupport("log transform requires strictly positive values")
        return np.log(x)

    def backward(self, y):
        return np.exp(np.asarray(y, dtype=np.float64))

    def backward_expr(self, y: graph.Expr) -> graph.Expr:
        return graph.exp(y)

    def log_jacobian_expr(self, y: graph.Expr) -> graph.Expr:
        # d(e^y)/dy = e^y, so log|dx/dy| = y
        return graph.sum_all(y)

    def var_name(self, name: str) -> str:
        return name + "_log"


class IntervalTransform:
    """x = a + (b-a) * sigmoid(y) mapping the real line onto (a, b)."""

    name = "interval"

    def __init__(self, lower: float, upper: float):
        if not upper > lower:
            raise ValueError("interval transform requires upper > lower")
        self.lower = float(lower)
        self.upper = float(upper)

    def forward(self, x):
        x = np.asarray(x, dtype=np.float64)
        if np.any(x <= self.lower) or np.any(x >= self.upper):
            raise OutsideSupport(
                f"interval transform requires values inside ({self.lower}, {self.upper})")
        p = (x - self.lower) / (self.upper - self.lower)
        return np.log(p) - np.log1p(-p)

    def backward(self, y):
        y = np.asarray(y, dtype=np.float64)
        return self.lower + (self.upper - self.lower) * special.expit(y)

    def backward_expr(self, y: graph.Expr) -> graph.Expr:
        return self.lower + (self.upper - self.lower) * graph.sigmoid(y)

    def log_jacobian_expr(self, y: graph.Expr) -> graph.Expr:
        # log(b-a) + log sigmoid(y) + log sigmoid(-y), summed over elements
        s = graph.log(graph.sigmoid(y)) + graph.log(graph.sigmoid(-y))
        return graph.sum_all(s + np.log(self.upper - self.lower))

    def var_name(self, name: str) -> str:
        return name + "_interval"
