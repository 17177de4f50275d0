"""Formula-driven GLM construction: parse "y ~ x1 + x2", build the linear
predictor from tabular data, and emit a ready model for the chosen family.

The grammar is deliberately small: a response, '~', plus-separated predictor
columns, and an optional leading '0 +' to drop the intercept.  Interactions,
in-formula transforms, and categorical expansion are rejected outright.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from . import graph
from .distributions import Bernoulli, HalfNormal, Normal
from .exceptions import (
    FormulaError,
    ShapeMismatch,
    UnknownVariable,
)
from .model import Model

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

COEF_PRIOR_SD = 100.0
NOISE_PRIOR_SD = 10.0


@dataclass
class Formula:
    response: str
    terms: list = field(default_factory=list)
    intercept: bool = True


class NormalFamily:
    """Identity link, Normal errors with an unknown scale."""

    def observe(self, model: Model, name: str, eta, y: np.ndarray) -> None:
        sd = model.add_free("sd", HalfNormal(sd=NOISE_PRIOR_SD))
        model.add_observed(name, Normal(mu=eta, sd=sd), y)


class BinomialFamily:
    """Logit link, Bernoulli (0/1) response."""

    def observe(self, model: Model, name: str, eta, y: np.ndarray) -> None:
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise FormulaError(
                f"binomial family needs a 0/1 response, got values outside {{0, 1}}")
        model.add_observed(name, Bernoulli(p=graph.sigmoid(eta)), y.astype(np.int64))


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_ident(text: str, pos: int, expected: str) -> tuple[str, int]:
    pos = _skip_ws(text, pos)
    m = _IDENT.match(text, pos)
    if not m:
        raise FormulaError(expected, pos, text)
    return m.group(0), m.end()


def parse_formula(text: str) -> Formula:
    """Parse ``response ~ term (+ term)*``; errors carry byte offsets."""
    response, pos = _read_ident(text, 0, "response identifier")
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "~":
        raise FormulaError("'~'", pos, text)
    pos += 1

    terms: list[str] = []
    intercept = True
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "0":
        intercept = False
        pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] != "+":
            raise FormulaError("'+' followed by a term", pos, text)
        pos += 1

    while True:
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] in ":*":
            raise FormulaError("a plain column name (interactions are not supported)",
                               pos, text)
        term, pos = _read_ident(text, pos, "term identifier")
        after = _skip_ws(text, pos)
        if after < len(text) and text[after] in ":*":
            raise FormulaError("'+' or end of formula (interactions are not supported)",
                               after, text)
        if term == response:
            raise FormulaError(f"response {response!r} also appears as a term")
        if term in terms:
            raise FormulaError(f"term {term!r} appears twice")
        terms.append(term)
        pos = after
        if pos >= len(text):
            break
        if text[pos] != "+":
            raise FormulaError("'+' or end of formula", pos, text)
        pos += 1
    return Formula(response=response, terms=terms, intercept=intercept)


def _column(table, name: str) -> np.ndarray:
    try:
        col = table[name]
    except (KeyError, IndexError):
        raise UnknownVariable(f"no column {name!r} in the data table") from None
    return np.asarray(col, dtype=np.float64)


def build_model(formula: Formula | str, table, family=None) -> Model:
    """Model with one coefficient per term: eta = Intercept + sum(beta_i * x_i),
    and the response observed by ``family.observe`` (default ``NormalFamily``).

    Normal family: response ~ Normal(eta, sd) with a HalfNormal prior on sd.
    Binomial family: response in {0, 1}, response ~ Bernoulli(sigmoid(eta)).
    """
    if isinstance(formula, str):
        formula = parse_formula(formula)
    if family is None:
        family = NormalFamily()

    y = _column(table, formula.response)
    model = Model()

    eta = None
    if formula.intercept:
        eta = model.add_free("Intercept", Normal(mu=0.0, sd=COEF_PRIOR_SD))
    for term in formula.terms:
        x = _column(table, term)
        if x.shape != y.shape:
            raise ShapeMismatch(f"column {term!r} length {x.shape} != response {y.shape}")
        contrib = model.add_free(term, Normal(mu=0.0, sd=COEF_PRIOR_SD)) * x
        eta = contrib if eta is None else eta + contrib

    if eta is None:
        eta = graph.const(np.zeros_like(y))

    family.observe(model, formula.response, eta, y)
    return model
