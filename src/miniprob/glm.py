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
from .distributions import Custom, HalfNormal, Normal
from .exceptions import FormulaError, OutsideSupport, ShapeMismatch, UnknownVariable
from .model import Model

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_TOKEN = re.compile(_IDENT.pattern + r"|\S")

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
    """Logit link, Bernoulli (0/1) response, observed on the logit scale:
    y * eta - softplus(eta) is log sigmoid(eta) at y = 1 and log sigmoid(-eta)
    at y = 0, finite wherever eta is."""

    def observe(self, model: Model, name: str, eta, y: np.ndarray) -> None:
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise FormulaError(
                f"binomial family needs a 0/1 response, got values outside {{0, 1}}")
        model.add_observed(name, Custom(lambda v: v * eta - graph.softplus(eta), dtype="int"),
                           y.astype(np.int64))


def parse_formula(text: str) -> Formula:
    """Parse ``response ~ term (+ term)*`` from its tokens: each identifier, and
    each other non-space character, with its offset, then an empty end token at
    ``len(text)``.  An error carries the offset of the token it rejects."""
    tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
    tokens.append(("", len(text)))

    def fail(expected: str, i: int):
        raise FormulaError(expected, tokens[i][1], text)

    response = tokens[0][0]
    if not _IDENT.match(response):
        fail("response identifier", 0)
    if tokens[1][0] != "~":
        fail("'~'", 1)
    intercept = tokens[2][0] != "0"
    if not intercept and tokens[3][0] != "+":
        fail("'+' followed by a term", 3)
    i = 2 if intercept else 4

    terms: list[str] = []
    while True:
        term = tokens[i][0]
        if term in (":", "*"):
            fail("a plain column name (interactions are not supported)", i)
        if not _IDENT.match(term):
            fail("term identifier", i)
        after = tokens[i + 1][0]
        if after in (":", "*"):
            fail("'+' or end of formula (interactions are not supported)", i + 1)
        if term == response:
            raise FormulaError(f"response {response!r} also appears as a term")
        if term in terms:
            raise FormulaError(f"term {term!r} appears twice")
        terms.append(term)
        if not after:
            return Formula(response=response, terms=terms, intercept=intercept)
        if after != "+":
            fail("'+' or end of formula", i + 1)
        i += 2


def _column(table, name: str) -> np.ndarray:
    try:
        col = table[name]
    except (KeyError, IndexError):
        raise UnknownVariable(f"no column {name!r} in the data table") from None
    col = graph.as_dtype(col, "float", name)
    if not np.all(np.isfinite(col)):
        raise OutsideSupport(f"column {name!r} holds a value that is not finite")
    return col


def build_model(formula: Formula | str, table, family=None) -> Model:
    """Model with one coefficient per term: eta = Intercept + sum(beta_i * x_i),
    and the response observed by ``family.observe`` (default ``NormalFamily``).

    Normal family: response ~ Normal(eta, sd) with a HalfNormal prior on sd.
    Binomial family: response in {0, 1}, response ~ Bernoulli(sigmoid(eta)),
    with its log likelihood written in eta.
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
