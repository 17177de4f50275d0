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
    DuplicateTerm,
    FormulaSyntaxError,
    NonBinaryResponse,
    ResponseInTerms,
    UnknownColumn,
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

    def format(self) -> str:
        rhs = (["0"] if not self.intercept else []) + list(self.terms)
        return f"{self.response} ~ {' + '.join(rhs)}"


class Family:
    kind = "normal"


class NormalFamily(Family):
    """Identity link, Normal errors with an unknown scale."""


class BinomialFamily(Family):
    """Logit link, Bernoulli (0/1) response."""

    kind = "binomial"


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _read_ident(text: str, pos: int, expected: str) -> tuple[str, int]:
    pos = _skip_ws(text, pos)
    m = _IDENT.match(text, pos)
    if not m:
        raise FormulaSyntaxError(pos, expected, text)
    return m.group(0), m.end()


def parse_formula(text: str) -> Formula:
    """Parse ``response ~ term (+ term)*``; errors carry byte offsets."""
    response, pos = _read_ident(text, 0, "response identifier")
    pos = _skip_ws(text, pos)
    if pos >= len(text) or text[pos] != "~":
        raise FormulaSyntaxError(pos, "'~'", text)
    pos += 1

    terms: list[str] = []
    intercept = True
    pos = _skip_ws(text, pos)
    if pos < len(text) and text[pos] == "0":
        intercept = False
        pos = _skip_ws(text, pos + 1)
        if pos >= len(text) or text[pos] != "+":
            raise FormulaSyntaxError(pos, "'+' followed by a term", text)
        pos += 1

    while True:
        pos = _skip_ws(text, pos)
        if pos < len(text) and text[pos] in ":*":
            raise FormulaSyntaxError(
                pos, "a plain column name (interactions are not supported)", text)
        term, pos = _read_ident(text, pos, "term identifier")
        after = _skip_ws(text, pos)
        if after < len(text) and text[after] in ":*":
            raise FormulaSyntaxError(
                after, "'+' or end of formula (interactions are not supported)", text)
        if term == response:
            raise ResponseInTerms(f"response {response!r} also appears as a term")
        if term in terms:
            raise DuplicateTerm(f"term {term!r} appears twice")
        terms.append(term)
        pos = after
        if pos >= len(text):
            break
        if text[pos] != "+":
            raise FormulaSyntaxError(pos, "'+' or end of formula", text)
        pos += 1
    return Formula(response=response, terms=terms, intercept=intercept)


def _column(table, name: str) -> np.ndarray:
    try:
        col = table[name]
    except (KeyError, IndexError):
        raise UnknownColumn(f"no column {name!r} in the data table") from None
    return np.asarray(col, dtype=np.float64)


def build_model(formula: Formula | str, table, family: Family | None = None) -> Model:
    """Model with one coefficient per term: eta = Intercept + sum(beta_i * x_i).

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
        intercept = model.add_free("Intercept", Normal(mu=0.0, sd=COEF_PRIOR_SD))
        eta = intercept.value
    for term in formula.terms:
        x = _column(table, term)
        if x.shape != y.shape:
            raise UnknownColumn(f"column {term!r} length {x.shape} != response {y.shape}")
        beta = model.add_free(term, Normal(mu=0.0, sd=COEF_PRIOR_SD))
        contrib = beta.value * graph.const(x)
        eta = contrib if eta is None else eta + contrib

    if eta is None:
        eta = graph.const(np.zeros_like(y))

    if family.kind == "normal":
        sd = model.add_free("sd", HalfNormal(sd=NOISE_PRIOR_SD))
        model.add_observed(formula.response, Normal(mu=eta, sd=sd.value), y)
    elif family.kind == "binomial":
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise NonBinaryResponse(
                f"binomial family needs a 0/1 response, got values outside {{0, 1}}")
        model.add_observed(formula.response, Bernoulli(p=graph.sigmoid(eta)),
                           y.astype(np.int64))
    else:
        raise ValueError(f"unknown family kind {family.kind!r}")
    return model
