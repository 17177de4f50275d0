import numpy as np
import pytest

from miniprob import demos, graph
from miniprob.distributions import Bernoulli, HalfNormal, Normal
from miniprob.exceptions import (
    FormulaError,
    ShapeMismatch,
    UnknownVariable,
)
from miniprob.glm import BinomialFamily, Formula, NormalFamily, build_model, parse_formula
from miniprob.model import Model


class TestParse:
    def test_basic(self):
        f = parse_formula("y ~ x1 + x2")
        assert f.response == "y"
        assert f.terms == ["x1", "x2"]
        assert f.intercept is True

    def test_intercept_suppression(self):
        f = parse_formula("y ~ 0 + x1")
        assert f.intercept is False
        assert f.terms == ["x1"]

    def test_double_plus_is_error_at_offset(self):
        with pytest.raises(FormulaError, match="at offset 9: expected term identifier") as err:
            parse_formula("y ~ x1 + + x2")
        assert err.value.offset == 9

    def test_whitespace_ignored(self):
        f = parse_formula("  y~x1+ x2  ")
        assert f.terms == ["x1", "x2"]

    def test_duplicate_term(self):
        with pytest.raises(FormulaError, match="term 'x1' appears twice"):
            parse_formula("y ~ x1 + x1")

    def test_response_in_terms(self):
        with pytest.raises(FormulaError, match="response 'y' also appears as a term"):
            parse_formula("y ~ y + x1")

    def test_missing_tilde(self):
        with pytest.raises(FormulaError, match="at offset 2: expected '~'"):
            parse_formula("y x1 + x2")

    def test_interaction_rejected(self):
        with pytest.raises(FormulaError, match="interactions are not supported"):
            parse_formula("y ~ x1 + x1:x2")
        with pytest.raises(FormulaError, match="interactions are not supported"):
            parse_formula("y ~ x1 * x2")

    def test_dotted_identifiers(self):
        f = parse_formula("y ~ a.b_1 + c")
        assert f.terms == ["a.b_1", "c"]

    def test_round_trip_corpus(self):
        rng = np.random.default_rng(31)
        letters = "abcdefghijklmnopqrstuvwxyz_"
        for _ in range(1000):
            n_terms = int(rng.integers(1, 5))
            names = []
            while len(names) < n_terms + 1:
                size = int(rng.integers(1, 8))
                name = "".join(rng.choice(list(letters), size=size))
                if name not in names and not name[0].isdigit():
                    names.append(name)
            f = Formula(response=names[0], terms=names[1:],
                        intercept=bool(rng.random() < 0.7))
            rhs = ([] if f.intercept else ["0"]) + f.terms
            assert parse_formula(f"{f.response} ~ {' + '.join(rhs)}") == f


class TestBuildModel:
    def test_no_terms_and_no_intercept_is_a_zero_predictor(self):
        table = {"y": np.array([0.5, -1.0])}
        model = build_model(Formula(response="y", terms=[], intercept=False), table)
        hand = Model()
        hand.add_observed("y", Normal(mu=0.0, sd=hand.add_free("sd", HalfNormal(sd=10.0))),
                          table["y"])
        hand.finalize()
        assert model.continuous_names() == ["sd_log"]
        assert model.logp({"sd_log": 0.3}) == hand.logp({"sd_log": 0.3})

    def test_normal_family_var_names(self, linear_data):
        model = build_model("y ~ x1 + x2", linear_data)
        names = [v.name for v in model.free_vars]
        assert names == ["Intercept", "x1", "x2", "sd"]
        sampling = model.sampling_names()
        assert sampling == ["Intercept", "x1", "x2", "sd_log"]

    def test_binomial_family(self, linear_data):
        table = {"x1": linear_data["x1"], "x2": linear_data["x2"],
                 "y": (linear_data["y"] > 0).astype(float)}
        model = build_model("y ~ x1 + x2", table, family=BinomialFamily())
        names = [v.name for v in model.free_vars]
        assert names == ["Intercept", "x1", "x2"]
        assert np.isfinite(model.logp(model.initial_point()))

    def test_non_binary_response_rejected(self, linear_data):
        with pytest.raises(FormulaError, match="binomial family needs a 0/1 response"):
            build_model("y ~ x1", linear_data, family=BinomialFamily())

    def test_column_of_another_length_is_a_shape_error(self):
        with pytest.raises(ShapeMismatch, match=r"column 'x' length \(2,\) != response \(3,\)"):
            build_model("y ~ x", {"y": [1.0, 2.0, 3.0], "x": [1.0, 2.0]})

    def test_unknown_column(self, linear_data):
        with pytest.raises(UnknownVariable, match="no column 'nope' in the data table"):
            build_model("y ~ nope", linear_data)

    def test_design_order_follows_formula(self, linear_data):
        model = build_model("y ~ x2 + x1", linear_data)
        assert [v.name for v in model.free_vars] == ["Intercept", "x2", "x1", "sd"]

    def test_no_intercept(self, linear_data):
        model = build_model("y ~ 0 + x1", linear_data)
        assert [v.name for v in model.free_vars] == ["x1", "sd"]

    def test_logp_equals_hand_built(self, linear_data):
        glm_model = build_model("y ~ x1 + x2", linear_data)

        hand = Model()
        intercept = hand.add_free("Intercept", Normal(mu=0.0, sd=100.0))
        b1 = hand.add_free("x1", Normal(mu=0.0, sd=100.0))
        b2 = hand.add_free("x2", Normal(mu=0.0, sd=100.0))
        sd = hand.add_free("sd", HalfNormal(sd=10.0))
        eta = (intercept + b1 * graph.const(linear_data["x1"])
               + b2 * graph.const(linear_data["x2"]))
        hand.add_observed("y", Normal(mu=eta, sd=sd), linear_data["y"])
        hand.finalize()

        rng = np.random.default_rng(17)
        for _ in range(100):
            pt = {"Intercept": rng.normal(), "x1": rng.normal(),
                  "x2": rng.normal(), "sd_log": rng.normal(scale=0.5)}
            a = glm_model.logp(pt)
            b = hand.logp(pt)
            assert a == pytest.approx(b, abs=1e-10)

    def test_binomial_logp_equals_hand_built(self, linear_data):
        table = {"x1": linear_data["x1"], "x2": linear_data["x2"],
                 "y": (linear_data["y"] > 0).astype(float)}
        glm_model = build_model("y ~ x1 + x2", table, family=BinomialFamily())

        hand = Model()
        intercept = hand.add_free("Intercept", Normal(mu=0.0, sd=100.0))
        b1 = hand.add_free("x1", Normal(mu=0.0, sd=100.0))
        b2 = hand.add_free("x2", Normal(mu=0.0, sd=100.0))
        eta = (intercept + b1 * graph.const(table["x1"])
               + b2 * graph.const(table["x2"]))
        hand.add_observed("y", Bernoulli(p=graph.sigmoid(eta)),
                          table["y"].astype(np.int64))
        hand.finalize()

        rng = np.random.default_rng(19)
        for _ in range(100):
            pt = {"Intercept": rng.normal(scale=2), "x1": rng.normal(scale=3),
                  "x2": rng.normal(scale=3)}
            assert glm_model.logp(pt) == pytest.approx(hand.logp(pt), abs=1e-10)
