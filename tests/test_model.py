import numpy as np
import pytest
from scipy import special

from conftest import rel_err
from miniprob import demos, graph
from miniprob.distributions import (
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
from miniprob.exceptions import (
    DataError,
    DuplicateName,
    ModelFrozen,
    OutsideSupport,
    ShapeMismatch,
    UnknownVariable,
)
from miniprob.graph import const, eval_expr
from miniprob.model import Model
from miniprob.transforms import IntervalTransform, LogTransform


def backward(t, ys):
    """The untransformed value of ``ys`` through ``t``'s graph, as a trace row
    and the log density evaluate it."""
    ys = np.asarray(ys, dtype=np.float64)
    return eval_expr(t.backward_expr(graph.free_input("y", ys.shape)), {"y": ys})


class TestTransforms:
    def test_log_round_trip(self):
        t = LogTransform()
        assert t.forward(1.0) == pytest.approx(0.0)
        assert backward(t, 0.0) == pytest.approx(1.0)
        xs = np.exp(np.linspace(-5, 5, 11))
        np.testing.assert_allclose(backward(t, t.forward(xs)), xs, rtol=1e-12)

    def test_interval_unit_midpoint(self):
        t = IntervalTransform(0.0, 1.0)
        assert backward(t, 0.0) == pytest.approx(0.5)
        y = graph.free_input("y", ())
        jac = eval_expr(t.log_jacobian_expr(y), {"y": 0.0})
        assert float(jac) == pytest.approx(2 * np.log(0.5), abs=1e-12)

    def test_interval_wide(self):
        t = IntervalTransform(-100.0, 100.0)
        assert backward(t, 0.0) == pytest.approx(0.0)
        y = graph.free_input("y", ())
        jac = eval_expr(t.log_jacobian_expr(y), {"y": 0.0})
        assert float(jac) == pytest.approx(np.log(200.0) - 1.3862943611198906, abs=1e-9)

    def test_round_trip_identity_within_1e12(self):
        t = IntervalTransform(-2.0, 7.0)
        xs = np.linspace(-1.999, 6.999, 101)
        np.testing.assert_allclose(backward(t, t.forward(xs)), xs, atol=1e-12)


def test_var_of_an_unknown_name():
    m = Model()
    m.add_free("a", Normal())
    with pytest.raises(UnknownVariable, match="^no free variable named 'b'$"):
        m.var("b")


class TestAddFree:
    def test_exponential_prior_term_in_y_space(self):
        m = Model()
        m.add_free("sigma", Exponential(50.0))
        m.finalize()
        for y in (-1.0, 0.0, 0.7):
            got = m.logp({"sigma_log": y})
            assert got == pytest.approx(np.log(50.0) - 50.0 * np.exp(y) + y, rel=1e-12)

    def test_uniform_gets_log_odds_transform(self):
        m = Model()
        m.add_free("u", Uniform(0.0, 1.0))
        assert m.var("u").sampling_name == "u_interval"
        m.finalize()
        assert m.logp({"u_interval": 0.0}) == pytest.approx(2 * np.log(0.5), abs=1e-9)

    def test_discrete_uniform_untransformed_integer(self):
        m = Model()
        m.add_free("switchpoint", DiscreteUniform(1851, 1962))
        v = m.var("switchpoint")
        assert v.sampling_name == "switchpoint"
        assert v.dtype == "int"
        assert m.initial_point()["switchpoint"] == 1906

    def test_returns_the_value_expression(self):
        m = Model()
        sigma = m.add_free("sigma", HalfNormal(sd=1.0))
        assert isinstance(sigma, graph.Expr) and sigma is m.var("sigma").value
        assert eval_expr(sigma, {"sigma_log": 0.5}) == np.exp(0.5)

    def test_model_record_is_not_a_parameter(self):
        m = Model()
        m.add_free("mu", Normal(mu=0.0, sd=1.0))
        with pytest.raises(TypeError, match="got FreeVar"):
            Normal(mu=m.var("mu"), sd=1.0)

    def test_duplicate_name_rejected(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        with pytest.raises(DuplicateName):
            m.add_free("x", Normal(mu=0.0, sd=1.0))

    def test_testval_outside_support(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^e: "):
            m.add_free("e", Exponential(1.0), testval=-1.0)

    def test_frozen_after_finalize(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        with pytest.raises(ModelFrozen):
            m.add_free("y", Normal(mu=0.0, sd=1.0))


def _add(m, kind, name, shape=()):
    """Register ``name`` of ``shape`` as a ``kind`` of variable."""
    if kind == "free":
        m.add_free(name, Normal(mu=0.0, sd=1.0), shape=shape)
    elif kind == "positive":  # sampled as ``name + "_log"``, traced under both names
        m.add_free(name, Exponential(1.0), shape=shape)
    elif kind == "masked":  # its missing entries are traced as ``name + ".missing_values"``
        m.add_observed(name, Poisson(1.0), np.ones(shape[0] + 1, dtype=np.int64),
                       mask=np.arange(shape[0] + 1) > 0)
    elif kind == "observed":
        m.add_observed(name, Normal(mu=0.0, sd=1.0), np.zeros(shape))
    else:
        m.add_deterministic(name, const(np.zeros(shape)))


class TestNames:
    @pytest.mark.parametrize("kind", ["free", "masked", "observed", "deterministic"])
    @pytest.mark.parametrize("name", ["", ",", "a,b", "a/b", "a\\b", "a\nb", "a\rb", "a\0b"])
    def test_name_that_cannot_be_a_trace_column_is_rejected(self, kind, name):
        # "a\nb" ran and then failed to load; "a/b" failed to write its plot files
        m = Model()
        with pytest.raises(DuplicateName, match="cannot name a trace column"):
            _add(m, kind, name, (2,))
        assert m.finalize().trace_layout() == [] and m.logp({}) == 0.0

    @pytest.mark.parametrize("first, second, column", [
        (("free", "x", (2,)), ("free", "x__0", ()), "x__0"),
        (("free", "x__1", ()), ("free", "x", (2,)), "x__1"),
        (("free", "x", (2,)), ("deterministic", "x__1", ()), "x__1"),
        (("deterministic", "d", (3,)), ("observed", "d__2", ()), "d__2"),
        (("positive", "e", (2,)), ("free", "e_log__1", ()), "e_log__1"),
        (("free", "e_log__0", ()), ("positive", "e", (2,)), "e_log__0"),
        (("masked", "y", (2,)), ("free", "y.missing_values__1", ()), "y.missing_values__1"),
    ], ids=["vector_first", "scalar_first", "deterministic", "observed", "sampling_name",
            "sampling_name_taken", "missing_values"])
    def test_each_trace_column_is_claimed_once(self, first, second, column):
        # a scalar "x__0" beside a vector x gave the header x__0,x__1,x__0
        m = Model()
        _add(m, *first)
        with pytest.raises(DuplicateName, match=f"'{column}'"):
            _add(m, *second)
        names = [name for name, _, _ in m.finalize().trace_layout()]
        assert second[1] not in names


# Each family's boundary test values: every one is rejected by the same rule.
_NONFINITE = [(dist, (), v) for dist in (Normal(mu=0.0, sd=1.0), Flat(), StudentT(nu=3.0))
              for v in (np.inf, -np.inf, np.nan)]
_NONFINITE += [(GaussianRandomWalk(tau=1.0), (3,), [0.0, v, 0.0])
               for v in (np.inf, -np.inf, np.nan)]


class TestTestvalRule:
    @pytest.mark.parametrize("dist,shape,testval", [
        (HalfNormal(1.0), (), 0.0),
        (Exponential(1.0), (), 0.0),
        (Uniform(0.0, 4.0), (), 0.0),
        (Uniform(0.0, 4.0), (), 4.0),
        (Poisson(3.0), (), -1),
        (DiscreteUniform(0, 5), (), 6),
        (Bernoulli(0.3), (), 2),
        *_NONFINITE,
    ])
    def test_boundary_testval_rejected(self, dist, shape, testval):
        m = Model()
        with pytest.raises(OutsideSupport, match="^x: "):
            m.add_free("x", dist, shape=shape, testval=testval)
        assert m.free_vars == [] and m.initial_point() == {}

    def test_rejected_custom_density_can_be_retried(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^eps: "):
            m.add_free("eps", Custom(lambda v: -graph.log(abs(v))), testval=0.0)
        m.add_free("eps", Custom(lambda v: -graph.log(abs(v))), testval=1.0)
        assert m.sampling_names() == ["eps"]
        assert m.logp({"eps": 1.0}) == 0.0

    def test_testval_of_the_wrong_shape_can_be_retried(self):
        m = Model()
        with pytest.raises(ShapeMismatch):
            m.add_free("b", Normal(0.0, sd=1.0), shape=2, testval=[1.0, 2.0, 3.0])
        assert m.free_vars == []
        m.add_free("b", Normal(0.0, sd=1.0), shape=2, testval=[1.0, 2.0])
        assert m.sampling_names() == ["b"]

    def test_default_testval_of_the_wrong_shape_can_be_retried(self):
        m = Model()
        with pytest.raises(ShapeMismatch):
            m.add_free("b", Normal(mu=np.zeros(3), sd=1.0), shape=2)
        assert m.free_vars == []
        m.add_free("b", Normal(mu=np.zeros(2), sd=1.0), shape=2)
        assert m.sampling_names() == ["b"]

    def test_rejected_add_free_can_be_retried(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^e: "):
            m.add_free("e", Exponential(1.0), testval=0.0)
        m.add_free("e", Exponential(1.0), testval=2.0)
        assert m.sampling_names() == ["e_log"]
        assert m.initial_point() == {"e_log": np.log(2.0)}


@pytest.mark.parametrize("dist, start, message", [
    (Exponential(1.0), -1.0, "log transform requires strictly positive values"),
    (Uniform(0.0, 4.0), 5.0, "interval transform requires values inside (0.0, 4.0)"),
], ids=["log", "interval"])
def test_start_outside_the_transform_domain_names_the_variable(dist, start, message):
    m = Model()
    m.add_free("v", dist)
    m.finalize()
    with pytest.raises(OutsideSupport) as exc:
        m.initial_point({"v": start})
    assert str(exc.value) == f"start value for 'v': {message}"


def test_start_naming_no_variable_is_rejected():
    from miniprob.inference import find_map
    m = demos.disasters_model()
    with pytest.raises(UnknownVariable, match="^start names no variable: 'early_rat'$"):
        m.initial_point({"early_rat": 5.0})
    with pytest.raises(UnknownVariable, match="'sigmaa', 'y'$"):
        find_map(m, start={"early_rate": 2.0, "sigmaa": 3.0, "y": 1.0})


def test_every_trace_column_is_a_start():
    m = Model()
    x = m.add_free("x", Normal(mu=0.0, sd=1.0))
    m.add_free("e", Exponential(1.0))
    m.add_deterministic("twice", x * 2.0)
    row = m.expand_point(m.initial_point({"x": 1.5, "e": 2.0}))
    assert list(row) == ["x", "e_log", "e", "twice"]
    assert m.initial_point(row) == {"x": 1.5, "e_log": np.log(2.0)}


@pytest.mark.parametrize("start", [
    {"e_log": 0.0, "e": 5.0},
    {"e": 5.0, "e_log": 0.0},
    {"e_log": 0.0, "e": 1.0 + 1e-9},
    {"e_log": 0.0, "e": [1.0, 1.0]},
], ids=["disagree", "alias_first", "off_by_1e-9", "wrong_shape"])
def test_start_alias_that_disagrees_is_rejected(start):
    m = Model()
    m.add_free("e", Exponential(1.0))
    m.finalize()
    with pytest.raises(DuplicateName, match="'e_log' and its alias 'e'"):
        m.initial_point(start)


def test_start_alias_that_agrees_is_accepted():
    m = Model()
    m.add_free("e", Exponential(1.0))
    m.add_free("p", Uniform(0.0, 1.0))
    m.finalize()
    # a trace row whose interval coordinate saturates: p is exactly 1.0
    row = m.expand_point(m.initial_point({"e_log": 800.0, "p_interval": 40.0}))
    assert row["e"] == np.inf and row["p"] == 1.0
    assert m.initial_point(row) == {"e_log": 800.0, "p_interval": 40.0}
    # an alias within a relative 1e-12 of the value its sampling name gives
    point = m.initial_point({"e_log": np.log(2.0), "e": 2.0 * (1.0 + 1e-14)})
    assert point["e_log"] == np.log(2.0)


class TestDiscreteValuesNotTruncated:
    def test_non_integral_testval_rejected(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^k: "):
            m.add_free("k", Poisson(3.0), testval=1.7)

    def test_non_integral_observed_rejected(self):
        m = Model()
        with pytest.raises(ShapeMismatch):
            m.add_observed("y", Poisson(2.0), [1.5, 2.0])

    def _model(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.add_free("k", Poisson(3.0))
        return m.finalize()

    def test_non_integral_start_rejected(self):
        from miniprob.inference import find_map
        m = self._model()
        with pytest.raises(ShapeMismatch):
            m.initial_point({"k": 1.7})
        with pytest.raises(ShapeMismatch):
            find_map(m, start={"k": 1.7})

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_non_finite_int_input_rejected(self, value):
        m = self._model()
        with pytest.raises(ShapeMismatch):
            m.logp({"x": 0.0, "k": value})


class TestLogp:
    def test_single_exponential_at_zero(self):
        m = Model()
        m.add_free("e", Exponential(1.0))
        assert m.logp({"e_log": 0.0}) == pytest.approx(-1.0, abs=1e-12)

    def test_single_standard_normal(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        assert m.logp({"x": 0.0}) == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_term_by_term_resummation(self, linear_model):
        point = linear_model.initial_point()
        total = linear_model.logp(point)
        terms = sorted(linear_model._terms)
        resum = None
        for name in terms:
            t = float(eval_expr(linear_model._terms[name], point))
            resum = t if resum is None else resum + t
        assert np.isfinite(total)
        assert total == pytest.approx(resum, abs=1e-12)

    def test_registration_order_does_not_change_logp(self, linear_data):
        import itertools

        def build(order):
            m = Model()
            parts = {}
            for nm in order:
                if nm == "alpha":
                    parts["alpha"] = m.add_free("alpha", Normal(mu=0.0, sd=10.0))
                elif nm == "beta":
                    parts["beta"] = m.add_free("beta", Normal(mu=0.0, sd=10.0), shape=2)
                else:
                    parts["sigma"] = m.add_free("sigma", HalfNormal(sd=1.0))
            mu = (parts["alpha"]
                  + parts["beta"][0] * const(linear_data["x1"])
                  + parts["beta"][1] * const(linear_data["x2"]))
            m.add_observed("Y_obs", Normal(mu=mu, sd=parts["sigma"]),
                           linear_data["y"])
            return m.finalize()

        point = {"alpha": 0.3, "beta": np.array([1.0, -0.5]), "sigma_log": 0.2}
        values = [build(perm).logp(point)
                  for perm in itertools.permutations(["alpha", "beta", "sigma"])]
        assert all(v == values[0] for v in values)

    def test_transform_consistency_random_points(self):
        m = Model()
        m.add_free("e", Exponential(0.7))
        m.finalize()
        dist = Exponential(0.7)
        rng = np.random.default_rng(11)
        ys = rng.uniform(-6, 4, 1000)
        for y in ys:
            x = np.exp(y)
            direct = float(eval_expr(dist.logp_expr(const(x)), {})) + y
            assert m.logp({"e_log": y}) == pytest.approx(direct, abs=1e-10)

    def test_dlogp_continuous_only(self, disasters_model):
        point = disasters_model.initial_point()
        g = disasters_model.dlogp(point)
        assert disasters_model.continuous_names() == ["early_rate_log", "late_rate_log"]
        assert g.shape == (2,) and np.isfinite(g).all()


class TestDeterministics:
    def test_recorded_with_draws(self):
        m = Model()
        s = m.add_free("s", GaussianRandomWalk(tau=1.0), shape=2)
        m.add_deterministic("volatility_process", graph.exp(-2.0 * s))
        m.finalize()
        row = m.expand_point({"s": np.zeros(2)})
        np.testing.assert_allclose(row["volatility_process"], [1.0, 1.0])
        row = m.expand_point({"s": np.array([0.5, 0.5])})
        np.testing.assert_allclose(row["volatility_process"], np.exp(-1.0))

    def test_row_follows_the_layout(self):
        m = Model()
        a = m.add_free("a", Normal(mu=0.0, sd=1.0))
        m.add_deterministic("twice", a * 2.0)
        m.add_deterministic("same", a)
        m.add_free("b", Exponential(1.0))
        m.add_free("u", Uniform(-2.0, 7.0), shape=3)
        layout = m.trace_layout()
        assert layout == [("a", (), "float"), ("b_log", (), "float"), ("b", (), "float"),
                          ("u_interval", (3,), "float"), ("u", (3,), "float"),
                          ("twice", (), "float"), ("same", (), "float")]
        y = np.array([-1.0, 0.0, 2.5])
        point = {"a": np.asarray(0.5), "b_log": np.asarray(-0.3), "u_interval": y}
        row = m.expand_point(point)
        assert [(n, row[n].shape) for n in row] == [(n, s) for n, s, _ in layout]
        assert row["u_interval"] is y
        # each alias is the inverse transform of its sampling coordinate
        assert row["b"].tobytes() == np.exp(np.float64(-0.3)).tobytes()
        assert row["u"].tobytes() == (-2.0 + 9.0 * special.expit(y)).tobytes()
        assert row["twice"] == 1.0 and row["same"] == 0.5

    def test_returns_its_expression(self):
        m = Model()
        s = m.add_free("s", Normal(mu=0.0, sd=1.0))
        twice = m.add_deterministic("twice", s * 2.0)
        assert m.deterministics == [("twice", twice)]
        assert m.add_deterministic("three", 3.0).const_value == 3.0

    def test_unnamed_expressions_not_recorded(self, linear_model):
        names = [n for n, _, _ in linear_model.trace_layout()]
        assert names == ["alpha", "beta", "sigma_log", "sigma"]

    def test_duplicate_deterministic_rejected(self):
        m = Model()
        s = m.add_free("s", Normal(mu=0.0, sd=1.0))
        m.add_deterministic("d", s * 2.0)
        with pytest.raises(DuplicateName):
            m.add_deterministic("d", s)


class TestMissingData:
    def test_missing_var_created_with_correct_shape(self, disasters_model):
        names = {v.name: v for v in disasters_model.free_vars}
        assert "disasters.missing_values" in names
        assert names["disasters.missing_values"].shape == (2,)
        assert names["disasters.missing_values"].dtype == "int"

    def test_no_mask_is_plain_sum(self):
        data = np.array([1.0, 2.0, 0.5])
        m = Model()
        m.add_observed("y", Exponential(1.0), data)
        m.finalize()
        assert m.logp({}) == pytest.approx(float(-data.sum()), rel=1e-12)

    def test_all_missing_rejected(self):
        m = Model()
        with pytest.raises(DataError, match="y: every entry is masked"):
            m.add_observed("y", Poisson(1.0), np.array([1, 2]),
                           mask=np.array([True, True]))

    def test_mask_shape_mismatch(self):
        m = Model()
        with pytest.raises(ShapeMismatch):
            m.add_observed("y", Poisson(1.0), np.array([1, 2, 3]),
                           mask=np.array([True, False]))

    def test_masked_data_must_be_one_dimensional(self):
        m = Model()
        with pytest.raises(ShapeMismatch, match="^y: masked data must be one-dimensional$"):
            m.add_observed("y", Poisson(1.0), np.ones((2, 2), dtype=np.int64),
                           mask=np.array([[True, False], [False, False]]))

    def test_masked_equals_hand_built(self):
        data = np.array([3, -999, 2, -999, 1])
        mask = data == -999

        m1 = Model()
        r1 = m1.add_free("rate", Exponential(1.0))
        m1.add_observed("y", Poisson(r1), data, mask=mask)
        m1.finalize()

        # hand-built twin: the missing entries are an explicit free variable
        # spliced into the same composed density term
        m2 = Model()
        r2 = m2.add_free("rate", Exponential(1.0))
        perm = np.empty(data.shape[0], dtype=np.int64)
        perm[~mask] = np.arange((~mask).sum())
        perm[mask] = (~mask).sum() + np.arange(mask.sum())

        def spliced_poisson(v):
            composed = graph.concat([const(data[~mask]), v])[perm]
            return Poisson(r2).logp_expr(composed)

        m2.add_free("holes", Custom(spliced_poisson, dtype="int"), shape=(2,),
                    testval=np.array([1, 1]))
        m2.finalize()

        for ks in [(0, 0), (2, 1), (5, 3)]:
            p1 = {"rate_log": np.log(1.3), "y.missing_values": np.array(ks)}
            p2 = {"rate_log": np.log(1.3), "holes": np.array(ks)}
            assert m1.logp(p1) == m2.logp(p2)

    def test_masked_close_to_separate_term_model(self):
        data = np.array([3, -999, 2, -999, 1])
        mask = data == -999

        m1 = Model()
        r1 = m1.add_free("rate", Exponential(1.0))
        m1.add_observed("y", Poisson(r1), data, mask=mask)
        m1.finalize()

        m2 = Model()
        r2 = m2.add_free("rate", Exponential(1.0))
        m2.add_free("k1", Poisson(r2))
        m2.add_free("k2", Poisson(r2))
        m2.add_observed("y_obs", Poisson(r2), data[~mask])
        m2.finalize()

        for k1v, k2v in [(0, 0), (2, 1), (5, 3)]:
            p1 = {"rate_log": np.log(1.3), "y.missing_values": np.array([k1v, k2v])}
            p2 = {"rate_log": np.log(1.3), "k1": k1v, "k2": k2v}
            assert m1.logp(p1) == pytest.approx(m2.logp(p2), abs=1e-12)

    @pytest.mark.parametrize("mask", [None, [False, True]], ids=["unmasked", "masked"])
    def test_rejected_observed_variable_leaves_its_names_free(self, mask):
        m = Model()
        with pytest.raises(ShapeMismatch):
            m.add_observed("y", Normal(mu=np.zeros(3), sd=1.0), [1.0, 2.0], mask=mask)
        m.add_observed("y", Normal(mu=0.0, sd=1.0), [1.0, 2.0], mask=mask)
        m.finalize()
        missing = ["y.missing_values"] if mask else []
        assert m.sampling_names() == missing
        point = {"y.missing_values": np.array([2.0])} if mask else {}
        assert m.logp(point) == pytest.approx(-0.5 * 5.0 - np.log(2.0 * np.pi), rel=1e-12)

    def test_masked_custom_density_is_rejected_and_leaves_the_model_unchanged(self):
        # a custom density has no default value to fill the masked entries
        m = Model()
        with pytest.raises(OutsideSupport, match="^y: a custom density"):
            m.add_observed("y", Custom(lambda v: -v * v), [1.0, 2.0], mask=[False, True])
        m.add_observed("y", Normal(mu=0.0, sd=1.0), [1.0, 2.0], mask=[False, True])
        assert m.finalize().sampling_names() == ["y.missing_values"]

    def test_masked_gradient_flows_to_rate(self):
        data = np.array([3, -999, 2])
        mask = data == -999
        m = Model()
        r = m.add_free("rate", Exponential(1.0))
        m.add_observed("y", Poisson(r), data, mask=mask)
        m.finalize()
        pt = m.initial_point()
        g = m.dlogp(pt)
        assert g.shape == (1,) and np.isfinite(g).all()


class TestCustomDensity:
    def test_cauchy_like_term(self):
        m = Model()
        m.add_free("beta", Custom(lambda v: -1.5 * graph.log(1.0 + v * v)), testval=0.0)
        m.finalize()
        assert m.logp({"beta": 0.0}) == pytest.approx(0.0, abs=1e-12)

    def test_reciprocal_abs_term(self):
        m = Model()
        m.add_free("eps", Custom(lambda v: -graph.log(abs(v))), testval=1.0)
        m.finalize()
        assert m.logp({"eps": 1.0}) == pytest.approx(0.0, abs=1e-12)

    def test_gradient_of_custom(self):
        m = Model()
        m.add_free("beta", Custom(lambda v: -1.5 * graph.log(1.0 + v * v)), testval=0.0)
        m.finalize()
        g = m.dlogp({"beta": 1.0})
        assert g == pytest.approx([-1.5])

    def test_testval_with_neg_inf_density_rejected(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^eps: "):
            m.add_free("eps", Custom(lambda v: -graph.log(abs(v))), testval=0.0)

    def test_testval_required(self):
        m = Model()
        with pytest.raises(OutsideSupport, match="^x: "):
            m.add_free("x", Custom(lambda v: -v * v))


class TestPriorSamplingThroughTransform:
    def test_exponential_moments_via_nuts(self):
        from miniprob.inference import sample
        from miniprob.samplers import Nuts

        m = Model()
        m.add_free("e", Exponential(1.0))
        m.finalize()
        step = Nuts(m, scaling=m.initial_point())  # unit curvature at e_log = 0
        trace = sample(m, 20000, [step], seed=3, warmup=500)
        x = trace["e"]
        assert x.shape == (20000,)
        assert 0.93 <= float(np.mean(x)) <= 1.07


def test_data_on_either_side_gives_the_same_bits(linear_data):
    # numpy arrays and scalars defer to the expression's reflected operators
    x1, x2, y = linear_data["x1"], linear_data["x2"], linear_data["y"]

    def build(data_left):
        m = Model()
        alpha = m.add_free("alpha", Normal(mu=0.0, sd=10.0))
        beta = m.add_free("beta", Normal(mu=0.0, sd=10.0), shape=2)
        sigma = m.add_free("sigma", HalfNormal(sd=1.0))
        if data_left:
            mu, sd = alpha + x1 * beta[0] + x2 * beta[1], np.float64(1.5) * sigma
        else:
            mu, sd = alpha + beta[0] * x1 + beta[1] * x2, sigma * np.float64(1.5)
        m.add_observed("Y_obs", Normal(mu=mu, sd=sd), y)
        return m.finalize()

    left, right = build(True), build(False)
    rng = np.random.default_rng(5)
    for _ in range(5):
        point = {"alpha": rng.normal(), "beta": rng.normal(size=2), "sigma_log": rng.normal()}
        lp_left, g_left = left.logp_and_dlogp(point)
        lp_right, g_right = right.logp_and_dlogp(point)
        assert np.float64(lp_left).tobytes() == np.float64(lp_right).tobytes()
        assert g_left.tobytes() == g_right.tobytes()
