import numpy as np
import pytest

from miniprob import graph
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
from miniprob.exceptions import MiniprobError, OutsideSupport, ShapeMismatch
from miniprob.graph import const, eval_expr
from miniprob.model import Model


def logp_at(dist, value):
    return float(eval_expr(dist.logp_expr(const(value)), {}))


class TestGoldenValues:
    def test_normal_standard_at_zero(self):
        assert logp_at(Normal(mu=0.0, sd=1.0), 0.0) == pytest.approx(
            -0.9189385332046727, abs=1e-9)

    def test_student_t_cauchy_at_zero(self):
        assert logp_at(StudentT(nu=1.0, mu=0.0, lam=1.0), 0.0) == pytest.approx(
            -1.1447298858494002, abs=1e-9)

    def test_poisson_rate_one_at_zero(self):
        assert logp_at(Poisson(rate=1.0), 0) == pytest.approx(-1.0, abs=1e-9)

    def test_discrete_uniform_years(self):
        assert logp_at(DiscreteUniform(1851, 1962), 1900) == pytest.approx(
            -np.log(112.0), abs=1e-9)

    def test_gaussian_random_walk_three_zeros(self):
        assert logp_at(GaussianRandomWalk(tau=1.0), np.zeros(3)) == pytest.approx(
            2 * -0.9189385332046727, abs=1e-9)

    def test_half_normal_at_one(self):
        assert logp_at(HalfNormal(sd=1.0), 1.0) == pytest.approx(
            np.log(2.0) - 0.5 * np.log(2 * np.pi) - 0.5, abs=1e-9)

    def test_exponential_rate50_at_prior_mean(self):
        assert logp_at(Exponential(rate=50.0), 0.02) == pytest.approx(
            np.log(50.0) - 1.0, abs=1e-9)

    def test_uniform_inside_and_outside(self):
        d = Uniform(0.0, 4.0)
        assert logp_at(d, 1.0) == pytest.approx(-np.log(4.0), abs=1e-12)
        assert logp_at(d, 4.5) == -np.inf

    def test_bernoulli(self):
        d = Bernoulli(p=0.3)
        assert logp_at(d, 1) == pytest.approx(np.log(0.3), abs=1e-12)
        assert logp_at(d, 0) == pytest.approx(np.log(0.7), abs=1e-12)
        assert logp_at(d, 2) == -np.inf

    def test_flat_is_zero(self):
        assert logp_at(Flat(), 123.0) == 0.0

    def test_support_violations_give_neg_inf(self):
        assert logp_at(Exponential(1.0), -0.5) == -np.inf
        assert logp_at(HalfNormal(1.0), -0.1) == -np.inf
        assert logp_at(Poisson(2.0), -1) == -np.inf
        assert logp_at(DiscreteUniform(0, 5), 7) == -np.inf


class TestNormalization:
    @pytest.mark.parametrize("dist,lo,hi", [
        (Normal(mu=1.3, sd=0.7), 1.3 - 12 * 0.7, 1.3 + 12 * 0.7),
        (HalfNormal(sd=1.2), 0.0, 14.0),
        (Uniform(-2.0, 5.0), -2.5, 5.5),
        (Exponential(rate=1.7), 0.0, 30.0),
        (StudentT(nu=4.0, mu=0.5, lam=2.0), -300.0, 300.0),
    ])
    def test_continuous_quadrature(self, dist, lo, hi):
        xs = np.linspace(lo, hi, 400001)
        v = graph.free_input("v", xs.shape)
        # per-element density: evaluate the elementwise body via a vector value
        logp = eval_expr(_elementwise_logp(dist, v), {"v": xs})
        mass = np.trapezoid(np.exp(logp), xs)
        assert 0.999 <= mass <= 1.001

    @pytest.mark.parametrize("dist,ks", [
        (Poisson(rate=3.7), np.arange(0, 200)),
        (DiscreteUniform(2, 11), np.arange(2, 12)),
        (Bernoulli(p=0.42), np.arange(0, 2)),
    ])
    def test_discrete_sum_to_one(self, dist, ks):
        total = sum(np.exp(logp_at(dist, int(k))) for k in ks)
        assert total == pytest.approx(1.0, abs=1e-9)


def _elementwise_logp(dist, value_expr):
    """The summed logp of a single-element slice equals the elementwise
    density, so build a per-point vector evaluation trick: feed each grid
    point through the full formula by exploiting elementwise breaking."""
    # every continuous family here is elementwise over its value
    return _strip_sum(dist.logp_expr(value_expr))


def _strip_sum(expr):
    assert expr.kind == "sum_all"
    return expr.operands[0]


class TestParameterizations:
    def test_normal_defaults_to_the_standard_normal(self):
        xs = np.linspace(-3.0, 3.0, 13)
        v = graph.free_input("v", xs.shape)
        got = eval_expr(_strip_sum(Normal().logp_expr(v)), {"v": xs})
        np.testing.assert_allclose(got, -0.5 * np.log(2 * np.pi) - 0.5 * xs * xs, rtol=1e-15)

    def test_student_t_approaches_normal(self):
        lam = 2.0
        t = StudentT(nu=1e6, mu=0.3, lam=lam)
        n = Normal(mu=0.3, sd=1.0 / np.sqrt(lam))
        # within three standard deviations the O(1/nu) correction is < 1e-4
        xs = 0.3 + np.linspace(-3, 3, 41) / np.sqrt(lam)
        v = graph.free_input("v", xs.shape)
        tv = eval_expr(_strip_sum(t.logp_expr(v)), {"v": xs})
        nv = eval_expr(_strip_sum(n.logp_expr(v)), {"v": xs})
        np.testing.assert_allclose(tv, nv, atol=1e-4)

    def test_nonpositive_constant_scale_rejected(self):
        with pytest.raises(ValueError):
            Normal(mu=0.0, sd=-1.0)
        with pytest.raises(ValueError):
            Exponential(rate=0.0)
        with pytest.raises(ValueError):
            Uniform(3.0, 3.0)

    @pytest.mark.parametrize("make", [
        lambda v: Normal(mu=0.0, sd=v),
        lambda v: HalfNormal(sd=v),
        lambda v: Exponential(rate=v),
        lambda v: StudentT(nu=v),
        lambda v: StudentT(nu=3.0, lam=v),
    ], ids=["normal_sd", "half_normal", "exponential", "student_t_nu",
            "student_t_lam"])
    def test_nan_constant_scale_rejected(self, make):
        with pytest.raises(ValueError):
            make(np.nan)
        with pytest.raises(ValueError):
            make(np.array([1.0, np.nan]))

    @pytest.mark.parametrize("p", [1.5, -0.1, np.nan, [0.5, 1.2]])
    def test_bernoulli_constant_outside_unit_interval_rejected(self, p):
        with pytest.raises(ValueError):
            Bernoulli(p=p)

    @pytest.mark.parametrize("make, cls", [
        (lambda: Normal(sd=-1.0), OutsideSupport),
        (lambda: HalfNormal(sd=0.0), OutsideSupport),
        (lambda: Bernoulli(p=2.0), OutsideSupport),
        (lambda: DiscreteUniform(3, 1), OutsideSupport),
        (lambda: Uniform(2.0, 1.0), OutsideSupport),
        (lambda: Model().add_free("w", GaussianRandomWalk(tau=1.0)), ShapeMismatch),
    ], ids=["normal_sd", "half_normal_sd", "bernoulli_p", "discrete_uniform_bounds",
            "uniform_bounds", "scalar_random_walk"])
    def test_bad_parameter_raises_a_miniprob_error(self, make, cls):
        # a bare ValueError escaped ``except MiniprobError`` here
        with pytest.raises(cls) as info:
            make()
        assert isinstance(info.value, MiniprobError) and isinstance(info.value, ValueError)


class TestDefaultTestvals:
    def evaluate(self, e):
        return eval_expr(e, {})

    def test_exponential_mean(self):
        assert Exponential(rate=0.1).default_testval((), self.evaluate) == pytest.approx(10.0)

    def test_uniform_midpoint_and_discrete_floor(self):
        assert Uniform(1851, 1962).default_testval((), self.evaluate) == pytest.approx(1906.5)
        assert DiscreteUniform(1851, 1962).default_testval((), self.evaluate) == 1906

    def test_random_walk_zero_vector(self):
        v = GaussianRandomWalk(tau=1.0).default_testval((400,), self.evaluate)
        assert v.shape == (400,)
        assert np.all(v == 0.0)

    def test_normal_mean_halfnormal_mean(self):
        assert Normal(mu=2.5, sd=1.0).default_testval((), self.evaluate) == pytest.approx(2.5)
        assert HalfNormal(sd=2.0).default_testval((), self.evaluate) == pytest.approx(
            2.0 * np.sqrt(2 / np.pi))

    def test_poisson_floor_of_mean(self):
        assert Poisson(rate=3.7).default_testval((), self.evaluate) == 3

    def test_custom_needs_explicit_testval(self):
        d = Custom(lambda v: -abs(v))
        assert d.default_testval((), self.evaluate) is None

    def test_student_t_location_and_bernoulli_mode(self):
        assert StudentT(nu=3.0, mu=-1.5).default_testval((2,), self.evaluate).tolist() == [
            -1.5, -1.5]
        assert Bernoulli(p=0.7).default_testval((), self.evaluate) == 1
        assert Bernoulli(p=0.5).default_testval((), self.evaluate) == 0

    def test_custom_density_that_is_not_scalar_is_summed(self):
        d = Custom(lambda v: -v * v)
        assert eval_expr(d.logp_expr(const([1.0, 2.0])), {}) == -5.0


class TestExprParameters:
    def test_rate_as_expression(self):
        r = graph.free_input("r", ())
        d = Exponential(rate=graph.exp(r))
        v = eval_expr(d.logp_expr(const(1.0)), {"r": 0.0})
        assert v == pytest.approx(np.log(1.0) - 1.0)

    def test_nonpositive_expr_scale_gives_neg_inf(self):
        r = graph.free_input("r", ())
        d = Exponential(rate=r)
        assert float(eval_expr(d.logp_expr(const(1.0)), {"r": -2.0})) == -np.inf

    @pytest.mark.parametrize("p", [1.5, -0.5, np.nan])
    def test_bernoulli_expr_outside_unit_interval_gives_neg_inf(self, p):
        d = Bernoulli(p=graph.free_input("p", ()))
        for k in (0, 1):
            assert float(eval_expr(d.logp_expr(const(k)), {"p": p})) == -np.inf
        assert float(eval_expr(d.logp_expr(const(1)), {"p": 0.25})) == np.log(0.25)

    def test_random_walk_with_expr_tau(self):
        s = graph.free_input("sigma", ())
        d = GaussianRandomWalk(tau=s ** -2.0)
        x = np.array([0.0, 1.0, -1.0])
        v = float(eval_expr(d.logp_expr(const(x)), {"sigma": 2.0}))
        tau = 0.25
        expect = 2 * (0.5 * np.log(tau) - 0.5 * np.log(2 * np.pi)) - 0.5 * tau * (1 + 4)
        assert v == pytest.approx(expect, rel=1e-12)
