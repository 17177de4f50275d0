import math

import numpy as np
import pytest
from scipy import stats as sps

from miniprob import demos, graph
from miniprob.backends import TextBackend
from miniprob.distributions import Custom, DiscreteUniform, Exponential, Flat, Normal, Poisson
from miniprob.exceptions import (
    NoGradient,
    NonFiniteLogp,
    StepTargets,
)
from miniprob.graph import const, switch
from miniprob.inference import sample
from miniprob.model import Model
from miniprob.rng import stream
from miniprob.samplers import (
    Hmc,
    Metropolis,
    Nuts,
    Packer,
    Slice,
    _metric,
    _Node,
    hessian,
    hessian_diag,
    leapfrog,
    no_uturn,
    validate_coverage,
)

NEG_INF = float("-inf")


def normal_model(mu=0.0, sd=1.0):
    m = Model()
    m.add_free("x", Normal(mu=mu, sd=sd))
    return m.finalize()


def box_model(lo=-3.0, hi=3.0, curvature=0.0):
    """Density exp(-curvature * u**2 / 2) on a box via a custom term, kept
    untransformed; uniform by default."""
    m = Model()

    def box_logp(v):
        inb = (v >= lo) * (hi >= v)
        inside = const(0.0) if curvature == 0.0 else -0.5 * curvature * v * v
        return graph.sum_all(switch(inb, inside, const(NEG_INF)))

    m.add_free("u", Custom(box_logp), testval=0.5 * (lo + hi))
    return m.finalize()


class TestMetropolis:
    def test_equal_logp_always_accepts(self):
        m = Model()
        m.add_free("x", Flat())
        m.finalize()
        step = Metropolis(m)
        rng = stream(1, 0)
        point = m.initial_point()
        for _ in range(200):
            point, _ = step.step(point, rng, tuning=False)
            assert step.last_accepted

    def test_accepted_0d_proposals_stay_arrays(self):
        # a 0-d ndarray keeps the tape's fast input path
        from miniprob.distributions import DiscreteUniform
        m = Model()
        m.add_free("k", DiscreteUniform(0, 1000), testval=500)
        m.add_free("x", Flat())
        m.finalize()
        step = Metropolis(m)
        rng = stream(2, 0)
        point = m.initial_point()
        accepted = 0
        for _ in range(20):
            point, _ = step.step(point, rng, tuning=False)
            accepted += step.last_accepted
            for name, dtype in (("k", np.int64), ("x", np.float64)):
                assert type(point[name]) is np.ndarray
                assert (point[name].shape, point[name].dtype) == ((), dtype)
        assert accepted > 0

    def test_neg_inf_proposal_always_rejected(self):
        m = box_model(-1.0, 1.0)
        # proposals this large never land back inside the box
        step = Metropolis(m, scale=1e8)
        rng = stream(7, 0)
        point = m.initial_point()
        for _ in range(500):
            new, _ = step.step(point, rng, tuning=False)
            assert not step.last_accepted
            assert float(new["u"]) == float(point["u"])
            point = new

    @pytest.mark.parametrize("scale", [0.0, -1.0, np.nan, True, "2"])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(ValueError, match="scale"):
            Metropolis(normal_model(), scale=scale)

    def test_proposal_sd_is_learned_in_warm_up_and_then_frozen(self):
        # k, an integer coordinate, takes 2.38 times its warm-up sd, at least 1;
        # x, the only continuous coordinate (d_c = 1), takes 2.38 / sqrt(1) times its sd
        m = Model()
        m.add_free("k", DiscreteUniform(0, 1), testval=0)
        m.add_free("x", Normal(mu=0.0, sd=0.5))
        m.finalize()
        step = Metropolis(m, scale=0.7)
        rng = stream(3, 0)
        point = m.initial_point()
        states = []
        for i in range(3 * Metropolis.ADAPT_AFTER):
            if i < Metropolis.ADAPT_AFTER:
                assert [float(sd) for sd in step._sd] == [0.7, 0.7]
            point, _ = step.step(point, rng, tuning=True)
            states.append([float(point["k"]), float(point["x"])])
        rule = 2.38 * np.std(states, axis=0)
        assert float(step._sd[0]) == pytest.approx(max(rule[0], 1.0), rel=1e-12)
        assert float(step._sd[1]) == pytest.approx(rule[1], rel=1e-12)
        learned = [float(sd) for sd in step._sd]
        moved = 0
        for _ in range(300):
            before = point
            point, _ = step.step(point, rng, tuning=False)
            moved += point is not before
        assert moved > 0
        assert [float(sd) for sd in step._sd] == learned

    def test_a_coordinate_that_never_moved_keeps_its_sd(self):
        m = box_model(-1.0, 1.0)
        step = Metropolis(m, scale=1e8)  # no proposal lands back inside the box
        rng = stream(5, 0)
        point = m.initial_point()
        for _ in range(2 * Metropolis.ADAPT_AFTER):
            point, _ = step.step(point, rng, tuning=True)
            assert not step.last_accepted
        assert float(step._sd[0]) == 1e8

    def test_a_block_of_zero_coordinates_steps(self):
        m = Model()
        m.add_free("a", Normal(), shape=0)
        m.finalize()
        trace = sample(m, 10, [Metropolis(m)], seed=1, warmup=2 * Metropolis.ADAPT_AFTER)
        assert trace["a"].shape == (10, 0)

    @pytest.mark.parametrize("start, scale", [(2 ** 63 - 20, 50.0), (-2 ** 63, 50.0), (0, 1e30)],
                             ids=["sum_above", "sum_below", "step_outside"])
    def test_integer_proposal_outside_int64_is_rejected(self, start, scale):
        m = Model()
        m.add_free("k", Custom(lambda k: graph.sum_all(k * 0.0), dtype="int"), testval=start)
        m.finalize()
        step = Metropolis(m, scale=scale)
        rng = stream(4, 0)
        point = m.initial_point()
        accepted = 0
        for _ in range(200):
            point, _ = step.step(point, rng, tuning=False)
            accepted += step.last_accepted
            assert np.sign(point["k"]) == np.sign(start)  # a wrapped sum changes sign
        assert 0 < accepted < 200 if start else accepted == 0

    def test_one_log_density_per_integer_coordinate_and_one_for_the_rest(self, calls):
        # flat densities accept every proposal; at scale 1e6 no integer move rounds to 0
        m = Model()
        m.add_free("k", Custom(lambda k: graph.sum_all(k * 0.0), dtype="int"), shape=3, testval=0)
        m.add_free("x", Flat(), shape=2)
        m.finalize()
        rng = stream(6, 0)
        for vars, per_step in ((["k", "x"], 4), (["x", "k"], 4), (["k"], 3), (["x"], 1)):
            step = Metropolis(m, vars=vars, scale=1e6)
            point = m.initial_point()
            known = (m.logp(point), None, None)
            for _ in range(10):
                before = calls["logp"]
                point, known = step.step(point, rng, False, known)
                assert calls["logp"] - before == per_step
                assert step.last_accepted

    def test_a_step_that_moves_nothing_hands_back_its_known(self, calls):
        m = Model()
        m.add_free("k", DiscreteUniform(0, 10), shape=2, testval=5)
        m.add_free("u", Custom(lambda u: graph.sum_all(
            switch((u >= -1.0) * (1.0 >= u), const(0.0), const(NEG_INF)))), testval=0.0)
        m.finalize()
        rng = stream(8, 0)
        point = m.initial_point()
        # at scale 1e8 every proposal leaves the support: each is evaluated and
        # rejected; at scale 1e-3 every integer move rounds to 0 and costs nothing
        for vars, scale, per_step in ((["k", "u"], 1e8, 3), (["k"], 1e-3, 0)):
            step = Metropolis(m, vars=vars, scale=scale)
            known = (m.logp(point), None, None)
            for _ in range(10):
                before = calls["logp"]
                new, back = step.step(point, rng, False, known)
                assert calls["logp"] - before == per_step
                assert new is point and back is known and not step.last_accepted

    def test_integer_proposals_round_ties_away(self):
        from miniprob.samplers import _int_move
        vals = [0.5, -0.5, 1.5, -1.5, 0.4, -0.4]
        assert [_int_move(0, v) for v in vals] == [1, -1, 2, -2, 0, 0]

    def test_standard_normal_moments(self):
        m = normal_model()
        step = Metropolis(m)
        trace = sample(m, 20000, [step], seed=5, warmup=2000)
        x = trace["x"]
        assert abs(float(np.mean(x))) < 0.05
        assert 0.9 < float(np.var(x)) < 1.1

    def test_detailed_balance_three_state(self):
        # discrete target on {0, 1, 2} with known masses
        probs = np.array([0.2, 0.5, 0.3])
        m = Model()

        def logp3(v):
            inb = (v >= 0) * (2 >= v)
            body = switch(v >= 2, const(np.log(probs[2])),
                          switch(v >= 1, const(np.log(probs[1])),
                                 const(np.log(probs[0]))))
            return graph.sum_all(switch(inb, body, const(NEG_INF)))

        m.add_free("state", Custom(logp3, dtype="int"), testval=1)
        m.finalize()
        step = Metropolis(m, scale=1.2)
        rng = stream(11, 0)
        point = m.initial_point()
        counts = np.zeros(3)
        for _ in range(200000):
            point, _ = step.step(point, rng, tuning=False)
            counts[int(point["state"])] += 1
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv < 0.01


class TestSlice:
    def test_exponential_mean(self):
        m = Model()

        def exp_logp(v):
            return graph.sum_all(switch(v >= 0.0, -v, const(NEG_INF)))

        m.add_free("e", Custom(exp_logp), testval=1.0)
        m.finalize()
        step = Slice(m)
        rng = stream(3, 0)
        point = m.initial_point()
        total = 0.0
        n = 20000
        for _ in range(n):
            point, _ = step.step(point, rng, tuning=False)
            total += float(point["e"])
        assert 0.95 < total / n < 1.05

    def test_uniform_box_is_uniform(self):
        m = box_model(2.0, 5.0)
        step = Slice(m)
        rng = stream(9, 0)
        point = m.initial_point()
        draws = np.empty(5000)
        for i in range(draws.size):
            point, _ = step.step(point, rng, tuning=False)
            draws[i] = float(point["u"])
        ks = sps.kstest(draws, sps.uniform(loc=2.0, scale=3.0).cdf)
        assert ks.pvalue > 0.01

    def test_two_piece_slice_gets_its_mass(self):
        # 0.5 N(-1.5, 1) + 0.5 N(1.5, 0.25): below the narrow mode's height a
        # slice has two pieces, and only a reversible step-out gives each
        # piece its mass
        def mixture(v):
            wide = graph.exp(-0.5 * (v + 1.5) * (v + 1.5)) / np.sqrt(2.0 * np.pi)
            narrow = graph.exp(-8.0 * (v - 1.5) * (v - 1.5)) / (0.25 * np.sqrt(2.0 * np.pi))
            return graph.sum_all(graph.log(0.5 * wide + 0.5 * narrow))

        m = Model()
        m.add_free("x", Custom(mixture), testval=0.0)
        m.finalize()
        trace = sample(m, 2000, [Slice(m)], warmup=50, seed=0, chains=10)
        exact = 0.5 * sps.norm.sf(0.0, -1.5, 1.0) + 0.5 * sps.norm.sf(0.0, 1.5, 0.25)
        assert abs(np.mean(trace["x"] > 0.0) - exact) < 0.05

    def test_degenerate_shrink_returns_start(self):
        # only the single point v == c has positive density
        c = 0.75
        m = Model()

        def spike(v):
            at_c = (v >= c) * (c >= v)
            return graph.sum_all(switch(at_c, const(0.0), const(NEG_INF)))

        m.add_free("v", Custom(spike), testval=c)
        m.finalize()
        step = Slice(m)
        rng = stream(2, 0)
        point, _ = step.step(m.initial_point(), rng, tuning=False)
        assert float(point["v"]) == c

    def test_shrink_below_1e_300_returns_start(self):
        # at 0, unlike at 0.75, the floats are dense enough for the bracket
        # to shrink below 1e-300 before a draw lands on the start
        m = box_model(0.0, 0.0)  # the point 0
        step = Slice(m)
        point, _ = step.step({"u": np.array(0.0)}, stream(4, 0), tuning=False)
        assert float(point["u"]) == 0.0

    def test_nonfinite_start_rejected(self):
        m = box_model(0.0, 1.0)
        step = Slice(m)
        with pytest.raises(NonFiniteLogp):
            step.step({"u": np.array(5.0)}, stream(0, 0), False)


class TestLeapfrog:
    def test_hand_computed_step(self):
        m = normal_model()
        logp_grad, q0 = Packer(m, ["x"]).logp_grad, np.array([1.0])
        q, p, _, _ = leapfrog(logp_grad, q0, np.array([0.0]), eps=0.1, inv_mass=np.eye(1),
                              grad_q=logp_grad(q0)[1])
        assert q[0] == pytest.approx(0.995, abs=1e-12)
        assert p[0] == pytest.approx(-0.09975, abs=1e-12)

    def test_reversibility(self):
        m = normal_model(mu=0.4, sd=1.7)
        logp_grad = Packer(m, ["x"]).logp_grad
        inv_mass = np.full((1, 1), 0.5)
        rng = stream(21, 0)
        for _ in range(20):
            q0 = np.array([rng.standard_normal()])
            p0 = np.array([rng.standard_normal()])
            q1, p1, _, g1 = leapfrog(logp_grad, q0, p0, eps=0.3, inv_mass=inv_mass,
                                     grad_q=logp_grad(q0)[1])
            q2, p2, _, _ = leapfrog(logp_grad, q1, -p1, eps=0.3, inv_mass=inv_mass, grad_q=g1)
            assert q2[0] == pytest.approx(q0[0], abs=1e-12)
            assert -p2[0] == pytest.approx(p0[0], abs=1e-12)

    def test_returns_a_node_that_unpacks_as_four_values(self):
        m = normal_model()
        logp_grad, q0 = Packer(m, ["x"]).logp_grad, np.array([1.0])
        node = leapfrog(logp_grad, q0, np.array([0.5]), eps=0.1, inv_mass=np.eye(1),
                        grad_q=logp_grad(q0)[1])
        q, p, lp, grad = node
        assert isinstance(node, _Node)
        assert node.q is q and node.p is p and node.lp is lp and node.grad is grad
        lp_q, grad_q = logp_grad(q)
        assert lp == lp_q and np.array_equal(grad, grad_q)

    def test_zero_step_is_identity(self):
        m = normal_model()
        logp_grad, q0 = Packer(m, ["x"]).logp_grad, np.array([1.3])
        q, p, _, _ = leapfrog(logp_grad, q0, np.array([-0.2]), eps=0.0, inv_mass=np.eye(1),
                              grad_q=logp_grad(q0)[1])
        assert q[0] == 1.3
        assert p[0] == -0.2


class TestPacker:
    def test_vector_written_in_place_between_calls(self):
        # the log density reads views of the vector; the tape must copy them
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0), shape=2)
        m.add_free("s", Normal(mu=0.0, sd=1.0))
        packer = Packer(m.finalize(), ["x", "s"])

        def check(vec):
            lp, g = packer.logp_grad(vec)
            assert list(g) == list(-vec)
            assert lp == packer.logp(vec) == pytest.approx(
                -0.5 * float(vec @ vec) - 1.5 * np.log(2.0 * np.pi), rel=1e-12)

        vec = np.array([0.5, -1.0, 2.0])
        check(vec)
        vec[1] = 0.75  # the next call must see the new value
        check(vec)
        vec[0] = 4.0
        # the old bytes of "x" with a new "s": the tape reuses its copy of "x"
        check(np.array([0.5, 0.75, 3.0]))

    def test_unread_vector_variable_gets_a_zero_block(self):
        # the log density reads "a" only; "f" still takes three coordinates
        m = Model()
        m.add_free("a", Normal(mu=0.0, sd=1.0))
        m.add_free("f", Flat(), shape=3, testval=np.zeros(3))
        m.finalize()
        lp, g = Packer(m, ["a", "f"]).logp_grad(np.array([0.5, 1.0, 2.0, 3.0]))
        assert lp == pytest.approx(-0.125 - 0.5 * np.log(2.0 * np.pi), rel=1e-12)
        np.testing.assert_array_equal(g, [-0.5, 0.0, 0.0, 0.0])
        assert g.shape == (4,)
        step = Nuts(m)
        point, known = step.step(m.initial_point(), stream(0, 0))
        assert point["f"].shape == (3,) and known[1].shape == (4,)

    def test_returned_gradient_is_a_fresh_vector(self):
        # NUTS keeps gradients in its tree nodes and in ``known``, so writing
        # into one must not reach a later result or the tape
        m = Model()
        m.add_free("x", Normal(mu=1.0, sd=2.0), shape=3)
        m.add_free("e", Exponential(1.0))
        packer = Packer(m.finalize(), ["x", "e_log"])
        vec, other = np.array([0.5, -1.0, 2.0, 0.3]), np.array([1.0, 1.0, 1.0, -0.2])
        lp, first = packer.logp_grad(vec)
        want = first.tobytes()
        _, again = packer.logp_grad(vec)  # an unchanged point reruns no kernel
        _, moved = packer.logp_grad(other)
        _, back = packer.logp_grad(vec)
        results = [first, again, moved, back]
        assert not any(np.shares_memory(a, b) for i, a in enumerate(results)
                       for b in results[i + 1:])
        for g in results:
            g[:] = np.nan
        assert packer.logp(vec) == lp
        for v in (vec, other, vec):
            _, g = packer.logp_grad(v)
            assert all(not np.shares_memory(g, r) for r in results)
        assert packer.logp_grad(vec)[1].tobytes() == want

    def test_aliases_and_repeats_resolve_to_sampling_names(self):
        # the gradient has one block per resolved name, so the vector must too
        m = Model()
        m.add_free("e", Exponential(1.0))
        packer = Packer(m.finalize(), ["e", "e_log"])
        assert packer.names == ["e_log"] and packer.size == 1
        lp, g = packer.logp_grad(np.array([0.0]))
        assert lp == -1.0 and g.shape == (1,)

    def test_point_owns_its_arrays(self):
        packer = Packer(normal_model(), ["x"])
        x = np.array([1.5])
        point = packer.point(x)
        x[0] = 7.0
        assert point["x"] == 1.5


class TestScaling:
    def test_normal_sd2_curvature(self):
        m = normal_model(sd=2.0)
        inv_mass = Nuts(m, scaling=m.initial_point()).inv_mass
        assert inv_mass.shape == (1, 1)
        assert inv_mass[0, 0] == pytest.approx(4.0, rel=1e-6)

    def test_flat_direction_floored(self):
        m = Model()
        m.add_free("f", Flat())
        m.finalize()
        inv_mass = Nuts(m, scaling=m.initial_point()).inv_mass
        assert inv_mass[0, 0] == pytest.approx(1e8)

    @pytest.mark.parametrize("kernel", [Nuts, Hmc])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_vector_rejected(self, kernel, bad):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0), shape=2)
        m.finalize()
        with pytest.raises(ValueError, match="scaling"):
            kernel(m, scaling=np.array([bad, 1.0]))

    @pytest.mark.parametrize("kernel", [Nuts, Hmc])
    @pytest.mark.parametrize("scaling", [np.array([1.0, 2.0]), 1.0, [1.0, 2.0]],
                             ids=["vector", "scalar", "list"])
    def test_scaling_other_than_a_point_rejected(self, kernel, scaling):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0), shape=2)
        m.finalize()
        with pytest.raises(ValueError, match=r"^scaling must be None \(the test point\) or a "
                                             "point, got"):
            kernel(m, scaling=scaling)

    @pytest.mark.parametrize("kernel", [Nuts, Hmc])
    def test_non_finite_hessian_diagonal_rejected(self, kernel):
        # the log density is finite at the scaling point, but its gradient
        # is NaN at the lower point of the central difference, below zero
        m = Model()
        m.add_free("x", Custom(graph.sqrt), testval=1.0)
        m.finalize()
        with pytest.raises(NonFiniteLogp, match="Hessian at the scaling point is not finite"):
            kernel(m, scaling={"x": np.array(5e-5)})

    def test_scaling_point_with_a_non_finite_log_posterior_rejected(self):
        m = demos.disasters_model()  # a switchpoint of 3000 is outside its support
        with pytest.raises(NonFiniteLogp, match="-inf at the scaling point"):
            hessian(m, {"switchpoint": 3000}, ["early_rate"])
        with pytest.raises(NonFiniteLogp, match="at the scaling point"):
            Nuts(m, vars=["early_rate", "late_rate"], scaling={"switchpoint": 3000})

    def test_hessian_diag_unclipped(self):
        m = Model()
        m.add_free("f", Flat())
        m.finalize()
        assert abs(hessian_diag(m, m.initial_point())[0]) < 1e-8

    def test_exponential_transformed_curvature_is_one(self):
        m = Model()
        m.add_free("e", Exponential(1.0))
        m.finalize()
        v = hessian_diag(m, {"e_log": np.array(0.0)})
        assert v[0] == pytest.approx(1.0, rel=1e-5)


def regression_model(seed=4, n=60):
    """Two correlated predictors and an intercept, coefficients ~ Normal(0, 10),
    unit noise sd: the posterior is Gaussian with precision X'X + I/100."""
    rng = np.random.default_rng(seed)
    x1 = rng.standard_normal(n)
    x2 = x1 + 0.2 * rng.standard_normal(n)
    design = np.column_stack([np.ones(n), x1, x2])
    y = design @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(n)
    m = Model()
    b = m.add_free("b", Normal(mu=0.0, sd=10.0), shape=3)
    mu = b[0] + b[1] * const(x1) + b[2] * const(x2)
    m.add_observed("y", Normal(mu=mu, sd=1.0), y)
    precision = design.T @ design + np.eye(3) / 100.0
    return m.finalize(), precision, np.linalg.solve(precision, design.T @ y)


class TestDenseMetric:
    def test_hessian_of_fixed_sd_regression(self):
        m, precision, _ = regression_model()
        h = hessian(m)
        np.testing.assert_allclose(h, precision, rtol=1e-7, atol=1e-7)
        np.testing.assert_allclose(h, h.T, rtol=1e-7, atol=1e-7)
        assert np.array_equal(hessian_diag(m), np.diag(h))

    def test_nuts_recovers_the_gaussian_posterior(self):
        m, precision, mean = regression_model()
        step = Nuts(m, scaling={"b": mean})
        assert step.inv_mass.shape == (3, 3)
        np.testing.assert_allclose(hessian(m, {"b": mean}) @ step.inv_mass, np.eye(3), atol=1e-9)
        trace = sample(m, 3000, [step], start={"b": mean}, seed=8, warmup=500)
        draws = trace["b"]
        cov = np.linalg.inv(precision)
        sd = np.sqrt(np.diag(cov))
        # in posterior sd: about 4 Monte Carlo errors at an ESS of 1000
        assert np.max(np.abs(draws.mean(axis=0) - mean) / sd) < 0.12
        assert np.max(np.abs(draws.std(axis=0) / sd - 1.0)) < 0.1
        corr = cov / np.outer(sd, sd)
        assert np.max(np.abs(np.corrcoef(draws.T) - corr)) < 0.05

    def test_exactly_diagonal_hessian_gives_its_floored_diagonal(self):
        m = Model()
        m.add_free("x", Normal(mu=1.0, sd=2.0), shape=3)
        m.add_free("e", Exponential(1.0))
        m.finalize()
        h = hessian(m)
        assert not np.any(h - np.diag(np.diag(h)))
        step = Nuts(m)
        floored = np.maximum(np.abs(hessian_diag(m)), 1e-8)
        assert np.array_equal(step.inv_mass, np.diag(1.0 / floored))

    @pytest.mark.parametrize("diag", [[4.0, 2.0, 1.0], [2.0, 9.0, 0.5], [5.0, 5.0, 1e-12],
                                      [-3.0, 2.0]],
                             ids=["descending", "unordered", "tied_and_floored", "negative"])
    def test_diagonal_matrix_gives_its_floored_absolute_diagonal(self, diag):
        # eigh returns ascending eigenvalues, so out of order they come back permuted
        inv_mass, root = _metric(np.diag(diag))
        floored = np.maximum(np.abs(diag), 1e-8)
        assert np.array_equal(inv_mass, np.diag(1.0 / floored))
        # one nonzero per row and column: momenta are drawn permuted
        assert np.count_nonzero(root) == len(diag)
        assert np.array_equal(np.abs(root).max(axis=0), np.sqrt(floored))

    def test_point_scaling_is_the_floored_hessian(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=np.array([0.5, 2.0, 1e9]) ** 0.5), shape=3)
        m.finalize()
        step = Hmc(m, scaling=m.initial_point())
        np.testing.assert_allclose(step.inv_mass, np.diag([0.5, 2.0, 1e8]), rtol=1e-9, atol=1e-15)

    def test_indefinite_hessian_is_floored_by_absolute_eigenvalues(self):
        h = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        inv_mass, root = _metric(h)
        mass = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(mass @ inv_mass, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(root.T @ root, mass, atol=1e-12)


class TestNuts:
    def test_uturn_criterion(self):
        dq = np.array([1.0, 0.0])
        assert not no_uturn(dq, np.array([-1.0, 0.0]), np.array([1.0, 1.0]))
        assert not no_uturn(dq, np.array([1.0, 0.0]), np.array([0.0, 5.0]))
        assert no_uturn(dq, np.array([0.5, -4.0]), np.array([2.0, 3.0]))

    @pytest.mark.parametrize("d", [1, 4])
    def test_first_step_size_is_a_quarter_over_the_fourth_root_of_d(self, d):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=3.0), shape=d)
        step = Nuts(m)
        assert step.step_size == 0.25 / d ** 0.25
        assert step._mu == math.log(10 * step.step_size)

    def test_omitted_step_size_samples_as_the_same_value_given(self):
        # a chain's first step draws no momentum and evaluates nothing to pick it
        m = two_var_model()
        omitted = sample(m, 60, [Nuts(m)], seed=5, chains=2)
        given = sample(m, 60, [Nuts(m, step_size=0.25 / 4 ** 0.25)], seed=5, chains=2)
        for name in omitted.names:
            assert omitted[name].tobytes() == given[name].tobytes()

    def test_a_block_of_zero_coordinates_steps(self):
        m = Model()
        m.add_free("a", Normal(), shape=0)
        trace = sample(m, 10, [Nuts(m)], seed=1)
        assert Nuts(m).step_size == 0.25 and trace["a"].shape == (10, 0)

    def test_never_returns_neg_inf_logp(self):
        # unit curvature at the test point gives a unit mass
        m = box_model(-2.0, 2.0, curvature=1.0)
        step = Nuts(m, step_size=0.7)
        rng = stream(13, 0)
        point = m.initial_point()
        for _ in range(2000):
            point, _ = step.step(point, rng, tuning=False)
            assert -2.0 <= float(point["u"]) <= 2.0

    def test_acceptance_statistic_near_target(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0), shape=10)
        m.finalize()
        step = Nuts(m)
        rng = stream(17, 0)
        point = m.initial_point()
        for _ in range(500):
            point, _ = step.step(point, rng, tuning=True)
        stats = []
        for _ in range(500):
            point, _ = step.step(point, rng, tuning=False)
            stats.append(step.last_accept_stat)
        assert 0.7 <= float(np.mean(stats)) <= 0.9

    @pytest.mark.parametrize("kernel", [Hmc, Nuts])
    def test_start_with_a_non_finite_gradient_raises(self, kernel):
        # -sqrt(v) is 0 at v = 0, where its derivative is -inf
        m = Model()
        m.add_free("v", Custom(lambda v: -graph.sqrt(v)), testval=1.0)
        step = kernel(m)
        with pytest.raises(NonFiniteLogp, match=f"^{kernel.__name__} started at a point "
                                                "with non-finite gradient$"):
            step.step({"v": np.array(0.0)}, stream(0, 0), False)

    def test_nonfinite_start_raises(self):
        m = box_model(0.0, 1.0)
        step = Nuts(m)
        with pytest.raises(NonFiniteLogp):
            step.step({"u": np.array(9.0)}, stream(0, 0), False)


@pytest.mark.parametrize("kernel, setting, bad", [
    (Hmc, "step_size", np.nan), (Hmc, "step_size", np.inf), (Hmc, "step_size", 0.0),
    (Nuts, "step_size", np.nan), (Nuts, "step_size", np.inf), (Nuts, "step_size", 0.0),
    (Nuts, "step_size", -0.1), (Nuts, "gamma", np.nan), (Nuts, "gamma", np.inf),
    (Nuts, "gamma", 0.0), (Nuts, "gamma", -1.0),
    (Metropolis, "scale", True), (Nuts, "step_size", True), (Nuts, "gamma", "2"),
    (Hmc, "step_size", "2"),
])
def test_bad_step_setting_rejected(kernel, setting, bad):
    with pytest.raises(ValueError, match=setting):
        kernel(normal_model(), **{setting: bad})


@pytest.mark.parametrize("setting, bad", [
    ("n_steps", 2.5), ("n_steps", True), ("n_steps", 0),
    ("draws", 2.5), ("draws", True), ("draws", 0),
    ("chains", 1.5), ("chains", True), ("chains", 0),
    ("warmup", 2.5), ("warmup", True), ("warmup", -1),
])
def test_bad_count_setting_rejected(setting, bad, tmp_path):
    # rejected where it is given, not by ``range()`` once a run has started:
    # no trace directory is made
    m = normal_model()
    with pytest.raises(ValueError, match=setting):
        if setting == "n_steps":
            Hmc(normal_model(), n_steps=bad)
        else:
            sample(m, **{"draws": 10, "steps": [Metropolis(m)],
                         "backend": TextBackend(str(tmp_path / "t")), setting: bad})
    assert not (tmp_path / "t").exists()


def test_numpy_integer_counts_accepted():
    assert Hmc(normal_model(), n_steps=np.int64(3)).n_steps == 3
    m = normal_model()
    trace = sample(m, np.int32(5), [Metropolis(m)], chains=np.int64(2), warmup=np.uint8(0))
    assert (trace.chain_length(0), trace.n_chains) == (5, 2)


@pytest.mark.parametrize("kernel", [Nuts, Hmc, Slice, hessian])
def test_kernels_reject_integer_targets(kernel):
    # one check, in ``Packer``, serves every kernel and ``hessian``
    m = Model()
    m.add_free("x", Normal(mu=0.0, sd=1.0))
    m.add_free("k", DiscreteUniform(0, 5))
    with pytest.raises(NoGradient, match="cannot target integer variable 'k'"):
        kernel(m.finalize(), vars=["x", "k"])


def test_nuts_default_targets_include_the_disasters_switchpoint():
    # default targets are every free variable, so the integer one is refused
    with pytest.raises(NoGradient, match="cannot target integer variable 'switchpoint'"):
        Nuts(demos.disasters_model())


class TestEnergy:
    @pytest.mark.parametrize("lp", [np.inf, -np.inf, np.nan])
    def test_non_finite_log_density_gives_minus_infinity(self, lp):
        step = Hmc(normal_model())
        assert step._energy(_Node(np.zeros(1), np.array([0.5]), lp, np.zeros(1))) == -np.inf

    def test_overflowed_kinetic_energy_gives_minus_infinity(self):
        step = Hmc(normal_model())
        with np.errstate(over="ignore"):
            assert step._energy(_Node(np.zeros(1), np.array([1e200]), 0.0, np.zeros(1))) == -np.inf

    def test_overflowed_kinetic_energy_warns_nothing(self):
        # a momentum at this seed overflows p'M^-1 p in a step; the test
        # settings raise any RuntimeWarning as an error
        m = Model()
        rate = m.add_free("rate", Exponential(1.0))
        m.add_observed("y", Poisson(rate), np.array([1, 0, 1, 0, 1]))
        m.finalize()
        assert np.all(np.isfinite(sample(m, 45, [Nuts(m)], warmup=50, seed=27)["rate"]))

    def test_finite_energy_keeps_its_bits(self):
        step = Hmc(regression_model()[0])
        p = stream(3, 0).standard_normal(step.packer.size)
        node = _Node(np.zeros(step.packer.size), p, -12.345, np.zeros(step.packer.size))
        assert step._energy(node).hex() == (-12.345 - step._kinetic(p)).hex()


def infinite_above_two_model():
    """logp is +inf from 2 up: every kernel takes that as -inf and rejects
    the proposal, so no draw lands there."""
    m = Model()
    m.add_free("v", Custom(lambda v: switch(v >= 2.0, const(np.inf), -0.5 * v * v)),
               testval=0.0)
    return m.finalize()


@pytest.mark.parametrize("kernel", [lambda m: Metropolis(m, scale=3.0), Slice],
                         ids=["Metropolis", "Slice"])
def test_infinite_log_density_is_rejected(kernel):
    m = infinite_above_two_model()
    assert sample(m, 300, [kernel(m)], seed=1, warmup=0)["v"].max() < 2.0


class TestHmc:
    def test_infinite_log_density_is_rejected(self):
        m = infinite_above_two_model()
        v = sample(m, 200, [Hmc(m, step_size=0.9, n_steps=3)], seed=1, warmup=0)["v"]
        assert v.max() < 2.0

    def test_normal_moments(self):
        m = normal_model()
        step = Hmc(m, step_size=0.4, n_steps=6)
        rng = stream(23, 0)
        point = m.initial_point()
        xs = np.empty(8000)
        for i in range(xs.size):
            point, _ = step.step(point, rng, tuning=False)
            xs[i] = float(point["x"])
        assert abs(xs.mean()) < 0.06
        assert 0.85 < xs.var() < 1.15


class TestCompound:
    def test_overlap_rejected(self):
        m = normal_model()
        with pytest.raises(StepTargets, match="variables targeted twice"):
            sample(m, 10, [Metropolis(m), Metropolis(m)])

    def test_step_built_on_another_model_rejected(self, tmp_path):
        # the kernel would sample its own model, here centred at 50
        a, b = normal_model(0.0), normal_model(50.0)
        with pytest.raises(ValueError, match="model being sampled"):
            sample(a, 10, [Nuts(b)], backend=TextBackend(str(tmp_path / "t")))
        assert not (tmp_path / "t").exists()

    def test_uncovered_rejected(self):
        m = Model()
        m.add_free("a", Normal(mu=0.0, sd=1.0))
        m.add_free("b", Normal(mu=0.0, sd=1.0))
        m.finalize()
        with pytest.raises(StepTargets, match="no step method targets 'b'"):
            validate_coverage(m, [Metropolis(m, vars=["a"])])

    def test_coverage_ok_with_split(self):
        m = Model()
        m.add_free("a", Normal(mu=0.0, sd=1.0))
        m.add_free("b", Normal(mu=0.0, sd=1.0))
        m.finalize()
        validate_coverage(m, [Nuts(m, vars=["a"]), Metropolis(m, vars=["b"])])


class TestClone:
    def test_copies_state_and_shares_only_the_model(self):
        m = normal_model()
        step = Nuts(m)
        point, _ = step.step(m.initial_point(), stream(1, 0), tuning=True)
        c = step.clone()
        assert c.model is m and c.packer.model is m and c.packer is not step.packer
        assert (c.step_size, c._m) == (step.step_size, 1)
        c.step(point, stream(2, 0), tuning=True)
        assert (c._m, step._m) == (2, 1)

    def test_sample_leaves_its_kernels_unstepped(self):
        m = two_var_model()
        nuts, met = Nuts(m, vars=["x"]), Metropolis(m, vars=["e"])
        first = sample(m, 100, [nuts, met], warmup=50)
        assert nuts._m == 0 and nuts.step_size == 0.25 / 3 ** 0.25 and met._n == 0
        # so a second run with the same kernels starts fresh and repeats the first
        again = sample(m, 100, [nuts, met], warmup=50)
        assert first.names == again.names
        for name in first.names:
            assert first[name].tobytes() == again[name].tobytes()


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        m = normal_model()
        a = sample(m, 300, [Nuts(m)], seed=42, warmup=100)
        b = sample(m, 300, [Nuts(m)], seed=42, warmup=100)
        np.testing.assert_array_equal(a["x"], b["x"])

    def test_chains_are_distinct_but_reproducible(self):
        m = normal_model()
        t4 = sample(m, 150, [Metropolis(m)], seed=9, chains=4, warmup=50)
        assert t4.n_chains == 4
        chains = [t4.chains[c]["x"] for c in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(chains[i], chains[j])
        # chain k depends only on (seed, k), not on how many chains ran
        t1 = sample(m, 150, [Metropolis(m)], seed=9, chains=2, warmup=50)
        np.testing.assert_array_equal(t1.chains[1]["x"], t4.chains[1]["x"])


def two_var_model() -> Model:
    m = Model()
    m.add_free("x", Normal(mu=1.0, sd=2.0), shape=3)
    m.add_free("e", Exponential(1.0))
    return m.finalize()


@pytest.fixture
def calls(monkeypatch):
    """Counts Model.logp ("logp") and Model.logp_and_dlogp ("grad") calls."""
    count = {"logp": 0, "grad": 0}
    for key, attr in (("logp", "logp"), ("grad", "logp_and_dlogp")):
        original = getattr(Model, attr)

        def counted(self, *args, _key=key, _original=original, **kwargs):
            count[_key] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Model, attr, counted)
    return count


class TestRecord:
    """A kernel step skips the evaluation that the step before it handed on
    with the point it returned, and only that one."""

    @staticmethod
    def run(steps, n, handoff):
        """``n`` iterations of ``steps`` from the test point, the first half
        tuning, each step handed the previous step's ``known`` when
        ``handoff``: the points after each iteration."""
        m = steps[0].model
        rng = stream(3, 0)
        point, known = m.initial_point(), None
        out = []
        for i in range(n):
            for s in steps:
                point, known = s.step(point, rng, i < n // 2, known if handoff else None)
            out.append({k: np.array(v) for k, v in point.items()})
        return out

    @staticmethod
    def same(a, b):
        return all(x.keys() == y.keys() and all(x[k].tobytes() == y[k].tobytes() for k in x)
                   for x, y in zip(a, b)) and len(a) == len(b)

    @pytest.mark.parametrize("kernel", [Nuts, Hmc])
    def test_lone_gradient_kernel_saves_one_gradient_per_step_after_the_first(
            self, calls, kernel):
        m = two_var_model()
        step = kernel(m)
        warmup, draws = 40, 60
        calls["grad"] = 0
        trace = sample(m, draws, [step], warmup=warmup, seed=3)
        handed = calls["grad"]
        calls["grad"] = 0
        # the same chain stepped by hand, with nothing known
        hand, rng, point = step.clone(), stream(3, 0), m.initial_point()
        rows = []
        for i in range(warmup + draws):
            point, _ = hand.step(point, rng, i < warmup)
            rows.append(point["x"])
        assert calls["grad"] - handed == warmup + draws - 1
        np.testing.assert_array_equal(trace["x"], rows[warmup:])

    @pytest.mark.parametrize("kernels", [
        [(Nuts, "x"), (Metropolis, "e"), (Slice, "e")],
        # a gradient over other names is never reused
        [(Nuts, "x"), (Hmc, "e")],
    ], ids=["mixed", "two_gradient_kernels"])
    def test_chains_are_unchanged_by_the_record(self, kernels):
        m = two_var_model()
        steps = lambda: [k(m, vars=[v]) for k, v in kernels]
        assert self.same(self.run(steps(), 30, True), self.run(steps(), 30, False))

    def test_gradient_kernel_start_matches_a_fresh_evaluation(self, calls):
        m = two_var_model()
        step = Nuts(m)
        point, known = step.step(m.initial_point(), stream(1, 0), True)
        before = calls["grad"]
        _, lp, g = step._start(point, known)
        assert calls["grad"] == before
        assert lp == m.logp(point)
        assert np.array_equal(g, m.dlogp(point, step.packer.names))
        # a gradient over other names is evaluated again, to the same bits
        _, lp2, g2 = step._start(point, (lp, g[:3], ["x"]))
        assert calls["grad"] == before + 1
        assert lp2 == lp and np.array_equal(g2, g)

    def test_metropolis_after_nuts(self, calls):
        m = two_var_model()

        def run(handoff):
            met, nuts = Metropolis(m, vars=["e"]), Nuts(m, vars=["x"])
            rng = stream(4, 0)
            point, known = m.initial_point(), None
            logps, grads, rejected = [], [], []
            for i in range(120):
                tuning = i < 60
                before = calls["logp"]
                point, known = met.step(point, rng, tuning, known if handoff else None)
                logps.append(calls["logp"] - before)
                rejected.append(not met.last_accepted)
                before = calls["grad"]
                point, known = nuts.step(point, rng, tuning, known if handoff else None)
                grads.append(calls["grad"] - before)
            return logps, grads, rejected

        logps, grads, rejected = run(handoff=True)
        alone_logps, alone_grads, alone_rejected = run(handoff=False)
        assert rejected == alone_rejected
        assert 0 < sum(rejected[1:]) < 119
        # one log density saved per step after the first ...
        assert alone_logps == [2] * 120
        assert logps == [2] + [1] * 119
        # ... and the NUTS gradient survives each rejected Metropolis step
        saved = [a - b for a, b in zip(alone_grads, grads)]
        assert saved == [0] + [int(r) for r in rejected[1:]]

    def test_slice_and_metropolis_reuse_the_log_density(self, calls):
        m = two_var_model()
        steps = [Slice(m, vars=["x"]), Metropolis(m, vars=["e"])]
        counts = []
        for handoff in (True, False):
            calls["logp"] = 0
            self.run([s.clone() for s in steps], 1, handoff)
            counts.append(calls["logp"])
        # Slice starts with nothing known; Metropolis reuses the point Slice returned
        assert counts[0] == counts[1] - 1

    @staticmethod
    def spy(kernel, seen):
        """A subclass of ``kernel`` that appends each ``known`` it is handed to ``seen``."""
        class Spy(kernel):
            def step(self, point, rng, tuning=False, known=None):
                seen.append(known)
                return super().step(point, rng, tuning, known)
        return Spy

    def test_opaque_log_density_is_handed_on(self):
        doubled = []

        def double(v):
            doubled.append(float(v))
            return np.asarray(2.0 * v)

        m = Model()
        x = m.add_free("x", Normal(mu=0.0, sd=1.0))
        twice = graph.opaque_deterministic(double, [x], ())
        m.add_free("y", Custom(lambda v: -0.5 * (v - twice) ** 2.0), testval=0.0)
        m.finalize()  # evaluates the test point
        doubled.clear()
        known = []
        trace = sample(m, 20, [self.spy(Metropolis, known)(m)], warmup=0, seed=2)
        assert known[0] is None and all(k is not None for k in known[1:])
        assert len(doubled) == 20  # once per proposal
        # the same chain stepped by hand, with nothing known
        hand, rng, point = Metropolis(m), stream(2, 0), m.initial_point()
        rows = []
        for _ in range(20):
            point, _ = hand.step(point, rng)
            rows.append((point["x"], point["y"]))
        np.testing.assert_array_equal(np.column_stack([trace["x"], trace["y"]]), rows)

    def test_each_chain_evaluates_its_start(self):
        m = two_var_model()
        known = []
        steps = [self.spy(Nuts, known)(m, vars=["x"]), self.spy(Slice, known)(m, vars=["e"])]
        sample(m, 3, steps, warmup=2, chains=2)
        per_chain = 2 * (3 + 2)
        assert len(known) == 2 * per_chain
        for chain in (known[:per_chain], known[per_chain:]):
            assert chain[0] is None
            assert all(k is not None for k in chain[1:])
