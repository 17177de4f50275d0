import os
import subprocess
import sys

import numpy as np
import pytest

import miniprob
from conftest import finite_diff_grad, rel_err
from miniprob import demos
from miniprob.backends import MemoryBackend, TextBackend, load
from miniprob.distributions import Custom, DiscreteUniform, Exponential, Normal
from miniprob.exceptions import (
    NonFiniteLogp,
    SamplingError,
    ShapeMismatch,
    StepTargets,
    UnknownVariable,
)
from miniprob.graph import cmp_ge, const, opaque_deterministic, switch
from miniprob.inference import find_map, sample
from miniprob.model import Model
from miniprob.rng import stream
from miniprob.samplers import Metropolis, Nuts, Packer, Slice, hessian_diag


class TestFindMap:
    def test_normal_mode(self):
        m = Model()
        m.add_free("x", Normal(mu=3.0, sd=1.0))
        m.finalize()
        mp = find_map(m)
        assert float(mp["x"]) == pytest.approx(3.0, abs=1e-6)

    def test_steps_outside_the_support_are_walked_back(self, monkeypatch):
        # from 0, BFGS's first step passes the edge at 1 of a density whose
        # mode is 0.9; the objective stands a large value in for -logp there
        m = Model()
        m.add_free("x", Custom(lambda v: switch(cmp_ge(1.0, v), -(v - 0.9) * (v - 0.9),
                                                const(-np.inf))), testval=0.0)
        m.finalize()
        seen = []
        logp_grad = Packer.logp_grad
        monkeypatch.setattr(Packer, "logp_grad",
                            lambda self, x: seen.append(logp_grad(self, x)) or seen[-1])
        mp = find_map(m)
        assert any(lp == -np.inf for lp, _ in seen)
        assert float(mp["x"]) == pytest.approx(0.9, abs=1e-6)

    def test_direction_set_mode(self):
        m = Model()
        m.add_free("x", Normal(mu=-1.5, sd=2.0))
        m.finalize()
        mp = find_map(m, method="direction_set")
        assert float(mp["x"]) == pytest.approx(-1.5, abs=1e-6)

    def test_returns_transformed_and_aliases(self, linear_model):
        mp = find_map(linear_model, method="quasi_newton")
        assert set(mp) == {"alpha", "beta", "sigma_log", "sigma"}
        assert float(mp["sigma"]) == pytest.approx(np.exp(float(mp["sigma_log"])))

    def test_carries_deterministics(self):
        m = Model()
        x = m.add_free("x", Normal(mu=3.0, sd=1.0))
        m.add_deterministic("twice_x", 2.0 * x)
        m.finalize()
        mp = find_map(m)
        assert float(mp["twice_x"]) == 2.0 * float(mp["x"])

    def test_never_worse_than_start(self, linear_model):
        start = linear_model.initial_point()
        mp = find_map(linear_model)
        pt = linear_model.initial_point(mp)
        assert linear_model.logp(pt) >= linear_model.logp(start)

    def test_subset_holds_others_fixed(self, linear_model):
        mp = find_map(linear_model, vars=["alpha"])
        tp = linear_model.initial_point()
        np.testing.assert_array_equal(mp["beta"], tp["beta"])
        assert float(mp["sigma_log"]) == float(tp["sigma_log"])
        assert float(mp["alpha"]) != float(tp["alpha"])

    def test_discrete_always_held(self, disasters_model):
        mp = find_map(disasters_model, vars=["switchpoint", "early_rate"])
        assert int(mp["switchpoint"]) == 1900  # untouched test value

    @pytest.mark.parametrize("vars", [None, ["switchpoint"]], ids=["discrete_only", "held"])
    def test_unknown_method_rejected_when_nothing_moves(self, disasters_model, vars):
        # nothing continuous to optimize: a discrete-only model, or only discrete targets
        m = disasters_model
        if vars is None:
            m = Model()
            m.add_free("k", DiscreteUniform(0, 5))
        with pytest.raises(ValueError, match="bogus"):
            find_map(m, vars=vars, method="bogus")

    def test_nonfinite_start_rejected(self):
        m = Model()
        m.add_free("v", Custom(lambda v: -abs(v) * 0.0 + _neg_inf_below_zero(v)), testval=1.0)
        m.finalize()
        with pytest.raises(NonFiniteLogp, match="at the optimization start"):
            find_map(m, start={"v": -2.0})

    def test_direction_set_works_with_opaque_gradient_blocker(self):
        # gradients are unavailable through the opaque node; Powell still works
        m = Model()
        x = m.add_free("x", Normal(mu=2.0, sd=1.0))
        blocked = opaque_deterministic(lambda v: np.asarray(float(v)), [x], ())
        m.add_free("y", Custom(lambda v: Normal(mu=blocked, sd=1.0).logp_expr(v)), testval=0.0)
        m.finalize()
        mp = find_map(m, method="direction_set")
        assert np.isfinite(mp["x"])


def _neg_inf_below_zero(v):
    from miniprob.graph import cmp_ge, const, sum_all, switch
    return sum_all(switch(cmp_ge(v, 0.0), const(0.0) * v, const(float("-inf"))))


class TestHessianDiag:
    def test_normal_sd2(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=2.0))
        m.finalize()
        v = hessian_diag(m)
        assert v[0] == pytest.approx(0.25, rel=1e-6)

    def test_exponential_transformed(self):
        m = Model()
        m.add_free("e", Exponential(1.0))
        m.finalize()
        v = hessian_diag(m, {"e_log": np.array(0.0)})
        assert v[0] == pytest.approx(1.0, rel=1e-5)

    def test_matches_fd_of_dlogp_on_regression(self, linear_model):
        mp = find_map(linear_model)
        point = linear_model.initial_point(mp)
        names = linear_model.continuous_names()
        packer = Packer(linear_model, names, point)
        x0 = packer.start
        got = hessian_diag(linear_model, point)

        for i in range(x0.size):
            h = 1e-5 * max(1.0, abs(x0[i]))
            xp, xm = x0.copy(), x0.copy()
            xp[i] += h
            xm[i] -= h
            gp = linear_model.dlogp(packer.point(xp), names)
            gm = linear_model.dlogp(packer.point(xm), names)
            oracle = -(gp[i] - gm[i]) / (2 * h)
            assert got[i] == pytest.approx(oracle, rel=1e-3, abs=1e-5)

    def test_positive_at_map(self, linear_model):
        mp = find_map(linear_model)
        assert np.all(hessian_diag(linear_model, mp) > 0)


class TestSample:
    def test_negative_warmup_rejected(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        with pytest.raises(ValueError, match="warmup"):
            sample(m, 10, [Metropolis(m)], warmup=-4)

    @pytest.mark.parametrize("steps", ["bare", "tuple", "not_a_step"])
    def test_steps_must_be_a_list_of_step_methods(self, steps):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        steps = {"bare": Metropolis(m), "tuple": (Metropolis(m),),
                 "not_a_step": [Metropolis(m), "slice"]}[steps]
        with pytest.raises(ValueError, match="list of step methods"):
            sample(m, 10, steps)

    @pytest.mark.parametrize("backend", ["memory", "text"])
    def test_model_without_free_variables_rejected(self, tmp_path, backend):
        m = Model()
        m.add_observed("y", Normal(mu=0.0, sd=1.0), np.array([0.1, -0.3]))
        directory = tmp_path / "trace"
        chosen = MemoryBackend() if backend == "memory" else TextBackend(str(directory))
        with pytest.raises(ValueError, match="no free variables"):
            sample(m, 5, [], backend=chosen)
        assert chosen.layout is None and not directory.exists()

    @pytest.mark.parametrize("start, error", [
        ({"x": np.zeros(3)}, ShapeMismatch), ({"sigmaa": 1.0}, UnknownVariable),
    ], ids=["shape", "misspelt"])
    def test_bad_start_rejected_before_the_backend_starts(self, tmp_path, start, error):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.add_free("sigma", Exponential(1.0))
        directory = tmp_path / "tb"
        with pytest.raises(error):
            sample(m, 10, [Metropolis(m)], start=start, backend=TextBackend(str(directory)))
        assert not directory.exists()

    @pytest.mark.parametrize("start", [{"x": np.nan}, {"x": -np.inf}, {"sigma_log": np.inf}],
                             ids=["x_nan", "x_neg_inf", "sigma_log_inf"])
    def test_metropolis_rejects_a_non_finite_start(self, start, tmp_path):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.add_free("sigma", Exponential(1.0))
        directory = tmp_path / "tb"
        with pytest.raises(NonFiniteLogp, match="at the sampling start"):
            sample(m, 50, [Metropolis(m)], start=start, backend=TextBackend(str(directory)))
        assert not directory.exists()

    @pytest.mark.parametrize("kernel", [Metropolis, Slice, Nuts])
    def test_every_kernel_names_itself_at_a_non_finite_start(self, kernel):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        point = m.initial_point({"x": np.nan})
        with pytest.raises(NonFiniteLogp, match=f"^{kernel.__name__} started at logp=nan$"):
            kernel(m).step(point, stream(0, 0), False)

    def test_trace_length_with_discard(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        t = sample(m, 400, [Metropolis(m)], seed=1, warmup=100)
        assert len(t) == 400

    def test_default_warmup_rule(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        totals = set()
        t = sample(m, 50, [Metropolis(m)], seed=1, progress=lambda c, d, t_: totals.add(t_))
        assert totals == {50 + 25}  # min(500, draws // 2)
        assert len(t) == 50

    def test_coverage_required(self):
        m = Model()
        m.add_free("a", Normal(mu=0.0, sd=1.0))
        m.add_free("b", Normal(mu=0.0, sd=1.0))
        m.finalize()
        with pytest.raises(StepTargets, match="no step method targets 'b'"):
            sample(m, 10, [Metropolis(m, vars=["a"])], seed=0)

    def test_same_seed_identical_backends(self, tmp_path):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        t1 = sample(m, 200, [Nuts(m)], seed=4, warmup=50,
                    backend=TextBackend(str(tmp_path / "a")))
        t2 = sample(m, 200, [Nuts(m)], seed=4, warmup=50,
                    backend=TextBackend(str(tmp_path / "b")))
        a = (tmp_path / "a" / "chain-0.csv").read_text()
        assert a == (tmp_path / "b" / "chain-0.csv").read_text()
        np.testing.assert_array_equal(t1["x"], t2["x"])

    def test_memory_and_text_identical(self, tmp_path):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        t_mem = sample(m, 150, [Metropolis(m)], seed=8, warmup=50, backend=MemoryBackend())
        t_txt = sample(m, 150, [Metropolis(m)], seed=8, warmup=50,
                       backend=TextBackend(str(tmp_path / "t")))
        np.testing.assert_array_equal(t_mem["x"], t_txt["x"])

    def test_text_backend_reused_for_a_second_run(self, tmp_path):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        text = TextBackend(str(tmp_path / "t"))

        def run(backend, seed):
            return sample(m, 60, [Metropolis(m)], seed=seed, warmup=10, chains=2,
                          backend=backend)

        run(text, 1)
        second = run(text, 2)
        expected = run(MemoryBackend(), 2)
        np.testing.assert_array_equal(second["x"], expected["x"])
        np.testing.assert_array_equal(load(str(tmp_path / "t"))["x"], expected["x"])

    def test_progress_callback_cadence(self):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        calls = []
        t = sample(m, 250, [Metropolis(m)], seed=1, warmup=0,
                   progress=lambda c, d, t_: calls.append((c, d, t_)))
        assert calls == [(0, 100, 250), (0, 200, 250), (0, 250, 250)]

    def test_last_point_restart(self):
        m = Model()
        m.add_free("e", Exponential(1.0))
        m.finalize()
        t = sample(m, 100, [Metropolis(m)], seed=2, warmup=20)
        last = t[-1]
        assert set(last) == {"e_log", "e"}
        t2 = sample(m, 10, [Metropolis(m)], seed=3, start=last, warmup=0)
        assert np.isfinite(t2["e"]).all()


class FailingMetropolis(Metropolis):
    """Metropolis whose step raises a model error at draw ``FAIL_AT``."""

    FAIL_AT = 7

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.draws = 0

    def step(self, point, rng, tuning=False, known=None):
        if self.draws == self.FAIL_AT:
            raise NonFiniteLogp("injected failure")
        self.draws += 1
        return super().step(point, rng, tuning, known)


def crash_mid_sample(directory: str) -> None:
    """Sample into a text trace with a step method that fails part-way."""
    m = Model()
    m.add_free("x", Normal(mu=0.0, sd=1.0))
    m.finalize()
    with pytest.raises(SamplingError, match=f"draw {FailingMetropolis.FAIL_AT}:"):
        sample(m, 20, [FailingMetropolis(m)], seed=5, warmup=0,
               backend=TextBackend(directory))


class TestCrashMidSample:
    def test_partial_trace_loads(self, tmp_path):
        crash_mid_sample(str(tmp_path / "t"))
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()
        full = sample(m, 20, [Metropolis(m)], seed=5, warmup=0)
        partial = load(str(tmp_path / "t"))
        assert partial.chain_length() == FailingMetropolis.FAIL_AT
        np.testing.assert_array_equal(partial["x"], full["x"][:FailingMetropolis.FAIL_AT])

    def test_crash_in_a_later_chain_loads(self, tmp_path):
        m = Model()
        m.add_free("x", Normal(mu=0.0, sd=1.0))
        m.finalize()

        def fail_in_chain_1(chain, draw, total):
            if chain == 1:
                raise NonFiniteLogp("injected failure")

        with pytest.raises(NonFiniteLogp):
            sample(m, 150, [Metropolis(m)], seed=5, warmup=0, chains=2,
                   progress=fail_in_chain_1, backend=TextBackend(str(tmp_path / "t")))
        full = sample(m, 150, [Metropolis(m)], seed=5, warmup=0, chains=2)
        partial = load(str(tmp_path / "t"))
        assert (partial.chain_length(0), partial.chain_length(1)) == (150, 100)
        np.testing.assert_array_equal(partial["x"], full["x"][:250])

    def test_no_file_left_open(self, tmp_path):
        script = ("import gc, sys\n"
                  "from test_inference import crash_mid_sample\n"
                  "crash_mid_sample(sys.argv[1])\n"
                  "gc.collect()\n")
        tests = os.path.dirname(__file__)
        src = os.path.dirname(os.path.dirname(miniprob.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([tests, src]))
        done = subprocess.run([sys.executable, "-X", "dev", "-c", script, str(tmp_path / "t")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert "ResourceWarning" not in done.stderr
        assert os.path.exists(tmp_path / "t" / "meta.json")


class TestDemoGradients:
    def test_linear_model_gradient_matches_fd(self, linear_model):
        # independent oracle: central differences on the full log posterior
        names = linear_model.continuous_names()
        packer = Packer(linear_model, names)
        x0 = packer.start

        def f(vec):
            return linear_model.logp(packer.point(vec))

        rng = np.random.default_rng(0)
        for _ in range(5):
            x = x0 + rng.uniform(-0.5, 0.5, x0.size)
            ad = linear_model.dlogp(packer.point(x), names)
            fd = finite_diff_grad(f, x, h=1e-6)
            assert rel_err(ad, fd) < 1e-6
