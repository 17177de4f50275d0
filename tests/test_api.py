import inspect
import os
import subprocess
import sys

import pytest

import miniprob
from miniprob import demos, glm
from miniprob.transforms import IntervalTransform, LogTransform


def test_every_exported_name_resolves():
    missing = [name for name in miniprob.__all__ if not hasattr(miniprob, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(miniprob.__all__)) == len(miniprob.__all__)


def test_removed_names_are_not_exported():
    removed = {"CompoundStep", "ObservedVar", "SampleConfig", "scaling_from_point"}
    assert removed.isdisjoint(miniprob.__all__)
    assert not any(hasattr(miniprob, name) for name in removed)
    assert not hasattr(miniprob.Model, "custom_density")
    assert not hasattr(miniprob.Model, "resolve_name")
    assert not hasattr(LogTransform, "backward")
    assert not hasattr(IntervalTransform, "backward")
    assert not hasattr(glm, "Family")


@pytest.mark.parametrize("fn, params", [
    (miniprob.Nuts, ["model", "vars", "scaling", "step_size", "gamma"]),
    (miniprob.Hmc, ["model", "vars", "scaling", "step_size", "n_steps"]),
    (miniprob.Metropolis, ["model", "vars", "scale"]),
    (miniprob.Slice, ["model", "vars"]),
    (demos.run_disasters, ["draws", "seed", "backend", "progress"]),
    (miniprob.hessian, ["model", "point", "vars"]),
    (miniprob.hessian_diag, ["model", "point", "vars"]),
    (miniprob.sample, ["model", "draws", "steps", "start", "chains", "seed", "backend",
                       "warmup", "discard_tuned", "progress"]),
], ids=["Nuts", "Hmc", "Metropolis", "Slice", "run_disasters", "hessian", "hessian_diag",
        "sample"])
def test_kernel_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params


_STARTUP = """
import sys
import miniprob, miniprob.cli
from miniprob import demos
model, trace = demos.run_disasters(50, 1)
miniprob.summary(trace)
assert "scipy.optimize" not in sys.modules, "sampling loaded scipy.optimize"
m = demos.linear_model(demos.simulate_linear_data(1))
assert demos.find_map(m)["sigma"] > 0
assert "scipy.optimize" in sys.modules
"""


def test_sampling_never_imports_scipy_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(miniprob.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _STARTUP], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
