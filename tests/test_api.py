import ast
import inspect
import os
import subprocess
import sys

import pytest

import miniprob
from miniprob import demos, exceptions, glm, graph, samplers
from miniprob.transforms import IntervalTransform, LogTransform


def test_every_exported_name_resolves():
    missing = [name for name in miniprob.__all__ if not hasattr(miniprob, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(set(miniprob.__all__)) == len(miniprob.__all__)


def test_removed_names_are_not_exported():
    removed = {"CompoundStep", "ObservedVar", "SampleConfig", "scaling_from_point",
               "hessian_diag", "FreeVar"}
    assert removed.isdisjoint(miniprob.__all__)
    assert not any(hasattr(miniprob, name) for name in removed)
    assert not hasattr(miniprob.Model, "custom_density")
    assert not hasattr(miniprob.Model, "resolve_name")
    assert not hasattr(miniprob.Model, "remember")
    assert not hasattr(miniprob.Model, "recall")
    assert not hasattr(graph, "input_bytes")
    assert not hasattr(graph, "has_opaque")
    for name in ("add", "sub", "mul", "div", "pow_", "cmp_ge", "cmp_gt", "neg", "abs_",
                 "index", "slice_"):  # each is spelled by its operator
        assert not hasattr(graph, name)
    assert not hasattr(LogTransform, "backward")
    assert not hasattr(IntervalTransform, "backward")
    assert not hasattr(glm, "Family")
    assert not hasattr(samplers.Packer, "pack")
    assert not hasattr(miniprob.Model, "test_point")
    assert not hasattr(miniprob.Formula, "format")
    m = miniprob.Model()
    m.add_free("x", miniprob.Normal())
    for kernel in (miniprob.Nuts(m), miniprob.Hmc(m)):
        assert not hasattr(kernel, "mass")
        assert not hasattr(kernel, "last_accepted")
    assert "tau" not in inspect.signature(miniprob.Normal).parameters
    assert "length" not in inspect.signature(miniprob.GaussianRandomWalk).parameters
    for name in _REMOVED_ERRORS:
        assert not hasattr(exceptions, name), name


# each folded into the class of the outcome it reports, or gone with the rule it kept
_REMOVED_ERRORS = [
    "_Unquoted", "MissingInput", "NonScalarObjective", "IntegerDifferentiation",
    "TestvalOutsideSupport", "AllMissing", "NonFiniteGradient", "NonFiniteStart",
    "UncoveredVariable", "OverlappingTargets", "CorruptMeta", "MissingChainFile",
    "TooFewSamples", "NonFiniteSample", "FormulaSyntaxError", "DuplicateTerm",
    "ResponseInTerms", "UnknownColumn", "NonBinaryResponse", "DataFileError",
]

# every error class, with the builtin exceptions it still is
_ERRORS = {
    "MiniprobError": {Exception},
    "DataError": {ValueError},
    "IoFailure": {ValueError, OSError},
    "UnknownVariable": {ValueError, KeyError},
    "ShapeMismatch": {ValueError},
    "DuplicateName": {ValueError},
    "OutsideSupport": {ValueError},
    "ModelFrozen": {RuntimeError},
    "NoGradient": {TypeError},
    "NonFiniteLogp": {ValueError},
    "StepTargets": {ValueError},
    "SamplingError": {RuntimeError},
    "FormulaError": {ValueError},
}


def _error_classes():
    return {name: c for name, c in vars(exceptions).items()
            if isinstance(c, type) and issubclass(c, BaseException)}


def _builtin_bases(cls):
    """The most derived builtin exception classes that ``cls`` derives from."""
    found = [b for b in cls.__mro__ if b.__module__ == "builtins" and b is not object]
    return {b for b in found if not any(o is not b and issubclass(o, b) for o in found)}


def test_error_classes_and_their_builtin_bases():
    classes = _error_classes()
    assert sorted(classes) == sorted(_ERRORS)
    for name, cls in classes.items():
        assert issubclass(cls, exceptions.MiniprobError), name
        assert _builtin_bases(cls) == _ERRORS[name], name
    # the command line's exit-3 rule: every data error and nothing else
    data = {name for name, cls in classes.items() if issubclass(cls, exceptions.DataError)}
    assert data == {"DataError", "IoFailure", "UnknownVariable"}


def test_every_error_class_is_raised():
    src = os.path.dirname(os.path.abspath(miniprob.__file__))
    raised = set()
    for file in os.listdir(src):
        if file.endswith(".py"):
            with open(os.path.join(src, file), encoding="utf-8") as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    classes = _error_classes()
    dead = [name for name, cls in classes.items()
            if not any(issubclass(classes[r], cls) for r in raised if r in classes)]
    assert dead == []


@pytest.mark.parametrize("fn, params", [
    (miniprob.Nuts, ["model", "vars", "scaling", "step_size", "gamma"]),
    (miniprob.Hmc, ["model", "vars", "scaling", "step_size", "n_steps"]),
    (miniprob.Metropolis, ["model", "vars", "scale"]),
    (miniprob.Slice, ["model", "vars"]),
    (demos.run_disasters, ["draws", "seed", "backend", "progress"]),
    (miniprob.hessian, ["model", "point", "vars"]),
    (samplers.hessian_diag, ["model", "point", "vars"]),
    (miniprob.Normal, ["mu", "sd"]),
    (miniprob.GaussianRandomWalk, ["tau"]),
    (miniprob.leapfrog, ["logp_grad", "q", "p", "eps", "inv_mass", "grad_q"]),
    (miniprob.sample, ["model", "draws", "steps", "start", "chains", "seed", "backend",
                       "warmup", "progress"]),
], ids=["Nuts", "Hmc", "Metropolis", "Slice", "run_disasters", "hessian", "hessian_diag",
        "Normal", "GaussianRandomWalk", "leapfrog", "sample"])
def test_kernel_parameters(fn, params):
    assert list(inspect.signature(fn).parameters) == params


def test_leapfrog_needs_the_start_gradient():
    grad_q = inspect.signature(miniprob.leapfrog).parameters["grad_q"]
    assert grad_q.default is inspect.Parameter.empty


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


_COLD = """
import sys
import miniprob, miniprob.cli
from miniprob import Model, Nuts, StudentT, demos, sample, summary
model = demos.linear_model(demos.simulate_linear_data(1))
summary(sample(model, 40, [Nuts(model)], seed=1))
model = demos.disasters_model()
print(float(model.logp(model.initial_point())).hex())
demos.run_disasters(100, 1)
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], "scipy was loaded"
Model().add_free("t", StudentT(3.0))
assert "scipy.special" in sys.modules
"""


def test_scipy_loads_only_with_a_graph_that_uses_it():
    # neither the linear nor the disasters model has an lgamma, digamma or
    # logistic node: Poisson's log k! needs no scipy, and the disasters test
    # point logp keeps its bytes; StudentT's lgamma loads scipy.special
    src = os.path.dirname(os.path.dirname(os.path.abspath(miniprob.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _COLD], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["-0x1.cfa67d552c4f7p+7"]


def test_special_functions_are_bound_per_tape():
    for model in (demos.linear_model(demos.simulate_linear_data(1)), demos.disasters_model()):
        assert "gammaln" not in graph._tape(model.logp_graph).namespace
    model = miniprob.Model()
    model.add_free("t", miniprob.StudentT(3.0))
    model = model.finalize()
    model.logp(model.initial_point())
    assert {"gammaln", "psi", "expit"} <= graph._tape(model.logp_graph).namespace.keys()


def test_a_rebuilt_model_compiles_no_source():
    def build():
        model = demos.linear_model(demos.simulate_linear_data(1))
        model.logp_and_dlogp(model.initial_point())
        return model

    first = build()
    misses = graph._compile.cache_info().misses
    second = build()
    assert graph._compile.cache_info().misses == misses
    assert graph._tape(second.logp_graph) is not graph._tape(first.logp_graph)
