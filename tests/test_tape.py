"""The compiled slot tape against the interpretive reference evaluator.

Values and gradients must be byte-equal to ``graph_reference``: folding runs
the same kernels once, and the pruned backward pass skips only adjoints that
cannot reach a requested input.
"""

import numpy as np
import pytest

import graph_reference as reference
from miniprob import demos, graph
from miniprob.datasets import load_returns
from miniprob.exceptions import MissingInput, NoGradient, ShapeMismatch
from miniprob.glm import BinomialFamily, build_model
from miniprob.graph import (
    concat,
    const,
    eval_expr,
    free_input,
    opaque_deterministic,
    switch,
)

MODELS = {
    "linear": lambda: demos.linear_model(demos.simulate_linear_data(1)),
    "disasters": demos.disasters_model,
    "sp500": lambda: demos.sp500_model(load_returns()),
    "glm_linear": lambda: build_model("y ~ x1 + x2", demos.simulate_linear_data(1)),
    "glm_logistic": lambda: build_model("y ~ x1 + x2", demos.glm_logistic_table(1),
                                        family=BinomialFamily()),
}


def as_bytes(value) -> tuple:
    arr = np.asarray(value)
    return arr.dtype.str, arr.shape, arr.tobytes()


def random_points(model, n, seed):
    """The test point, then ``n`` seeded perturbations of it; integer
    coordinates move by whole steps and may leave the support."""
    rng = np.random.default_rng(seed)
    base = model.test_point
    yield base
    for _ in range(n):
        point = {}
        for v in model.free_vars:
            x = base[v.sampling_name]
            if v.dtype == "int":
                point[v.sampling_name] = x + rng.integers(-10, 11, v.shape)
            else:
                point[v.sampling_name] = x + rng.normal(0.0, 1.0, v.shape)
        yield point


@pytest.mark.parametrize("name", list(MODELS))
def test_model_matches_reference(name):
    model = MODELS[name]()
    names = model.continuous_names()
    expr = model.logp_graph
    for point in random_points(model, 20, seed=11):
        lp, g = model.logp_and_dlogp(point)
        ref_lp, ref_g = reference.value_and_grad(expr, names, point)
        assert as_bytes(lp) == as_bytes(float(ref_lp))
        assert as_bytes(model.logp(point)) == as_bytes(float(ref_lp))
        for n in names:
            assert as_bytes(g[n]) == as_bytes(ref_g[n]), n


def _edge_graphs():
    x = free_input("x", (3,))
    y = free_input("y", ())
    at = {"x": np.array([0.0, 1.0, 2.0]), "y": 0.0}
    yield "log at 0", graph.sum_all(graph.log(x)), at
    dead = switch(y > 0.0, graph.log(y), const(float("-inf")))
    yield "switch, dead branch -inf", dead * 2.0, {"x": at["x"], "y": 0.5}
    yield "switch, live branch -inf", dead * 2.0, {"x": at["x"], "y": -0.5}
    yield "switch, dead branch 0 * -inf", switch(y > 0.0, y * graph.log(y), 0.0), at
    yield "pow, zero base", graph.sum_all(x ** (y + 2.0)), at
    yield "pow, zero base, exponent 0.5", graph.sum_all(x ** (y + 0.5)), at
    gather = x[np.array([0, 0, 2, 2, 2])] * graph.exp(y)
    yield "gather, repeated keys", graph.sum_all(gather * gather), at
    parts = concat([x[1:], y * x[:2], x[::2]])
    yield "concat and slice", graph.sum_all(parts * parts) + x[1], at


@pytest.mark.parametrize("label, expr, point", list(_edge_graphs()),
                         ids=[label for label, _, _ in _edge_graphs()])
def test_edge_graph_matches_reference(label, expr, point):
    for _ in range(2):  # the first call compiles, the second reuses the tape
        value, g = graph.value_and_grad(expr, ["x", "y"], point)
        ref_value, ref_g = reference.value_and_grad(expr, ["x", "y"], point)
        assert as_bytes(value) == as_bytes(ref_value)
        assert as_bytes(eval_expr(expr, point)) == as_bytes(ref_value)
        for n in ("x", "y"):
            assert as_bytes(g[n]) == as_bytes(ref_g[n]), n


class TestFolding:
    def test_constant_graph_is_folded(self):
        expr = graph.log(const(2.0)) * 3.0 + graph.sum_all(const([1.0, 2.5]) ** 2.0)
        value = eval_expr(expr, {})
        assert expr._tape.steps == [] and expr._tape.inputs == []
        assert as_bytes(value) == as_bytes(reference.forward(expr, {})[id(expr)])
        assert eval_expr(expr, {}) is value

    def test_folded_arrays_are_read_only(self):
        expr = const([1.0, 2.0]) * 2.0
        with pytest.raises(ValueError):
            eval_expr(expr, {})[0] = 5.0
        np.testing.assert_array_equal(eval_expr(expr, {}), [2.0, 4.0])

    def test_opaque_with_constant_inputs_runs_every_call(self):
        calls = []

        def fn(v):
            calls.append(1)
            return np.asarray(float(v) + len(calls))

        x = free_input("x", ())
        node = opaque_deterministic(fn, [const(3.0)], ())
        expr = node * 2.0 + x
        assert [float(eval_expr(expr, {"x": 0.0})) for _ in range(3)] == [8.0, 10.0, 12.0]
        assert len(calls) == 3
        # the nodes above a constant-fed opaque node are not folded either
        assert float(eval_expr(node * 2.0, {})) == 14.0

    def test_no_gradient_on_the_path_every_call(self):
        x = free_input("x", ())
        node = opaque_deterministic(lambda v: np.asarray(float(v) * 2.0), [x], ())
        for _ in range(2):
            with pytest.raises(NoGradient):
                graph.grad(graph.sum_all(node * 1.0), ["x"], {"x": 1.0})

    def test_no_gradient_check_skips_opaque_beside_the_path(self):
        x = free_input("x", ())
        y = free_input("y", ())
        node = opaque_deterministic(lambda v: np.asarray(float(v) * 2.0), [y], ())
        expr = x * x + node
        for _ in range(2):
            assert graph.grad(expr, ["x"], {"x": 3.0, "y": 1.0})["x"] == 6.0
        with pytest.raises(NoGradient):
            graph.grad(expr, ["x", "y"], {"x": 3.0, "y": 1.0})

    def test_input_checks_fire_after_compilation(self):
        x = free_input("x", (2,))
        k = free_input("k", (), dtype="int")
        expr = graph.sum_all(x * 2.0) + k
        good = {"x": np.zeros(2), "k": 1}
        assert float(eval_expr(expr, good)) == 1.0
        for _ in range(2):
            with pytest.raises(MissingInput):
                eval_expr(expr, {"x": np.zeros(2)})
            with pytest.raises(ShapeMismatch):
                eval_expr(expr, {"x": np.zeros(3), "k": 1})
            with pytest.raises(ShapeMismatch):
                eval_expr(expr, {"x": np.zeros(2), "k": 1.5})
            with pytest.raises(MissingInput):
                graph.value_and_grad(expr, ["x"], {"k": 1})


@pytest.mark.parametrize("kind", ["lgamma", "digamma"])
@pytest.mark.parametrize("x", [
    np.array([0.5, 0.7, 1.0, 3.5, 100.0, 1e300]),
    np.array([0.49, -2.5, 0.7, 5.0, -0.0]),
    np.arange(1, 112),
    np.array(2.5),
    np.array(0.2),
    np.array(np.nan),
    np.array([np.nan, np.inf, 2.0]),
    np.array([np.nan, -np.inf, 2.0]),
    np.array([]),
    7.0,
], ids=["no_small", "small", "counts", "0d", "0d_small", "nan", "nan_inf", "nan_neg_inf",
        "empty", "float"])
def test_lgamma_edge_inputs_match_reference(kind, x):
    # the value of an lgamma node, or its digamma gradient, at inputs where
    # scipy returns scalars, infinities or NaN
    point = {"x": x}
    node = graph.lgamma(free_input("x", np.shape(x)))
    if kind == "lgamma":
        out, ref = eval_expr(node, point), reference.forward(node, point)[id(node)]
    else:
        expr = graph.sum_all(node)
        out, ref = (graph.grad(expr, ["x"], point)["x"],
                    reference.grad(expr, ["x"], point)["x"])
    assert type(out) is type(ref)
    assert as_bytes(out) == as_bytes(ref)
