"""The compiled slot tape against the interpretive reference evaluator.

Values and gradients must be byte-equal to ``graph_reference``: a call reuses
the previous call's slots only where no input below them changed, so a node
fed only by constants runs once, and the pruned backward pass skips only
adjoints that cannot reach a requested input.
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


def check_against_reference(model, point):
    names = model.continuous_names()
    expr = model.logp_graph
    lp, g = model.logp_and_dlogp(point)
    ref_lp, ref_g = reference.value_and_grad(expr, names, point)
    assert as_bytes(lp) == as_bytes(float(ref_lp))
    assert as_bytes(model.logp(point)) == as_bytes(float(ref_lp))
    for n in names:
        assert as_bytes(g[n]) == as_bytes(ref_g[n]), n


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
    for point in random_points(model, 20, seed=11):
        check_against_reference(model, point)


@pytest.mark.parametrize("name", list(MODELS))
def test_partial_moves_match_reference(name):
    # each point moves a random subset of the inputs of the one before, as
    # a compound step does, so the tape reuses some slots and reruns others
    model = MODELS[name]()
    rng = np.random.default_rng(12)
    moves = iter(random_points(model, 30, seed=13))
    point = dict(next(moves))
    check_against_reference(model, point)
    for move in moves:
        for n in model.sampling_names():
            if rng.random() < 0.5:
                point[n] = move[n]
        check_against_reference(model, point)
        check_against_reference(model, point)  # nothing changed


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
        ran = counted(graph._tape(expr))
        value = eval_expr(expr, {})
        assert as_bytes(value) == as_bytes(reference.forward(expr, {})[id(expr)])
        ran.clear()
        assert eval_expr(expr, {}) is value and ran == []

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
        # the nodes above a constant-fed opaque node run on every call too
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


def counted(tape):
    """Wrap every step kernel of ``tape``; returns the list of slots run,
    appended to as kernels run."""
    ran = []

    def wrap(i, fn):
        def kernel(*args):
            ran.append(i)
            return fn(*args)
        return kernel

    tape.steps = [(i, wrap(i, fn), args) for i, fn, args in tape.steps]
    return ran


class TestReuse:
    def test_unchanged_point_runs_no_kernel(self):
        model = demos.disasters_model()
        tape = graph._tape(model.logp_graph)
        ran = counted(tape)
        point = list(random_points(model, 1, seed=14))[1]  # moves every input
        first = model.logp_and_dlogp(point)
        # every step but those fed only by constants, which ran at finalize
        assert ran == [i for i, _, _ in tape.steps if tape.deps[i]]
        ran.clear()
        second = model.logp_and_dlogp(dict(point))
        assert ran == [] and as_bytes(first[0]) == as_bytes(second[0])

    def test_only_steps_above_a_changed_input_run(self):
        x, y = free_input("x", ()), free_input("y", ())
        ex, ey = graph.exp(x), graph.log(y)
        expr = ex * 2.0 + ey
        tape = graph._tape(expr)
        ran = counted(tape)
        slot = {id(n): i for i, n in enumerate(tape.order)}
        eval_expr(expr, {"x": 1.0, "y": 2.0})
        ran.clear()
        value = eval_expr(expr, {"x": 1.0, "y": 3.0})
        assert slot[id(ex)] not in ran and slot[id(ey)] in ran
        assert as_bytes(value) == as_bytes(
            reference.forward(expr, {"x": 1.0, "y": 3.0})[id(expr)])

    def test_opaque_steps_and_their_users_run_every_call(self):
        x, y = free_input("x", ()), free_input("y", ())
        ex = graph.exp(x)
        node = opaque_deterministic(lambda v: np.asarray(float(v) + 1.0), [y], ())
        above = node * 3.0
        expr = ex + above
        tape = graph._tape(expr)
        ran = counted(tape)
        slot = {id(n): i for i, n in enumerate(tape.order)}
        point = {"x": 0.5, "y": 2.0}
        eval_expr(expr, point)
        ran.clear()
        assert float(eval_expr(expr, point)) == float(np.exp(0.5)) + 9.0
        assert sorted(ran) == sorted(slot[id(n)] for n in (node, above, expr))

    def test_input_mutated_in_place_between_calls(self):
        # Slice writes one coordinate of the point's array in place
        x = free_input("x", (3,))
        expr = graph.sum_all(graph.exp(x) * x[np.array([2, 0, 1])])
        point = {"x": np.array([0.1, 0.2, 0.3])}
        for j, v in enumerate([0.7, -1.5, 0.2]):
            eval_expr(expr, point)
            point["x"][j] = v
            ref_value, ref_g = reference.value_and_grad(expr, ["x"], point)
            value, g = graph.value_and_grad(expr, ["x"], point)
            assert as_bytes(value) == as_bytes(ref_value)
            assert as_bytes(g["x"]) == as_bytes(ref_g["x"])

    def test_tape_keeps_no_reference_to_the_callers_array(self):
        x, y = free_input("x", (2,)), free_input("y", ())
        expr = graph.sum_all(x * y)
        old = np.array([1.0, 2.0])
        eval_expr(expr, {"x": old, "y": 1.0})
        old[0] = 5.0  # the next call passes a new array holding the old bytes
        point = {"x": np.array([1.0, 2.0]), "y": 2.0}
        assert as_bytes(eval_expr(expr, point)) == as_bytes(
            reference.forward(expr, point)[id(expr)])

    def test_signed_zero_is_a_change(self):
        x = free_input("x", ())
        expr = 1.0 / x
        assert float(eval_expr(expr, {"x": 0.0})) == np.inf
        assert float(eval_expr(expr, {"x": -0.0})) == -np.inf
        # one tape, fed NaNs that differ only in payload, then only in sign
        same = x * 1.0
        payload = np.uint64(0x7FF8000000000001).view(np.float64)
        for v in (np.nan, payload, -np.nan):
            assert as_bytes(eval_expr(same, {"x": v})) == as_bytes(np.float64(v))

    @pytest.mark.parametrize("absent", ["a", "b"])
    def test_bad_input_leaves_the_cache_intact(self, absent):
        # whichever input the tape reads first, the other one fails
        a, b = free_input("a", ()), free_input("b", ())
        expr = graph.exp(a) + graph.exp(b)
        assert float(eval_expr(expr, {"a": 0.0, "b": 0.0})) == 2.0
        with pytest.raises(MissingInput):
            eval_expr(expr, {n: 1.0 for n in "ab" if n != absent})
        with pytest.raises(ShapeMismatch):
            eval_expr(expr, {"a": 1.0, "b": 1.0, absent: np.zeros(2)})
        point = {"a": 1.0, "b": 1.0}
        assert as_bytes(eval_expr(expr, point)) == as_bytes(
            reference.forward(expr, point)[id(expr)])

    def test_failing_pass_is_not_committed(self):
        def fn(v):
            if float(v) < 0.0:
                raise RuntimeError("negative")
            return np.asarray(float(v))

        a, b = free_input("a", ()), free_input("b", ())
        expr = graph.exp(a) + opaque_deterministic(fn, [b], ())
        assert float(eval_expr(expr, {"a": 0.0, "b": 0.0})) == 1.0
        with pytest.raises(RuntimeError):
            eval_expr(expr, {"a": 1.0, "b": -1.0})
        point = {"a": 1.0, "b": 1.0}
        assert as_bytes(eval_expr(expr, point)) == as_bytes(
            reference.forward(expr, point)[id(expr)])

    def test_returned_values_are_read_only(self):
        x = free_input("x", (2,))
        expr = graph.exp(x)
        point = {"x": np.array([0.0, 1.0])}
        with pytest.raises(ValueError):
            eval_expr(expr, point)[0] = 5.0
        with pytest.raises(ValueError):
            eval_expr(x, point)[0] = 5.0
        np.testing.assert_array_equal(eval_expr(expr, point), np.exp([0.0, 1.0]))
        np.testing.assert_array_equal(eval_expr(x, point), [0.0, 1.0])

    def test_opaque_function_cannot_write_into_its_arguments(self):
        def fn(v):
            v += 1.0
            return v

        x = free_input("x", (2,))
        expr = opaque_deterministic(fn, [graph.exp(x)], (2,))
        with pytest.raises(ValueError):
            eval_expr(expr, {"x": np.zeros(2)})

    def test_opaque_result_stays_the_functions_to_write(self):
        buf = np.zeros(2)
        expr = opaque_deterministic(lambda v: buf, [free_input("x", ())], (2,))
        for v in (1.0, 2.0):
            out = eval_expr(expr, {"x": v})
            buf[0] = v  # raises if the tape sealed the function's array
            assert out[0] == v and not out.flags.writeable
