"""The compiled slot tape against the interpretive reference evaluator.

Values and gradients must be byte-equal to ``graph_reference``: a call reuses
the previous call's slots only where no input below them changed, so a node
fed only by constants runs once, and the pruned backward pass skips only
adjoints that cannot reach a requested input.
"""

import itertools

import numpy as np
import pytest

import graph_reference as reference
from miniprob import demos, graph
from miniprob.datasets import load_returns
from miniprob.exceptions import NoGradient, ShapeMismatch, UnknownVariable
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
    assert as_bytes(g) == as_bytes(reference.pack(ref_g, names))


def random_points(model, n, seed):
    """The test point, then ``n`` seeded perturbations of it; integer
    coordinates move by whole steps and may leave the support."""
    rng = np.random.default_rng(seed)
    base = model.initial_point()
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


def subsets(names):
    """Every non-empty subset of ``names``, in a fixed order."""
    return [list(c) for r in range(1, len(names) + 1)
            for c in itertools.combinations(names, r)]


@pytest.mark.parametrize("name", list(MODELS))
def test_every_moved_subset_matches_reference(name):
    # each subset of the inputs moves alone from one seeded point and back,
    # so every change mask of the model gets its own generated function
    model = MODELS[name]()
    base, move = list(random_points(model, 2, seed=15))[1:]
    check_against_reference(model, base)
    for subset in subsets(model.sampling_names()):
        check_against_reference(model, {**base, **{n: move[n] for n in subset}})
        check_against_reference(model, base)


@pytest.mark.parametrize("name", list(MODELS))
def test_every_wrt_subset_matches_reference(name):
    # one generated backward pass per set of names, each pruned differently
    model = MODELS[name]()
    point = list(random_points(model, 1, seed=16))[1]
    for wrt in subsets(model.continuous_names()):
        g = graph.grad(model.logp_graph, wrt, point)
        ref = reference.grad(model.logp_graph, wrt, point)
        assert as_bytes(g) == as_bytes(reference.pack(ref, wrt)), wrt


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
    # shapes given as numpy integers, as ``mask.sum()`` returns them
    mask = np.array([True, False, True])
    kept = opaque_deterministic(lambda v: v[mask], [const(at["x"])], (mask.sum(),))
    xn = free_input("x", (np.int64(3),))
    yield "numpy integer shapes", graph.sum_all(xn * y) + graph.sum_all(kept), at
    # 0-d log, comparisons and switch take their scalar forms below the root
    k = free_input("k", (), dtype="int")
    scalars = (switch(y >= 0.0, graph.log(y), y * 3.0) + (y > y) + graph.log(k) * y
               + switch(k > 1, k, k * 2) * y + graph.sum_all(y))
    for yv, kv in ((np.nan, 0), (-0.0, 3), (2.0, -1), (-np.inf, 2)):
        yield f"0-d forms, y={yv}, k={kv}", scalars, {"y": yv, "k": kv}
    # an int branch of a float switch is rounded to float64 before k - 1 is
    # taken from it
    mixed = switch(y > 0.0, k, y) - (k - 1)
    yield "0-d switch of int and float", mixed, {"y": 2.0, "k": 2 ** 53 + 1}
    for yv in (2.0, np.nan):  # a condition other than 0 or 1, then NaN
        yield f"0-d switch on y={yv}", switch(y, y * 2.0, 1.0) * 3.0, {"y": yv}
    yield "0-d log at the root", graph.log(y), {"y": 0.5}
    yield "0-d switch at the root", switch(y, y, 2.0), {"y": 0.0}
    # 0-d slots below the root hold numpy scalars; the root keeps its type
    yield "0-d input at the root", y, {"y": -0.0}
    yield "0-d constant at the root", const(2.5), {}
    yield "0-d sum_all feeding an array mul", graph.sum_all(x * graph.sum_all(x * y)), at
    yield "-0.0 input through mul", graph.sum_all(x * y) * y, {"x": at["x"], "y": -0.0}
    # a switch on a 0-d condition over rank-1 operands picks one with ``if``
    ints = switch(k > 1, const([1, 2, 3]), k)
    picked = switch(y > 0.0, x, 2.0) + switch(y > 0.0, -1.0, x * y) + ints * y
    for yv, kv in ((0.5, 3), (-0.0, 0), (np.nan, 2)):
        yield (f"0-d condition over arrays, y={yv}, k={kv}",
               graph.sum_all(picked) + graph.sum_all(k) * y, {"x": at["x"], "y": yv, "k": kv})
    # a switch branch whose adjoint has a contribution already: the switch's
    # share is added to it, whichever branch the condition picks
    x0 = free_input("x", ())
    for yv in (-1.0, 1.0):
        for name, xv in (("0-d", x0), ("rank-1", x)):
            for label, picked in (("first", switch(y > 0.0, xv, 0.0)),
                                  ("second", switch(y > 0.0, 0.0, xv))):
                yield (f"{name} switch, {label} branch read twice, y={yv}",
                       graph.sum_all(xv * y + picked), {"x": at["x"] if xv is x else 1.5, "y": yv})
    # scalar int math warns on overflow where 0-d arrays wrap silently
    yield "0-d int square overflows int64", (k * k) * y, {"k": 3 * 2 ** 31, "y": 1.5}
    # The guard turns a zero adjoint times ``inf`` into +0.0 and leaves every
    # other element alone.  In the first three graphs below, that NaN is
    # dropped beside a zero adjoint times -3.0, a -0.0 that reaches the
    # gradient as -0.0; in the last three, a 0-d comparison, a 0-d switch or
    # an empty sum drops it whole.  A dropped NaN leaves the other elements
    # alone.
    inf_then_3 = const([np.inf, -3.0])
    x2 = free_input("x", (2,))
    x1, y1 = free_input("x", (1,)), free_input("y", (1,))

    def dead(e):  # a zero adjoint for ``e``
        return graph.sum_all(e * inf_then_3 * const([0.0, 0.0]))

    pair = {"x": np.array([1.0, 2.0])}
    yield "NaN dropped by an array switch", dead(switch(const([0.0, 1.0]), x2, 5.0)), pair
    yield "NaN dropped by a concat slice", dead(concat([const([5.0]), x1])), {"x": [1.0]}
    at_two = {"x": [1.0], "y": [2.0]}
    yield "NaN dropped by a comparison after a concat", dead(concat([x1 >= 0.0, y1])), at_two
    yield "NaN dropped whole by a 0-d comparison", (y >= 0.0) * np.inf * 0.0, {"y": 1.0}
    yield "NaN dropped whole by a 0-d switch", switch(const(0.0), y, 5.0) * np.inf * 0.0, {"y": 1.0}
    yield "NaN dropped whole by an empty sum", graph.sum_all(x2[0:0]) * np.inf * 0.0, pair
    # d/dx0 is -0.0 whether or not 0 * inf makes a NaN beside it
    signed = graph.sum_all(const([-0.0, 0.0]) * graph.log(x2))
    for xv in ([2.0, 0.0], [2.0, 1.0]):
        yield f"signed zero beside 0 * inf, x={xv}", signed, {"x": np.array(xv)}


@pytest.mark.parametrize("label, expr, point", list(_edge_graphs()),
                         ids=[label for label, _, _ in _edge_graphs()])
def test_edge_graph_matches_reference(label, expr, point):
    wrt = [n for n in ("x", "y") if n in point]  # read by ``expr`` or not
    for _ in range(2):  # the first call compiles, the second reuses the tape
        value, g = graph.value_and_grad(expr, wrt, point)
        ref_value, ref_g = reference.value_and_grad(expr, wrt, point)
        assert as_bytes(value) == as_bytes(ref_value)
        assert type(value) is type(ref_value)
        assert as_bytes(eval_expr(expr, point)) == as_bytes(ref_value)
        assert as_bytes(g) == as_bytes(reference.pack(ref_g, wrt))


def test_0d_slots_below_the_root_hold_numpy_scalars():
    # ``where`` over an int and a float branch gave a 0-d array here
    cases = [(expr, point) for _, expr, point in _edge_graphs()]
    cases += [(m.logp_graph, m.initial_point()) for m in (make() for make in MODELS.values())]
    for expr, point in cases:
        tape = graph._tape(expr)
        values = tape.forward(point)
        for node, value in zip(tape.order[:-1], values):
            if node.shape == () and node.kind != "opaque":
                assert isinstance(value, np.generic), node


def test_zero_adjoint_zeroes_only_its_own_nan():
    # the NaN of 0 * inf at x1 = 0 leaves the -0.0 of x0 alone
    x = free_input("x", (2,))
    expr = graph.sum_all(const([-0.0, 0.0]) * graph.log(x))
    for x1 in (0.0, 1.0):
        g = graph.grad(expr, ["x"], {"x": np.array([2.0, x1])})
        assert as_bytes(g) == as_bytes(np.array([-0.0, 0.0]))


class TestProbe:
    def test_guarded_pass_is_generated_on_the_first_nan_only(self, monkeypatch):
        made = []  # per generated function: is it a guarded pass?
        define = graph._define

        def recorded(lines, ret, namespace, *args):
            made.append(namespace["G"] is graph._guarded and ret == "out")
            return define(lines, ret, namespace, *args)

        monkeypatch.setattr(graph, "_define", recorded)
        model = MODELS["linear"]()
        for point in random_points(model, 5, seed=17):
            check_against_reference(model, point)
        assert made and not any(made)
        for alpha in (np.nan, np.inf, np.nan):  # a NaN logp, its gradient NaN
            check_against_reference(model, {**point, "alpha": alpha})
        assert made.count(True) == 1


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

    def test_opaque_with_constant_inputs_runs_once(self):
        calls = []

        def fn(v):
            calls.append(1)
            return np.asarray(float(v) + 1.0)

        x = free_input("x", ())
        node = opaque_deterministic(fn, [const(3.0)], ())
        expr = node * 2.0 + x
        assert [float(eval_expr(expr, {"x": v})) for v in (0.0, 1.0, 1.0)] == [8.0, 9.0, 9.0]
        assert len(calls) == 1

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
            assert list(graph.grad(expr, ["x"], {"x": 3.0, "y": 1.0})) == [6.0]
        with pytest.raises(NoGradient):
            graph.grad(expr, ["x", "y"], {"x": 3.0, "y": 1.0})

    def test_input_checks_fire_after_compilation(self):
        x = free_input("x", (2,))
        k = free_input("k", (), dtype="int")
        expr = graph.sum_all(x * 2.0) + k
        good = {"x": np.zeros(2), "k": 1}
        assert float(eval_expr(expr, good)) == 1.0
        for _ in range(2):
            with pytest.raises(UnknownVariable, match="free input 'k' not present in point"):
                eval_expr(expr, {"x": np.zeros(2)})
            with pytest.raises(ShapeMismatch):
                eval_expr(expr, {"x": np.zeros(3), "k": 1})
            with pytest.raises(ShapeMismatch):
                eval_expr(expr, {"x": np.zeros(2), "k": 1.5})
            with pytest.raises(UnknownVariable, match="free input 'x' not present in point"):
                graph.value_and_grad(expr, ["x"], {"k": 1})
            with pytest.raises(ShapeMismatch):  # a float64 array of the wrong shape
                eval_expr(expr, {"x": np.zeros((2, 1)), "k": 1})
            with pytest.raises(ShapeMismatch):  # a float64 array for an int input
                eval_expr(expr, {"x": np.zeros(2), "k": np.array(1.5)})
        # values that are not float64 or int64 arrays of the declared shape
        # are converted, to the bytes of the array they stand for
        x64 = np.array([0.1, -0.7])
        for x, k in [(x64.astype(np.float32), 2), (np.array([3, -4]), np.array(2)),
                     (x64.astype(">f8"), np.array(2, dtype=np.int32)),
                     (list(x64), 2.0), (np.array([0.1, 5.0, -0.7])[::2], np.array(2.0))]:
            point = {"x": x, "k": k}
            want = {"x": np.asarray(x, dtype=np.float64), "k": np.int64(2)}
            for tape_out, ref_out in [(eval_expr(expr, point), eval_expr(expr, want)),
                                      (graph.grad(expr, ["x"], point),
                                       reference.pack(reference.grad(expr, ["x"], want),
                                                      ["x"]))]:
                assert as_bytes(tape_out) == as_bytes(ref_out), (x, k)


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
        out, ref = (graph.grad(expr, ["x"], point),
                    reference.pack(reference.grad(expr, ["x"], point), ["x"]))
    assert type(out) is type(ref)
    assert as_bytes(out) == as_bytes(ref)


def counted(tape):
    """Record the slots that each generated forward function of ``tape``
    runs, read from the function's ``steps``; returns the list, appended to
    as the functions run."""
    ran = []

    def wrap(run):
        def recorded(values):
            ran.extend(run.steps)
            return run(values)
        recorded.steps = run.steps
        return recorded

    class Recording(dict):
        def __setitem__(self, key, run):
            super().__setitem__(key, wrap(run))

    tape.runs = Recording({key: wrap(run) for key, run in tape.runs.items()})
    return ran


class TestReuse:
    def test_unchanged_point_runs_no_kernel(self):
        model = demos.disasters_model()
        tape = graph._tape(model.logp_graph)
        ran = counted(tape)
        point = list(random_points(model, 1, seed=14))[1]  # moves every input
        first = model.logp_and_dlogp(point)
        # every step but those fed only by constants, which ran at finalize
        assert ran == [i for i in tape.steps if tape.deps[i]]
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

    def test_seen_mask_reuses_its_function(self):
        x, y = free_input("x", ()), free_input("y", ())
        expr = graph.exp(x) * graph.log(y)
        tape = graph._tape(expr)
        eval_expr(expr, {"x": 1.0, "y": 2.0})
        eval_expr(expr, {"x": 1.5, "y": 2.0})  # the first call that moves x alone
        made = dict(tape.runs)
        tape._generate = lambda key: pytest.fail(f"generated a function for mask {key}")
        point = {"x": 0.5, "y": 2.0}
        value = eval_expr(expr, point)
        assert tape.runs == made and len(made) == 2
        assert as_bytes(value) == as_bytes(reference.forward(expr, point)[id(expr)])

    def test_opaque_steps_and_their_users_run_when_an_argument_changes(self):
        x, y = free_input("x", ()), free_input("y", ())
        ex = graph.exp(x)
        node = opaque_deterministic(lambda v: np.asarray(float(v) + 1.0), [y], ())
        above = node * 3.0
        expr = ex + above
        tape = graph._tape(expr)
        ran = counted(tape)
        slot = {id(n): i for i, n in enumerate(tape.order)}
        eval_expr(expr, {"x": 0.5, "y": 2.0})
        ran.clear()
        assert float(eval_expr(expr, {"x": 0.5, "y": 2.0})) == float(np.exp(0.5)) + 9.0
        assert ran == []
        assert float(eval_expr(expr, {"x": 1.5, "y": 2.0})) == float(np.exp(1.5)) + 9.0
        assert sorted(ran) == sorted(slot[id(n)] for n in (ex, expr))
        ran.clear()
        assert float(eval_expr(expr, {"x": 1.5, "y": 3.0})) == float(np.exp(1.5)) + 12.0
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
            assert as_bytes(g) == as_bytes(reference.pack(ref_g, ["x"]))

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
        with pytest.raises(UnknownVariable, match=f"free input {absent!r} not present in point"):
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

        def fn(v):
            buf[:] = [v, 2.0 * v]  # raises if the tape sealed the function's array
            return buf

        expr = opaque_deterministic(fn, [free_input("x", ())], (2,))
        first = eval_expr(expr, {"x": 1.0})
        second = eval_expr(expr, {"x": 5.0})
        # the handed-out values are read-only copies that keep their bytes
        assert list(first) == [1.0, 2.0] and list(second) == [5.0, 10.0]
        assert not first.flags.writeable and not second.flags.writeable
