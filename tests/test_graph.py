import math
import operator

import numpy as np
import pytest

from conftest import finite_diff_grad, rel_err
from miniprob import graph
from miniprob.exceptions import (
    DuplicateName,
    NoGradient,
    ShapeMismatch,
    UnknownVariable,
)
from miniprob.graph import (
    concat,
    const,
    eval_expr,
    free_input,
    grad,
    opaque_deterministic,
    switch,
    value_and_grad,
)


@pytest.mark.parametrize("build, match", [
    (lambda: const(1.0)[0], "cannot index a scalar expression"),
    (lambda: const(np.zeros((2, 2)))[:1],
     "slicing is supported on rank-1 expressions only"),
    (lambda: const([1.0, 2.0])[::-1],
     "slice step must be positive"),
    (lambda: concat([]), "concat of zero expressions"),
    (lambda: concat([const([1.0]), const(2.0)]), "concat requires rank-1 expressions"),
    (lambda: eval_expr(opaque_deterministic(np.sum, [const([1.0, 2.0])], (2,)), {}),
     r"opaque node: declared shape \(2,\), fn returned \(\)"),
], ids=["index_0d", "slice_rank_2", "slice_step", "concat_none", "concat_0d", "opaque_shape"])
def test_shape_errors(build, match):
    with pytest.raises(ShapeMismatch, match=f"^{match}$"):
        build()


def test_free_input_dtype_must_be_float_or_int():
    with pytest.raises(ShapeMismatch, match="^dtype must be 'float' or 'int', got 'bool'$"):
        free_input("x", (), dtype="bool")


@pytest.mark.parametrize("other", [1.0, np.arange(3.0)], ids=["number", "array"])
def test_comparisons_with_the_expression_on_either_side(other):
    v = free_input("v", ())
    point = {"v": 1.0}

    def at(expr):
        return eval_expr(expr, point).tolist()

    assert at(v <= other) == at(other >= v) == at(operator.ge(other, v))
    assert at(v < other) == at(other > v) == at(operator.gt(other, v))
    assert at(v >= other) == at(other <= v) == at(operator.ge(v, other))
    assert at(v > other) == at(other < v) == at(operator.gt(v, other))
    if np.ndim(other):
        assert at(v <= other) == [0.0, 1.0, 1.0] and at(v < other) == [0.0, 0.0, 1.0]


@pytest.mark.parametrize("base", [2.0, np.float64(2.0), np.array([2.0, 2.0])],
                         ids=["float", "numpy_scalar", "array"])
def test_a_number_raised_to_an_expression(base):
    x = free_input("x", (2,))
    e = base ** x
    assert e.kind == "pow" and e.dtype == "float" and e.operands[1] is x
    assert e.operands[0].kind == "constant" and np.all(e.operands[0].const_value == 2.0)
    point = {"x": np.array([3.0, -1.0])}
    assert eval_expr(e, point).tolist() == [8.0, 0.5]
    assert grad(graph.sum_all(e), ["x"], point).tolist() == (np.array([8.0, 0.5])
                                                             * np.log(2.0)).tolist()


def test_an_expression_has_no_truth_value():
    # without the rule, ``if s > 5.0`` was always true and max/min returned 0.1
    s = free_input("s", ())
    for use in (lambda: bool(s), lambda: 1 if s > 5.0 else 0,
                lambda: max(s, 0.1), lambda: min(s, 0.1)):
        with pytest.raises(TypeError, match="no truth value.*switch"):
            use()


def test_softplus_into_the_tails():
    # log(1 + e^x) to an absolute 1e-15 (relative where it exceeds 1), with
    # the logistic function as its gradient, 0.5 at 0; fixed before the first run
    xs = np.array([-1e4, -800.0, -746.0, -40.0, -1.0, 0.0, 1e-3, 1.0, 36.0, 37.0, 800.0, 1e4])
    v = free_input("v", xs.shape)
    sp = graph.sum_all(graph.softplus(v))
    assert rel_err(eval_expr(sp.operands[0], {"v": xs}), np.logaddexp(0.0, xs)) < 1e-15
    g = graph.grad(sp, ["v"], {"v": xs})
    assert rel_err(g, np.exp(-np.logaddexp(0.0, -xs))) < 1e-15 and g[5] == 0.5


def test_expr_repr():
    assert repr(const(2.0)) == "Expr(const array(2.))"
    assert repr(free_input("a", (2,))) == "Expr(input 'a' (2,))"
    assert repr(free_input("a", (2,)) + 1.0) == "Expr(add, shape=(2,))"


class TestEval:
    def test_switch_on_ge(self):
        c = free_input("c", ())
        years = const(np.array([1899.0, 1900.0, 1901.0]))
        expr = switch(c >= years, 3.0, 1.0)
        np.testing.assert_array_equal(eval_expr(expr, {"c": 1900.0}), [3.0, 3.0, 1.0])

    def test_exp_log_identity(self):
        x = free_input("x", ())
        assert eval_expr(graph.exp(graph.log(x)), {"x": 2.5}) == pytest.approx(2.5)

    def test_sum_of_squares(self):
        x = free_input("x", (3,))
        expr = graph.sum_all(x * x)
        assert eval_expr(expr, {"x": np.array([1.0, 2.0, 3.0])}) == 14.0

    def test_log_of_nonpositive_is_neg_inf(self):
        x = free_input("x", (3,))
        v = eval_expr(graph.log(x), {"x": np.array([-1.0, 0.0, 1.0])})
        assert v[0] == -np.inf and v[1] == -np.inf and v[2] == 0.0

    def test_neg_inf_propagates_through_add(self):
        x = free_input("x", ())
        expr = graph.log(x) + 5.0
        assert eval_expr(expr, {"x": 0.0}) == -np.inf

    def test_missing_input(self):
        x = free_input("x", ())
        with pytest.raises(UnknownVariable, match="free input 'x' not present in point"):
            eval_expr(x + 1.0, {})

    def test_shape_mismatch_at_eval(self):
        x = free_input("x", (3,))
        with pytest.raises(ShapeMismatch):
            eval_expr(x, {"x": np.zeros(2)})

    def test_two_input_nodes_with_one_name_rejected(self):
        # a gradient would credit only one of the two nodes
        a, b = free_input("x", ()), free_input("x", ())
        for _ in range(2):
            with pytest.raises(DuplicateName):
                grad(a * b, ["x"], {"x": 3.0})
            with pytest.raises(DuplicateName):
                eval_expr(a + b, {"x": 3.0})

    def test_shape_mismatch_at_construction(self):
        a = free_input("a", (3,))
        b = free_input("b", (4,))
        with pytest.raises(ShapeMismatch):
            a + b

    def test_deterministic_bit_identical(self):
        x = free_input("x", (5,))
        expr = graph.sum_all(graph.exp(x) * graph.log(x + 3.0))
        pt = {"x": np.linspace(-1, 1, 5)}
        a = eval_expr(expr, pt)
        b = eval_expr(expr, pt)
        assert float(a) == float(b)

    def test_broadcast_scalar_with_arrays(self):
        s = free_input("s", ())
        for shape in [(1,), (4,), (2, 3)]:
            v = free_input(f"v{shape}", shape)
            pt = {"s": 2.0, f"v{shape}": np.arange(np.prod(shape), dtype=float).reshape(shape)}
            np.testing.assert_array_equal(eval_expr(s + v, pt), 2.0 + pt[f"v{shape}"])

    def test_slice_and_index(self):
        x = free_input("x", (4,))
        pt = {"x": np.array([1.0, 2.0, 3.0, 4.0])}
        np.testing.assert_array_equal(eval_expr(x[1:], pt), [2.0, 3.0, 4.0])
        assert eval_expr(x[2], pt) == 3.0
        for key in (np.array([3, 0]), np.array([-1, 0]), np.array([2, 2], dtype=np.uint8),
                    [[1], [0]]):
            np.testing.assert_array_equal(eval_expr(x[key], pt), pt["x"][key])

    @pytest.mark.parametrize("key", [np.array([True, False, True]), np.array([0.7, 2.9]),
                                     True, 1.0, [0.0]],
                             ids=["bool_array", "float_array", "bool", "float", "float_list"])
    def test_non_integer_key_rejected(self, key):
        # the bool mask gathered [20, 10, 20] and the floats were truncated
        with pytest.raises(ShapeMismatch, match="must be integers"):
            free_input("x", (3,))[key]

    @pytest.mark.parametrize("key", [3, -4, np.array([0, 5]), np.array([-4, 0]), [[0], [3]]],
                             ids=["int", "negative_int", "array", "negative_array", "nested"])
    def test_out_of_bounds_key_rejected_when_built(self, key):
        with pytest.raises(ShapeMismatch, match="out of bounds"):
            free_input("x", (3,))[key]

    def test_index_keeps_its_own_copy_of_the_key(self):
        # the node froze the caller's int64 array, which it had aliased
        key = np.array([2, 0])
        e = free_input("x", (3,))[key]
        key[0] = 1
        np.testing.assert_array_equal(eval_expr(e, {"x": np.array([10.0, 20.0, 30.0])}),
                                      [30.0, 10.0])

    def test_concat(self):
        a = free_input("a", (2,))
        b = free_input("b", (1,))
        v = eval_expr(concat([a, b]), {"a": np.array([1.0, 2.0]), "b": np.array([9.0])})
        np.testing.assert_array_equal(v, [1.0, 2.0, 9.0])

    def test_integer_arrays_flow_through(self):
        k = free_input("k", (2,), dtype="int")
        v = eval_expr(k + 1.5, {"k": np.array([1, 2])})
        np.testing.assert_array_equal(v, [2.5, 3.5])

    def test_numpy_operand_on_the_left(self):
        x = free_input("x")
        a = np.linspace(0.0, 1.0, 3)
        point = {"x": 0.5}
        for got, want in [(a * x, a * 0.5), (a + x, a + 0.5), (a - x, a - 0.5),
                          (a / x, a / 0.5), (np.float64(2.0) * x, 1.0),
                          (a <= x, [1.0, 1.0, 0.0]), (a < x, [1.0, 0.0, 0.0])]:
            assert isinstance(got, graph.Expr)
            np.testing.assert_array_equal(eval_expr(got, point), want)

    @pytest.mark.parametrize("value", [None, "1.5", np.array([1.0, None]), 1j, object()],
                             ids=["none", "string", "object_array", "complex", "object"])
    def test_non_numeric_constant_rejected(self, value):
        with pytest.raises(TypeError, match="a graph value is a number, a numeric array"):
            const(value)

    def test_comparison_returns_real_01(self):
        k = free_input("k", (3,), dtype="int")
        v = eval_expr(k >= 2, {"k": np.array([1, 2, 3])})
        assert v.dtype == np.float64
        np.testing.assert_array_equal(v, [0.0, 1.0, 1.0])


class TestGrad:
    def test_square(self):
        x = free_input("x", ())
        g = grad(x * x, ["x"], {"x": 3.0})
        assert g.dtype == np.float64 and g.shape == (1,)
        assert g[0] == pytest.approx(6.0)

    def test_sum_exp(self):
        x = free_input("x", (2,))
        g = grad(graph.sum_all(graph.exp(x)), ["x"], {"x": np.array([0.0, 1.0])})
        np.testing.assert_allclose(g, [1.0, math.e], rtol=1e-12)

    def test_nonscalar_objective_rejected(self):
        x = free_input("x", (2,))
        with pytest.raises(ShapeMismatch, match="expected a scalar"):
            grad(x * x, ["x"], {"x": np.zeros(2)})

    def test_integer_input_rejected(self):
        k = free_input("k", (), dtype="int")
        expr = graph.sum_all(k * 2.0)
        with pytest.raises(NoGradient, match="cannot differentiate through integer input 'k'"):
            grad(expr, ["k"], {"k": 3})

    def test_switch_treats_condition_as_constant(self):
        x = free_input("x", ())
        expr = switch(x >= 0.0, x * x, -x)
        assert grad(expr, ["x"], {"x": 2.0}) == pytest.approx([4.0])
        assert grad(expr, ["x"], {"x": -2.0}) == pytest.approx([-1.0])

    def test_dead_branch_inf_does_not_poison(self):
        x = free_input("x", ())
        expr = switch(x > 0.0, graph.log(x), const(float("-inf")))
        g = grad(expr, ["x"], {"x": 0.5})
        assert g == pytest.approx([2.0])

    def test_unused_input_gets_zero(self):
        x = free_input("x", ())
        y = free_input("y", (2,))
        g = grad(x * x, ["y", "x"], {"x": 1.0, "y": np.zeros(2)})
        assert g.shape == (3,)  # one zero per element of y
        np.testing.assert_array_equal(g, [0.0, 0.0, 2.0])

    def test_unread_name_missing_from_the_point(self):
        x = free_input("x", ())
        with pytest.raises(UnknownVariable, match="free input 'y' not present in point"):
            grad(x * x, ["x", "y"], {"x": 1.0})

    def test_name_listed_twice_rejected(self):
        x = free_input("x", ())
        with pytest.raises(DuplicateName):
            grad(x * x, ["x", "x"], {"x": 1.0})

    def test_layout_follows_wrt_order(self):
        x, y = free_input("x", (2, 2)), free_input("y", ())
        expr = graph.sum_all(x * const([[1.0, 2.0], [3.0, 4.0]])) * y
        point = {"x": np.ones((2, 2)), "y": 2.0}
        np.testing.assert_array_equal(grad(expr, ["x", "y"], point), [2, 4, 6, 8, 10])
        np.testing.assert_array_equal(grad(expr, ["y", "x"], point), [10, 2, 4, 6, 8])

    def test_gather_gradient_accumulates(self):
        x = free_input("x", (3,))
        expr = graph.sum_all(x[np.array([0, 0, 2])])
        g = grad(expr, ["x"], {"x": np.zeros(3)})
        np.testing.assert_array_equal(g, [2.0, 0.0, 1.0])

    def test_value_and_grad_shares_forward(self):
        x = free_input("x", ())
        v, g = value_and_grad(graph.exp(x), ["x"], {"x": 1.0})
        assert v == pytest.approx(math.e)
        assert g == pytest.approx([math.e])

    def test_value_and_grad_calls_grad_through_the_module(self, monkeypatch):
        # the bench times the backward pass by wrapping ``graph.grad``
        calls = []
        real = graph.grad

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(graph, "grad", counted)
        x = free_input("x", ())
        value_and_grad(graph.exp(x), ["x"], {"x": 1.0})
        assert calls == [["x"]]


class TestOpaque:
    @staticmethod
    def _crazy_modulo3(value):
        v = int(value)
        return np.asarray(v % 3 if v > 0 else (-v + 1) % 3, dtype=np.int64)

    def test_positive_branch(self):
        a = free_input("a", (), dtype="int")
        node = opaque_deterministic(self._crazy_modulo3, [a], (), dtype="int")
        assert eval_expr(node, {"a": 4}) == 1

    def test_negative_branch(self):
        a = free_input("a", (), dtype="int")
        node = opaque_deterministic(self._crazy_modulo3, [a], (), dtype="int")
        assert eval_expr(node, {"a": -2}) == 0

    def test_grad_through_raises(self):
        x = free_input("x", ())
        node = opaque_deterministic(lambda v: np.asarray(float(v) * 2.0), [x], ())
        with pytest.raises(NoGradient):
            grad(graph.sum_all(node * 1.0), ["x"], {"x": 1.0})

    def test_grad_beside_opaque_is_fine(self):
        # the opaque node is constant with respect to the requested input
        x = free_input("x", ())
        y = free_input("y", ())
        node = opaque_deterministic(lambda v: np.asarray(float(v) * 2.0), [y], ())
        g = grad(x * x + node, ["x"], {"x": 3.0, "y": 1.0})
        assert g == pytest.approx([6.0])


def lgamma_at(xs):
    return eval_expr(graph.lgamma(free_input("x", np.shape(xs))), {"x": xs})


def digamma_at(xs):
    expr = graph.sum_all(graph.lgamma(free_input("x", np.shape(xs))))
    return grad(expr, ["x"], {"x": xs}).reshape(np.shape(xs))


class TestLgamma:
    def test_accuracy_against_stdlib(self):
        xs = np.linspace(0.5001, 100.0, 4001)
        ref = np.array([math.lgamma(t) for t in xs])
        ours = lgamma_at(xs)
        err = np.max(np.abs(ours - ref) / np.maximum(1.0, np.abs(ref)))
        assert err < 1e-13

    def test_reflection_region(self):
        xs = np.array([0.001, 0.1, 0.25, 0.49])
        ref = np.array([math.lgamma(t) for t in xs])
        np.testing.assert_allclose(lgamma_at(xs), ref, rtol=1e-12)

    def test_digamma_matches_own_lgamma(self):
        xs = np.linspace(0.6, 50.0, 200)
        fd = (lgamma_at(xs + 1e-6) - lgamma_at(xs - 1e-6)) / 2e-6
        np.testing.assert_allclose(digamma_at(xs), fd, atol=2e-7)

    def test_poles_and_gradient_below_zero(self):
        # Gamma has poles at the non-positive integers, so log|Gamma| is +inf there
        assert np.all(lgamma_at(np.array([-1.0, -2.0])) == np.inf)
        fd = (lgamma_at(-2.5 + 1e-6) - lgamma_at(-2.5 - 1e-6)) / 2e-6
        assert float(digamma_at(-2.5)) == pytest.approx(fd, abs=1e-6)


def log_factorial_at(ks):
    """The value of a log_factorial node over an int input at ``ks``."""
    ks = np.asarray(ks, dtype=np.int64)
    return eval_expr(graph.log_factorial(free_input("k", ks.shape, dtype="int")), {"k": ks})


class TestLogFactorial:
    # exact-integer logs up to 12!, and above them the series gammaln sums
    def test_bit_equal_to_gammaln_up_to_12(self):
        from scipy.special import gammaln
        ks = np.arange(13)
        want = gammaln(ks + 1.0)
        assert log_factorial_at(ks).tobytes() == want.tobytes()
        for k in ks:  # a 0-d slot below the root holds a numpy scalar
            assert graph._log_factorial(np.int64(k)).tobytes() == want[k].tobytes()
            assert (eval_expr(graph.log_factorial(free_input("k", (), dtype="int")) * 1.0,
                              {"k": k}).tobytes() == want[k].tobytes())

    def test_within_2_ulp_of_gammaln_up_to_int64_max(self):
        from scipy.special import gammaln
        ks = np.array([13, 20, 100, 170, 171, 254, 255, 256, 257, 1000, 4097, 10 ** 5,
                       2 ** 31 - 1, 10 ** 12, 2 ** 53 - 1, 2 ** 53 + 1, 10 ** 18, 2 ** 62,
                       2 ** 63 - 1], dtype=np.int64)
        want = gammaln(ks + 1.0)
        got = log_factorial_at(ks)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(want))
        assert [float(log_factorial_at(k)) for k in ks] == got.tolist()  # one entry alike

    def test_bit_equal_to_gammaln_where_the_logs_agree(self):
        # so a Poisson chain keeps its bits where lgamma(k + 1.0) gave them
        from scipy.special import gammaln
        ks = np.arange(13, 5000)
        same = np.array([np.log(k + 1.0) == math.log(k + 1.0) for k in ks])
        assert same.mean() > 0.99
        assert log_factorial_at(ks)[same].tobytes() == gammaln(ks + 1.0)[same].tobytes()

    def test_inf_below_zero(self):
        ks = [-1, -5, -2 ** 63]
        assert log_factorial_at(ks).tolist() == [np.inf] * 3
        assert log_factorial_at([3, -1]).tolist() == [math.log(6.0), np.inf]
        assert [float(log_factorial_at(k)) for k in ks] == [np.inf] * 3

    def test_an_empty_operand_gives_an_empty_value(self):
        assert log_factorial_at(np.zeros(0)).shape == (0,)

    def test_a_float_operand_is_refused(self):
        with pytest.raises(ShapeMismatch, match="log_factorial needs an int operand"):
            graph.log_factorial(free_input("x", ()))
        with pytest.raises(ShapeMismatch, match="log_factorial needs an int operand"):
            graph.log_factorial(2.0)

    def test_no_gradient_flows_through_it(self):
        x = free_input("x", ())
        k = switch(x > 0.0, const(3), const(4))  # an int node that depends on x
        value, g = value_and_grad(graph.log_factorial(k) + x, ["x"], {"x": 1.0})
        assert value == math.log(6.0) + 1.0 and g.tolist() == [1.0]

    def test_poisson_keeps_the_bits_of_lgamma(self):
        # the Poisson term and its gradient in the rate, against the same
        # term written with lgamma(k + 1.0)
        from miniprob.distributions import Poisson
        rate = free_input("rate", ())
        k = free_input("k", (12,), dtype="int")
        core = k * graph.log(rate) - rate - graph.lgamma(k + 1.0)
        lgamma_form = graph.sum_all(switch((rate > 0.0) * (k >= 0.0), core, -np.inf))
        rng = np.random.default_rng(5)
        for r in (0.1, 0.9, 3.1, 11.5):
            point = {"rate": r, "k": rng.integers(0, 13, 12)}
            new = value_and_grad(Poisson(rate).logp_expr(k), ["rate"], point)
            old = value_and_grad(lgamma_form, ["rate"], point)
            assert [np.asarray(v).tobytes() for v in new] == [np.asarray(v).tobytes() for v in old]


def _random_graph(rng, inputs):
    """Random smooth scalar expression of depth <= 6 over the given inputs."""
    exprs = [graph.free_input(name, shape) for name, shape in inputs]
    values = list(exprs)
    unary = [graph.exp, lambda e: graph.log(e * e + 1.2), graph.sigmoid,
             lambda e: graph.sqrt(e * e + 0.7), lambda e: graph.lgamma(e * e + 1.5),
             operator.neg, lambda e: abs(e + 2.9)]
    binary = [operator.add, operator.sub, operator.mul,
              lambda a, b: a / (b * b + 1.0), lambda a, b: (a * a + 0.5) ** 1.7]
    for _ in range(rng.integers(2, 7)):
        if rng.random() < 0.45 or len(values) < 2:
            f = unary[rng.integers(0, len(unary))]
            values.append(f(values[rng.integers(0, len(values))]))
        else:
            f = binary[rng.integers(0, len(binary))]
            a = values[rng.integers(0, len(values))]
            b = values[rng.integers(0, len(values))]
            try:
                values.append(f(a, b))
            except ShapeMismatch:
                pass
    total = None
    for v in values:
        t = graph.sum_all(v) if v.shape != () else v
        total = t if total is None else total + t
    return total


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(120):
        inputs = [("a", ()), ("b", (3,))]
        expr = _random_graph(rng, inputs)
        pt = {"a": rng.uniform(-1.5, 1.5), "b": rng.uniform(-1.5, 1.5, 3)}
        val = eval_expr(expr, pt)
        if not np.isfinite(val) or abs(val) > 1e6:
            continue
        ad = grad(expr, ["a", "b"], pt)

        def f(vec):
            return float(eval_expr(expr, {"a": vec[0], "b": vec[1:]}))

        fd = finite_diff_grad(f, np.concatenate([[pt["a"]], pt["b"]]), h=1e-6)
        if np.max(np.abs(fd)) > 1e5:  # wildly curved sample, FD unreliable
            continue
        assert rel_err(ad, fd) < 1e-6
        checked += 1
    assert checked >= 100
