"""Seeded random graphs against the interpretive reference evaluator.

Each graph is drawn with numpy's seeded generator over a rank-1 input ``x``,
a 0-d input ``y`` and a 0-d int input ``k``, from every node kind, and is
evaluated at two points drawn from signed zeros, infinities, NaN, extremes,
the smallest subnormal and small values.  The second point moves a random
subset of the inputs, so change masks and slot reuse run too.  Value,
gradient and ``eval_expr`` must equal ``graph_reference``'s bytes, with every
NaN made equal: the sign and payload of a NaN are unspecified.
"""

import numpy as np
import pytest

import graph_reference as reference
from miniprob import graph
from miniprob.exceptions import NoGradient
from miniprob.graph import concat, const, eval_expr, free_input, opaque_deterministic, switch

SEEDS = range(8)
GRAPHS = 100  # per seed, each checked at two points from two roots
NODES = 8  # drawn per graph
N = 3  # the length of ``x``
WRT = ["x", "y"]
FLOATS = (0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324,
          0.5, -1.5, 2.0, 3.0)
INTS = (0, 1, -1, 2, 3, -4, 2 ** 53 + 1)
# ``dead`` multiplies by one of these and then by a signed zero, so its
# operand's adjoint is a NaN (0 * inf) beside signed zeros (0 * -3.0)
DEAD = (np.inf, -np.inf, -3.0, 3.0)
BINARY = (graph.add, graph.sub, graph.mul, graph.div, graph.pow_, graph.cmp_ge, graph.cmp_gt)
UNARY = (graph.neg, graph.abs_, graph.exp, graph.log, graph.sqrt, graph.lgamma, graph.sigmoid)


def _half(v):  # an opaque node's function: pure, float out
    return np.asarray(v, dtype=np.float64) * 0.5


def _pick(rng, pool, shape=()):
    """A node of ``pool`` that combines with ``shape``: of that shape or 0-d,
    or of any shape when ``shape`` is 0-d."""
    fits = [e for e in pool if not shape or e.shape in (shape, ())]
    return fits[rng.integers(len(fits))]


def _const(rng, shape, values=FLOATS):
    return const(rng.choice(values, shape))


def _binary(rng, pool):
    a = _pick(rng, pool)
    return BINARY[rng.integers(len(BINARY))](a, _pick(rng, pool, a.shape))


def _unary(rng, pool):
    return UNARY[rng.integers(len(UNARY))](_pick(rng, pool))


def _switch(rng, pool):
    # a condition or a branch may be a new constant, as data in a model is
    cond = _pick(rng, pool + [_const(rng, (N,), (0.0, 1.0))])
    a = _pick(rng, pool + [_const(rng, ())], cond.shape)
    return switch(cond, a, _pick(rng, pool + [_const(rng, ())], cond.shape or a.shape))


def _index(rng, pool):
    e = _pick(rng, [e for e in pool if e.shape])
    n = e.shape[0]
    form = rng.integers(3) if n else 2
    if form == 0:
        return e[int(rng.integers(-n, n))]
    if form == 1:  # keys may repeat
        return e[rng.integers(-n, n, rng.integers(1, 5))]
    start, stop = (int(b) if rng.random() < 0.7 else None for b in rng.integers(-n - 1, n + 2, 2))
    return e[start:stop:[None, 1, 2][rng.integers(3)]]


def _concat(rng, pool):
    ranked = [e for e in pool if e.shape] + [_const(rng, (int(rng.integers(1, 3)),))]
    return concat(_pick(rng, ranked) for _ in range(rng.integers(1, 4)))


def _constant(rng, pool):
    if rng.random() < 0.3:
        return _const(rng, (), INTS)
    return _const(rng, () if rng.random() < 0.5 else (N,))


def _dead(rng, pool):
    """``e * const(DEAD) * const(±0)``, mostly over a node that splits its
    adjoint (a concat, or a switch on an array condition): the NaN that
    ``inf`` makes may then be dropped beside signed zeros that go on."""
    splits = [e for e in pool if e.kind == "concat" or e.kind == "switch" and e.operands[0].shape]
    e = _pick(rng, splits if splits and rng.random() < 0.7 else pool)
    return e * _const(rng, e.shape, DEAD) * _const(rng, e.shape, (0.0, -0.0))


def _opaque(rng, pool):
    e = _pick(rng, [e for e in pool if e.dtype == "int"])
    return opaque_deterministic(_half, [e], e.shape)


MAKERS = (_binary, _unary, graph.sum_all, _switch, _index, _concat, _constant, _dead, _opaque)
WEIGHTS = np.array([6.0, 4.0, 1.5, 3.0, 2.0, 2.0, 2.0, 3.0, 0.5])


def random_graphs(rng) -> tuple:
    """Two scalar roots over ``NODES`` drawn nodes: the sum of every node
    that no other reads, and the dead form of one node, below which every
    adjoint is a signed zero or NaN."""
    pool = [free_input("x", (N,)), free_input("y", ()), free_input("k", (), dtype="int")]
    for _ in range(NODES):
        make = MAKERS[rng.choice(len(MAKERS), p=WEIGHTS / WEIGHTS.sum())]
        pool.append(make(_pick(rng, pool)) if make is graph.sum_all else make(rng, pool))
    dead = _dead(rng, pool[3:])
    read = {id(c) for e in pool for c in e.operands}
    tops = [_scalar(e) for e in pool[3:] if id(e) not in read]
    live = tops[0]
    for e in tops[1:]:
        live = live + e
    return live, _scalar(dead)


def _scalar(e):
    return graph.sum_all(e) if e.shape else e


def cases(seed):
    """Each root of ``GRAPHS`` draws at a point and then at a second point
    that moves a random subset of the inputs."""
    rng = np.random.default_rng(seed)
    for _ in range(GRAPHS):
        roots = random_graphs(rng)
        first, fresh = random_point(rng), random_point(rng)
        second = {n: fresh[n] if rng.random() < 0.5 else first[n] for n in first}
        for expr in roots:
            yield expr, first
            yield expr, second


def random_point(rng) -> dict:
    return {"x": rng.choice(FLOATS, N), "y": rng.choice(FLOATS), "k": rng.choice(INTS)}


def as_bytes(value) -> tuple:
    """The bytes of ``value`` with every NaN made the same NaN."""
    arr = np.asarray(value)
    if arr.dtype.kind == "f":
        arr = np.where(arr != arr, np.nan, arr)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _grad(fn, *args):
    try:
        return fn(*args)
    except NoGradient:
        return None


def check_against_reference(expr, point):
    ref_value = reference.forward(expr, point)[id(expr)]
    ref_g = _grad(reference.grad, expr, WRT, point)
    value = eval_expr(expr, point)
    g = _grad(graph.grad, expr, WRT, point)
    assert as_bytes(value) == as_bytes(ref_value)
    assert type(value) is type(ref_value)
    assert as_bytes(eval_expr(expr, point)) == as_bytes(ref_value)  # every slot reused
    if ref_g is None:
        assert g is None
    else:
        assert as_bytes(g) == as_bytes(reference.pack(ref_g, WRT))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_graphs_match_reference(seed):
    for expr, point in cases(seed):
        check_against_reference(expr, point)
