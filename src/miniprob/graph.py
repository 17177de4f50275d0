"""Immutable computation graph with forward evaluation and reverse-mode gradients.

Every log density in the package is an ``Expr`` over named free inputs.
Graphs are acyclic, nodes are immutable after construction, and evaluation
is plain 64-bit numpy, so the same (expr, point) pair always produces
bit-identical output.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .exceptions import (
    IntegerDifferentiation,
    MissingInput,
    NoGradient,
    NonScalarObjective,
    ShapeMismatch,
)

Point = dict[str, np.ndarray]

_BINARY = {"add", "sub", "mul", "div", "pow", "cmp_ge", "cmp_gt"}


def _broadcast_shape(a: tuple, b: tuple, what: str) -> tuple:
    # scalar-with-array is allowed; mismatched non-scalar shapes are not
    if a == b:
        return a
    if a == ():
        return b
    if b == ():
        return a
    raise ShapeMismatch(f"{what}: cannot combine shapes {a} and {b}")


class Expr:
    """One node of the computation graph.

    Fields are set once in ``__init__`` and never mutated afterwards; the
    ``_topo`` slot caches the topological order of the subgraph and is
    derived state only.
    """

    __slots__ = ("kind", "operands", "const_value", "input_name", "shape",
                 "dtype", "payload", "_topo", "_gradmeta")

    def __init__(self, kind, operands=(), const_value=None, input_name=None,
                 shape=(), dtype="float", payload=None):
        self.kind = kind
        self.operands = tuple(operands)
        self.const_value = const_value
        self.input_name = input_name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.payload = payload
        self._topo = None
        self._gradmeta = None

    # --- arithmetic sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __pow__(self, other):
        return pow_(self, other)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return abs_(self)

    def __ge__(self, other):
        return cmp_ge(self, other)

    def __gt__(self, other):
        return cmp_gt(self, other)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return slice_(self, key)
        return index(self, key)

    def __repr__(self):
        if self.kind == "constant":
            return f"Expr(const {self.const_value!r})"
        if self.kind == "free_input":
            return f"Expr(input {self.input_name!r} {self.shape})"
        return f"Expr({self.kind}, shape={self.shape})"

    @property
    def size(self) -> int:
        return int(np.prod(self.shape, dtype=int)) if self.shape else 1


def as_expr(value) -> Expr:
    """Lift numbers and arrays to constant nodes; pass Exprs through."""
    if isinstance(value, Expr):
        return value
    return const(value)


def const(value) -> Expr:
    arr = np.asarray(value)
    if arr.dtype.kind in "iub":
        arr = arr.astype(np.int64)
        dtype = "int"
        if np.asarray(value).dtype.kind == "b":
            arr = arr.astype(np.float64)
            dtype = "float"
    else:
        arr = arr.astype(np.float64)
        dtype = "float"
    arr.flags.writeable = False
    return Expr("constant", const_value=arr, shape=arr.shape, dtype=dtype)


def free_input(name: str, shape: Sequence[int] = (), dtype: str = "float") -> Expr:
    if dtype not in ("float", "int"):
        raise ValueError(f"dtype must be 'float' or 'int', got {dtype!r}")
    return Expr("free_input", input_name=name, shape=tuple(shape), dtype=dtype)


def _binary(kind, a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    shape = _broadcast_shape(a.shape, b.shape, kind)
    if kind in ("cmp_ge", "cmp_gt"):
        dtype = "float"  # comparisons yield 0/1 real arrays
    elif kind in ("div", "pow"):
        dtype = "float"
    else:
        dtype = "int" if (a.dtype == "int" and b.dtype == "int") else "float"
    return Expr(kind, (a, b), shape=shape, dtype=dtype)


def add(a, b) -> Expr:
    return _binary("add", a, b)


def sub(a, b) -> Expr:
    return _binary("sub", a, b)


def mul(a, b) -> Expr:
    return _binary("mul", a, b)


def div(a, b) -> Expr:
    return _binary("div", a, b)


def pow_(a, b) -> Expr:
    return _binary("pow", a, b)


def cmp_ge(a, b) -> Expr:
    return _binary("cmp_ge", a, b)


def cmp_gt(a, b) -> Expr:
    return _binary("cmp_gt", a, b)


def _unary(kind, x, dtype=None) -> Expr:
    x = as_expr(x)
    shape = () if kind == "sum_all" else x.shape
    return Expr(kind, (x,), shape=shape, dtype=dtype or "float")


def neg(x) -> Expr:
    x = as_expr(x)
    return Expr("neg", (x,), shape=x.shape, dtype=x.dtype)


def abs_(x) -> Expr:
    x = as_expr(x)
    return Expr("abs", (x,), shape=x.shape, dtype=x.dtype)


def exp(x) -> Expr:
    return _unary("exp", x)


def log(x) -> Expr:
    return _unary("log", x)


def sqrt(x) -> Expr:
    return _unary("sqrt", x)


def lgamma(x) -> Expr:
    return _unary("lgamma", x)


def sigmoid(x) -> Expr:
    return _unary("sigmoid", x)


def sum_all(x) -> Expr:
    x = as_expr(x)
    return Expr("sum_all", (x,), shape=(), dtype=x.dtype)


def switch(cond, a, b) -> Expr:
    cond, a, b = as_expr(cond), as_expr(a), as_expr(b)
    shape = _broadcast_shape(_broadcast_shape(cond.shape, a.shape, "switch"),
                             b.shape, "switch")
    dtype = "int" if (a.dtype == "int" and b.dtype == "int") else "float"
    return Expr("switch", (cond, a, b), shape=shape, dtype=dtype)


def index(x, key) -> Expr:
    """Static integer index or integer-array gather along the first axis."""
    x = as_expr(x)
    if not x.shape:
        raise ShapeMismatch("cannot index a scalar expression")
    if isinstance(key, (int, np.integer)):
        key = int(key)
        if not -x.shape[0] <= key < x.shape[0]:
            raise ShapeMismatch(f"index {key} out of bounds for axis of length {x.shape[0]}")
        shape = x.shape[1:]
    else:
        key = np.asarray(key, dtype=np.int64)
        key.flags.writeable = False
        shape = key.shape + x.shape[1:]
    return Expr("index", (x,), shape=shape, dtype=x.dtype, payload=key)


def slice_(x, slc: slice) -> Expr:
    x = as_expr(x)
    if len(x.shape) != 1:
        raise ShapeMismatch("slicing is supported on rank-1 expressions only")
    if slc.step is not None and slc.step <= 0:
        raise ShapeMismatch("slice step must be positive")
    n = len(range(*slc.indices(x.shape[0])))
    return Expr("slice", (x,), shape=(n,), dtype=x.dtype,
                payload=(slc.start, slc.stop, slc.step))


def concat(parts: Iterable) -> Expr:
    parts = tuple(as_expr(p) for p in parts)
    if not parts:
        raise ShapeMismatch("concat of zero expressions")
    for p in parts:
        if len(p.shape) != 1:
            raise ShapeMismatch("concat requires rank-1 expressions")
    n = sum(p.shape[0] for p in parts)
    dtype = "int" if all(p.dtype == "int" for p in parts) else "float"
    return Expr("concat", parts, shape=(n,), dtype=dtype)


def opaque_deterministic(fn: Callable, inputs: Sequence, out_shape: Sequence[int],
                         dtype: str = "float") -> Expr:
    """Black-box array function node: evaluates by calling ``fn``, has no gradient."""
    inputs = tuple(as_expr(x) for x in inputs)
    return Expr("opaque", inputs, shape=tuple(out_shape), dtype=dtype, payload=fn)


# --- Lanczos log-gamma (g=7, 9 coefficients) and its derivative -----------

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


def _lanczos_main(x):
    # valid for x >= 0.5
    z = x - 1.0
    s = np.full_like(z, _LANCZOS_COEF[0])
    for i in range(1, 9):
        s = s + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (z + 0.5) * np.log(t) - t + np.log(s)


def _lanczos_main_deriv(x):
    z = x - 1.0
    s = np.full_like(z, _LANCZOS_COEF[0])
    ds = np.zeros_like(z)
    for i in range(1, 9):
        s = s + _LANCZOS_COEF[i] / (z + i)
        ds = ds - _LANCZOS_COEF[i] / (z + i) ** 2
    t = z + _LANCZOS_G + 0.5
    return np.log(t) + (z + 0.5) / t - 1.0 + ds / s


def lgamma_value(x):
    """log|Gamma(x)| for real x, via Lanczos with reflection below 0.5."""
    x = np.asarray(x, dtype=np.float64)
    small = x < 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        main = _lanczos_main(np.where(small, 1.0 - x, x))
        refl = np.log(np.pi) - np.log(np.abs(np.sin(np.pi * x))) - main
        out = np.where(small, refl, main)
    return out


def digamma_value(x):
    """Derivative of ``lgamma_value`` (the digamma function)."""
    x = np.asarray(x, dtype=np.float64)
    small = x < 0.5
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        main = _lanczos_main_deriv(np.where(small, 1.0 - x, x))
        refl = main - np.pi / np.tan(np.pi * x)
        out = np.where(small, refl, main)
    return out


def _sigmoid_value(x):
    out = np.empty_like(x)
    pos = x >= 0
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
    return out


# --- evaluation -----------------------------------------------------------

def topo_order(expr: Expr) -> list[Expr]:
    """Children-first ordering of the subgraph; cached on the root node."""
    if expr._topo is not None:
        return expr._topo
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for child in node.operands:
            if id(child) not in seen:
                stack.append((child, False))
    expr._topo = order
    return order


def _input_value(node: Expr, point: Mapping) -> np.ndarray:
    name = node.input_name
    try:
        raw = point[name]
    except (KeyError, TypeError):
        raise MissingInput(f"free input {name!r} not present in point") from None
    arr = np.asarray(raw)
    if arr.shape != node.shape:
        raise ShapeMismatch(
            f"input {name!r}: expected shape {node.shape}, got {arr.shape}")
    if node.dtype == "int":
        if arr.dtype.kind not in "iu":
            if not np.all(arr == np.floor(arr)):
                raise ShapeMismatch(f"input {name!r} declared integral, got non-integral values")
            arr = arr.astype(np.int64)
        else:
            arr = arr.astype(np.int64, copy=False)
    else:
        arr = arr.astype(np.float64, copy=False)
    return arr


def _forward(expr: Expr, point: Mapping) -> dict[int, np.ndarray]:
    values: dict[int, np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for node in topo_order(expr):
            k = node.kind
            if k == "constant":
                v = node.const_value
            elif k == "free_input":
                v = _input_value(node, point)
            elif k in _BINARY:
                a = values[id(node.operands[0])]
                b = values[id(node.operands[1])]
                if k == "add":
                    v = a + b
                elif k == "sub":
                    v = a - b
                elif k == "mul":
                    v = a * b
                elif k == "div":
                    v = np.true_divide(a, b)
                elif k == "pow":
                    v = np.power(np.asarray(a, dtype=np.float64), b)
                elif k == "cmp_ge":
                    v = (a >= b).astype(np.float64)
                else:  # cmp_gt
                    v = (a > b).astype(np.float64)
            elif k == "neg":
                v = -values[id(node.operands[0])]
            elif k == "abs":
                v = np.abs(values[id(node.operands[0])])
            elif k == "exp":
                v = np.exp(values[id(node.operands[0])])
            elif k == "log":
                x = values[id(node.operands[0])]
                v = np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf)
            elif k == "sqrt":
                v = np.sqrt(np.asarray(values[id(node.operands[0])], dtype=np.float64))
            elif k == "lgamma":
                v = lgamma_value(values[id(node.operands[0])])
            elif k == "sigmoid":
                v = _sigmoid_value(np.asarray(values[id(node.operands[0])], dtype=np.float64))
            elif k == "sum_all":
                v = np.asarray(np.sum(values[id(node.operands[0])]))
            elif k == "switch":
                c = values[id(node.operands[0])]
                v = np.where(c != 0,
                             values[id(node.operands[1])],
                             values[id(node.operands[2])])
            elif k == "index":
                v = values[id(node.operands[0])][node.payload]
            elif k == "slice":
                start, stop, step = node.payload
                v = values[id(node.operands[0])][start:stop:step]
            elif k == "concat":
                v = np.concatenate([values[id(c)] for c in node.operands])
            elif k == "opaque":
                v = np.asarray(node.payload(*(values[id(c)] for c in node.operands)))
                if v.shape != node.shape:
                    raise ShapeMismatch(
                        f"opaque node: declared shape {node.shape}, fn returned {v.shape}")
            else:  # pragma: no cover - construction prevents unknown kinds
                raise ValueError(f"unknown node kind {k!r}")
            values[id(node)] = v
    return values


def eval_expr(expr: Expr, point: Mapping) -> np.ndarray:
    """Evaluate ``expr`` bottom-up at ``point`` with 64-bit arithmetic."""
    return _forward(expr, point)[id(expr)]


# --- reverse-mode gradient -------------------------------------------------

def _guarded(adj, local):
    # dead-branch adjoints are exactly zero; keep 0 * inf from minting NaN
    prod = adj * local
    m = prod.min() if (isinstance(prod, np.ndarray) and prod.ndim) else prod
    if m != m:  # a NaN crept in where the adjoint is zero
        prod = np.where(adj == 0, 0.0, prod)
    return prod


def _grad_meta(expr: Expr, order: list[Expr], wrt: Sequence[str]):
    """(wanted inputs, ids of nodes whose subgraph reaches a wrt input);
    memoized on the root since graphs are immutable."""
    key = frozenset(wrt)
    cache = expr._gradmeta
    if cache is not None and key in cache:
        return cache[key]

    wanted: dict[str, Expr] = {}
    for node in order:
        if node.kind == "free_input" and node.input_name in key:
            if node.dtype == "int":
                raise IntegerDifferentiation(
                    f"cannot differentiate through integer input {node.input_name!r}")
            wanted[node.input_name] = node
    # inputs not present in the graph simply get zero gradient

    reaches: set[int] = set()
    for node in order:
        if node.kind == "free_input" and node.input_name in key:
            reaches.add(id(node))
        elif any(id(c) in reaches for c in node.operands):
            reaches.add(id(node))

    if cache is None:
        cache = expr._gradmeta = {}
    cache[key] = (wanted, reaches)
    return wanted, reaches


def grad(expr: Expr, wrt: Sequence[str], point: Mapping,
         values: dict[int, np.ndarray] | None = None) -> Point:
    """Reverse-mode gradient of a scalar ``expr`` for the named free inputs.

    One backward pass serves every requested name.  ``switch`` conditions and
    comparison results are treated as constants; paths through opaque nodes
    raise ``NoGradient``; integer inputs raise ``IntegerDifferentiation``.
    """
    if expr.shape != ():
        raise NonScalarObjective(f"objective has shape {expr.shape}, expected a scalar")
    order = topo_order(expr)
    wanted, reaches = _grad_meta(expr, order, wrt)

    if values is None:
        values = _forward(expr, point)

    adjoint: dict[int, np.ndarray] = {id(expr): np.asarray(1.0)}

    def _acc(child: Expr, contrib):
        if child.shape == () and isinstance(contrib, np.ndarray) and contrib.ndim:
            contrib = contrib.sum()
        prev = adjoint.get(id(child))
        adjoint[id(child)] = contrib if prev is None else prev + contrib

    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for node in reversed(order):
            adj = adjoint.get(id(node))
            if adj is None:
                continue
            k = node.kind
            if k in ("constant", "free_input", "cmp_ge", "cmp_gt"):
                continue
            if k == "opaque":
                if any(id(c) in reaches for c in node.operands):
                    raise NoGradient("gradient requested through an opaque deterministic node")
                continue
            ops = node.operands
            if k == "add":
                _acc(ops[0], adj)
                _acc(ops[1], adj)
            elif k == "sub":
                _acc(ops[0], adj)
                _acc(ops[1], -adj)
            elif k == "mul":
                _acc(ops[0], _guarded(adj, values[id(ops[1])]))
                _acc(ops[1], _guarded(adj, values[id(ops[0])]))
            elif k == "div":
                a, b = values[id(ops[0])], values[id(ops[1])]
                _acc(ops[0], _guarded(adj, 1.0 / b))
                _acc(ops[1], _guarded(adj, -a / (b * b)))
            elif k == "pow":
                a = np.asarray(values[id(ops[0])], dtype=np.float64)
                b = values[id(ops[1])]
                _acc(ops[0], _guarded(adj, b * np.power(a, b - 1.0)))
                if ops[1].kind != "constant":
                    _acc(ops[1], _guarded(adj, values[id(node)] * np.log(a)))
            elif k == "neg":
                _acc(ops[0], -adj)
            elif k == "abs":
                _acc(ops[0], adj * np.sign(values[id(ops[0])]))
            elif k == "exp":
                _acc(ops[0], _guarded(adj, values[id(node)]))
            elif k == "log":
                _acc(ops[0], _guarded(adj, 1.0 / values[id(ops[0])]))
            elif k == "sqrt":
                _acc(ops[0], _guarded(adj, 0.5 / values[id(node)]))
            elif k == "lgamma":
                _acc(ops[0], _guarded(adj, digamma_value(values[id(ops[0])])))
            elif k == "sigmoid":
                s = values[id(node)]
                _acc(ops[0], adj * s * (1.0 - s))
            elif k == "sum_all":
                _acc(ops[0], np.full(ops[0].shape, float(adj)))
            elif k == "switch":
                c = values[id(ops[0])] != 0
                _acc(ops[1], np.where(c, adj, 0.0))
                _acc(ops[2], np.where(c, 0.0, adj))
            elif k == "index":
                buf = np.zeros(ops[0].shape)
                np.add.at(buf, node.payload, adj)
                _acc(ops[0], buf)
            elif k == "slice":
                start, stop, step = node.payload
                buf = np.zeros(ops[0].shape)
                buf[start:stop:step] += adj
                _acc(ops[0], buf)
            elif k == "concat":
                pos = 0
                for c in ops:
                    _acc(c, adj[pos:pos + c.shape[0]])
                    pos += c.shape[0]
            else:  # pragma: no cover
                raise ValueError(f"no gradient rule for kind {k!r}")

    out: Point = {}
    for name in wrt:
        node = wanted.get(name)
        if node is None:
            out[name] = np.zeros(())
        else:
            a = adjoint.get(id(node))
            out[name] = np.zeros(node.shape) if a is None else np.broadcast_to(
                np.asarray(a, dtype=np.float64), node.shape).copy()
    return out


def value_and_grad(expr: Expr, wrt: Sequence[str], point: Mapping):
    """Forward value and reverse-mode gradient sharing one forward pass."""
    values = _forward(expr, point)
    g = grad(expr, wrt, point, values=values)
    return values[id(expr)], g
