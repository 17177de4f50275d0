"""Immutable computation graph with forward evaluation and reverse-mode gradients.

Every log density in the package is an ``Expr`` over named free inputs.
Graphs are acyclic, nodes are immutable after construction, and evaluation
is plain 64-bit numpy, with log-gamma, digamma and the logistic function taken
from ``scipy.special``, so the same (expr, point) pair always produces
bit-identical output.

The first evaluation of a root compiles it into a tape cached on the root.
Each node of ``topo_order`` gets an integer slot in a list of values, its
kind's kernel and one dependency mask: bit ``k + 1`` for each free input
``k`` below it, bit 0 for each opaque node.  Every decision about work reads
these masks.  A call runs only the steps whose mask meets the inputs whose
converted bytes changed since the previous successful call; bit 0 counts as
changed on every call, and the first call runs every step, so a node fed only
by constants runs once.  The backward plan for a set of names visits only the
slots whose mask meets those names' bits, with the rules and the summation
order of a full sweep, so neither reuse nor pruning changes a bit.

Free inputs are read and checked on every call, and a tape holds one node per
input name.  It keeps its own read-only copy of each input and replaces its
values and input snapshot together, only when a pass succeeds.  A tape is not
safe to evaluate from two threads at once.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np
from scipy import special

from .exceptions import (
    DuplicateName,
    IntegerDifferentiation,
    MissingInput,
    NoGradient,
    NonScalarObjective,
    ShapeMismatch,
)

Point = dict[str, np.ndarray]

_QUIET = dict(divide="ignore", invalid="ignore", over="ignore", under="ignore")


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
    ``_tape`` slot caches the compiled tape of the subgraph and is derived
    state only.
    """

    __slots__ = ("kind", "operands", "const_value", "input_name", "shape",
                 "dtype", "payload", "_tape")

    def __init__(self, kind, operands=(), const_value=None, input_name=None,
                 shape=(), dtype="float", payload=None):
        self.kind = kind
        self.operands = tuple(operands)
        self.const_value = const_value
        self.input_name = input_name
        self.shape = tuple(shape)
        self.dtype = dtype
        self.payload = payload
        self._tape = None

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


def _unary(kind, x) -> Expr:
    x = as_expr(x)
    return Expr(kind, (x,), shape=x.shape, dtype="float")


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


# --- evaluation -----------------------------------------------------------

def topo_order(expr: Expr) -> list[Expr]:
    """Children-first ordering of the subgraph."""
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
    return as_dtype(arr, node.dtype, name)


def as_dtype(raw, dtype: str, name: str) -> np.ndarray:
    """``raw`` as an int64 array for the "int" dtype, else as float64.  An
    int value must be integral and finite; it is never truncated."""
    arr = np.asarray(raw)
    if dtype != "int":
        return arr.astype(np.float64, copy=False)
    if arr.dtype.kind not in "iu" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise ShapeMismatch(f"{name!r} is declared integral, got non-integral or "
                            f"non-finite values")
    return arr.astype(np.int64, copy=False)


# Forward kernels by node kind, each a function of its operand values.
_FORWARD = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": np.true_divide,
    "pow": lambda a, b: np.power(np.asarray(a, dtype=np.float64), b),
    "cmp_ge": lambda a, b: (a >= b).astype(np.float64),
    "cmp_gt": lambda a, b: (a > b).astype(np.float64),
    "neg": operator.neg,
    "abs": np.abs,
    "exp": np.exp,
    "log": lambda x: np.where(x > 0, np.log(np.where(x > 0, x, 1.0)), -np.inf),
    "sqrt": lambda x: np.sqrt(np.asarray(x, dtype=np.float64)),
    "lgamma": special.gammaln,
    "sigmoid": lambda x: special.expit(np.asarray(x, dtype=np.float64)),
    "sum_all": lambda x: np.asarray(np.add.reduce(x, axis=None)),
    "switch": np.where,  # a nonzero (or NaN) condition picks ``a``
    "concat": lambda *parts: np.concatenate(parts),
}


def _read_only(v):
    if isinstance(v, np.ndarray) and v.flags.writeable:
        v = v.view()
        v.flags.writeable = False
    return v


def _kernel(node: Expr) -> Callable:
    """The forward kernel of ``node``, bound to its payload where it has one."""
    k, p = node.kind, node.payload
    if k == "index":
        return lambda x: x[p]
    if k == "slice":
        key = slice(*p)
        return lambda x: x[key]
    if k == "opaque":
        def call(*args):
            # the arguments are slots a later call may reuse, and the result
            # may be an array ``p`` keeps, which the tape must not seal
            v = _read_only(np.asarray(p(*[_read_only(a) for a in args])))
            if v.shape != node.shape:
                raise ShapeMismatch(
                    f"opaque node: declared shape {node.shape}, fn returned {v.shape}")
            return v
        return call
    return _FORWARD[k]


class _Tape:
    """One root compiled to integer slots, in ``topo_order``: ``inputs``
    holds the ``(slot, node)`` of each free input, ``steps`` the ``(slot,
    kernel, operand slots)`` of every other non-constant node, and ``deps``
    each slot's dependency mask.  A step runs when its mask meets the bits
    that changed since ``state``, the previous successful call: its slot
    values and the bytes of each converted input, or None before the first
    call, which runs every step.  ``forward`` replaces both at once, after
    its pass succeeds.  A tape is not safe to evaluate from two threads at
    once."""

    def __init__(self, root: Expr):
        self.order = order = topo_order(root)
        slot = {id(n): i for i, n in enumerate(order)}
        self.operands = [tuple(slot[id(c)] for c in n.operands) for n in order]
        self.inputs: list[tuple[int, Expr]] = []
        self.steps: list[tuple[int, Callable, tuple]] = []
        self.deps = deps = [0] * len(order)
        self.plans: dict[frozenset, tuple] = {}
        values: list = [None] * len(order)
        for i, node in enumerate(order):
            if node.kind == "constant":
                values[i] = node.const_value
            elif node.kind == "free_input":
                if any(n.input_name == node.input_name for _, n in self.inputs):
                    raise DuplicateName(f"two free inputs are named {node.input_name!r}")
                deps[i] = 2 << len(self.inputs)
                self.inputs.append((i, node))
            else:
                deps[i] = int(node.kind == "opaque")
                for a in self.operands[i]:
                    deps[i] |= deps[a]
                self.steps.append((i, _kernel(node), self.operands[i]))
        self.state = (values, None)

    def forward(self, point: Mapping) -> list:
        values, seen = self.state
        changed = 1
        fresh = []
        with np.errstate(**_QUIET):
            for k, (i, node) in enumerate(self.inputs):
                arr = _input_value(node, point)
                raw = arr.tobytes()  # unlike ==, tells -0.0 from 0.0 and NaN payloads
                if seen is None or raw != seen[k]:
                    changed |= 2 << k
                    fresh.append((k, i, raw, arr))
            deps = self.deps
            run = self.steps if seen is None else [s for s in self.steps if deps[s[0]] & changed]
            if not (fresh or run):
                return values
            values = values.copy()
            seen = [None] * len(self.inputs) if seen is None else seen.copy()
            for k, i, raw, arr in fresh:
                seen[k] = raw
                values[i] = np.frombuffer(raw, arr.dtype).reshape(arr.shape)
            for i, fn, args in run:
                values[i] = fn(*[values[a] for a in args])
        root = values[-1]
        if isinstance(root, np.ndarray):  # handed to callers, and reused
            root.flags.writeable = False
        self.state = (values, seen)
        return values

    def plan(self, wrt: Sequence[str]) -> tuple:
        """(wanted input slots by name, backward entries, whether an opaque
        node lies on a differentiated path) for one set of names."""
        key = frozenset(wrt)
        if key in self.plans:
            return self.plans[key]
        order, operands, deps = self.order, self.operands, self.deps
        wanted: dict[str, int] = {}
        bits = 0
        for k, (i, node) in enumerate(self.inputs):
            if node.input_name in key:
                if node.dtype == "int":
                    raise IntegerDifferentiation(
                        f"cannot differentiate through integer input {node.input_name!r}")
                wanted[node.input_name] = i
                bits |= 2 << k
        # One entry per adjoint contribution, in the order of the full reverse
        # sweep: (node slot, child slot, rule, rule argument slots, child is
        # scalar).  Children whose mask meets no requested bit get none;
        # nothing they receive could flow into a requested gradient.
        entries = []
        blocked = False
        has_adjoint = {len(order) - 1}
        for i in reversed(range(len(order))):
            if i not in has_adjoint or not deps[i] & bits:
                continue
            node = order[i]
            if node.kind == "opaque":
                blocked = True
                continue
            refs = operands[i] + (i,)
            for j, child in enumerate(operands[i]):
                rule = _rule(node, j)
                if rule is not None and deps[child] & bits:
                    fn, args = rule
                    entries.append((i, child, fn, tuple(refs[a] for a in args),
                                    order[child].shape == ()))
                    has_adjoint.add(child)
        self.plans[key] = (wanted, entries, blocked)
        return self.plans[key]


def _tape(expr: Expr) -> _Tape:
    if expr._tape is None:
        expr._tape = _Tape(expr)
    return expr._tape


def eval_expr(expr: Expr, point: Mapping) -> np.ndarray:
    """Evaluate ``expr`` bottom-up at ``point`` with 64-bit arithmetic."""
    return _tape(expr).forward(point)[-1]


# --- reverse-mode gradient -------------------------------------------------

def _guarded(adj, local):
    # dead-branch adjoints are exactly zero; keep 0 * inf from minting NaN
    prod = adj * local
    # a NaN anywhere makes the minimum NaN; ``initial`` covers empty arrays
    m = prod.min(initial=0.0) if (isinstance(prod, np.ndarray) and prod.ndim) else prod
    if m != m:  # a NaN crept in where the adjoint is zero
        prod = np.where(adj == 0, 0.0, prod)
    return prod


def _same(adj):
    return adj


# Per kind, one (rule, argument refs) per operand: ``rule(adj, *args)`` is the
# adjoint contribution into that operand, where ref k is operand k's value and
# ref -1 the node's own value.  None marks an operand that receives nothing.
_BACKWARD = {
    "add": ((_same, ()), (_same, ())),
    "sub": ((_same, ()), (operator.neg, ())),
    "mul": ((_guarded, (1,)), (_guarded, (0,))),
    "div": ((lambda g, b: _guarded(g, 1.0 / b), (1,)),
            (lambda g, a, b: _guarded(g, -a / (b * b)), (0, 1))),
    "pow": ((lambda g, a, b: _guarded(
                g, b * np.power(np.asarray(a, dtype=np.float64), b - 1.0)), (0, 1)),
            (lambda g, a, v: _guarded(g, v * np.log(np.asarray(a, dtype=np.float64))),
             (0, -1))),
    "cmp_ge": (None, None),
    "cmp_gt": (None, None),
    "neg": ((operator.neg, ()),),
    "abs": ((lambda g, x: g * np.sign(x), (0,)),),
    "exp": ((_guarded, (-1,)),),
    "log": ((lambda g, x: _guarded(g, 1.0 / x), (0,)),),
    "sqrt": ((lambda g, v: _guarded(g, 0.5 / v), (-1,)),),
    "lgamma": ((lambda g, x: _guarded(g, special.psi(x)), (0,)),),
    "sigmoid": ((lambda g, s: g * s * (1.0 - s), (-1,)),),
    "switch": (None,
               (lambda g, c: np.where(c, g, 0.0), (0,)),
               (lambda g, c: np.where(c, 0.0, g), (0,))),
}


def _rule(node: Expr, j: int):
    """The backward rule of ``node`` into its operand ``j``, bound to the
    node's shapes and payload where the rule needs them."""
    k, p, shape = node.kind, node.payload, node.operands[0].shape
    if k == "sum_all":
        return (lambda g: np.full(shape, float(g))), ()
    if k == "index":
        def scatter(g):
            buf = np.zeros(shape)
            np.add.at(buf, p, g)
            return buf
        return scatter, ()
    if k == "slice":
        key = slice(*p)

        def fill(g):
            buf = np.zeros(shape)
            buf[key] += g
            return buf
        return fill, ()
    if k == "concat":
        lo = sum(c.shape[0] for c in node.operands[:j])
        hi = lo + node.operands[j].shape[0]
        return (lambda g: g[lo:hi]), ()
    return _BACKWARD[k][j]


def grad(expr: Expr, wrt: Sequence[str], point: Mapping,
         values: list | None = None) -> Point:
    """Reverse-mode gradient of a scalar ``expr`` for the named free inputs.

    One backward pass serves every requested name; ``values`` are the slots
    of a forward pass at ``point`` when the caller already has them.
    ``switch`` conditions and comparison results are treated as constants;
    paths through opaque nodes raise ``NoGradient``; integer inputs raise
    ``IntegerDifferentiation``.
    """
    if expr.shape != ():
        raise NonScalarObjective(f"objective has shape {expr.shape}, expected a scalar")
    tape = _tape(expr)
    wanted, entries, blocked = tape.plan(wrt)
    if values is None:
        values = tape.forward(point)
    if blocked:
        raise NoGradient("gradient requested through an opaque deterministic node")

    adjoint: list = [None] * len(values)
    adjoint[-1] = np.asarray(1.0)
    with np.errstate(**_QUIET):
        for i, child, fn, args, scalar in entries:
            contrib = fn(adjoint[i], *[values[a] for a in args]) if args else fn(adjoint[i])
            if scalar and isinstance(contrib, np.ndarray) and contrib.ndim:
                contrib = np.add.reduce(contrib, axis=None)
            prev = adjoint[child]
            adjoint[child] = contrib if prev is None else prev + contrib

    out: Point = {}
    for name in wrt:
        i = wanted.get(name)
        if i is None:
            out[name] = np.zeros(())
        else:
            out[name] = g = np.zeros(tape.order[i].shape)
            if adjoint[i] is not None:
                g[...] = adjoint[i]
    return out


def value_and_grad(expr: Expr, wrt: Sequence[str], point: Mapping):
    """Forward value and reverse-mode gradient sharing one forward pass."""
    values = _tape(expr).forward(point)
    g = grad(expr, wrt, point, values=values)
    return values[-1], g
