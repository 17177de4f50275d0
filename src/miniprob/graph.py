"""Immutable computation graph with forward evaluation and reverse-mode gradients.

Every log density in the package is an ``Expr`` over named free inputs.
Graphs are acyclic, nodes are immutable after construction, and evaluation
is plain 64-bit numpy, with log-gamma, digamma and the logistic function taken
from ``scipy.special``, so the same (expr, point) pair always produces
bit-identical output.  ``scipy.special`` is imported with the first tape whose
graph has an lgamma or sigmoid node, and its names are bound in that tape's
namespace only.

The first evaluation of a root compiles it into a tape cached on the root.
Each node of ``topo_order`` gets an integer slot in a list of values and one
dependency mask: bit ``k`` for each free input ``k`` below it.  Every node,
an opaque one too, must be a pure function of its operands: a call runs only
the nodes whose mask meets the inputs whose converted bytes changed since the
previous successful call, and the first call runs every node, so a node fed
only by constants runs once.  The code that runs is generated Python: one
straight-line function per change mask, made on the mask's first call, with
one line per node it runs, and one backward function per ordered list of
names, with one line per adjoint contribution into a slot whose mask meets
those names' bits; it writes the gradient as one packed vector.  A source
compiles once per process: a rebuilt graph of the same structure execs the
code object kept for its text.  The lines call the same numpy kernels in the
order of a full sweep, so neither reuse, pruning nor generation changes a
bit.  Only the sign and payload of a NaN are unspecified: numpy's scalar
forms may give other NaN bits than its 0-d arrays.  The backward function
multiplies each adjoint plainly and sums its result once, at its end; only a
NaN sum runs the guarded pass of ``_guarded``, generated from the same lines
on the first such call and kept.  The argument that no bit moves is beside the rule table.

A 0-d slot below the root holds a numpy scalar, not a 0-d array, unless an
opaque node made it.  Where Python's ``if`` or an operation on numpy scalars
gives the kernel's bytes, the generated line uses it: a ufunc on 0-d arrays
costs about ten times the same scalar operation, and ``where`` on scalars
about fifty times an ``if``.  A switch on a 0-d condition may share its
branch's array, since no slot is written in place.  The root keeps its
kernel's type; opaque results are read-only copies.

Free inputs are read and checked by ``point_value`` on every call, and a
tape holds one node per input name.  It keeps its own read-only copy of each
input and replaces its values and input snapshot together, only when a pass
succeeds.  A tape is not safe to evaluate from two threads at once.
"""

from __future__ import annotations

import functools
import numbers
import operator
import reprlib
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .exceptions import (
    DuplicateName,
    NoGradient,
    OutsideSupport,
    ShapeMismatch,
    UnknownVariable,
)

Point = dict[str, np.ndarray]

# a decorator, which costs half a new ``errstate``; one cannot be entered twice
_quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore")
DTYPES = {"float": np.dtype(np.float64), "int": np.dtype(np.int64)}  # each dtype's storage


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
    __array_ufunc__ = None  # numpy arrays and scalars defer to the reflected operators

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

    # --- operators: the one spelling of each node that has one --------------

    def __add__(self, other):
        return _binary("add", self, other)

    def __radd__(self, other):
        return _binary("add", other, self)

    def __sub__(self, other):
        return _binary("sub", self, other)

    def __rsub__(self, other):
        return _binary("sub", other, self)

    def __mul__(self, other):
        return _binary("mul", self, other)

    def __rmul__(self, other):
        return _binary("mul", other, self)

    def __truediv__(self, other):
        return _binary("div", self, other)

    def __rtruediv__(self, other):
        return _binary("div", other, self)

    def __pow__(self, other):
        return _binary("pow", self, other)

    def __rpow__(self, other):
        return _binary("pow", other, self)

    def __neg__(self):
        return Expr("neg", (self,), shape=self.shape, dtype=self.dtype)

    def __abs__(self):
        return Expr("abs", (self,), shape=self.shape, dtype=self.dtype)

    def __ge__(self, other):
        return _binary("cmp_ge", self, other)

    def __gt__(self, other):
        return _binary("cmp_gt", self, other)

    def __le__(self, other):
        return _binary("cmp_ge", other, self)

    def __lt__(self, other):
        return _binary("cmp_gt", other, self)

    def __bool__(self):
        raise TypeError("an expression has no truth value; select with switch()")

    def __getitem__(self, key):
        """Static integer index or integer-array gather along the first axis,
        or a positive-step slice of a rank-1 expression; both are index nodes
        keyed by their key.  A key that is not an integer (a bool or float
        too) or is out of bounds raises ``ShapeMismatch``."""
        if isinstance(key, slice):
            if len(self.shape) != 1:
                raise ShapeMismatch("slicing is supported on rank-1 expressions only")
            if key.step is not None and key.step <= 0:
                raise ShapeMismatch("slice step must be positive")
            n = len(range(*key.indices(self.shape[0])))
            return Expr("index", (self,), shape=(n,), dtype=self.dtype, payload=key)
        if not self.shape:
            raise ShapeMismatch("cannot index a scalar expression")
        keys = np.asarray(key)
        if isinstance(key, bool) or keys.dtype.kind not in "iu":
            raise ShapeMismatch(f"index keys must be integers, got {key!r}")
        if keys.size and not (-self.shape[0] <= keys.min() and keys.max() < self.shape[0]):
            raise ShapeMismatch(f"index {key} out of bounds for axis of length {self.shape[0]}")
        if keys.ndim == 0:
            key = int(keys)
        else:
            key = keys.astype(np.int64)
            key.flags.writeable = False
        return Expr("index", (self,), shape=keys.shape + self.shape[1:], dtype=self.dtype,
                    payload=key)

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
    """A constant node: int64 for integers, float64 for reals and booleans.
    Anything but a number or a numeric array raises ``TypeError``."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iubf":
        raise TypeError(f"a graph value is a number, a numeric array or an Expr, "
                        f"got {type(value).__name__}")
    dtype = "int" if arr.dtype.kind in "iu" else "float"
    arr = arr.astype(DTYPES[dtype])
    arr.flags.writeable = False
    return Expr("constant", const_value=arr, shape=arr.shape, dtype=dtype)


def free_input(name: str, shape: Sequence[int] = (), dtype: str = "float") -> Expr:
    if dtype not in ("float", "int"):
        raise ShapeMismatch(f"dtype must be 'float' or 'int', got {dtype!r}")
    return Expr("free_input", input_name=name, shape=tuple(shape), dtype=dtype)


def _binary(kind, a, b) -> Expr:
    a, b = as_expr(a), as_expr(b)
    shape = _broadcast_shape(a.shape, b.shape, kind)
    if kind in ("cmp_ge", "cmp_gt", "div", "pow"):
        dtype = "float"  # comparisons yield 0/1 real arrays
    else:
        dtype = "int" if (a.dtype == "int" and b.dtype == "int") else "float"
    return Expr(kind, (a, b), shape=shape, dtype=dtype)


def _unary(kind, x) -> Expr:
    x = as_expr(x)
    return Expr(kind, (x,), shape=x.shape, dtype="float")


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


def softplus(x) -> Expr:
    """log(1 + e^x), finite wherever x is: (x + |x|) / 2 + log(1 + e^-|x|)."""
    a = abs(as_expr(x))
    return (x + a) * 0.5 + log(1.0 + exp(-a))


def sum_all(x) -> Expr:
    x = as_expr(x)
    return Expr("sum_all", (x,), shape=(), dtype=x.dtype)


def switch(cond, a, b) -> Expr:
    cond, a, b = as_expr(cond), as_expr(a), as_expr(b)
    shape = _broadcast_shape(_broadcast_shape(cond.shape, a.shape, "switch"),
                             b.shape, "switch")
    dtype = "int" if (a.dtype == "int" and b.dtype == "int") else "float"
    return Expr("switch", (cond, a, b), shape=shape, dtype=dtype)


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
    """Black-box node without a gradient: ``fn`` must be pure; its result is copied."""
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


def point_value(point: Mapping, name: str, shape: tuple | None, dtype: str,
                what: str) -> np.ndarray:
    """``point[name]`` as an array of ``dtype`` (converted by ``as_dtype``)
    and of ``shape`` (any shape for None), the one reader of a named value.
    A missing name raises ``UnknownVariable`` and another shape
    ``ShapeMismatch``, each naming the value as ``what``."""
    try:
        raw = point[name]
    except (KeyError, TypeError):
        raise UnknownVariable(f"{what} {name!r} not present in point") from None
    if type(raw) is np.ndarray and raw.dtype is DTYPES[dtype] and raw.shape == shape:
        return raw  # what the checks and conversions below would return
    arr = np.asarray(raw)
    if shape is not None and arr.shape != shape:
        raise ShapeMismatch(f"{what} {name!r}: expected shape {shape}, got {arr.shape}")
    return as_dtype(arr, dtype, name)


def as_dtype(raw, dtype: str, name: str) -> np.ndarray:
    """``raw`` as an int64 array for the "int" dtype, else as float64.  Every
    value must be a real number (a bool reads as 0 or 1), else
    ``OutsideSupport``.  An int value must be integral and finite, else
    ``ShapeMismatch``, and within int64, else ``OutsideSupport``: it is never
    truncated or wrapped."""
    arr = np.asarray(raw)
    if arr.dtype.kind == "O" and all(isinstance(v, numbers.Real) for v in arr.flat):
        try:  # numpy keeps a Python int beyond int64 as an object
            arr = arr.astype(np.float64)
        except OverflowError:
            raise OutsideSupport(f"{name!r}: {reprlib.repr(arr.tolist())} is outside "
                                 "float64") from None
    if arr.dtype.kind not in "biuf":
        raise OutsideSupport(f"{name!r} must be real numbers, got {reprlib.repr(arr.tolist())}")
    if dtype != "int":
        return arr.astype(np.float64, copy=False)
    if arr.dtype.kind == "f" and not np.all(np.isfinite(arr) & (arr == np.floor(arr))):
        raise ShapeMismatch(f"{name!r} is declared integral, got non-integral or "
                            f"non-finite values")
    with np.errstate(invalid="ignore"):  # a value beyond int64 casts to another
        out = arr.astype(np.int64, copy=False)
    wrong = out != arr
    if np.any(wrong):
        raise OutsideSupport(f"{name!r}: {arr[wrong].flat[0].item()!r} is outside int64")
    return out


def _read_only(v):
    if isinstance(v, np.ndarray) and v.flags.writeable:
        v = v.view()
        v.flags.writeable = False
    return v


def _guarded(adj, local):
    # the guarded pass's product: dead-branch adjoints are exactly zero, so a
    # zero adjoint times an infinite or NaN local gives +0.0; every other
    # element keeps its bare product
    prod = adj * local
    return np.where((adj == 0) & (prod != prod), 0.0, prod)


def _scatter(shape, key, g):
    buf = np.zeros(shape)
    if isinstance(key, np.ndarray):  # keys may repeat
        np.add.at(buf, key, g)
    else:  # an int or a slice: the same bits as ``add.at`` into zeros
        buf[key] += g
    return buf


def _call(fn, shape, *args):
    # the arguments are slots a later call may reuse, or scalars; the result
    # may be an array ``fn`` keeps and writes again, so the slot owns a copy
    v = _read_only(np.array(fn(*[_read_only(np.asarray(a)) for a in args])))
    if v.shape != shape:
        raise ShapeMismatch(f"opaque node: declared shape {shape}, fn returned {v.shape}")
    return v


# Source templates by node kind.  ``{0}``, ``{1}``, ... are the operand
# values, ``{a}`` all of them and ``{v}`` the node's value; ``{n}`` its shape,
# ``{s}`` the operands' shapes and ``{k}`` the node's key (an index or a
# slice) or opaque function are names bound in the tape's namespace.
# ``_FORWARD`` gives a node's value, and ``_SCALAR`` the same bytes as a
# numpy scalar for a 0-d node other than the root whose last two operands
# share a dtype; ``_Tape._template`` adds the forms that depend on operand
# shapes.
# ``_BACKWARD`` gives, per operand, the contribution of ``{g}``, the node's
# adjoint, to the operand's adjoint, or None where the operand receives
# nothing.
#
# ``G({g}, x)`` is the guarded product ``_guarded`` computes.  The backward
# pass runs its lines with ``G`` bound to ``operator.mul``, the bare product,
# and returns the pass with ``G`` bound to ``_guarded`` instead only when the
# sum of ``out`` is NaN.  Why no bit moves: the guard changes only an element
# whose bare product is NaN.  Every rule moves an element on by a sum, a
# product, ``full``, a scatter or a selection, and none of these turns a NaN
# into a number (a selection that drops one gives 0.0 in both passes).  So
# every element of ``out`` is NaN in the bare pass or bit-equal to the
# guarded pass's, and any NaN in ``out`` makes its sum NaN.  A NaN sum from
# ``inf - inf`` costs only that rerun.
_FORWARD = {
    "add": "{0} + {1}",
    "sub": "{0} - {1}",
    "mul": "{0} * {1}",
    "div": "true_divide({0}, {1})",
    "pow": "power(asarray({0}, dtype=float64), {1})",
    "cmp_ge": "({0} >= {1}).astype(float64)",
    "cmp_gt": "({0} > {1}).astype(float64)",
    "neg": "-{0}",
    "abs": "absolute({0})",
    "exp": "exp({0})",
    "log": "where({0} > 0, log({0}), -inf)",
    "sqrt": "sqrt(asarray({0}, dtype=float64))",
    "lgamma": "gammaln({0})",
    "sigmoid": "expit(asarray({0}, dtype=float64))",
    "sum_all": "asarray(add.reduce({0}, axis=None))",
    "switch": "where({0}, {1}, {2})",  # a nonzero (or NaN) condition picks {1}
    "concat": "concatenate(({a},))",
    "index": "{0}[{k}]",
    "opaque": "call({k}, {n}, {a})",
}
_SCALAR = {
    "log": "log({0}) if {0} > 0 else NEG_INF",
    "cmp_ge": "ONE if {0} >= {1} else ZERO",
    "cmp_gt": "ONE if {0} > {1} else ZERO",
    "switch": "{1} if {0} else {2}",
    "sum_all": "add.reduce({0}, axis=None)",
}
_BACKWARD = {
    "add": ("{g}", "{g}"),
    "sub": ("{g}", "-{g}"),
    "mul": ("G({g}, {1})", "G({g}, {0})"),
    "div": ("G({g}, 1.0 / {1})", "G({g}, -{0} / ({1} * {1}))"),
    "pow": ("G({g}, {1} * power(asarray({0}, dtype=float64), {1} - 1.0))",
            "G({g}, {v} * log(asarray({0}, dtype=float64)))"),
    "cmp_ge": (None, None),
    "cmp_gt": (None, None),
    "neg": ("-{g}",),
    "abs": ("{g} * sign({0})",),
    "exp": ("G({g}, {v})",),
    "log": ("G({g}, 1.0 / {0})",),
    "sqrt": ("G({g}, 0.5 / {v})",),
    "lgamma": ("G({g}, psi({0}))",),
    "sigmoid": ("{g} * {v} * (1.0 - {v})",),
    "sum_all": ("full({s[0]}, float({g}))",),
    "switch": (None, "where({0}, {g}, 0.0)", "where({0}, 0.0, {g})"),
    "index": ("scatter({s[0]}, {k}, {g})",),
}
_NAMESPACE = {
    "absolute": np.absolute, "add": np.add, "asarray": np.asarray, "concatenate": np.concatenate,
    "empty": np.empty, "exp": np.exp, "float64": np.float64, "full": np.full, "inf": np.inf,
    "log": np.log, "power": np.power, "read": point_value, "sign": np.sign, "sqrt": np.sqrt,
    "true_divide": np.true_divide, "where": np.where, "zeros": np.zeros, "G": _guarded,
    "scatter": _scatter, "call": _call, "NoGradient": NoGradient, "ONE": np.float64(1.0),
    "ZERO": np.float64(0.0), "IZERO": np.int64(0), "NEG_INF": np.float64(-np.inf),
    "SEED": np.float64(1.0),
}


_compile = functools.lru_cache(maxsize=256)(compile)  # keyed by the source text


@functools.cache
def _special() -> dict:
    """The ``scipy.special`` names of the lgamma and sigmoid rules, imported
    with the first tape that has such a node."""
    from scipy import special
    return {"gammaln": special.gammaln, "psi": special.psi, "expit": special.expit}


def _scalar_switch(node: Expr) -> bool:
    """A switch on a 0-d condition whose value is 0-d or rank 1, which
    Python's ``if`` runs: it picks the operand whose bytes ``where`` would
    copy, and a slot may share an operand's array, since none is written in
    place (a reduction of an array of higher rank may follow its layout)."""
    return node.kind == "switch" and node.operands[0].shape == () and len(node.shape) < 2


def _rule(node: Expr, j: int) -> str | None:
    """The backward template of ``node`` into its operand ``j``; a 0-d
    ``sum_all`` passes on its adjoint, the bytes ``full`` would copy."""
    if node.kind == "concat":
        lo = sum(c.shape[0] for c in node.operands[:j])
        return f"{{g}}[{lo}:{lo + node.operands[j].shape[0]}]"
    if node.kind == "sum_all" and node.operands[0].shape == ():
        return "{g}"
    if j and _scalar_switch(node):  # in parentheses, as a term of a sum
        zero = "zeros({n})" if node.shape else "ZERO"
        return "({} if {{0}} else {})".format(*(("{g}", zero) if j == 1 else (zero, "{g}")))
    return _BACKWARD[node.kind][j]


def _define(lines: list[str], ret: str, namespace: dict, args: str = "v") -> Callable:
    """``def run(args)`` with the body ``lines`` returning ``ret``; a source
    seen before in this process reuses its code object."""
    src = f"def run({args}):\n" + "".join(f"    {line}\n" for line in lines) + f"    return {ret}\n"
    scope: dict = {}
    exec(_compile(src, "<miniprob tape>", "exec"), namespace, scope)
    return scope["run"]


class _Tape:
    """One root compiled to integer slots, in ``topo_order``: ``inputs``
    holds the ``(slot, node)`` of each free input, ``steps`` the slot of
    every other non-constant node, and ``deps`` each slot's dependency mask.
    Each step is pure, so it runs only when its mask meets the bits that
    changed since ``state``, the previous successful call: its slot values
    and the bytes of each converted input, or None before the first call,
    which runs every step.  ``forward`` replaces both at once, after its pass
    succeeds.  ``runs`` holds at most one generated function per distinct
    change mask (key None for the first call), which runs the steps listed in
    its ``steps``, and ``plans`` one backward pass per ordered tuple of names,
    which makes its guarded pass on its first NaN sum.  Every 0-d slot but
    the root's and an opaque node's holds a numpy scalar, which the 0-d
    kernels run on at a tenth of the cost of a 0-d array.  A tape is not safe
    to evaluate from two threads at once."""

    def __init__(self, root: Expr):
        self.order = order = topo_order(root)
        slot = {id(n): i for i, n in enumerate(order)}
        self.operands = [tuple(slot[id(c)] for c in n.operands) for n in order]
        self.inputs: list[tuple[int, Expr]] = []
        self.steps: list[int] = []
        self.deps = deps = [0] * len(order)
        self.runs: dict = {}
        self.plans: dict[tuple, Callable] = {}
        self.namespace = dict(_NAMESPACE)
        values: list = [None] * len(order)
        self.last = last = len(order) - 1
        for i, node in enumerate(order):
            self.namespace[f"n{i}"] = node.shape  # bound, not written: any int type
            if node.kind == "constant":
                values[i] = node.const_value if node.shape or i == last else node.const_value[()]
            elif node.kind == "free_input":
                if any(n.input_name == node.input_name for _, n in self.inputs):
                    raise DuplicateName(f"two free inputs are named {node.input_name!r}")
                deps[i] = 1 << len(self.inputs)
                self.inputs.append((i, node))
            else:
                for a in self.operands[i]:
                    deps[i] |= deps[a]
                self.steps.append(i)
                if node.kind in ("lgamma", "sigmoid"):
                    self.namespace.update(_special())
                if node.payload is not None:  # an index key or opaque function
                    self.namespace[f"k{i}"] = node.payload
        self.state = (values, None)

    def _source(self, i: int, template: str, refs: list[str], **fields) -> str:
        return template.format(*refs, a=", ".join(refs), v=f"v[{i}]", n=f"n{i}",
                               s=[f"n{a}" for a in self.operands[i]], k=f"k{i}", **fields)

    def _generate(self, key: int | None) -> Callable:
        """The forward pass of the steps whose mask meets ``key``, or of
        every step for None; operands it computes are read from locals."""
        steps = [i for i in self.steps if key is None or self.deps[i] & key]
        lines = []
        for i in steps:
            refs = [f"s{a}" if a in steps else f"v[{a}]" for a in self.operands[i]]
            lines.append(f"s{i} = v[{i}] = {self._source(i, self._template(i), refs)}")
        run = _define(lines, "None", self.namespace)
        run.steps = steps
        return run

    def _template(self, i: int) -> str:
        """The forward template of step ``i``: a form that runs on numpy
        scalars or picks with ``if`` where one gives the same bytes, and a
        0-d slot below the root a numpy scalar."""
        node = self.order[i]
        ops = [self.order[a] for a in self.operands[i]]
        same = len({c.dtype for c in ops[-2:]}) == 1
        if same and node.shape and _scalar_switch(node):
            picks = ["{%d}" % j if ops[j].shape else "full({n}, {%d})" % j for j in (1, 2)]
            return f"{picks[0]} if {{0}} else {picks[1]}"
        if node.shape or i == self.last:
            return _FORWARD[node.kind]
        if node.kind == "sum_all" and not ops[0].shape:  # as ``add.reduce``: -0.0 + 0 is +0.0
            return "{0} + " + ("IZERO" if node.dtype == "int" else "ZERO")
        if node.kind in _SCALAR and same:
            return _SCALAR[node.kind]
        # ``where`` over an int and a float branch gives a 0-d array
        return _FORWARD[node.kind] + ("[()]" if node.kind == "switch" else "")

    @_quiet
    def forward(self, point: Mapping) -> list:
        values, seen = self.state
        changed = 0
        fresh = []
        for k, (i, node) in enumerate(self.inputs):
            arr = point_value(point, node.input_name, node.shape, node.dtype, "free input")
            raw = arr.tobytes()  # unlike ==, tells -0.0 from 0.0 and NaN payloads
            if seen is None or raw != seen[k]:
                changed |= 1 << k
                fresh.append((k, i, raw, arr))
        key = None if seen is None else changed
        if key not in self.runs:
            self.runs[key] = self._generate(key)
        run = self.runs[key]
        if not (fresh or run.steps):
            return values
        values = values.copy()
        seen = [None] * len(self.inputs) if seen is None else seen.copy()
        for k, i, raw, arr in fresh:
            seen[k] = raw
            # owned copies: a numpy scalar below the root, else a read-only array
            values[i] = (arr[()] if arr.ndim == 0 and i < self.last
                         else np.frombuffer(raw, arr.dtype).reshape(arr.shape))
        run(values)
        root = values[-1]
        if isinstance(root, np.ndarray):  # handed to callers, and reused
            root.flags.writeable = False
        self.state = (values, seen)
        return values

    def plan(self, wrt: tuple) -> Callable:
        """The generated backward pass for one ordered tuple of names, given
        the slots and the point: a new vector of each name's adjoint, zeros
        where none reaches it, in ``grad``'s layout.  It raises
        ``NoGradient`` if an opaque node lies on a differentiated path.  It
        runs bare and returns the guarded pass's vector when the sum of its
        own is NaN."""
        if wrt in self.plans:
            return self.plans[wrt]
        if len(set(wrt)) < len(wrt):
            raise DuplicateName(f"a name is listed twice in {list(wrt)}")
        order, operands, deps = self.order, self.operands, self.deps
        slots = {node.input_name: i for i, node in self.inputs if node.input_name in wrt}
        bits = 0
        for name, i in slots.items():
            if order[i].dtype == "int":
                raise NoGradient(f"cannot differentiate through integer input {name!r}")
            bits |= deps[i]
        # One line per adjoint contribution, in the order of the full reverse
        # sweep; the first into a slot starts its adjoint, and one from a
        # node with a shape into a 0-d child is summed.  Children whose mask
        # meets no requested bit get none; nothing they receive could flow
        # into a requested gradient.
        last = self.last
        lines, has = [f"a{last} = SEED"], {last}
        for i in reversed(range(len(order))):
            if i not in has or not deps[i] & bits:
                continue
            node = order[i]
            if node.kind == "opaque":
                lines = ['raise NoGradient("gradient requested through an opaque '
                         'deterministic node")']
                break
            refs = [f"v[{a}]" for a in operands[i]]
            for j, child in enumerate(operands[i]):
                rule = _rule(node, j)
                if rule is None or not deps[child] & bits:
                    continue
                c = self._source(i, rule, refs, g=f"a{i}")
                if order[child].shape == () and node.shape != ():
                    c = f"add.reduce({c}, axis=None)"
                lines.append(f"a{child} = a{child} + {c}" if child in has else f"a{child} = {c}")
                has.add(child)
        off, sizes, writes = "0", [], []  # the compiler folds the constant offsets
        for j, name in enumerate(wrt):
            if name not in slots:  # no node reads it: sized by the point
                sizes.append(f"z{j} = read(p, {name!r}, None, 'float', 'free input').size")
                off += f" + z{j}"
                continue
            i = slots[name]
            end = f"{off} + {int(np.prod(order[i].shape, dtype=int))}"
            if i in has:
                flat = ".ravel()" if len(order[i].shape) > 1 else ""
                writes.append(f"out[{off}:{end}] = a{i}{flat}")
            off = end
        start = f"out = {'empty' if len(writes) == len(wrt) else 'zeros'}({off})"
        lines += sizes + [start] + writes
        # the guarded pass, compiled on the first NaN sum and kept, so a
        # NaN-free run compiles one pass per tuple of names; it runs inside
        # the bare pass's ``_quiet``
        guarded = functools.cache(lambda: _define(lines, "out", self.namespace, "v, p"))
        bare = dict(self.namespace, G=operator.mul, rerun=lambda v, p: guarded()(v, p))
        ret = "out if (t := add.reduce(out)) == t else rerun(v, p)"
        self.plans[wrt] = _quiet(_define(lines, ret, bare, "v, p"))
        return self.plans[wrt]


def _tape(expr: Expr) -> _Tape:
    if expr._tape is None:
        expr._tape = _Tape(expr)
    return expr._tape


def eval_expr(expr: Expr, point: Mapping) -> np.ndarray:
    """Evaluate ``expr`` bottom-up at ``point`` with 64-bit arithmetic."""
    return _tape(expr).forward(point)[-1]


# --- reverse-mode gradient -------------------------------------------------

def grad(expr: Expr, wrt: Sequence[str], point: Mapping,
         values: list | None = None) -> np.ndarray:
    """Reverse-mode gradient of a scalar ``expr`` as one new float64 vector:
    the block of each name in ``wrt``, raveled in C order, in that order.  A
    name that ``expr`` does not read gets as many zeros as ``point`` holds;
    one listed twice raises ``DuplicateName``, and an integer input or a
    path through an opaque node ``NoGradient``.  ``switch`` conditions and comparison results are
    treated as constants.  ``values`` are the slots of a forward pass at
    ``point`` when the caller already has them.
    """
    if expr.shape != ():
        raise ShapeMismatch(f"objective has shape {expr.shape}, expected a scalar")
    tape = _tape(expr)
    backward = tape.plan(tuple(wrt))
    return backward(tape.forward(point) if values is None else values, point)


def value_and_grad(expr: Expr, wrt: Sequence[str], point: Mapping):
    """The value of ``expr`` and its ``grad`` vector, sharing one forward pass."""
    values = _tape(expr).forward(point)
    g = grad(expr, wrt, point, values=values)
    return values[-1], g
