"""Interpretive reference evaluator for ``miniprob.graph``.

This is the node-by-node walk that evaluated every graph before each root was
compiled into a slot tape: values and adjoints live in dicts keyed by node
id, every node is dispatched through one ``if/elif`` chain on its kind, and
the backward pass pushes adjoints into every child.  Tests compare the tape
against it byte for byte, except that the sign and payload of a NaN are
unspecified: numpy's scalar forms, which the tape runs on 0-d slots, may give
other NaN bits than the 0-d arrays used here.  It computes each node with the
same numpy and ``scipy.special`` calls as the tape, but ``log_factorial``
entry by entry, from the exact integer k! up to 12!, and keeps its own copy
of the backward pass's elementwise NaN guard, so a mismatch points at input
reuse, pruning, scalar forms or summation order rather than at a kernel.
``grad`` returns one array per name, and ``pack`` lays such a dict out as
the tape's gradient vector.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from miniprob.exceptions import (
    NoGradient,
    ShapeMismatch,
)
from miniprob.graph import (
    Expr,
    Point,
    point_value,
    topo_order,
)

_BINARY = {"add", "sub", "mul", "div", "pow", "cmp_ge", "cmp_gt"}


def _guarded(adj, local):
    # dead-branch adjoints are exactly zero; 0 * inf or 0 * NaN gives +0.0
    prod = adj * local
    return np.where((adj == 0) & (prod != prod), 0.0, prod)


def _log_factorial(k):
    """log k! one entry at a time: the log of the exact integer k! up to 12!,
    above it lgamma(k + 1) by the series of cephes' lgam in float64 scalars,
    and +inf below 0."""
    def one(n: int) -> float:
        if n < 0:
            return np.inf
        if n <= 12:
            return math.log(math.factorial(n))
        x = np.float64(n) + 1.0
        p = 1.0 / (x * x)
        s = 8.11614167470508450300e-4
        for c in (-5.95061904284301438324e-4, 7.93650340457716943945e-4,
                  -2.77777777730099687205e-3, 8.33333333333331927722e-2):
            s = s * p + c
        return (x - 0.5) * np.log(x) - x + 0.91893853320467274178 + s / x
    k = np.asarray(k)
    return np.array([one(int(n)) for n in k.flat], dtype=np.float64).reshape(k.shape)[()]


def forward(expr: Expr, point: Mapping) -> dict[int, np.ndarray]:
    values: dict[int, np.ndarray] = {}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for node in topo_order(expr):
            k = node.kind
            if k == "constant":
                v = node.const_value
            elif k == "free_input":
                v = point_value(point, node.input_name, node.shape, node.dtype, "free input")
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
                v = special.gammaln(values[id(node.operands[0])])
            elif k == "sigmoid":
                v = special.expit(np.asarray(values[id(node.operands[0])], dtype=np.float64))
            elif k == "log_factorial":
                v = _log_factorial(values[id(node.operands[0])])
            elif k == "sum_all":
                v = np.asarray(np.sum(values[id(node.operands[0])]))
            elif k == "switch":
                c = values[id(node.operands[0])]
                v = np.where(c != 0,
                             values[id(node.operands[1])],
                             values[id(node.operands[2])])
            elif k == "index":
                v = values[id(node.operands[0])][node.payload]
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


def _grad_meta(order: list[Expr], wrt: Sequence[str]):
    key = frozenset(wrt)
    wanted: dict[str, Expr] = {}
    for node in order:
        if node.kind == "free_input" and node.input_name in key:
            if node.dtype == "int":
                raise NoGradient(
                    f"cannot differentiate through integer input {node.input_name!r}")
            wanted[node.input_name] = node
    reaches: set[int] = set()
    for node in order:
        if node.kind == "free_input" and node.input_name in key:
            reaches.add(id(node))
        elif any(id(c) in reaches for c in node.operands):
            reaches.add(id(node))
    return wanted, reaches


def grad(expr: Expr, wrt: Sequence[str], point: Mapping,
         values: dict[int, np.ndarray] | None = None) -> Point:
    if expr.shape != ():
        raise ShapeMismatch(f"objective has shape {expr.shape}, expected a scalar")
    order = topo_order(expr)
    wanted, reaches = _grad_meta(order, wrt)

    if values is None:
        values = forward(expr, point)

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
            if k in ("constant", "free_input", "cmp_ge", "cmp_gt", "log_factorial"):
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
                _acc(ops[0], _guarded(adj, special.psi(values[id(ops[0])])))
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
        if node is None:  # a name no node reads: zeros of its value's shape
            out[name] = np.zeros(np.shape(point[name]))
        else:
            a = adjoint.get(id(node))
            out[name] = np.zeros(node.shape) if a is None else np.broadcast_to(
                np.asarray(a, dtype=np.float64), node.shape).copy()
    return out


def pack(grads: Mapping, wrt: Sequence[str]) -> np.ndarray:
    """The gradient dict ``grads`` as ``miniprob.graph.grad`` returns it: one
    float64 vector of each name's array, raveled in C order, in ``wrt``
    order.  Every byte is copied, so the sign of zero survives, and NaN
    payloads survive too, though their bits are unspecified."""
    return np.concatenate([np.empty(0)] + [np.asarray(grads[n], dtype=np.float64).ravel()
                                           for n in wrt])


def value_and_grad(expr: Expr, wrt: Sequence[str], point: Mapping):
    values = forward(expr, point)
    g = grad(expr, wrt, point, values=values)
    return values[id(expr)], g
