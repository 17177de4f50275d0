"""Model container: free/observed/deterministic variables and the joint
log posterior over the transformed (unconstrained) space.

A free variable is sampled through its family's own transform (a log
transform for positive families, a log-odds one for ``Uniform``, none for
real-valued and discrete ones).  One rule checks every test value before the
variable is registered: it must be finite (and integral for an int dtype),
inside the transform's domain, and give the variable's own term a finite log
density.  The joint log posterior is the sum of all prior terms (with
Jacobian corrections) and observed likelihood terms; terms are summed in name
order so registration order cannot change the result.
``finalize`` freezes the model and lists the trace columns as expressions; a
row evaluates all but the sampling inputs with ``eval_expr``, as logp does.
"""

from __future__ import annotations

import math
import reprlib
from typing import Mapping, Sequence

import numpy as np

from . import graph
from .backends import claim_columns
from .distributions import Distribution
from .exceptions import (
    DataError,
    DuplicateName,
    ModelFrozen,
    NonFiniteLogp,
    OutsideSupport,
    ShapeMismatch,
    UnknownVariable,
)
from .graph import Expr, Point, as_dtype, as_shape, const, eval_expr, free_input, point_value


def finite_logp(lp: float, where: str) -> float:
    """``lp``, a log posterior at ``where``; ``NonFiniteLogp`` unless it is finite."""
    if not math.isfinite(lp):
        raise NonFiniteLogp(f"log posterior is {lp} at {where}")
    return lp


class FreeVar:
    """A sampled variable: dtype, optional transform, sampling-space test value."""

    def __init__(self, name, dist, shape, transform, testval):
        self.name = name
        self.shape = shape
        self.transform = transform
        self.dtype = dist.dtype
        self.sampling_testval = transform.forward(testval) if transform else testval
        self.sampling_name = transform.var_name(name) if transform else name
        self.input = free_input(self.sampling_name, shape, dtype=self.dtype)
        self.value = transform.backward_expr(self.input) if transform else self.input

    def __repr__(self):
        return f"FreeVar({self.name!r}, shape={self.shape})"


class Model:
    """Registry of random variables plus the joint log-posterior graph."""

    def __init__(self):
        self.free_vars: list[FreeVar] = []
        self.deterministics: list[tuple[str, Expr]] = []
        self._names: set[str] = set()
        self._terms: dict[str, Expr] = {}
        self._test_point: Point = {}
        self._logp_graph: Expr | None = None  # set by ``finalize``, which freezes the model
        self._rows: list[tuple[str, Expr]] = []  # (name, expression) per trace column
        self._var_index: dict[str, FreeVar] = {}

    # --- registration ------------------------------------------------------

    def _claim_name(self, *columns):
        """Claim each (name, shape) and its trace columns by ``claim_columns``."""
        self._names.update(claim_columns(self._names, columns))

    def _check_open(self):
        if self._logp_graph is not None:
            raise ModelFrozen("model is finalized; no further variables can be added")

    def _testval(self, name: str, dist: Distribution, shape: tuple, testval) -> np.ndarray:
        """``testval``, or else the family's ``_centre``, broadcast to
        ``shape`` (else ``ShapeMismatch``) and read by ``as_dtype`` at the
        family's dtype; a value that is not finite raises ``OutsideSupport``."""
        if testval is None:
            testval = dist._centre(lambda expr: eval_expr(expr, self._test_point))
            if testval is None:
                raise OutsideSupport(f"{name}: a custom density has no default test value")
        try:
            testval = np.array(np.broadcast_to(testval, shape))
        except ValueError:
            raise ShapeMismatch(f"{name}: test value of shape {np.shape(testval)} does not "
                                f"broadcast to {shape}") from None
        try:
            if not np.all(np.isfinite(as_dtype(testval, "float", name))):
                raise OutsideSupport(f"test value {testval!r} is not finite")
            return as_dtype(testval, dist.dtype, name)
        except (ShapeMismatch, OutsideSupport) as e:
            raise OutsideSupport(f"{name}: {e}") from None

    def add_free(self, name: str, dist: Distribution, shape=(), testval=None) -> Expr:
        """Register a free variable sampled through ``dist.transform`` and
        return its value expression.  A rejected test value raises
        ``OutsideSupport``, or ``ShapeMismatch`` for a shape that does not
        broadcast, and leaves the model unchanged."""
        self._check_open()
        shape = as_shape(shape, name)
        testval = self._testval(name, dist, shape, testval)
        try:
            var = FreeVar(name, dist, shape, dist.transform, testval)
        except OutsideSupport as e:
            raise OutsideSupport(f"{name}: {e}") from None

        term = dist.logp_expr(var.value)
        if var.transform is not None:
            term = term + var.transform.log_jacobian_expr(var.input)
        point = {**self._test_point, var.sampling_name: np.asarray(var.sampling_testval)}
        tv_logp = float(eval_expr(term, point))
        if not np.isfinite(tv_logp):
            raise OutsideSupport(
                f"{name}: log density is {tv_logp} at the test value {testval!r}")
        self._claim_name((name, shape), *([(var.sampling_name, shape)] if var.transform else []))
        self._register_free(var, term)
        return var.value

    def _register_free(self, var: FreeVar, term: Expr | None):
        self.free_vars.append(var)
        self._var_index[var.name] = var
        self._var_index[var.sampling_name] = var
        if term is not None:
            self._terms[var.name] = term
        self._test_point[var.sampling_name] = np.asarray(var.sampling_testval)

    def add_observed(self, name: str, dist: Distribution, data, mask=None) -> None:
        self._check_open()
        data = as_dtype(data, dist.dtype, name)
        if mask is not None:
            mask = as_dtype(mask, "int", f"{name} mask")
            if mask.shape != data.shape or np.any((mask != 0) & (mask != 1)):
                raise ShapeMismatch(f"{name}: a mask holds 0/1 or bools in the data's shape "
                                    f"{data.shape}, got {reprlib.repr(mask.tolist())}")
            mask = mask == 1
            if mask.all():
                raise DataError(f"{name}: every entry is masked")
            if not mask.any():
                mask = None
        if not np.all(np.isfinite(data if mask is None else data[~mask])):
            raise OutsideSupport(f"{name}: data must be finite, got {reprlib.repr(data.tolist())}")

        miss_var = None
        if mask is None:
            term = dist.logp_expr(const(data))
        else:
            if data.ndim != 1:
                raise ShapeMismatch(f"{name}: masked data must be one-dimensional")
            miss_name = name + ".missing_values"
            n_miss = int(mask.sum())

            testval = self._testval(name, dist, data.shape, None)[mask]
            miss_var = FreeVar(miss_name, dist, (n_miss,), None, testval)
            # observed entries stay constants; masked entries read the free input
            composed = graph.concat([const(data[~mask]), miss_var.input])
            perm = np.empty(data.shape[0], dtype=np.int64)
            perm[~mask] = np.arange(data.shape[0] - n_miss)
            perm[mask] = data.shape[0] - n_miss + np.arange(n_miss)
            term = dist.logp_expr(composed[perm])
        # claimed only now, so that a rejected variable leaves its names free
        self._claim_name((name, ()), *([] if miss_var is None else [(miss_name, (n_miss,))]))
        if miss_var is not None:
            self._register_free(miss_var, None)
        self._terms[name] = term

    def add_deterministic(self, name: str, expr) -> Expr:
        """Trace ``expr`` under ``name``; returns it as an expression."""
        self._check_open()
        expr = graph.as_expr(expr)
        self._claim_name((name, expr.shape))
        self.deterministics.append((name, expr))
        return expr

    # --- finalization and evaluation ----------------------------------------

    def finalize(self) -> "Model":
        if self._logp_graph is not None:
            return self
        if self._terms:
            total = None
            for key in sorted(self._terms):
                t = self._terms[key]
                total = t if total is None else total + t
        else:
            total = const(0.0)
        self._logp_graph = total
        for v in self.free_vars:
            self._rows.append((v.sampling_name, v.input))
            if v.transform is not None:
                self._rows.append((v.name, v.value))
        self._rows += self.deterministics
        finite_logp(self.logp(self._test_point), "the test point")
        return self

    @property
    def logp_graph(self) -> Expr:
        self.finalize()
        return self._logp_graph

    def logp(self, point: Mapping) -> float:
        return float(eval_expr(self.logp_graph, point))

    def dlogp(self, point: Mapping, names: Sequence[str] | None = None) -> np.ndarray:
        """The gradient of ``logp`` at ``point`` over ``names`` (default: the
        continuous ones) as one new vector, laid out as ``graph.grad``'s."""
        return self.logp_and_dlogp(point, names)[1]

    def logp_and_dlogp(self, point: Mapping, names: Sequence[str] | None = None):
        """(``logp``, ``dlogp``) at ``point``, sharing one forward pass."""
        names = self.continuous_names() if names is None else self.resolve_names(names)
        value, g = graph.value_and_grad(self.logp_graph, names, point)
        return float(value), g

    # --- variable bookkeeping ------------------------------------------------

    def var(self, name: str) -> FreeVar:
        try:
            return self._var_index[name]
        except KeyError:
            raise UnknownVariable(f"no free variable named {name!r}") from None

    def resolve_names(self, names) -> list[str]:
        """The sampling names of ``names``, each once; a bare string is one name."""
        out = []
        for n in ([names] if isinstance(names, str) else names):
            v = self.var(n).sampling_name
            if v not in out:
                out.append(v)
        return out

    def sampling_names(self) -> list[str]:
        return [v.sampling_name for v in self.free_vars]

    def continuous_names(self) -> list[str]:
        return [v.sampling_name for v in self.free_vars if v.dtype == "float"]

    def initial_point(self, start: Mapping | None = None) -> Point:
        """Test point overlaid with ``start``; accepts transformed names or
        untransformed aliases (aliases are forward-transformed).  Given both,
        the alias must match the value that the sampling name gives it, as a
        trace row does, to a relative 1e-12, or ``DuplicateName`` is raised.
        Any other trace column (a deterministic) is ignored, and a key that
        names no column raises ``UnknownVariable``."""
        self.finalize()
        point = {k: np.array(v) for k, v in self._test_point.items()}
        if start:
            columns = {name for name, _ in self._rows}
            unknown = [k for k in start if k not in columns]
            if unknown:
                raise UnknownVariable(f"start names no variable: {', '.join(map(repr, unknown))}")
            for v in self.free_vars:
                if v.sampling_name in start:
                    raw = point_value(start, v.sampling_name, v.shape, v.dtype, "start value")
                elif v.transform is not None and v.name in start:
                    alias = point_value(start, v.name, v.shape, "float", "start value")
                    try:
                        raw = v.transform.forward(alias)
                    except OutsideSupport as e:
                        raise OutsideSupport(f"start value for {v.name!r}: {e}") from None
                else:
                    continue
                point[v.sampling_name] = np.array(raw)  # a copy, and a 0-d array, not a scalar
                if v.sampling_name in start and v.name in start and v.transform is not None:
                    alias = point_value(start, v.name, None, "float", "start value")
                    value = eval_expr(v.value, {v.sampling_name: point[v.sampling_name]})
                    if alias.shape != v.shape or not np.allclose(alias, value, rtol=1e-12,
                                                                 atol=0.0, equal_nan=True):
                        raise DuplicateName(f"start gives {v.sampling_name!r} and its alias "
                                            f"{v.name!r} values that disagree")
        return point

    # --- trace support ---------------------------------------------------------

    def trace_layout(self) -> list[tuple[str, tuple, str]]:
        """Ordered (name, shape, dtype) per trace column: each sampling
        coordinate and its untransformed alias, then the deterministics."""
        return [(name, expr.shape, expr.dtype) for name, expr in self.finalize()._rows]

    def expand_point(self, point: Mapping) -> Point:
        """The trace row of a sampling point: its sampling coordinates as
        ``point_value`` reads them, and the value of each alias and
        deterministic expression."""
        return {name: (point_value(point, name, expr.shape, expr.dtype, "sampling coordinate")
                       if expr.input_name == name else np.asarray(eval_expr(expr, point)))
                for name, expr in self.finalize()._rows}
