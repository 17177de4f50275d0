"""MCMC transition kernels and ``Packer``, the flat-vector log density that
Slice, the gradient kernels, the Hessian scaling and ``find_map`` evaluate.

All kernels are pure functions of (state, point, rng stream): with the same
seed a chain reproduces bit-for-bit.  One kernel instance serves one chain.
``clone()`` deep-copies a kernel, its adaptation state included, and shares
only the model.  ``sample()`` steps only clones, so the kernels it is given
stay unstepped and every chain starts fresh; a kernel stepped by hand before
``sample()`` carries its tuned state into every chain.

``step(point, rng, tuning, known)`` returns the next point and ``known``, the
(log density, packed gradient or None, names or None) evaluated there, which
the next step, handed it, uses in place of evaluating its start (a gradient
only over its own names), to the same bits.  A Metropolis step that moves no
coordinate hands back the ``known`` it was given, so a gradient in it serves
the next gradient kernel.  Hmc and Nuts step ``leapfrog`` nodes and make
every accept, slice and stop decision from ``GradientStep._energy``.  Every
kernel takes a log density or energy that is not finite as -inf
(``_or_neg_inf``); Hmc and Nuts step under the tape's errstate, so an energy
overflow warns nothing.
"""

from __future__ import annotations

import copy
import math
from collections import namedtuple
from typing import Mapping, Sequence

import numpy as np

from .exceptions import (
    NoGradient,
    NonFiniteLogp,
    StepTargets,
)
from .graph import Point, _count, _positive, _quiet, point_value
from .model import Model, finite_logp


class Packer:
    """The named sampling coordinates of a model as one flat vector, laid out
    as ``Model.dlogp`` lays out the gradient; ``names`` are resolved as
    ``Model.resolve_names`` does.  Every other coordinate is held at the base
    point: ``start`` overlaid on the test point, until ``rebase``.  An
    integer variable among ``names`` raises ``NoGradient``."""

    def __init__(self, model: Model, names: Sequence[str], start: Mapping | None = None):
        self.model = model
        self.names = model.resolve_names(names)
        for n in self.names:
            if model.var(n).dtype == "int":
                raise NoGradient(f"cannot target integer variable {n!r}")
        self.shapes = [model.var(n).shape for n in self.names]
        self.sizes = [int(np.prod(s, dtype=int)) if s else 1 for s in self.shapes]
        self.offsets = np.cumsum([0] + self.sizes).tolist()
        self.size = self.offsets[-1]
        self.start = self.rebase(model.initial_point(start))

    def rebase(self, point: Mapping) -> np.ndarray:
        """Hold the other coordinates at ``point`` from now on; returns the
        vector of ``point``."""
        self._base = dict(point)
        out = np.empty(self.size)
        for name, shape, size, off in zip(self.names, self.shapes, self.sizes, self.offsets):
            out[off:off + size] = point_value(point, name, shape, "float",
                                              "sampling coordinate").reshape(size)
        return out

    def point(self, vec: np.ndarray) -> Point:
        return self._views(vec.copy())

    def _views(self, vec: np.ndarray) -> Point:
        """``point(vec)`` with views of ``vec``: the tape copies what it keeps."""
        out = dict(self._base)
        for name, shape, size, off in zip(self.names, self.shapes, self.sizes, self.offsets):
            out[name] = vec[off:off + size].reshape(shape)
        return out

    def logp(self, vec: np.ndarray) -> float:
        return self.model.logp(self._views(vec))

    def logp_grad(self, vec: np.ndarray) -> tuple[float, np.ndarray]:
        return self.model.logp_and_dlogp(self._views(vec), self.names)


# --- Hessian-based scaling --------------------------------------------------

def hessian(model: Model, point: Mapping | None = None,
            vars: Sequence[str] | None = None) -> np.ndarray:
    """Unclipped negative Hessian of the log posterior at ``point`` (the test
    point when omitted), over ``vars`` (default: the continuous variables).
    Row i is the central difference of the reverse-mode gradient along
    coordinate i; the matrix is symmetric up to the differencing error.  A
    point whose log posterior is not finite raises ``NonFiniteLogp``."""
    names = model.continuous_names() if vars is None else model.resolve_names(vars)
    packer = Packer(model, names, point)
    finite_logp(packer.logp(packer.start), "the scaling point")
    x = packer.start
    rows = np.empty((packer.size, packer.size))
    for i in range(packer.size):
        h = 1e-4 * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rows[i] = (packer.logp_grad(xp)[1] - packer.logp_grad(xm)[1]) / (2.0 * h)
    return -rows


def hessian_diag(model: Model, point: Mapping | None = None,
                 vars: Sequence[str] | None = None) -> np.ndarray:
    """The diagonal of ``hessian(model, point, vars)``."""
    return np.diag(hessian(model, point, vars)).copy()


def _metric(h: np.ndarray):
    """(inverse mass, momentum factor) of the mass that a square matrix ``h``
    gives, as matrices.  ``h`` is symmetrised and eigendecomposed, and the
    mass is the matrix of its absolute eigenvalues floored at 1e-8 (an
    indefinite Hessian becomes positive definite)."""
    lam, vecs = np.linalg.eigh(0.5 * (h + h.T))
    lam = np.maximum(np.abs(lam), 1e-8)
    return (vecs / lam) @ vecs.T, (vecs * np.sqrt(lam)).T


# --- leapfrog ----------------------------------------------------------------

_Node = namedtuple("_Node", "q p lp grad")  # one trajectory state


def leapfrog(logp_grad, q, p, eps, inv_mass, grad_q):
    """One leapfrog step on flat vectors: ``logp_grad(q)`` returns the log
    density and its gradient, as ``Packer.logp_grad`` does; ``inv_mass`` is
    the inverse mass, a symmetric square matrix; ``grad_q`` is the gradient
    at ``q``.  Returns the ``_Node`` (q, p, lp, grad) at the end."""
    p_half = p + 0.5 * eps * grad_q
    q_new = q + (eps * p_half) @ inv_mass
    lp_new, g_new = logp_grad(q_new)
    return _Node(q_new, p_half + 0.5 * eps * g_new, lp_new, g_new)


# --- step method base ---------------------------------------------------------

class StepMethod:
    """A kernel gives ``step(point, rng, tuning=False, known=None)``, which
    returns ``(point, known)`` (see the module docstring)."""

    def __init__(self, model: Model, vars=None):
        model.finalize()
        self.model = model
        self.vars = (list(self._default_vars(model)) if vars is None
                     else model.resolve_names(vars))

    def _default_vars(self, model):
        return model.sampling_names()

    def _checked(self, lp: float) -> float:
        """``lp``, the log density at a step's start; ``NonFiniteLogp`` unless finite."""
        return finite_logp(lp, f"the start of a {type(self).__name__} step")

    def clone(self) -> "StepMethod":
        return copy.deepcopy(self, {id(self.model): self.model})


def _or_neg_inf(lp: float) -> float:
    """``lp``, or -inf where it is not finite: no kernel moves to such a point."""
    return lp if math.isfinite(lp) else -math.inf


def _int_move(x: int, delta: float) -> int | None:
    """``x`` plus ``delta`` rounded to the nearest integer, ties away from
    zero, or None where the sum leaves int64."""
    delta = min(max(delta, -2.0 ** 64), 2.0 ** 64)  # no sum from int64 this far lands in it
    step = math.floor(abs(delta) + 0.5)
    out = x + step if delta >= 0.0 else x - step
    return out if -2 ** 63 <= out < 2 ** 63 else None


class Metropolis(StepMethod):
    """Random-walk Metropolis with a Gaussian proposal sd per coordinate.

    A step first moves the block's d_c continuous coordinates together: one
    joint proposal and one accept/reject.  Then each integer coordinate, in
    block order, gets its own proposal, its Gaussian move rounded to the
    nearest integer (ties away from zero), and its own accept/reject (a
    Metropolis-within-Gibbs sweep; Roberts & Rosenthal, JCGS 2009).  A move
    that rounds to 0 is no proposal, and one that leaves int64 is rejected;
    neither evaluates the log density.  So a step costs one log density if
    d_c > 0, plus at most one per integer coordinate.  ``last_accepted`` is
    whether the step moved any coordinate; a step that moved none returns
    the ``known`` it was handed.

    Every sd starts at ``scale``.  Tuning steps feed the chain's state to
    Welford's running mean and variance of each coordinate; from the
    ``ADAPT_AFTER``-th tuning step on, each sd is a factor times the
    coordinate's sd over the tuning steps so far: 2.38 / sqrt(d_c) for a
    continuous coordinate (Roberts, Gelman & Gilks, Ann. Appl. Probab. 1997;
    Haario, Saksman & Tamminen, Bernoulli 2001) and 2.38, at least 1, for an
    integer one.  A coordinate that has not moved keeps its sd, and outside
    tuning steps no sd changes.
    """

    ADAPT_AFTER = 50

    def __init__(self, model, vars=None, scale=1.0):
        super().__init__(model, vars)
        self.scale = _positive("proposal scale", scale)
        self._sd = [np.full(model.var(n).shape, self.scale) for n in self.vars]
        self._int = [model.var(n).dtype == "int" for n in self.vars]
        self._d_c = sum(sd.size for sd, i in zip(self._sd, self._int) if not i)
        joint = 2.38 / math.sqrt(max(self._d_c, 1))
        self._factor = [2.38 if i else joint for i in self._int]
        self._n = 0  # tuning steps so far; their running mean and sum of squares follow
        self._mean = [np.zeros(sd.shape) for sd in self._sd]
        self._m2 = [np.zeros(sd.shape) for sd in self._sd]
        self.last_accepted = False

    def step(self, point, rng, tuning=False, known=None):
        lp = self._checked(self.model.logp(point) if known is None else known[0])
        moved = False
        if self._d_c:
            proposal = dict(point)
            for name, sd, is_int in zip(self.vars, self._sd, self._int):
                if not is_int:
                    x = point_value(point, name, sd.shape, "float", "sampling coordinate")
                    # a ufunc on 0-d arrays returns a scalar; keep the proposal an array
                    proposal[name] = np.asarray(x + sd * rng.standard_normal(sd.shape))
            lp_new = _or_neg_inf(self.model.logp(proposal))
            if np.log(rng.random()) < lp_new - lp:
                point, lp, moved = proposal, lp_new, True
        for name, sd, is_int in zip(self.vars, self._sd, self._int):
            if not is_int:
                continue
            x = point_value(point, name, sd.shape, "int", "sampling coordinate")
            deltas = (sd * rng.standard_normal(sd.shape)).ravel().tolist()
            for i, (old, delta) in enumerate(zip(x.ravel().tolist(), deltas)):
                value = _int_move(old, delta)
                if value is None or value == old:
                    continue
                new = x.copy()
                new.flat[i] = value
                proposal = {**point, name: new}
                lp_new = _or_neg_inf(self.model.logp(proposal))
                if np.log(rng.random()) < lp_new - lp:
                    point, x, lp, moved = proposal, new, lp_new, True
        self.last_accepted = moved
        if tuning:
            self._learn(point)
        return point, (lp, None, None) if moved or known is None else known

    def _learn(self, point):
        """Feed ``point`` to the running moments; refresh the sds from
        ``ADAPT_AFTER`` tuning steps on."""
        self._n += 1
        for k, name in enumerate(self.vars):
            dx = point[name] - self._mean[k]
            self._mean[k] += dx / self._n
            self._m2[k] += dx * (point[name] - self._mean[k])
            if self._n >= self.ADAPT_AFTER:
                sd = np.maximum(self._factor[k] * np.sqrt(self._m2[k] / self._n),
                                float(self._int[k]))
                self._sd[k] = np.where(self._m2[k] > 0.0, sd, self._sd[k])


class Slice(StepMethod):
    """Univariate slice sampler with fixed-width stepping out and shrinkage
    (Neal, arXiv:physics/0009028, Fig. 3), applied to each coordinate of the
    ``Packer`` vector of its targets in turn.  Both ends of the interval move
    out by the coordinate's width, at most ``MAX_EXPANSIONS`` times each, so
    the step is reversible and exact while neither end reaches that bound.
    Each width starts at ``width``; after each tuning step it becomes twice
    the coordinate's mean absolute move over the tuning steps so far, and a
    coordinate that has not moved keeps its width."""

    MAX_EXPANSIONS = 1000
    width = 1.0

    def __init__(self, model, vars=None):
        super().__init__(model, vars)
        self.packer = Packer(model, self.vars)
        self._moved = np.zeros(self.packer.size)  # summed |move| over the tuning steps
        self._tuned = 0  # tuning steps so far

    def _default_vars(self, model):
        return model.continuous_names()

    def step(self, point, rng, tuning=False, known=None):
        q = self.packer.rebase(point)
        q0 = q.copy()
        views = self.packer._views(q)  # the point of ``q``, written through ``q``
        lp = self._checked(self.model.logp(views) if known is None else known[0])
        for i in range(self.packer.size):
            lp = self._update_coord(q, views, i, lp, rng)
        if tuning:
            self._tuned += 1
            self._moved += np.abs(q - q0)
        return self.packer.point(q), (lp, None, None)

    def _coord_logp(self, q, views, i, value):
        q[i] = value
        return _or_neg_inf(self.model.logp(views))

    def _update_coord(self, q, views, i, lp, rng):
        x0 = float(q[i])
        moved = float(self._moved[i])
        w = 2.0 * moved / self._tuned if moved > 0.0 else self.width
        log_u = lp + math.log(rng.random())
        left = x0 - w * rng.random()
        right = left + w

        for _ in range(self.MAX_EXPANSIONS):
            if self._coord_logp(q, views, i, left) <= log_u:
                break
            left -= w
        for _ in range(self.MAX_EXPANSIONS):
            if self._coord_logp(q, views, i, right) <= log_u:
                break
            right += w

        while True:
            x1 = left + (right - left) * rng.random()
            lp1 = self._coord_logp(q, views, i, x1)
            if lp1 >= log_u:
                return lp1
            if x1 > x0:
                right = x1
            elif x1 < x0:
                left = x1
            if right - left < 1e-300:
                # degenerate shrink: the current point is always in the slice
                return self._coord_logp(q, views, i, x0)


class GradientStep(StepMethod):
    """Shared machinery for HMC-family kernels: packing, the checked start of
    a step, the energy, and the mass matrix from ``scaling``, a point
    (default: the test point).  ``_metric`` turns the negative Hessian there
    (``hessian``) into a dense mass with its absolute eigenvalues floored at
    1e-8: momentum is drawn through ``V sqrt(|L|)`` of ``V L V'``, and the
    kinetic energy and the position update use the inverse mass.  The energy
    of a node, ``logp(q) - p'M^-1 p / 2``, is -inf wherever it is not finite,
    so a non-finite proposal is never accepted."""

    def __init__(self, model, vars=None, scaling=None):
        super().__init__(model, vars)
        self.packer = Packer(model, self.vars)
        if scaling is not None and not isinstance(scaling, Mapping):
            raise ValueError("scaling must be None (the test point) or a point, "
                             f"got {scaling!r}")
        h = hessian(model, scaling, self.vars)
        if not np.all(np.isfinite(h)):
            raise NonFiniteLogp(f"Hessian at the scaling point is not finite: {h}")
        self.inv_mass, self._root = _metric(h)

    def _start(self, point, known):
        """(q, logp, gradient) at ``point``, which becomes the base point.
        ``known`` stands in for the evaluation when it holds a gradient over
        this kernel's names; the checks below run either way."""
        q = self.packer.rebase(point)
        if known is not None and known[2] == self.packer.names:
            lp, g = known[:2]
        else:
            lp, g = self.packer.logp_grad(q)
        self._checked(lp)
        if not np.all(np.isfinite(g)):
            raise NonFiniteLogp(f"{type(self).__name__} started at a point with "
                                "non-finite gradient")
        return q, lp, g

    def _finish(self, node: _Node):
        """The point of ``node`` and its log density and gradient as ``known``."""
        return self.packer.point(node.q), (node.lp, node.grad, self.packer.names)

    def _momentum(self, rng):
        return rng.standard_normal(self.packer.size) @ self._root

    def _kinetic(self, p):
        return 0.5 * float(np.dot(p @ self.inv_mass, p))

    def _energy(self, node: _Node) -> float:
        """``node.lp`` less the kinetic energy of ``node.p``; -inf unless finite."""
        return _or_neg_inf(node.lp - self._kinetic(node.p))


class Hmc(GradientStep):
    """Plain Hamiltonian Monte Carlo with a fixed step size and path length.
    ``scaling`` is a point, as in ``GradientStep``.
    ``step_size`` must be finite and positive, ``n_steps`` at least 1."""

    def __init__(self, model, vars=None, scaling=None, step_size=0.25, n_steps=4):
        super().__init__(model, vars, scaling)
        self.step_size = _positive("step_size", step_size)
        self.n_steps = _count("n_steps", n_steps, 1)

    @_quiet
    def step(self, point, rng, tuning=False, known=None):
        q, lp, g = self._start(point, known)
        start = node = _Node(q, self._momentum(rng), lp, g)
        for _ in range(self.n_steps):
            node = leapfrog(self.packer.logp_grad, node.q, node.p, self.step_size,
                            self.inv_mass, node.grad)
        accept = np.log(rng.random()) < self._energy(node) - self._energy(start)
        return self._finish(node if accept else start)


def no_uturn(dq: np.ndarray, p_minus: np.ndarray, p_plus: np.ndarray) -> bool:
    """Doubling may continue while the momentum at both trajectory ends still
    points along the span dq = q_plus - q_minus; p . dq <= 0 at either end
    stops it."""
    return float(np.dot(dq, p_minus)) > 0.0 and float(np.dot(dq, p_plus)) > 0.0


class Nuts(GradientStep):
    """No-U-Turn sampler: dynamic trajectory doubling with slice selection and
    dual-averaging step-size adaptation during warm-up.  ``scaling`` is a
    point, as in ``GradientStep``; the U-turn check reads the momenta,
    ``no_uturn(dq, p-, p+)``.

    ``step_size`` is the first step size, 0.25 / max(d, 1)**0.25 for d
    sampling coordinates when omitted, and dual averaging shrinks towards
    log(10 * step_size) with strength ``gamma``; both must be finite and
    positive.  The other settings are the fixed values of Hoffman & Gelman
    (arXiv:1111.4246): warm-up aims at a mean acceptance statistic of
    ``target_accept`` = 0.8 with ``t0`` = 10 and ``kappa`` = 0.75, after
    which the step size is frozen at exp(log_eps_bar); a tree stops after
    ``max_depth`` = 10 doublings, or when the energy error exceeds
    ``max_energy_error`` = 1000.
    """

    target_accept = 0.8
    t0 = 10.0
    kappa = 0.75
    max_depth = 10
    max_energy_error = 1000.0

    def __init__(self, model, vars=None, scaling=None, step_size=None, gamma=0.05):
        super().__init__(model, vars, scaling)
        self.step_size = (0.25 / max(self.packer.size, 1) ** 0.25 if step_size is None
                          else _positive("step_size", step_size))
        self.gamma = _positive("gamma", gamma)
        self._mu = math.log(10.0 * self.step_size)
        self._h_bar = 0.0
        self._log_eps_bar = 0.0
        self._m = 0
        self.last_accept_stat = None
        self.last_depth = 0

    def _build_tree(self, start, log_u, direction, depth, eps, h0, rng):
        """2**depth leapfrog steps from ``start``.  Returns ([left, right],
        proposal, n_valid, keep_going, alpha, n_alpha)."""
        if depth == 0:
            node = leapfrog(self.packer.logp_grad, start.q, start.p,
                            direction * eps, self.inv_mass, start.grad)
            h = self._energy(node)
            n_valid = int(log_u <= h)
            keep = h - log_u > -self.max_energy_error
            return [node, node], node, n_valid, keep, math.exp(min(h - h0, 0.0)), 1

        ends, prop, n1, keep, alpha, n_alpha = self._build_tree(
            start, log_u, direction, depth - 1, eps, h0, rng)
        if keep:
            edge = direction > 0
            more, prop2, n2, keep2, alpha2, n_alpha2 = self._build_tree(
                ends[edge], log_u, direction, depth - 1, eps, h0, rng)
            ends[edge] = more[edge]
            if n2 > 0 and rng.random() < n2 / (n1 + n2):
                prop = prop2
            keep = keep2 and no_uturn(ends[1].q - ends[0].q, ends[0].p, ends[1].p)
            n1 += n2
            alpha += alpha2
            n_alpha += n_alpha2
        return ends, prop, n1, keep, alpha, n_alpha

    @_quiet
    def step(self, point, rng, tuning=False, known=None):
        q, lp, g = self._start(point, known)
        eps = self.step_size if (tuning or self._m == 0) else math.exp(self._log_eps_bar)

        chosen = _Node(q, self._momentum(rng), lp, g)
        h0 = self._energy(chosen)
        log_u = h0 + math.log(rng.random())
        ends = [chosen, chosen]
        n = 1
        depth = 0
        alpha, n_alpha = 0.0, 1
        keep = True
        while keep and depth < self.max_depth:
            direction = 1 if rng.random() < 0.5 else -1
            edge = direction > 0
            more, prop, n_new, keep_sub, alpha, n_alpha = self._build_tree(
                ends[edge], log_u, direction, depth, eps, h0, rng)
            ends[edge] = more[edge]
            if keep_sub and n_new > 0 and rng.random() < min(1.0, n_new / n):
                chosen = prop
            n += n_new
            keep = keep_sub and no_uturn(ends[1].q - ends[0].q, ends[0].p, ends[1].p)
            depth += 1
        self.last_depth = depth
        self.last_accept_stat = alpha / n_alpha

        if tuning:
            self._m += 1
            eta = 1.0 / (self._m + self.t0)
            self._h_bar = (1.0 - eta) * self._h_bar + eta * (self.target_accept
                                                             - self.last_accept_stat)
            log_eps = self._mu - math.sqrt(self._m) / self.gamma * self._h_bar
            w = self._m ** (-self.kappa)
            self._log_eps_bar = w * log_eps + (1.0 - w) * self._log_eps_bar
            self.step_size = math.exp(log_eps)

        return self._finish(chosen)


def validate_coverage(model: Model, steps: Sequence[StepMethod]) -> None:
    """Union of step targets must cover every free variable, with no overlaps."""
    seen: set[str] = set()
    for s in steps:
        dup = seen.intersection(s.vars)
        if dup:
            raise StepTargets(f"variables targeted twice: {sorted(dup)}")
        seen.update(s.vars)
    missing = [n for n in model.sampling_names() if n not in seen]
    if missing:
        raise StepTargets(f"no step method targets {missing[0]!r}")
