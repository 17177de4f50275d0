"""Per-layer numbers from the spans of traced demo calls.

``instrument`` names the wrapped boundaries; each is patched where its caller
looks it up.  ``call_totals`` reduces one call's spans to additive totals and
``layer_metrics`` turns the totals of a run's traced calls into the metrics
listed under ``per_layer`` in BENCHMARK.json.
"""

from __future__ import annotations

import statistics

from miniprob import backends, cli, demos, graph, model, samplers

from tracing import Span, self_times

MAP = "inference.find_map"
SAMPLE = "inference.sample"
HESSIAN = "samplers.hessian_diag"
NUTS = "samplers.nuts_step"
METROPOLIS = "samplers.metropolis_step"
KERNELS = (NUTS, METROPOLIS)
LOGP = "model.logp"
GRADS = ("model.logp_and_dlogp", "model.dlogp")
VALUE_AND_GRAD = "graph.value_and_grad"
EVAL = "graph.eval_expr"


def _tuning(args) -> bool:
    # Kernels are called as step(point, rng, tuning)
    return bool(args[3]) if len(args) > 3 else False


def _nuts_stats(span, args, _result):
    kernel = args[0]
    span.attrs.update(kernel=id(kernel), tuning=_tuning(args), depth=kernel.last_depth,
                      max_depth=kernel.max_depth, accept=kernel.last_accept_stat)


def _metropolis_stats(span, args, _result):
    kernel = args[0]
    span.attrs.update(kernel=id(kernel), tuning=_tuning(args),
                      accepted=kernel.last_accepted)


def instrument(tracer) -> None:
    """Wrap each layer boundary of the demo path under its span name."""
    tracer.wrap(demos, "find_map", MAP)
    tracer.wrap(demos, "sample", SAMPLE)
    tracer.wrap(samplers, "hessian_diag", HESSIAN)
    tracer.wrap(samplers.Nuts, "step", NUTS, _nuts_stats)
    tracer.wrap(samplers.Metropolis, "step", METROPOLIS, _metropolis_stats)
    tracer.wrap(model.Model, "logp", LOGP)
    tracer.wrap(model.Model, "logp_and_dlogp", GRADS[0])
    tracer.wrap(model.Model, "dlogp", GRADS[1])
    tracer.wrap(model.Model, "expand_point", "model.expand_point")
    tracer.wrap(model, "eval_expr", EVAL)
    tracer.wrap(graph, "value_and_grad", VALUE_AND_GRAD)
    tracer.wrap(graph, "grad", "graph.grad")
    tracer.wrap(backends.TextBackend, "record", "backends.record")
    tracer.wrap(backends, "load", "backends.load")
    tracer.wrap(cli, "summary", "stats.summary")
    tracer.wrap(cli, "write_plot_data", "stats.write_plot_data")


def count_gradients(counter) -> None:
    """Untraced runs count gradient evaluations for the fingerprint only."""
    for attr in ("logp_and_dlogp", "dlogp"):
        counter.wrap(model.Model, attr, "grad")


def logp_nodes(m) -> int:
    return len(graph.topo_order(m.logp_graph))


def grad_calls(spans: list[Span]) -> int:
    return sum(s.name in GRADS for s in spans)


def call_totals(spans: list[Span], wall_s: float, bytes_written: int) -> dict:
    """Additive totals of one traced call; ``iter_ns`` lists the kernel time
    of every sampler iteration."""
    self_ns = self_times(spans)
    # nearest enclosing phase (MAP, scaling, kernel step) of every span;
    # a parent always precedes its children in the list
    phase: list[str | None] = []
    for s in spans:
        p = s.parent
        phase.append(None if p < 0 else
                     spans[p].name if spans[p].name in (MAP, HESSIAN) + KERNELS
                     else phase[p])

    t = dict.fromkeys([
        "fwd_n", "fwd_ns", "bwd_n", "bwd_ns", "graph_ns",
        "logp_n", "grad_n", "expand_n", "expand_ns",
        "nuts_n", "nuts_grad_n", "nuts_self_ns", "depth_sum", "max_depth_n", "accept_sum",
        "metropolis_n", "accepted_n", "iterations", "scaling_ns", "scaling_grad_n",
        "map_ns", "map_evals", "warmup_ns", "draws_ns", "loop_self_ns",
        "rows", "record_ns", "load_ns", "summary_ns", "plot_ns"], 0)
    t.update(calls=1, wall_ns=wall_s * 1e9, bytes_written=bytes_written, iter_ns=[])
    kernel_children: dict[int, list[Span]] = {}

    for i, s in enumerate(spans):
        name, dur = s.name, s.duration
        parent = spans[s.parent].name if s.parent >= 0 else None
        if name.startswith("graph.") and not (parent or "").startswith("graph."):
            t["graph_ns"] += dur
        if name == VALUE_AND_GRAD:  # its forward pass is its own time
            t["fwd_n"] += 1
            t["fwd_ns"] += self_ns[i]
        elif name == EVAL:
            t["fwd_n"] += 1
            t["fwd_ns"] += dur
        elif name == "graph.grad" and parent == VALUE_AND_GRAD:
            t["bwd_n"] += 1
            t["bwd_ns"] += dur
        elif name == LOGP or name in GRADS:
            t["logp_n" if name == LOGP else "grad_n"] += 1
            if phase[i] == MAP:
                t["map_evals"] += 1
            elif phase[i] == HESSIAN and name in GRADS:
                t["scaling_grad_n"] += 1
            elif phase[i] == NUTS and name == GRADS[0]:
                t["nuts_grad_n"] += 1
        elif name == "model.expand_point":
            t["expand_n"] += 1
            t["expand_ns"] += dur
        elif name == NUTS:
            t["nuts_n"] += 1
            t["nuts_self_ns"] += self_ns[i]
            t["depth_sum"] += s.attrs["depth"]
            t["max_depth_n"] += s.attrs["depth"] >= s.attrs["max_depth"]
            t["accept_sum"] += s.attrs["accept"]
        elif name == METROPOLIS:
            t["metropolis_n"] += 1
            t["accepted_n"] += s.attrs["accepted"]
        elif name == HESSIAN:
            t["scaling_ns"] += dur
        elif name == MAP:
            t["map_ns"] += dur
        elif name == SAMPLE:
            t["loop_self_ns"] += self_ns[i]
        elif name == "backends.record":
            t["rows"] += 1
            t["record_ns"] += dur
        elif name == "backends.load":
            t["load_ns"] += dur
        elif name == "stats.summary":
            t["summary_ns"] += dur
        elif name == "stats.write_plot_data":
            t["plot_ns"] += dur
        if name in KERNELS and parent == SAMPLE:
            kernel_children.setdefault(s.parent, []).append(s)

    for p, steps in kernel_children.items():
        # every iteration calls each kernel once, in the same order
        k = len({s.attrs["kernel"] for s in steps})
        for j in range(0, len(steps), k):
            t["iter_ns"].append(sum(s.duration for s in steps[j:j + k]))
        t["iterations"] += len(steps) // k
        first_draw = next((s.start for s in steps if not s.attrs["tuning"]), spans[p].end)
        t["warmup_ns"] += first_draw - spans[p].start
        t["draws_ns"] += spans[p].end - first_draw
    return t


def add_totals(a: dict, b: dict) -> dict:
    return {k: a[k] + b[k] for k in a}


def layer_metrics(t: dict, nodes: int, overhead_s: float) -> dict:
    """Metrics of a run from the summed totals of its ``t["calls"]`` traced
    calls: counts and seconds per call, microseconds per unit of work."""
    calls = t["calls"]

    def per(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    fwd_us = per(t["fwd_ns"], t["fwd_n"], 1e-3)
    bwd_us = per(t["bwd_ns"], t["bwd_n"], 1e-3)
    cuts = statistics.quantiles(t["iter_ns"], n=100) if len(t["iter_ns"]) > 1 else [0.0] * 99
    return {
        "graph.nodes": (nodes, "count"),
        "graph.fwd_calls": (per(t["fwd_n"], calls), "count"),
        "graph.fwd_us": (fwd_us, "us"),
        "graph.fwd_us_per_node": (per(fwd_us, nodes), "us"),
        "graph.bwd_calls": (per(t["bwd_n"], calls), "count"),
        "graph.bwd_us": (bwd_us, "us"),
        "graph.bwd_us_per_node": (per(bwd_us, nodes), "us"),
        "graph.share": (per(t["graph_ns"], t["wall_ns"]), "fraction"),
        "model.logp_calls": (per(t["logp_n"], calls), "count"),
        "model.grad_calls": (per(t["grad_n"], calls), "count"),
        "model.expand_point_us": (per(t["expand_ns"], t["expand_n"], 1e-3), "us"),
        "samplers.grad_evals_per_draw": (per(t["nuts_grad_n"], t["nuts_n"]), "count"),
        "samplers.nuts_depth_mean": (per(t["depth_sum"], t["nuts_n"]), "count"),
        "samplers.nuts_max_depth_frac": (per(t["max_depth_n"], t["nuts_n"]), "fraction"),
        "samplers.nuts_accept_stat_mean": (per(t["accept_sum"], t["nuts_n"]), "fraction"),
        "samplers.metropolis_accept_rate": (per(t["accepted_n"], t["metropolis_n"]),
                                            "fraction"),
        "samplers.step_ms_p50": (cuts[49] * 1e-6, "ms"),
        "samplers.step_ms_p99": (cuts[98] * 1e-6, "ms"),
        "samplers.nuts_self_us_per_draw": (per(t["nuts_self_ns"], t["nuts_n"], 1e-3), "us"),
        "samplers.scaling_s": (per(t["scaling_ns"], calls, 1e-9), "s"),
        "samplers.scaling_grad_evals": (per(t["scaling_grad_n"], calls), "count"),
        "inference.map_s": (per(t["map_ns"], calls, 1e-9), "s"),
        "inference.map_evals": (per(t["map_evals"], calls), "count"),
        "inference.warmup_s": (per(t["warmup_ns"], calls, 1e-9), "s"),
        "inference.draws_s": (per(t["draws_ns"], calls, 1e-9), "s"),
        "inference.loop_self_us_per_draw": (per(t["loop_self_ns"], t["iterations"], 1e-3),
                                            "us"),
        "backends.rows": (per(t["rows"], calls), "count"),
        "backends.bytes_written": (per(t["bytes_written"], calls), "bytes"),
        "backends.record_us_per_row": (per(t["record_ns"], t["rows"], 1e-3), "us"),
        "backends.load_s": (per(t["load_ns"], calls, 1e-9), "s"),
        "backends.load_us_per_row": (per(t["load_ns"], t["rows"], 1e-3), "us"),
        "stats.summary_s": (per(t["summary_ns"], calls, 1e-9), "s"),
        "stats.plotdata_s": (per(t["plot_ns"], calls, 1e-9), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
