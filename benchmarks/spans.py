"""Spans recorded around calls into the ``dce`` layers, and the per-layer
metrics computed from them.

A span is one timed call: its name (``<layer>.<function>``), wall start and
end, process CPU start and end, the index of the span that was open when it
began (its parent), the pass it belongs to, and a few counts. Spans stay in
memory and are written out once, when the run ends.

Tracing never edits ``src/``. ``wrap_layers`` replaces, for the duration of a
``with`` block, the names one ``dce`` module imports from another (the layer
boundaries listed in ``BOUNDARIES``) with timing wrappers, and wraps the
objective and gradient callables handed to the optimizer and the Hessian.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from pathlib import Path

# module -> names it imports from another dce module
BOUNDARIES = {
    "dce.mmnl": ("bfgs_minimize", "hessian_from_grad", "normal_draws", "estimate_mnl"),
    "dce.mnl": ("bfgs_minimize", "hessian_from_grad"),
    "dce.simulate": ("simulate_dataset", "code_dataset", "estimate_mnl", "estimate_mmnl"),
}


class Span:
    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent",
                 "pass_id", "attrs")

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "cpu_start": self.cpu_start, "cpu_end": self.cpu_end,
                "parent": self.parent, "pass": self.pass_id, "attrs": self.attrs}

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def cpu(self) -> float:
        return self.cpu_end - self.cpu_start


class _SpanContext:
    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer, span, index):
        self.tracer, self.span, self.index = tracer, span, index

    def __enter__(self) -> Span:
        self.tracer._stack.append(self.index)
        self.span.cpu_start = time.process_time()
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.span.cpu_end = time.process_time()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span recorder. A disabled tracer hands out throwaway spans
    so that the workload code is the same whether or not it is traced."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id: str | None = None

    def span(self, name: str, **attrs):
        s = Span()
        s.name, s.attrs, s.pass_id = name, attrs, self.pass_id
        s.parent = self._stack[-1] if self._stack else None
        if self.enabled:
            self.spans.append(s)
            return _SpanContext(self, s, len(self.spans) - 1)
        return _SpanContext(self, s, -1)

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": meta, "spans": [s.to_dict() for s in self.spans]}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _traced(tracer: Tracer, name: str, f):
    """``f`` with every call recorded as a span called ``name``."""
    def call(x):
        with tracer.span(name):
            return f(x)
    return call


def _wrap_bfgs(tracer: Tracer, layer: str, fn):
    def bfgs_minimize(fun, x0, options=None, callback=None):
        with tracer.span("numerics.bfgs_minimize", caller=layer) as s:
            res = fn(_traced(tracer, f"{layer}.objective", fun), x0, options, callback)
            s.attrs.update(iterations=int(res.iterations), evals=int(res.n_evals),
                           status=res.status)
        return res
    return bfgs_minimize


def _wrap_hessian(tracer: Tracer, layer: str, fn):
    def hessian_from_grad(grad_fun, x, *args, **kwargs):
        with tracer.span("numerics.hessian_from_grad", caller=layer):
            return fn(_traced(tracer, f"{layer}.objective", grad_fun), x, *args, **kwargs)
    return hessian_from_grad


def _wrap_function(tracer: Tracer, fn):
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"

    def wrapper(*args, **kwargs):
        with tracer.span(name) as s:
            out = fn(*args, **kwargs)
            annotate(s, out, args)
        return out
    return wrapper


def annotate(span: Span, out, args=()) -> None:
    """Attach the work counts the layer metrics divide by."""
    kind = span.name.rsplit(".", 1)[-1]
    if kind == "code_dataset":
        span.attrs["rows"] = int(out.n_rows)
    elif kind in ("simulate_dataset", "ingest_choices"):
        span.attrs.update(tasks=int(out.n_tasks), rows=int(out.n_rows))
    elif kind == "estimate_mmnl":
        span.attrs.update(rows=int(args[0].n_rows), draws=int(out.mixing.n_draws),
                          threads=int(out.trace.config["threads"]))


@contextlib.contextmanager
def wrap_layers(tracer: Tracer):
    """Patch every boundary name in ``BOUNDARIES`` for the block's duration."""
    saved = []
    try:
        for mod_name, names in BOUNDARIES.items():
            mod = importlib.import_module(mod_name)
            layer = mod_name.rsplit(".", 1)[-1]
            for name in names:
                fn = getattr(mod, name)
                saved.append((mod, name, fn))
                if name == "bfgs_minimize":
                    setattr(mod, name, _wrap_bfgs(tracer, layer, fn))
                elif name == "hessian_from_grad":
                    setattr(mod, name, _wrap_hessian(tracer, layer, fn))
                else:
                    setattr(mod, name, _wrap_function(tracer, fn))
        yield
    finally:
        for mod, name, fn in reversed(saved):
            setattr(mod, name, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

ESTIMATORS = ("mmnl.estimate_mmnl", "mnl.estimate_mnl")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's wall time minus the time its direct children cover.
    Children never overlap: every span opens and closes on one thread."""
    own = [s.wall for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.wall
    return own


def layer_self_times(spans: list[Span], pass_id: str) -> dict[str, float]:
    """Self time summed by layer (the span name's first part) for one pass."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        if s.pass_id == pass_id:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(all_spans: list[Span], pass_id: str) -> dict[str, float]:
    """The named per-layer metrics of one traced pass."""
    idx = [i for i, s in enumerate(all_spans) if s.pass_id == pass_id]
    own = self_times(all_spans)

    def named(name):
        return [i for i in idx if all_spans[i].name == name]

    def total(name):
        return sum(all_spans[i].wall for i in named(name))

    def ancestors(i):
        p = all_spans[i].parent
        while p is not None:
            yield p
            p = all_spans[p].parent

    m: dict[str, float] = {}

    # mmnl
    fits = named("mmnl.estimate_mmnl")
    objective = named("mmnl.objective")
    obj_s = sum(all_spans[i].wall for i in objective)
    cells = 0  # coded rows x draws, summed over objective calls
    for i in objective:
        fit = next(a for a in ancestors(i) if all_spans[a].name == "mmnl.estimate_mmnl")
        attrs = all_spans[fit].attrs  # empty if the fit raised
        cells += attrs.get("rows", 0) * attrs.get("draws", 0)
    m["mmnl.estimate_s"] = total("mmnl.estimate_mmnl")
    m["mmnl.estimate_self_s"] = sum(own[i] for i in fits)
    m["mmnl.objective_calls"] = len(objective)
    m["mmnl.objective_s"] = obj_s
    m["mmnl.objective_cpu_s"] = sum(all_spans[i].cpu for i in objective)
    m["mmnl.objective_ms_per_call"] = 1000.0 * _ratio(obj_s, len(objective))
    m["mmnl.cells_per_s"] = _ratio(cells, obj_s)
    m["mmnl.threads"] = max((all_spans[i].attrs.get("threads", 0) for i in fits), default=0)

    # numerics
    bfgs = named("numerics.bfgs_minimize")
    hess = set(named("numerics.hessian_from_grad"))
    iters = sum(all_spans[i].attrs["iterations"] for i in bfgs)
    evals = sum(all_spans[i].attrs["evals"] for i in bfgs)
    hess_s = sum(all_spans[i].wall for i in hess)
    top_fits = [i for name in ESTIMATORS for i in named(name)
                if not any(all_spans[a].name in ESTIMATORS for a in ancestors(i))]
    m["numerics.normal_draws_s"] = total("numerics.normal_draws")
    m["numerics.bfgs_s"] = sum(all_spans[i].wall for i in bfgs)
    m["numerics.bfgs_self_s"] = sum(own[i] for i in bfgs)
    m["numerics.bfgs_iterations"] = iters
    m["numerics.bfgs_evals"] = evals
    m["numerics.line_search_accept_ratio"] = _ratio(iters, evals - len(bfgs))
    m["numerics.hessian_s"] = hess_s
    m["numerics.hessian_grad_calls"] = sum(
        1 for i in idx if all_spans[i].name.endswith(".objective")
        and all_spans[i].parent in hess)
    m["numerics.hessian_share"] = _ratio(hess_s, sum(all_spans[i].wall for i in top_fits))

    # mnl
    mnl_bfgs = [i for i in bfgs if all_spans[i].attrs["caller"] == "mnl"]
    m["mnl.estimate_s"] = total("mnl.estimate_mnl")
    m["mnl.iterations"] = sum(all_spans[i].attrs["iterations"] for i in mnl_bfgs)
    m["mnl.evals"] = sum(all_spans[i].attrs["evals"] for i in mnl_bfgs)

    # dataset
    ingest = named("dataset.ingest_choices")
    ingest_s = sum(all_spans[i].wall for i in ingest)
    m["dataset.write_csv_s"] = total("dataset.write_choices_csv")
    m["dataset.ingest_s"] = ingest_s
    m["dataset.ingest_rows_per_s"] = _ratio(
        sum(all_spans[i].attrs.get("rows", 0) for i in ingest), ingest_s)
    m["dataset.code_s"] = total("dataset.code_dataset")
    m["dataset.rows"] = sum(all_spans[i].attrs.get("rows", 0)
                            for i in named("dataset.code_dataset"))

    # design
    m["design.select_fraction_s"] = total("design.select_fraction")
    m["design.block_design_s"] = total("design.block_design")

    # simulate
    sims = named("simulate.simulate_dataset")
    sim_s = sum(all_spans[i].wall for i in sims)
    m["simulate.simulate_s"] = sim_s
    m["simulate.tasks_per_s"] = _ratio(
        sum(all_spans[i].attrs.get("tasks", 0) for i in sims), sim_s)

    # results, postest
    m["results.save_load_s"] = total("results.save") + total("results.load")
    m["postest.report_s"] = sum(all_spans[i].wall for i in idx
                                if all_spans[i].name.startswith("postest."))
    return m
