"""Span tracing around the public entry points of each ``sgma`` module.

The traced worker process calls :func:`install` after set-up; nothing is
patched in untraced runs.  Every wrapped call made while an item span is
open records a span (name, start, end, parent, item).  A span's layer is
the ``sgma`` module it belongs to; the item span itself belongs to the
pseudo-layer ``bench`` (the benchmark's own glue code).

Self time is split by layer: a span's layer-self time is its duration
minus the time of descendant spans in *other* layers.  Summed over the
spans that enter a layer from outside it, this gives the layer's busy
time, and the busy times of all layers (``bench`` included) add up to the
items' traced wall time.  A function's busy time is its layer-self time,
counted once for re-entrant calls, so ``polyexpr.compose`` includes the
multiplications it performs but not time spent in other layers.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# Entries: (module, attribute, span name, accounting groups, result hook name).
# The layer is the span name's first component.
_POLY_METHODS = {
    "__add__": "add", "__sub__": "sub", "__rsub__": "sub", "__neg__": "neg",
    "__mul__": "mul", "__pow__": "pow", "__truediv__": "div", "eval": "eval",
    "compose": "compose", "diff": "diff", "antiderivative": "antiderivative",
    "with_variables": "with_variables", "collect": "collect",
    "univariate_coefficients": "univariate_coefficients", "__str__": "str",
}
_SYMBOLIC_BUILDERS = ("hessian_polys", "immersion_polys", "immersion_jacobian_polys",
                      "pullback_metric_polys", "ma_residual_poly")


def _targets():
    from sgma import characteristics, cli, family, ma_core, polyexpr, realroots, sg, \
        singular

    out = [(polyexpr.Poly, attr, f"polyexpr.{short}", (), "poly")
           for attr, short in _POLY_METHODS.items()]
    out.append((polyexpr, "parse_poly", "polyexpr.parse", (), "poly"))
    out.append((realroots, "real_roots", "realroots.real_roots", (), "roots"))
    out += [(ma_core, fn, f"ma_core.{fn}", ("ma_core.symbolic",), None)
            for fn in _SYMBOLIC_BUILDERS]
    out += [(ma_core, fn, f"ma_core.{fn}", (), None)
            for fn in ("hessian", "ma_residual", "immersion", "immersion_jacobian",
                       "pullback_metric", "classify", "linearization_matrix",
                       "classification_grid")]
    out += [(singular, fn, f"singular.{fn}", (), hook)
            for fn, hook in (("singular_locus_poly", None), ("dpi_det", None),
                             ("caustic_sweep", "caustic"), ("multivalued_P", None),
                             ("branch_hessian", None), ("branch_is_convex", None),
                             ("fiber_solve", "fiber"),
                             ("branch_select_convex", "convex"))]
    out += [(sg, fn, f"sg.{fn}", (), hook)
            for fn, hook in (("branch_state", None), ("velocity_system", None),
                             ("velocity_reconstruct", None),
                             ("reconstructed_state", "in_domain"),
                             ("wind_field_sweep", None))]
    out += [(characteristics, fn, f"characteristics.{fn}", (), hook)
            for fn, hook in (("trace_bicharacteristic", "trace"),
                             ("hamiltonian", None), ("null_project", None))]
    out += [(family, fn, f"family.{fn}", (), None)
            for fn in ("build_family", "derive_recursions")]
    out.append((family.FamilySpec, "__post_init__", "family.spec", (), None))
    out.append((sg, "write_wind_csv", "formatting.csv", (), "csv"))
    out.append((singular, "write_caustic_csv", "formatting.csv", (), "csv"))
    out.append((cli, "main", "cli.main", (), None))
    return out


def _hook_poly(counts, result, args):
    if hasattr(result, "_terms"):
        counts["polyexpr.terms_out"] += len(result._terms)  # read-only size probe


def _hook_roots(counts, result, args):
    counts["realroots.roots"] += len(result)


def _hook_caustic(counts, result, args):
    counts["singular.caustic_samples"] += len(result.samples)
    counts["singular.caustic_rejected"] += result.rejected


def _hook_fiber(counts, result, args):
    counts[f"singular.fiber_size.{len(result.fiber_values)}"] += 1


def _hook_convex(counts, result, args):
    counts["singular.convex_selected"] += result.index is not None


def _hook_in_domain(counts, result, args):
    counts["sg.in_domain"] += 1


def _hook_trace(counts, result, args):
    counts["characteristics.steps"] += len(result.states) - 1
    counts[f"characteristics.term.{result.termination.value}"] += 1


def _hook_csv(counts, result, args):
    counts["formatting.csv.bytes"] += len(args[1].getvalue())


_HOOKS = {"poly": _hook_poly, "roots": _hook_roots, "caustic": _hook_caustic,
          "fiber": _hook_fiber, "convex": _hook_convex, "in_domain": _hook_in_domain,
          "trace": _hook_trace, "csv": _hook_csv}


class _Frame:
    __slots__ = ("sid", "name", "layer", "keys", "foreign")

    def __init__(self, sid, name, layer, keys):
        self.sid = sid
        self.name = name
        self.layer = layer
        self.keys = keys
        self.foreign = 0.0


class Tracer:
    """In-memory span recorder with per-layer and per-function self times."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.counts = Counter()   # exact counts: calls per function, hook counters
        self.busy = Counter()     # seconds per layer / function / group key
        self.layer_calls = Counter()
        self.item_wall = 0.0
        self.closed = 0
        self._stack = []
        self._active = Counter()
        self._next_id = 0
        self._item = None

    def _push(self, name, layer, keys):
        frame = _Frame(self._next_id, name, layer, keys)
        self._next_id += 1
        for key in keys:
            self._active[key] += 1
        self._stack.append(frame)
        return frame

    def _pop(self, frame, t0, t1):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        own = dur - frame.foreign
        parent = stack[-1] if stack else None
        if parent is None or parent.layer != frame.layer:
            self.layer_calls[frame.layer] += 1
            self.busy[frame.layer] += own
            if parent is not None:
                parent.foreign += dur
        else:
            parent.foreign += frame.foreign
        self.counts[frame.name] += 1
        self.closed += 1
        for key in frame.keys:
            self._active[key] -= 1
            if not self._active[key]:
                self.busy[key] += own
        if len(self.spans) < self.max_spans:
            self.spans.append((frame.sid, frame.name, t0, t1,
                               parent.sid if parent else None, self._item))
        else:
            self.dropped += 1

    def run_item(self, item_id, fn):
        """Run one benchmark item under a root span of the ``bench`` layer."""
        self._item = item_id
        frame = self._push("bench.item", "bench", ())
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self._pop(frame, t0, t1)
            self.item_wall += t1 - t0
            self._item = None

    def wrap(self, fn, name, groups, hook):
        layer = name.split(".", 1)[0]
        keys = (name,) + tuple(groups)
        after = _HOOKS.get(hook)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            frame = tracer._push(name, layer, keys)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, t0, perf_counter())
            if after is not None:
                after(tracer.counts, result, args)
            return result

        return traced

    def take_pass(self) -> dict:
        """Return the accumulators of the pass just run and reset them."""
        snap = {"item_wall_s": self.item_wall, "spans": self.closed,
                "busy_s": dict(self.busy), "layer_calls": dict(self.layer_calls),
                "counts": dict(self.counts)}
        self.busy.clear()
        self.layer_calls.clear()
        self.counts.clear()
        self.item_wall = 0.0
        self.closed = 0
        return snap

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, t0, t1, parent, item in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "item": item}) + "\n")


def install(tracer: Tracer) -> int:
    """Replace every binding of each target in the loaded ``sgma`` modules.

    Modules that imported a function by name hold their own reference, so
    each module namespace (and the ``Poly`` class, for method aliases such
    as ``__radd__``) is searched for the original object.  Returns the
    number of bindings replaced.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "sgma" or name.startswith("sgma.")]
    replaced = 0
    for owner, attr, name, groups, hook in _targets():
        original = vars(owner)[attr]
        wrapped = tracer.wrap(original, name, groups, hook)
        namespaces = [owner] if isinstance(owner, type) else modules
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, wrapped)
                    replaced += 1
    return replaced
