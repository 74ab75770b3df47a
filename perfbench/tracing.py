"""Layer spans and counters for the traced run, recorded from outside hubspoke.

`Tracer.install` replaces public functions of each library module, in every
hubspoke module namespace that imported them, and a fixed set of methods,
with wrappers that record a span (name, start, end, parent) per call and
update counters at the same boundaries.  A layer's self time is its spans'
durations minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import time
from collections import Counter, defaultdict

LAYERS = ("geometry", "relations", "transport", "optimize", "dots",
          "stochastic", "audit", "cli")

# The reported per-layer metrics, per operation of the traced phase.  Each
# name is a layer, a span (layer.function) or a counter, with a suffix.
PER_LAYER = (
    "geometry.self_s", "geometry.enumerate_simplex.calls",
    "geometry.enumerate_simplex.self_s", "geometry.points_enumerated",
    "geometry.restrict.self_s", "geometry.points_screened", "geometry.from_dict.self_s",
    "geometry.contains_vector.calls", "geometry.contains_vector.self_s",
    "relations.self_s", "relations.build_relation.self_s", "relations.mask.calls",
    "relations.mask.self_s", "relations.mask_cells", "relations.menu_mask.self_s",
    "relations.menu_mask_cells", "relations.pairs.self_s", "relations.pairs_enumerated",
    "relations.explicit_relation.calls", "relations.explicit_relation.self_s",
    "relations.compose_vertical.self_s", "relations.intersect.self_s",
    "dots.self_s", "dots.action.calls", "dots.action.self_s", "dots.menu_points_in",
    "dots.menu_points_out", "dots.narrowing_ratio",
    "transport.self_s", "transport.pullback.calls", "transport.pullback.self_s",
    "transport.pushforward.calls", "transport.pushforward.self_s", "transport.pairs_pushed",
    "transport.verify_adjunction.self_s", "transport.verify_frobenius.self_s",
    "transport.verify_functoriality.self_s", "transport.verify_lax_bc.self_s",
    "transport.verify_strict_bc.self_s", "transport.laws_checked",
    "transport.strict_bc_cartesian_ratio",
    "optimize.self_s", "optimize.build_metric_reimpl.self_s",
    "optimize.build_constrained_reimpl.self_s", "optimize.compose_maps.self_s",
    "optimize.evaluate.calls",
    "stochastic.self_s", "stochastic.sample_kernel.self_s", "stochastic.safety_radius.self_s",
    "stochastic.metric_pullback_check.self_s", "stochastic.kde_density.self_s",
    "stochastic.kde_pairs", "stochastic.hdr_pullback_check.self_s",
    "stochastic.wasserstein_cure.self_s",
    "audit.self_s", "audit.registry_load.self_s", "audit.registry_save.self_s",
    "audit.ledger_open.self_s", "audit.ledger_bytes_read", "audit.ledger_append.calls",
    "audit.ledger_append.self_s", "audit.ledger_bytes_appended",
    "audit.workflow_a.self_s", "audit.workflow_b.self_s", "audit.workflow_c.self_s",
    "cli.self_s",
    "trace.uncovered_share", "trace.overhead_ratio",
)
RATIOS = ("dots.narrowing_ratio", "transport.strict_bc_cartesian_ratio",
          "trace.uncovered_share", "trace.overhead_ratio")


def unit_of(name: str) -> str:
    if name in RATIOS:
        return "ratio"
    return "s/op" if name.endswith(".self_s") else "count/op"


# (layer, class, attribute, span name) for the methods that are layer
# boundaries; module-level public functions are found automatically.
METHODS = (
    ("geometry", "LatticeSpace", "from_dict", "from_dict"),
    ("geometry", "LatticeSpace", "from_points", "from_points"),
    ("geometry", "LatticeSpace", "contains_vector", "contains_vector"),
    ("relations", "Relation", "mask", "mask"),
    ("relations", "Relation", "menu_mask", "menu_mask"),
    ("relations", "Relation", "pairs", "pairs"),
    ("relations", "Relation", "contains_vectors", "contains_vectors"),
    ("optimize", "ReimplMap", "__init__", "reimpl_map"),
    ("optimize", "ReimplMap", "evaluate", "evaluate"),
    ("optimize", "ReimplMap", "image_points", "image_points"),
    ("optimize", "ReimplMap", "is_lattice_valued", "is_lattice_valued"),
    ("optimize", "ValueFunction", "from_callable", "value_function"),
    ("dots", "Menu", "mask_on", "mask_on"),
    ("audit", "Registry", "load", "registry_load"),
    ("audit", "Registry", "save", "registry_save"),
    ("audit", "Registry", "space", "registry_space"),
    ("audit", "Registry", "map", "registry_map"),
    ("audit", "Registry", "relation", "registry_relation"),
    ("audit", "EvidenceLedger", "__init__", "ledger_open"),
    ("audit", "EvidenceLedger", "append", "ledger_append"),
)


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _fresh(attr):
    """Before-hook: whether the relation's cached `attr` is still unset."""
    return lambda a, kw: getattr(a[0], attr, None) is None


# Counters, keyed by span name: (before-hook or None, after-hook).  The
# after-hook gets (counts, args, kwargs, result, before-value).
def _count_mask(c, a, kw, out, fresh):
    if fresh:
        c["relations.mask_cells"] += out.size


def _count_pairs(c, a, kw, out, fresh):
    if fresh:
        c["relations.pairs_enumerated"] += len(out)


def _count_strict(c, a, kw, out, _):
    c["transport.laws_checked"] += 1
    c["transport.strict_bc_tried"] += 1
    c["transport.strict_bc_cartesian"] += bool(out.detail["pointwise_cartesian"])


def _count_law(c, a, kw, out, _):
    c["transport.laws_checked"] += 1


def _count_append(c, a, kw, out, size_before):
    c["audit.ledger_bytes_appended"] += _file_size(a[0].path) - size_before


COUNTERS = {
    "geometry.enumerate_simplex": (None, lambda c, a, kw, out, _: c.update(
        {"geometry.points_enumerated": len(out)})),
    "geometry.restrict": (None, lambda c, a, kw, out, _: c.update(
        {"geometry.points_screened": len(a[0]) * len(tuple(a[1]))})),
    "relations.mask": (_fresh("_mask"), _count_mask),
    "relations.menu_mask": (None, lambda c, a, kw, out, _: c.update(
        {"relations.menu_mask_cells": int(a[1].sum()) * len(out)})),
    "relations.pairs": (_fresh("_pairs"), _count_pairs),
    "dots.action": (None, lambda c, a, kw, out, _: c.update(
        {"dots.menu_points_in": len(a[0]), "dots.menu_points_out": len(out)})),
    "transport.pushforward": (None, lambda c, a, kw, out, _: c.update(
        {"transport.pairs_pushed": len(out)})),
    "transport.verify_adjunction": (None, _count_law),
    "transport.verify_frobenius": (None, _count_law),
    "transport.verify_functoriality": (None, _count_law),
    "transport.verify_lax_bc": (None, _count_law),
    "transport.verify_strict_bc": (None, _count_strict),
    "stochastic.kde_density": (None, lambda c, a, kw, out, _: c.update(
        {"stochastic.kde_pairs": len(a[0]) * len(a[1])})),
    "audit.ledger_open": (None, lambda c, a, kw, out, _: c.update(
        {"audit.ledger_bytes_read": _file_size(a[1])})),
    "audit.ledger_append": (lambda a, kw: _file_size(a[0].path), _count_append),
}


class Tracer:
    """Spans of the current operation, and totals over all finished ones."""

    def __init__(self):
        self.spans: list = []          # (name, start, end, parent index)
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.covered_s = 0.0
        self.op_s = 0.0
        self.ops = 0
        self._patches: list = []

    # -- wrapping -------------------------------------------------------------

    def wrap(self, name: str, fn):
        before, after = COUNTERS.get(name, (None, None))
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*a, **kw):
            pre = before(a, kw) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*a, **kw)
            finally:
                spans[idx] = (name, t0, clock(), parent)
                stack.pop()
            if after:
                after(counts, a, kw, out, pre)
            return out

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, hs):
        """Wrap the layer boundaries of the freshly imported package `hs`."""
        modules = [getattr(hs, layer) for layer in LAYERS]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for other in modules:
                    for oattr, ofn in list(vars(other).items()):
                        if ofn is fn:
                            self._patch(other, oattr, wrapped)
        for layer, cls_name, attr, span in METHODS:
            cls = getattr(getattr(hs, layer), cls_name)
            raw = cls.__dict__[attr]
            name = f"{layer}.{span}"
            if isinstance(raw, classmethod):
                value = classmethod(self.wrap(name, raw.__func__))
            elif isinstance(raw, property):
                value = property(self.wrap(name, raw.fget))
            else:
                value = self.wrap(name, raw)
            self._patch(cls, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def paused(self):
        """Drop the spans and counts that code outside an operation records."""
        n, counts = len(self.spans), Counter(self.counts)
        try:
            yield
        finally:
            del self.spans[n:]
            self.counts.clear()
            self.counts.update(counts)

    # -- aggregation ----------------------------------------------------------

    def end_operation(self, op_s: float):
        """Fold the finished operation's spans into the totals."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
            else:
                self.covered_s += t1 - t0
        for (name, t0, t1, _), c in zip(self.spans, child):
            self.self_s[name] += t1 - t0 - c
            self.calls[name] += 1
        self.spans.clear()
        self.op_s += op_s
        self.ops += 1

    def metrics(self, overhead_ratio: float) -> dict[str, tuple[float, str]]:
        """PER_LAYER values with units; self times and counts per operation.

        overhead_ratio: traced over untraced time of the same operations.
        """
        n = max(self.ops, 1)
        c = self.counts
        values = {name: v / n for name, v in c.items()}
        for name, v in self.self_s.items():
            layer = name.split(".")[0]
            values[f"{layer}.self_s"] = values.get(f"{layer}.self_s", 0.0) + v / n
            values[f"{name}.self_s"] = v / n
            values[f"{name}.calls"] = self.calls[name] / n
        values["dots.narrowing_ratio"] = (c["dots.menu_points_out"] / c["dots.menu_points_in"]
                                          if c["dots.menu_points_in"] else 0.0)
        values["transport.strict_bc_cartesian_ratio"] = (
            c["transport.strict_bc_cartesian"] / c["transport.strict_bc_tried"]
            if c["transport.strict_bc_tried"] else 0.0)
        values["trace.uncovered_share"] = (1.0 - self.covered_s / self.op_s
                                           if self.op_s else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: (float(values.get(name, 0.0)), unit_of(name)) for name in PER_LAYER}
