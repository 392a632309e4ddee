"""Spans and counts for the benchmark's traced runs, recorded from outside
the library.

``Tracer.install`` wraps every public function of each nsbox layer module
(the module names under ``src/nsbox``) at every place the package binds it:
the defining module, each module that did ``from .x import y``, and the
``nsbox`` package namespace.  ``Box.validate`` is wrapped as well, and
``Box.__post_init__`` is counted.  Untraced runs never call ``install``.

A span is ``[name id, start, end, parent span, query id]``; spans stay in
memory and are written out once, when the run ends.  A layer's self time is
the time of its spans minus the time of their child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

LAYERS = ("boxes", "families", "linalg", "dd", "polytope", "relabel", "locality",
          "simplex", "wiring", "comm", "extend", "fileio", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _extreme_rays(c, args, kwargs, result, caller):
    c["dd.rows_in"] += len(_arg(args, kwargs, 0, "rows"))
    c["dd.rays_out"] += len(result)


def _vertices(c, args, kwargs, result, caller):
    c["polytope.vertices_out"] += len(result.vertices)


def _classes(c, args, kwargs, result, caller):
    c["polytope.classes_out"] += len(result)


def _equivalent(c, args, kwargs, result, caller):
    c["relabel.hits"] += result is not None


def _maximize(c, args, kwargs, result, caller):
    c["simplex.lp_cells"] += len(_arg(args, kwargs, 0, "rows")) * len(_arg(args, kwargs, 2, "objective"))
    c["simplex.lps"] += 1
    c["simplex.infeasible"] += result.status == "infeasible"


def _strategies(c, args, kwargs, result, caller):
    c["locality.strategies_out"] += len(result)


def _membership(c, args, kwargs, result, caller):
    c["locality.nonlocal"] += not result


def _convex_membership(c, args, kwargs, result, caller):
    if caller == "comm":
        c["comm.candidates"] += len(_arg(args, kwargs, 1, "boxes"))


def _fileio_bytes(kind):
    def count(c, args, kwargs, result, caller):
        if caller == "fileio":
            return
        if kind == "dumps":
            c["fileio.bytes"] += len(result)
        elif kind == "loads":
            c["fileio.bytes"] += len(_arg(args, kwargs, 0, "text"))
        else:
            c["fileio.bytes"] += os.path.getsize(_arg(args, kwargs, int(kind == "save"), "path"))
    return count


# span name -> what to count at that boundary from the arguments and result
COUNTERS = {
    "dd.extreme_rays": _extreme_rays,
    "polytope.enumerate_vertices": _vertices,
    "polytope.classify_vertices": _classes,
    "relabel.equivalent_under_relabelling": _equivalent,
    "simplex.maximize": _maximize,
    "locality.enumerate_local_strategies": _strategies,
    "locality.enumerate_twoway_strategies": _strategies,
    "locality.is_local": _membership,
    "locality.is_two_way_local": _membership,
    "locality.convex_membership": _convex_membership,
}
for _kind in ("dumps", "loads", "save", "load"):
    for _what in ("box", "functional", "wiring"):
        COUNTERS[f"fileio.{_kind}_{_what}"] = _fileio_bytes(_kind)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self.counts = Counter()
        self.query = -1
        self.paused = False
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        extract = COUNTERS.get(name)
        spans, stack, names, clock = self.spans, self._stack, self.names, time.perf_counter

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            span = [nid, 0.0, 0.0, parent, self.query]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extract is not None:
                caller = names[spans[parent][0]].partition(".")[0] if parent >= 0 else None
                extract(self.counts, args, kwargs, result, caller)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        targets = {}
        for layer in LAYERS:
            mod = importlib.import_module("nsbox." + layer)
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "nsbox" and not modname.startswith("nsbox."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = targets.get(id(obj))
                if hit is not None and hit[0] is obj:
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self._wrap(hit[1], obj)
                    self._patch(mod, attr, wrappers[id(obj)])
        box = sys.modules["nsbox.boxes"].Box
        self._patch(box, "validate", self._wrap("boxes.Box.validate", box.validate))
        post_init = box.__post_init__

        def counted(obj):
            if not self.paused:
                self.counts["boxes.built"] += 1
            post_init(obj)
        self._patch(box, "__post_init__", counted)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def self_times(self):
        """(self seconds by span name, calls by span name, calls entering
        each layer from outside it)."""
        spans, names = self.spans, self.names
        child = [0.0] * len(spans)
        for sp in spans:
            if sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        self_s, calls, entries = Counter(), Counter(), Counter()
        for i, (nid, start, end, parent, _) in enumerate(spans):
            name = names[nid]
            layer = name.partition(".")[0]
            self_s[name] += end - start - child[i]
            calls[name] += 1
            if parent < 0 or names[spans[parent][0]].partition(".")[0] != layer:
                entries[layer] += 1
        return self_s, calls, entries

    def layer_metrics(self, passes):
        """Per-layer metrics, per pass of the workload's query list."""
        self_s, calls, entries = self.self_times()
        c = self.counts

        def s(*names):
            return sum(self_s[n] for n in names) / passes

        def per_pass(v):
            return v / passes

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.s"] = (sum(v for n, v in self_s.items()
                                   if n.partition(".")[0] == layer) / passes, "s")
            m[f"{layer}.calls"] = (per_pass(entries[layer]), "count")
        m.update({
            "dd.rows_in": (per_pass(c["dd.rows_in"]), "count"),
            "dd.rays_out": (per_pass(c["dd.rays_out"]), "count"),
            "polytope.enumerate_s": (s("polytope.enumerate_vertices"), "s"),
            "polytope.build_hrep_s": (s("polytope.build_hrep", "polytope.normalization_rows"), "s"),
            "polytope.classify_s": (s("polytope.classify_vertices"), "s"),
            "polytope.census_s": (s("polytope.kbox_census"), "s"),
            "polytope.vertices_out": (per_pass(c["polytope.vertices_out"]), "count"),
            "polytope.classes_out": (per_pass(c["polytope.classes_out"]), "count"),
            "relabel.equivalent_calls": (per_pass(calls["relabel.equivalent_under_relabelling"]), "count"),
            "relabel.apply_calls": (per_pass(calls["relabel.apply_relabelling"]), "count"),
            "relabel.hit_ratio": (ratio(c["relabel.hits"], calls["relabel.equivalent_under_relabelling"]), "ratio"),
            "simplex.lp_cells": (per_pass(c["simplex.lp_cells"]), "count"),
            "simplex.infeasible_ratio": (ratio(c["simplex.infeasible"], c["simplex.lps"]), "ratio"),
            "locality.strategies_s": (s("locality.enumerate_local_strategies",
                                        "locality.enumerate_twoway_strategies"), "s"),
            "locality.strategies_out": (per_pass(c["locality.strategies_out"]), "count"),
            "locality.membership_s": (s("locality.is_local", "locality.is_two_way_local",
                                        "locality.convex_membership"), "s"),
            "locality.nonlocal_ratio": (ratio(c["locality.nonlocal"],
                                              calls["locality.is_local"] + calls["locality.is_two_way_local"]),
                                        "ratio"),
            "boxes.validate_s": (s("boxes.Box.validate"), "s"),
            "boxes.validate_calls": (per_pass(calls["boxes.Box.validate"]), "count"),
            "boxes.built": (per_pass(c["boxes.built"]), "count"),
            "comm.candidates": (per_pass(c["comm.candidates"]), "count"),
            "fileio.bytes": (per_pass(c["fileio.bytes"]), "bytes"),
            "trace.spans": (per_pass(len(self.spans)), "count"),
        })
        return m

    def write(self, path, queries, meta):
        """All spans as JSON: names, queries, and [name, start, end, parent,
        query] rows with times in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(meta, names=self.names, queries=queries, counts=dict(self.counts),
                   spans=self.spans)
        path.write_text(json.dumps(doc, separators=(",", ":")))
