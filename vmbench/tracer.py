"""Spans and counters around violinmorph's public functions, from outside.

``Tracer.installed()`` wraps every function in ``LAYERS`` and rebinds the
wrapper wherever the package holds the original: in each module namespace
(``from .grid import interpolate_grid`` binds a second name in
``symmetry`` and ``cli``) and in module-level dicts (``cli._COMMANDS``).
It also swaps ``registration.cKDTree`` for a subclass that counts builds
and queries. Leaving the ``with`` block puts every original back, so
untraced and traced ops can share one process.

A span is ``[name, op, parent, start, end, error]``; spans stay in memory
until the caller writes them out. Self time is a span's duration minus
the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ["main", "cmd_isolate", "cmd_register", "cmd_assess", "cmd_simplify",
            "cmd_symmetry", "cmd_contours", "cmd_asymmetry", "cmd_channel",
            "cmd_pipeline"],
    "fileio": ["load_mesh", "save_mesh"],
    "mesh": ["connected_components", "shortest_path"],
    "orientation": ["principal_frame", "orient_to_frame"],
    "slicing": ["cross_section", "extreme_points"],
    "isolation": ["rough_split", "isolate_plate", "map_to_vertices", "order_loop",
                  "close_contour", "load_plate"],
    "registration": ["register", "register_icp", "estimate_normals",
                     "pca_initial_transform", "evaluate_metrics"],
    "assessment": ["error_distribution", "sampling_floor", "save_heatmap_csv"],
    "decimate": ["decimate"],
    "grid": ["interpolate_grid", "joint_grid_domain", "grid_difference_stats"],
    "symmetry": ["build_symmetry_frame"],
    "morphology": ["contour_lines", "asymmetry_field", "channel_of_minima"],
}

NAME, OP, PARENT, START, END, ERROR = range(6)


# Counters read from a call's arguments and result: (counters, args, kwargs, result).
def _bytes_read(c, a, k, r):
    c["fileio.bytes_read"] += os.path.getsize(a[0] if a else k["path"])


def _bytes_written(c, a, k, r):
    c["fileio.bytes_written"] += os.path.getsize(a[1] if len(a) > 1 else k["path"])


def _anchors(c, a, k, r):
    c["isolation.anchors"] += len(a[1] if len(a) > 1 else k["anchors"])


def _sweeps(c, a, k, r):
    c["registration.register.sweeps"] += r.iterations


def _collapses(c, a, k, r):
    # each collapse removes exactly one vertex, and decimate compacts
    c["decimate.collapses"] += (a[0] if a else k["mesh"]).n_vertices - r.n_vertices


def _grid_faces(c, a, k, r):
    c["grid.faces"] += (a[0] if a else k["mesh"]).n_faces
    c["grid.valid_nodes"] += int(r.valid.sum())
    c["grid.nodes"] += r.valid.size


def _stations_skipped(c, a, k, r):
    c["morphology.channel_of_minima.stations_skipped"] += r.stations_skipped


HOOKS = {
    "fileio.load_mesh": _bytes_read,
    "fileio.save_mesh": _bytes_written,
    "isolation.order_loop": _anchors,
    "registration.register": _sweeps,
    "decimate.decimate": _collapses,
    "grid.interpolate_grid": _grid_faces,
    "morphology.channel_of_minima": _stations_skipped,
}


class Tracer:
    def __init__(self, package="violinmorph"):
        self.package = package
        self.spans = []
        self.counters = defaultdict(lambda: defaultdict(float))  # op -> name -> value
        self.op = None
        self._stack = []

    def _wrap(self, qualname, fn):
        hook = HOOKS.get(qualname)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, self.op, stack[-1] if stack else -1,
                    time.perf_counter(), None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[ERROR] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self.counters[self.op], args, kwargs, result)
            return result

        return traced

    def _counting_kdtree(self, base):
        tracer = self

        class CountingKDTree(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracer.counters[tracer.op]["registration.kdtree.builds"] += 1

            def query(self, *args, **kwargs):
                t0 = time.perf_counter()
                result = super().query(*args, **kwargs)
                c = tracer.counters[tracer.op]
                c["registration.kdtree.query_s"] += time.perf_counter() - t0
                c["registration.kdtree.queries"] += 1
                return result

        return CountingKDTree

    @contextlib.contextmanager
    def installed(self):
        """Wrap every function in LAYERS for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package
                                         or n.startswith(self.package + "."))]
        undo = []

        def rebind(original, replacement):
            for mod in modules:
                space = vars(mod)
                for key, value in list(space.items()):
                    if value is original:
                        undo.append((space, key, value))
                        space[key] = replacement
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                undo.append((value, dkey, dvalue))
                                value[dkey] = replacement

        try:
            for layer, names in LAYERS.items():
                mod = sys.modules[f"{self.package}.{layer}"]
                for name in names:
                    original = getattr(mod, name)
                    rebind(original, self._wrap(f"{layer}.{name}", original))
            registration = sys.modules[f"{self.package}.registration"]
            tree = registration.cKDTree
            undo.append((vars(registration), "cKDTree", tree))
            registration.cKDTree = self._counting_kdtree(tree)
            yield self
        finally:
            for space, key, value in reversed(undo):
                space[key] = value

    def op_table(self, op):
        """Per-function calls, busy, self time and errors for one op.

        Busy time counts only outermost calls of a function, so recursion
        is not double counted. Also returns per-layer busy time (outermost
        calls into the layer) and the op's summed self time.
        """
        index = [i for i, s in enumerate(self.spans) if s[OP] == op]
        child_time = defaultdict(float)
        for i in index:
            s = self.spans[i]
            if s[PARENT] >= 0:
                child_time[s[PARENT]] += s[END] - s[START]
        funcs = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                     "errors": 0})
        layer_busy = defaultdict(float)
        total_self = 0.0
        for i in index:
            s = self.spans[i]
            name = s[NAME]
            layer = name.split(".", 1)[0]
            dur = s[END] - s[START]
            own = dur - child_time[i]
            row = funcs[name]
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += int(s[ERROR])
            total_self += own
            ancestors = []
            p = s[PARENT]
            while p >= 0:
                ancestors.append(self.spans[p][NAME])
                p = self.spans[p][PARENT]
            if name not in ancestors:
                row["busy_s"] += dur
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                layer_busy[layer] += dur
        return dict(funcs), dict(layer_busy), total_self

    def dump(self):
        return [{"name": s[NAME], "op": s[OP], "parent": s[PARENT],
                 "start": s[START], "end": s[END], "error": s[ERROR]}
                for s in self.spans]
