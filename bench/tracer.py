"""Span tracer that wraps the library's public functions from outside.

``install`` replaces each function listed in ``SPANS`` by a wrapper on
every loaded ``smoothmatch`` module that binds it, so names imported
with ``from ... import`` (``solver.nearest_rows``,
``solver.energy_breakdown``, ``metrics.geodesic_distances``, the
package re-exports) are traced too.  Spans are kept in memory; the
caller writes them out when the run ends.  The program itself is not
changed.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _geodesic_attrs(args, result):
    return {"rows": int(result.shape[0]), "mb": result.nbytes / 1e6}


def _nn_attrs(args, result):
    q, d = np.shape(args["queries"]), np.shape(args["data"])
    return {"pairdims": int(q[0]) * int(d[0]) * int(d[1])}


def _pi_attrs(args, result):
    state = args["state"]
    new_12, new_21 = result
    changed = (np.count_nonzero(new_12.target_of != state.pi_12.target_of)
               + np.count_nonzero(new_21.target_of != state.pi_21.target_of))
    return {"changed": int(changed), "assigned": new_12.n_src + new_21.n_src}


def _refine_attrs(args, result):
    return {"iterations": len(result[2])}


# (module, function, span name, attributes taken from the call)
SPANS = (
    ("mesh", "load_mesh", "mesh.load", None),
    ("mesh", "geodesic_distances", "mesh.geodesic", _geodesic_attrs),
    ("spectral", "compute_basis", "spectral.basis", None),
    ("spectral", "nearest_rows", "spectral.nn", _nn_attrs),
    ("solver", "landmark_init", "solver.init", None),
    ("solver", "refine", "solver.refine", _refine_attrs),
    ("solver", "c_step", "solver.c_step", None),
    ("solver", "pi_step", "solver.pi_step", _pi_attrs),
    ("variants", "prefactored", "variants.factor", None),
    ("variants", "run_y_step", "variants.y_step", None),
    ("energies", "energy_breakdown", "energies.breakdown", None),
    ("metrics", "compute_report", "metrics.report", None),
    ("metrics", "accuracy_metric", "metrics.accuracy", None),
    ("metrics", "bijectivity_metric", "metrics.bijectivity", None),
    ("metrics", "conformal_distortion", "metrics.conformal", None),
    ("io", "read_pointwise_map", "io.read", None),
    ("io", "read_ground_truth", "io.read", None),
)

# spans reported with their children included; every other span's
# metric is its self time
INCLUSIVE = ("solver.refine", "solver.init", "metrics.report")


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, rep."""

    def __init__(self):
        self.spans = []
        self.rep = 0
        self._stack = []

    def wrap(self, name, fn, attrs=None):
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "rep": self.rep,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs:
                span.update(attrs(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self):
        """Patch every binding of the ``SPANS`` functions; returns an undo."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "smoothmatch"]
        undo = []
        for mod_name, attr, span_name, attrs in SPANS:
            original = getattr(sys.modules["smoothmatch." + mod_name], attr)
            wrapper = self.wrap(span_name, original, attrs)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        undo.append((module, key, original))

        def uninstall():
            for module, key, original in reversed(undo):
                setattr(module, key, original)

        return uninstall


def self_times(spans):
    """Span duration minus the time its direct children cover."""
    child = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child[s["id"]] for s in spans}


def layer_metrics(spans):
    """Per-layer metrics of the spans of one repetition.

    Layers that did not run report zero.
    """
    own = self_times(spans)
    secs = defaultdict(float)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        secs[s["name"]] += (s["end"] - s["start"]) if s["name"] in INCLUSIVE else own[s["id"]]

    def total(name, key):
        return sum(s[key] for s in by_name[name])

    assigned = total("solver.pi_step", "assigned")
    out = {"%s_s" % name: secs[name] for _, _, name, _ in SPANS}
    out.update({
        "spectral.nn_calls": len(by_name["spectral.nn"]),
        "spectral.nn_pairdims": total("spectral.nn", "pairdims"),
        "solver.iterations": total("solver.refine", "iterations"),
        "solver.reassigned_frac":
            total("solver.pi_step", "changed") / assigned if assigned else 0.0,
        "variants.factor_calls": len(by_name["variants.factor"]),
        "mesh.geodesic_rows": total("mesh.geodesic", "rows"),
        "mesh.geodesic_mb": max((s["mb"] for s in by_name["mesh.geodesic"]), default=0.0),
    })
    return out
