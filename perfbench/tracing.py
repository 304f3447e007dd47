"""Span tracing around the public calls of metastab, installed from outside.

`install(tracer)` replaces public functions and methods of the metastab
modules, and the scipy names those modules import (`spectral.splu`,
`spectral.eigsh`, `sublevel.cKDTree`), with wrappers that record one span
per call.  Nothing under src/ is edited; the wrappers are set on the
already-imported module objects, in every metastab namespace that holds a
reference to the original function.  Spans stay in memory; the caller
writes them out once, at the end of the run.

A span's self time is its duration minus the durations of its child spans.
The span `trace.lu_fill_count` is the tracer's own bookkeeping (it
materializes L and U to count their nonzeros); it is a child of the span
that was open, so it never counts towards a module's self time.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

CLI_STAGES = ("check", "classify", "label", "predict", "solve", "quasimode",
              "validate", "simulate")

# (module, function) pairs traced as plain module functions.
MODULE_FUNCTIONS = (
    ("potential", "check_confinement"),
    ("manifolds", "verify_critical"),
    ("manifolds", "classify_index"),
    ("manifolds", "negative_direction_field"),
    ("sublevel", "sample_grid"),
    ("sublevel", "components"),
    ("sublevel", "probe_level"),
    ("sublevel", "local_structure"),
    ("sublevel", "classify_separating"),
    ("labeling", "run_labeling"),
    ("labeling", "check_generic"),
    ("kramers", "predict_all"),
    ("spectral", "assemble_witten"),
    ("spectral", "smallest_eigs"),
    ("quasimodes", "build_gluing"),
    ("quasimodes", "build_psi"),
    ("quasimodes", "rayleigh"),
    ("quasimodes", "interaction_matrix"),
    ("sde", "simulate_exit"),
)

# Per-layer metrics: name -> unit.  Times are self times in seconds, except
# the cli.<stage>_s stage spans, which are inclusive.
LAYER_METRICS = {
    **{f"cli.{s}_s": "s" for s in CLI_STAGES},
    "potential.eval2_calls": "count",
    "potential.eval2_s": "s",
    "potential.values_points": "count",
    "potential.values_s": "s",
    "potential.gradients_points": "count",
    "potential.gradients_s": "s",
    "potential.check_confinement_s": "s",
    "manifolds.verify_critical_s": "s",
    "manifolds.classify_index_s": "s",
    "manifolds.negative_direction_field_s": "s",
    "sublevel.sample_grid_s": "s",
    "sublevel.sample_grid_cells": "count",
    "sublevel.components_calls": "count",
    "sublevel.components_s": "s",
    "sublevel.probe_level_s": "s",
    "sublevel.tube_mask_s": "s",
    "sublevel.tube_grids_built": "count",
    "sublevel.tube_cells_used_frac": "fraction",
    "sublevel.local_structure_s": "s",
    "sublevel.classify_separating_s": "s",
    "labeling.run_labeling_s": "s",
    "labeling.check_generic_s": "s",
    "kramers.predict_all_s": "s",
    "spectral.assemble_s": "s",
    "spectral.nnz_A": "count",
    "spectral.splu_s": "s",
    "spectral.lu_fill": "count",
    "spectral.lu_fill_ratio": "ratio",
    "spectral.lu_solves": "count",
    "spectral.lu_solve_s": "s",
    "spectral.eigsh_self_s": "s",
    "spectral.smallest_eigs_s": "s",
    "quasimodes.build_gluing_s": "s",
    "quasimodes.build_psi_s": "s",
    "quasimodes.rayleigh_s": "s",
    "quasimodes.interaction_matrix_s": "s",
    "sde.simulate_exit_s": "s",
    "sde.path_steps": "count",
    "sde.path_steps_per_s": "1/s",
    "sde.censored_frac": "fraction",
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        # each span: [name, parent index or -1, start, end, attrs]
        self.spans = []
        self._stack = []

    def open(self, name):
        rec = [name, self._stack[-1] if self._stack else -1,
               time.perf_counter(), 0.0, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[3] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, note=None):
        """`fn` recording one span per call; `note(attrs, args, kwargs,
        result)` fills the span's attributes after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if note is not None:
                note(rec[4], args, kwargs, result)
            return result

        return traced

    def summary(self):
        """name -> {"count", "incl", "self", attrs summed or maxed}."""
        child = [0.0] * len(self.spans)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, _, t0, t1, attrs) in enumerate(self.spans):
            s = out.setdefault(name, {"count": 0, "incl": 0.0, "self": 0.0})
            s["count"] += 1
            s["incl"] += t1 - t0
            s["self"] += t1 - t0 - child[i]
            for k, v in attrs.items():
                if k.startswith("max_"):
                    s[k] = max(s.get(k, v), v)
                else:
                    s[k] = s.get(k, 0) + v
        return out


# ---------------------------------------------------------------------------
# Span attributes, computed after the span closes (cheap: they count into
# the caller's self time)


def _note_points(attrs, args, kwargs, result):
    points = kwargs["points"] if "points" in kwargs else args[1]
    attrs["points"] = int(np.shape(points)[0])


def _note_grid(attrs, args, kwargs, result):
    attrs["cells"] = int(result.values.size)
    if result.mask is not None:
        attrs["tube_grids"] = 1
        attrs["tube_cells"] = int(result.mask.size)
        attrs["tube_cells_used"] = int(np.count_nonzero(result.mask))


def _note_assembly(attrs, args, kwargs, result):
    attrs["max_nnz_A"] = int(result.A.nnz)


def _note_exits(attrs, args, kwargs, result):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    # exit times are accumulated as t += dt, so t/dt sits within rounding of
    # the step count; the small offset keeps ceil() on that integer
    steps = np.ceil(result.times / cfg.dt - 1e-6)
    attrs["path_steps"] = int(np.sum(steps))
    attrs["paths"] = int(result.times.size)
    attrs["censored"] = int(result.n_censored)


class _Traced:
    """`obj` with one method replaced by its traced version."""

    def __init__(self, tracer, obj, method, span):
        self._obj = obj
        setattr(self, method, tracer.wrap(span, getattr(obj, method)))

    def __getattr__(self, name):
        return getattr(self._obj, name)


def _replace_everywhere(original, replacement):
    """Point every metastab namespace that holds `original` at
    `replacement`."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "metastab"
                                  or name.startswith("metastab.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap metastab's public calls and the scipy names it imports."""
    import importlib

    from metastab import cli, potential, spectral, sublevel

    for stage in CLI_STAGES:
        setattr(cli.Pipeline, stage,
                tracer.wrap(f"cli.{stage}", getattr(cli.Pipeline, stage)))
    P = potential.Potential
    P.eval2 = tracer.wrap("potential.eval2", P.eval2)
    P.values = tracer.wrap("potential.values", P.values, _note_points)
    P.gradients = tracer.wrap("potential.gradients", P.gradients,
                              _note_points)

    notes = {"sample_grid": _note_grid, "assemble_witten": _note_assembly,
             "simulate_exit": _note_exits}
    for mod_name, fn_name in MODULE_FUNCTIONS:
        module = importlib.import_module(f"metastab.{mod_name}")
        original = getattr(module, fn_name)
        _replace_everywhere(original, tracer.wrap(
            f"{mod_name}.{fn_name}", original, notes.get(fn_name)))

    splu = spectral.splu

    def traced_splu(matrix, *args, **kwargs):
        rec = tracer.open("spectral.splu")
        try:
            lu = splu(matrix, *args, **kwargs)
        finally:
            tracer.close(rec)
        bookkeeping = tracer.open("trace.lu_fill_count")
        try:
            rec[4]["max_lu_fill"] = int(lu.L.nnz + lu.U.nnz)
            rec[4]["max_fill_ratio"] = rec[4]["max_lu_fill"] / matrix.nnz
        finally:
            tracer.close(bookkeeping)
        return _Traced(tracer, lu, "solve", "spectral.lu_solve")

    spectral.splu = traced_splu
    spectral.eigsh = tracer.wrap("spectral.eigsh", spectral.eigsh)

    kdtree = sublevel.cKDTree

    def traced_kdtree(*args, **kwargs):
        # the tree's query is the tube mask
        return _Traced(tracer, kdtree(*args, **kwargs), "query",
                       "sublevel.cKDTree.query")

    sublevel.cKDTree = traced_kdtree


def layer_metrics(summary):
    """The LAYER_METRICS values from a `Tracer.summary()`; modules whose
    code did not run report 0."""

    def get(name, key="self"):
        return summary.get(name, {}).get(key, 0)

    m = {f"cli.{s}_s": get(f"cli.{s}", "incl") for s in CLI_STAGES}
    for fn in ("eval2", "values", "gradients"):
        m[f"potential.{fn}_s"] = get(f"potential.{fn}")
    m["potential.eval2_calls"] = get("potential.eval2", "count")
    m["potential.values_points"] = get("potential.values", "points")
    m["potential.gradients_points"] = get("potential.gradients", "points")
    for mod_name, fn_name in MODULE_FUNCTIONS:
        key = f"{mod_name}.{fn_name}_s"
        if key in LAYER_METRICS:
            m[key] = get(f"{mod_name}.{fn_name}")
    m["sublevel.sample_grid_cells"] = get("sublevel.sample_grid", "cells")
    m["sublevel.components_calls"] = get("sublevel.components", "count")
    m["sublevel.tube_mask_s"] = get("sublevel.cKDTree.query")
    m["sublevel.tube_grids_built"] = get("sublevel.sample_grid", "tube_grids")
    allocated = get("sublevel.sample_grid", "tube_cells")
    m["sublevel.tube_cells_used_frac"] = (
        get("sublevel.sample_grid", "tube_cells_used") / allocated
        if allocated else 0.0)
    m["spectral.assemble_s"] = get("spectral.assemble_witten")
    m["spectral.nnz_A"] = get("spectral.assemble_witten", "max_nnz_A")
    m["spectral.splu_s"] = get("spectral.splu")
    m["spectral.lu_fill"] = get("spectral.splu", "max_lu_fill")
    m["spectral.lu_fill_ratio"] = get("spectral.splu", "max_fill_ratio")
    m["spectral.lu_solves"] = get("spectral.lu_solve", "count")
    m["spectral.lu_solve_s"] = get("spectral.lu_solve")
    m["spectral.eigsh_self_s"] = get("spectral.eigsh")
    steps = get("sde.simulate_exit", "path_steps")
    busy = get("sde.simulate_exit", "incl")
    m["sde.path_steps"] = steps
    m["sde.path_steps_per_s"] = steps / busy if busy else 0.0
    paths = get("sde.simulate_exit", "paths")
    m["sde.censored_frac"] = (get("sde.simulate_exit", "censored") / paths
                              if paths else 0.0)
    return m
