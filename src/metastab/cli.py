"""Batch front end: check -> classify -> label -> predict -> solve ->
quasimode -> validate -> simulate, driven by a JSON potential spec file.

The spec file is read and every artifact written here alone.  Every
artifact starts with the manifest hash so runs are attributable; `all`
runs the stages in pipeline order and is byte-identical to running them
one by one with the same seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
from functools import cached_property

import numpy as np

from . import kramers, quasimodes, sde, spectral
from .labeling import (FICTIVE_SADDLE, SaddleRecord, check_generic,
                       run_labeling)
from .manifolds import (classify_index, manifold_parametrized,
                        manifold_point, manifold_sphere,
                        negative_direction_field, node_distance,
                        verify_critical)
from .potential import check_confinement, parse_potential
from .spectral import EigenResult
from .sublevel import Grid, classify_separating, sample_grid

STAGES = ("check", "classify", "label", "predict", "solve", "quasimode",
          "validate", "simulate")
COMMANDS = STAGES + ("all",)
DEFAULT_H = (0.2, 0.15, 0.1, 0.05)


def _manifest_hash(spec_data, args):
    payload = json.dumps({"spec": spec_data, "h": args.h, "grid": args.grid,
                          "seed": args.seed, "strict": args.strict},
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _positive(value, kind=(int, float)):
    """A finite positive number of type `kind`; a bool is not a number."""
    return (isinstance(value, kind) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def _floats(value):
    """`value` as a float array if it is a JSON number or a rectangular
    nest of lists of them, else None; a bool or a numeric string is not a
    number."""
    def numeric(v):
        if isinstance(v, list):
            return all(map(numeric, v))
        return isinstance(v, (int, float)) and not isinstance(v, bool)
    if not numeric(value):
        return None
    try:
        return np.asarray(value, dtype=float)
    except ValueError:            # a ragged nest
        return None


def _intervals(value, field, rows=None):
    """Check that `value` holds finite [lo, hi] rows with lo < hi, `rows`
    of them if given: the rule of a spec's `box` and of a `param_box`.
    Returns the number of rows."""
    box = _floats(value)
    if (box is None or box.ndim != 2 or box.shape[1] != 2
            or len(box) != (rows or len(box)) or not np.all(np.isfinite(box))
            or not np.all(box[:, 0] < box[:, 1])):
        count = "" if rows is None else f"{rows} "
        raise ValueError(f"{field} must hold {count}finite [lo, hi] rows "
                         f"with lo < hi, got {value!r}")
    return len(box)


def read_spec(path):
    """Load a potential spec file (README, *Spec file format*) and check
    its spec-level fields: a string "expression", a positive integer
    "dim", a "box" of `dim` finite [lo, hi] rows with lo < hi, an optional
    positive "validate_tolerance" (the bound on |ratio - 1| in validate),
    and a list "manifolds" of declarations.  Each declaration has "role"
    "minimum" or "saddle", a name of its own (the kind when omitted), and
    may give positive numbers "radius" and "tau" for its gluing tube;
    `build_manifold` checks the geometry fields.  A sphere's "radius" is
    also its classification tube radius: `classify` reads a saddle's
    "radius" whatever its kind."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"spec file must hold a JSON object, got {data!r}")
    for key in ("expression", "dim", "box"):
        if key not in data:
            raise ValueError(f"spec file missing field {key!r}")
    if not isinstance(data["expression"], str):
        raise ValueError("spec field 'expression' must be a string, "
                         f"got {data['expression']!r}")
    if not _positive(data["dim"], int):
        raise ValueError("spec field 'dim' must be a positive integer, "
                         f"got {data['dim']!r}")
    _intervals(data["box"], "spec field 'box'", data["dim"])
    tolerance = data.get("validate_tolerance")
    if tolerance is not None and not _positive(tolerance):
        raise ValueError("spec field 'validate_tolerance' must be a positive "
                         f"number, got {tolerance!r}")
    manifolds = data.setdefault("manifolds", [])
    if not isinstance(manifolds, list):
        raise ValueError("spec field 'manifolds' must be a list of "
                         f"declarations, got {manifolds!r}")
    names = set()
    for decl in manifolds:
        if not isinstance(decl, dict):
            raise ValueError("spec field 'manifolds' must hold declaration "
                             f"objects, got {decl!r}")
        name = decl.get("name", decl.get("kind"))
        if "name" in decl and not isinstance(name, str):
            raise ValueError(f"manifold field 'name' must be a string, "
                             f"got {name!r}")
        role = decl.get("role")
        if role not in ("minimum", "saddle"):
            raise ValueError(f"manifold {decl.get('name')!r}: field 'role' "
                             f"must be 'minimum' or 'saddle', got {role!r}")
        for key in ("radius", "tau"):
            if key in decl and not _positive(decl[key]):
                raise ValueError(f"manifold {name!r}: field {key!r} must be "
                                 f"a positive number, got {decl[key]!r}")
        # results are keyed by name: a repeated one would merge two manifolds
        if isinstance(name, str):
            if name in names:
                raise ValueError(f"manifold name {name!r} declared twice")
            names.add(name)
    return data


def build_manifold(decl, dim):
    """The manifold of one declaration of a `read_spec` spec, each geometry
    field checked where it is read.  A point's "coords" and a sphere's
    "center" hold `dim` finite numbers; "nodes" (256 when omitted) is a
    positive integer or, for a parametrized manifold, one per "param_box"
    row; "maps" holds expression strings and "periodic" (all false when
    omitted) one bool per "param_box" row.  A field that the kind does not
    read is not checked."""
    kind = decl.get("kind")
    name = decl.get("name", kind)

    def field(key):
        if key not in decl:
            raise ValueError(f"manifold {name!r}: {kind} declaration "
                             f"missing field {key!r}")
        return decl[key]

    def refuse(key, rule):
        raise ValueError(f"manifold {name!r}: field {key!r} must {rule}, "
                         f"got {decl[key]!r}")

    def coordinates(key):
        values = _floats(field(key))
        if getattr(values, "shape", None) != (dim,):
            refuse(key, f"give one number per axis ({dim})")
        if not np.all(np.isfinite(values)):
            refuse(key, "hold finite numbers")
        return decl[key]

    def nodes(rows=None):
        n = decl.get("nodes", 256)
        if not (_positive(n, int) or rows and isinstance(n, list)
                and len(n) == rows and all(_positive(c, int) for c in n)):
            refuse("nodes", "be a positive integer, or one per 'param_box' "
                            "row for a parametrized manifold")
        return n

    if kind == "point":
        return manifold_point(coordinates("coords"), name=name)
    if kind == "sphere":
        return manifold_sphere(coordinates("center"), field("radius"),
                               n_nodes=nodes(), name=name)
    if kind != "parametrized":
        raise ValueError(f"manifold {name!r}: unknown kind {kind!r}")
    maps = field("maps")
    if not (isinstance(maps, list) and all(isinstance(m, str) for m in maps)):
        refuse("maps", "be a list of expression strings")
    rows = _intervals(field("param_box"), f"manifold {name!r}: field "
                      "'param_box'")
    periodic = decl.get("periodic", [False] * rows)
    if not (isinstance(periodic, list) and len(periodic) == rows
            and all(isinstance(b, bool) for b in periodic)):
        refuse("periodic", f"hold one true or false per 'param_box' row "
                           f"({rows})")
    return manifold_parametrized(maps, decl["param_box"], periodic,
                                 nodes(rows), dim, name=name)


class Pipeline:
    """Holds shared state across stages for one manifest."""

    def __init__(self, args):
        if not (all(math.isfinite(h) and h > 0 for h in args.h)
                and len(set(args.h)) == len(args.h)):
            raise ValueError("--h values must be finite, positive and "
                             f"distinct, got {args.h}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        self.args = args
        self.spec = read_spec(args.spec)
        self.hash = _manifest_hash(self.spec, args)
        self.p = parse_potential(self.spec["expression"], self.spec["dim"])
        self.grid = Grid(self.spec["box"], args.grid)
        self.h_list = args.h
        os.makedirs(args.out, exist_ok=True)
        self.minima = []
        self.saddle_records = None     # a list once classify has run
        self.saddle_manifolds = {}
        self.saddle_tubes = {}      # name -> (radius, tau), None if undeclared
        for decl in self.spec["manifolds"]:
            M = build_manifold(decl, self.p.dim)
            if decl["role"] == "minimum":
                self.minima.append(M)
            else:
                self.saddle_manifolds[M.name] = M
                self.saddle_tubes[M.name] = (decl.get("radius"),
                                             decl.get("tau"))
        self.labeling = None
        # h -> EigenResult with the first len(minima) eigenvectors only
        self.eigs = {}
        self.pieces = None      # WittenPieces of self.grid, once solved
        self.predictions = None

    # -- helpers ------------------------------------------------------------

    def _out(self, name):
        return os.path.join(self.args.out, name)

    def _write_csv(self, name, header, rows):
        """The manifest line, then `header` and `rows` as CSV; every line
        ends in "\n", as in the other artifacts."""
        with open(self._out(name), "w", newline="") as fh:
            fh.write(f"# manifest {self.hash}\n")
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
        print(f"wrote {self._out(name)}")

    @cached_property
    def sampling(self):
        """f sampled on `self.grid`, once a stage needs it."""
        return sample_grid(self.p, self.grid.box, self.grid.shape)

    @cached_property
    def default_radius(self):
        """A quarter of the smallest node distance between two declared
        manifolds; 0.25 for a lone one.  Computed once, and only for a
        saddle whose declaration has no radius."""
        manifolds = self.minima + list(self.saddle_manifolds.values())
        if len(manifolds) < 2:
            return 0.25
        return min(node_distance(a, b)
                   for a, b in itertools.combinations(manifolds, 2)) / 4.0

    # -- stages -------------------------------------------------------------

    def check(self):
        rep = check_confinement(self.p, self.grid.box)
        print(f"# manifest {self.hash}")
        print(rep.summary())
        if not rep.passed:
            raise SystemExit("confinement check failed")

    def classify(self):
        g = self.sampling
        lines = [f"# manifest {self.hash}"]
        for M in self.minima:
            res = verify_critical(self.p, M)
            if not res.ok:
                raise SystemExit(f"{M.name}: {'; '.join(res.messages)}")
            idx = classify_index(self.p, M)
            if idx != 0:
                raise SystemExit(f"{M.name}: declared minimum has index {idx}")
            lines.append(f"{M.name}: minimum, f = {M.value:.9g}")
        self.saddle_records = []
        for M in self.saddle_manifolds.values():
            res = verify_critical(self.p, M)
            if not res.ok:
                raise SystemExit(f"{M.name}: {'; '.join(res.messages)}")
            radius, tau = self.saddle_tubes[M.name]
            if radius is None:
                radius = self.default_radius
            frame = negative_direction_field(self.p, M)
            if not hasattr(frame, "nu"):
                lines.append(f"{M.name}: NonOrientableNormalLine -> "
                             "NotLocallySeparating")
                continue
            cls = classify_separating(self.p, M, frame, g, radius)
            lines.append(f"{M.name}: index 1, sigma = {M.value:.9g}, "
                         f"{cls.status}")
            self.saddle_records.append(SaddleRecord(
                M, frame, radius, tau=tau, classification=cls))
        print("\n".join(lines))

    def label(self):
        if self.saddle_records is None:
            self.classify()
        self.labeling = run_labeling(self.sampling, self.minima,
                                     self.saddle_records)
        gen = check_generic(self.labeling)
        text = (f"# manifest {self.hash}\n" + self.labeling.report()
                + "\n" + gen.summary() + "\n")
        with open(self._out("labeling.txt"), "w") as fh:
            fh.write(text)
        print(text)
        if self.args.strict and not gen.ok:
            raise SystemExit("genericity check failed in strict mode")

    def predict(self):
        if self.labeling is None:
            self.label()
        self.predictions = kramers.predict_all(
            self.p, self.labeling, self.minima, self.saddle_manifolds)
        rows = [[pr.minimum, f"{pr.barrier:.12g}", f"{pr.exponent:g}",
                 f"{pr.constant:.12g}",
                 ";".join(f"{c.name}:dim={c.dim}:integral={c.integral:.12g}"
                          f":top={int(c.in_top_set)}"
                          for c in pr.contributions)]
                + [f"{pr.evaluate(h):.12g}" for h in self.h_list]
                for pr in self.predictions]
        self._write_csv("predictions.csv",
                        ["minimum", "S", "exponent", "D", "saddles"]
                        + [f"lambda(h={h:g})" for h in self.h_list], rows)

    def solve(self):
        if self.labeling is None:
            self.label()
        m = len(self.minima)
        k = m + 3
        rows = []
        # the operator pieces and the LU ordering do not depend on h: the
        # first h builds them, the others reuse them
        ordering = None
        for h in self.h_list:
            W = spectral.assemble_witten(self.p, self.grid.box,
                                         self.grid.shape, h,
                                         strict=self.args.strict,
                                         pieces=self.pieces)
            res = spectral.smallest_eigs(W, k, ordering=ordering)
            self.pieces, ordering = W.pieces, res.ordering
            # quasimode reads only the first m eigenvectors; the copy lets
            # the other columns go
            self.eigs[h] = EigenResult(
                values=res.values, vectors=res.vectors[:, :m].copy(),
                floor=res.floor, residuals=res.residuals)
            n, ratio = spectral.count_small(res.values, h)
            rows.append([h, "x".join(str(s) for s in W.grid.shape), k,
                         ";".join(f"{v:.12g}" for v in res.values),
                         f"{res.floor:.3g}", n, f"{ratio:.4g}",
                         f"{np.max(res.residuals):.3g}"])
            # the next h's factorization sets the peak: hold none of this
            # h's other eigenvectors through it
            del res
        self._write_csv("spectrum.csv",
                        ["h", "grid", "k", "eigenvalues", "floor",
                         "count_small", "gap_ratio", "max_residual"], rows)

    def quasimode(self):
        if not self.eigs:
            self.solve()
        rows = []
        for h in self.h_list:
            psis = quasimodes.quasimode_bundle(
                self.minima, self.labeling, self.saddle_records,
                self.sampling, h)
            W = self.pieces.operator(h)
            IM = quasimodes.interaction_matrix(W, psis, self.eigs[h],
                                               self.labeling)
            by_name = {q.minimum: q for q in psis}
            for j, name in enumerate(IM.names):
                mu = quasimodes.rayleigh(W, by_name[name])
                rows.append([h, name, f"{mu:.12g}",
                             ";".join(f"{v:.12g}" for v in IM.values),
                             f"{np.max(np.abs(IM.gram - np.eye(len(psis)))):.3g}",
                             f"{IM.norm_loss[j]:.3g}"])
        self._write_csv("interaction.csv",
                        ["h", "minimum", "rayleigh", "M_h_eigenvalues",
                         "gram_offdiag_max", "projection_loss"], rows)

    def validate(self):
        if self.predictions is None:
            self.predict()
        if not self.eigs:
            self.solve()
        tol = self.spec.get("validate_tolerance")
        violated = False
        rows = []
        for h in self.h_list:
            eig = self.eigs[h]
            # eigenvalue 0 belongs to the global minimum; predict_all gives
            # the predictions deepest first, so they line up with values[1:]
            for pr, lam_num, reliable in zip(self.predictions, eig.values[1:],
                                             eig.reliable()[1:]):
                lam_pred = pr.evaluate(h)
                ratio = lam_num / lam_pred if lam_pred > 0 else np.inf
                alpha1 = (ratio - 1.0) / math.sqrt(h)
                rows.append([h, pr.minimum, f"{lam_num:.12g}",
                             f"{lam_pred:.12g}", f"{ratio:.6g}",
                             f"{alpha1:.4g}", int(reliable)])
                if tol is not None and reliable and abs(ratio - 1) > tol:
                    violated = True
        self._write_csv("validate.csv",
                        ["h", "minimum", "lambda_num", "lambda_pred",
                         "ratio", "alpha1_fit", "reliable"], rows)
        if violated:
            raise SystemExit("validate: ratio tolerance violated")

    def simulate(self):
        if self.labeling is None:
            self.label()
        g = self.sampling
        rows = []
        samples = {}
        for M in self.minima:
            lab = self.labeling.minima[M.name]
            if FICTIVE_SADDLE in lab.saddles:
                continue
            samples[M.name] = []
            pr = kramers.prefactor(self.p, M, self.labeling,
                                   self.saddle_manifolds)
            for h in self.h_list:
                dt = sde.stability_dt(self.p, M.nodes, h)
                lam = pr.evaluate(h)
                horizon = 50.0 * h / max(lam, 1e-300)
                cfg = sde.LangevinConfig(
                    h=h, dt=dt, horizon=min(horizon, 1e7), n_paths=2000,
                    seed=self.args.seed, margin=0.05 * lab.depth)
                s = sde.simulate_exit(self.p, M, self.labeling, g, cfg)
                samples[M.name].append(s)
                rows.append([M.name, h, f"{s.mean_exit():.6g}",
                             s.n_censored, s.times.size])
        for name, ss in samples.items():
            if len(ss) >= 3:
                fit = sde.arrhenius_fit(ss)
                S = self.labeling.minima[name].depth
                print(json.dumps({"minimum": name, "slope": fit.slope,
                                  "target_2S": 2 * S,
                                  "ci_halfwidth": fit.ci_halfwidth}))
        self._write_csv("exit_times.csv",
                        ["minimum", "h", "mean_exit", "censored", "paths"],
                        rows)

    def run(self, command):
        """Run one stage, or every stage for `all`; `self.stage` names the
        stage running.  The stages run with every loaded OpenBLAS held at
        one thread, so their artifacts are the same bit for bit at any
        thread count: numpy's BLAS products in `quasimode` and `simulate`
        otherwise sum in an order that depends on it."""
        with spectral.ONE_BLAS_THREAD:
            for stage in STAGES if command == "all" else (command,):
                self.stage = stage
                getattr(self, stage)()


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="metastab",
        description="Eyring-Kramers predictions for Witten Laplacians and "
                    "their numerical cross-validation")
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("--spec", required=True, help="potential spec file (JSON)")
    ap.add_argument("--h", type=lambda s: [float(v) for v in s.split(",")],
                    default=list(DEFAULT_H), help="comma-separated h values")
    ap.add_argument("--grid", type=lambda s: [int(v) for v in s.split(",")],
                    default=None, help="grid resolution override N[,N..]")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--strict", action="store_true",
                    help="escalate warnings to errors")
    args = ap.parse_args(argv)
    pipeline = None
    try:
        pipeline = Pipeline(args)
        pipeline.run(args.command)
    except SystemExit:
        raise
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        # bad input, a failed numerical check, an expression evaluated
        # outside its domain (DomainError), or a file that cannot be read
        # or written, in the stage that was running
        stage = getattr(pipeline, "stage", "setup")
        print(f"error: {stage}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
