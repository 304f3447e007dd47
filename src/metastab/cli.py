"""Batch front end: check -> classify -> label -> predict -> solve ->
quasimode -> validate -> simulate, driven by a JSON potential spec file.

Every artifact starts with the manifest hash so runs are attributable;
`all` runs the stages in pipeline order and is byte-identical to running
them one by one with the same seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from functools import cached_property

import numpy as np

from . import kramers, quasimodes, sde, spectral
from .labeling import (FICTIVE_SADDLE, SaddleRecord, check_generic,
                       run_labeling)
from .manifolds import (classify_index, manifold_from_decl,
                        negative_direction_field, verify_critical)
from .potential import check_confinement, load_spec_file, parse_potential
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


def _min_separation(manifolds):
    best = np.inf
    for i, a in enumerate(manifolds):
        for b in manifolds[i + 1:]:
            d = np.min(np.linalg.norm(
                a.nodes[:, None, :] - b.nodes[None, :, :], axis=-1))
            best = min(best, float(d))
    return best


class Pipeline:
    """Holds shared state across stages for one manifest."""

    def __init__(self, args):
        self.args = args
        self.spec = load_spec_file(args.spec)
        self.hash = _manifest_hash(self.spec, args)
        self.p = parse_potential(self.spec["expression"], self.spec["dim"])
        self.grid = Grid(self.spec["box"], args.grid)
        self.h_list = args.h
        os.makedirs(args.out, exist_ok=True)
        self.minima = []
        self.saddle_records = []
        self.saddle_manifolds = {}
        for decl in self.spec["manifolds"]:
            M = manifold_from_decl(decl, self.p.dim)
            M.meta["decl"] = decl
            if decl["role"] == "minimum":
                self.minima.append(M)
            else:
                self.saddle_manifolds[M.name] = M
        self.labeling = None
        # h -> EigenResult with the first len(minima) eigenvectors only
        self.eigs = {}
        self.pieces = None      # WittenPieces of self.grid, once solved
        self.predictions = None

    # -- helpers ------------------------------------------------------------

    def _out(self, name):
        return os.path.join(self.args.out, name)

    @cached_property
    def sampling(self):
        """f sampled on `self.grid`, once a stage needs it."""
        return sample_grid(self.p, self.grid.box, self.grid.shape)

    def default_radius(self, M):
        others = [m for m in self.minima if m.name != M.name]
        others += [s for s in self.saddle_manifolds.values()
                   if s.name != M.name]
        return _min_separation([M] + others) / 4.0 if others else 0.25

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
            decl = M.meta["decl"]
            radius = decl.get("radius", self.default_radius(M))
            frame = negative_direction_field(self.p, M)
            if not hasattr(frame, "nu"):
                lines.append(f"{M.name}: NonOrientableNormalLine -> "
                             "NotLocallySeparating")
                continue
            cls = classify_separating(self.p, M, frame, g, radius)
            lines.append(f"{M.name}: index 1, sigma = {M.value:.9g}, "
                         f"{cls.status}")
            self.saddle_records.append(
                SaddleRecord(M, frame, radius, cls))
        print("\n".join(lines))

    def label(self):
        if not self.saddle_records:
            self.classify()
        g = self.sampling
        self.labeling = run_labeling(self.p, g, self.minima,
                                     self.saddle_records,
                                     require_separating=False)
        gen = check_generic(g, self.labeling, self.minima)
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
        path = self._out("predictions.csv")
        kramers.write_prediction_csv(path, self.predictions, self.h_list,
                                     header_line=f"# manifest {self.hash}")
        print(f"wrote {path}")

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
        with open(self._out("spectrum.csv"), "w", newline="") as fh:
            fh.write(f"# manifest {self.hash}\n")
            w = csv.writer(fh)
            w.writerow(["h", "grid", "k", "eigenvalues", "floor",
                        "count_small", "gap_ratio", "max_residual"])
            w.writerows(rows)
        print(f"wrote {self._out('spectrum.csv')}")

    def _quasimode_bundle(self, h):
        g = self.sampling
        L = self.labeling
        psis = []
        for M in self.minima:
            lab = L.minima[M.name]
            gluings = {}
            for s in lab.saddles:
                if s == FICTIVE_SADDLE:
                    continue
                rec = next(r for r in self.saddle_records if r.name == s)
                decl = rec.manifold.meta["decl"]
                gluings[s] = quasimodes.build_gluing(
                    self.p, rec, lab.component, g, h,
                    tau=decl.get("tau"))
            psis.append(quasimodes.build_psi(
                self.p, M, L, gluings, g, h, other_minima=self.minima))
        return psis

    def quasimode(self):
        if not self.eigs:
            self.solve()
        rows = []
        for h in self.h_list:
            psis = self._quasimode_bundle(h)
            W = self.pieces.operator(h)
            IM = quasimodes.interaction_matrix(W, psis, self.eigs[h],
                                               self.labeling)
            mh = np.sort(IM.eigenvalues())
            by_name = {q.minimum: q for q in psis}
            for j, name in enumerate(IM.names):
                mu = quasimodes.rayleigh(W, by_name[name])
                rows.append([h, name, f"{mu:.12g}",
                             ";".join(f"{v:.12g}" for v in mh),
                             f"{np.max(np.abs(IM.gram - np.eye(len(psis)))):.3g}",
                             f"{IM.norm_loss[j]:.3g}"])
        with open(self._out("interaction.csv"), "w", newline="") as fh:
            fh.write(f"# manifest {self.hash}\n")
            w = csv.writer(fh)
            w.writerow(["h", "minimum", "rayleigh", "M_h_eigenvalues",
                        "gram_offdiag_max", "projection_loss"])
            w.writerows(rows)
        print(f"wrote {self._out('interaction.csv')}")

    def validate(self):
        if self.predictions is None:
            self.predict()
        if not self.eigs:
            self.solve()
        tol = self.spec.get("validate_tolerance")
        violated = False
        rows = []
        for h in self.h_list:
            vals = self.eigs[h].values
            floor = self.eigs[h].floor
            # eigenvalue 0 belongs to the global minimum; predict_all gives
            # the predictions deepest first, so they line up with vals[1:]
            for j, pr in enumerate(self.predictions):
                lam_num = vals[1 + j]
                lam_pred = pr.evaluate(h)
                ratio = lam_num / lam_pred if lam_pred > 0 else np.inf
                reliable = lam_num >= floor
                alpha1 = (ratio - 1.0) / math.sqrt(h)
                rows.append([h, pr.minimum, f"{lam_num:.12g}",
                             f"{lam_pred:.12g}", f"{ratio:.6g}",
                             f"{alpha1:.4g}", int(reliable)])
                if tol is not None and reliable and abs(ratio - 1) > tol:
                    violated = True
        with open(self._out("validate.csv"), "w", newline="") as fh:
            fh.write(f"# manifest {self.hash}\n")
            w = csv.writer(fh)
            w.writerow(["h", "minimum", "lambda_num", "lambda_pred",
                        "ratio", "alpha1_fit", "reliable"])
            w.writerows(rows)
        print(f"wrote {self._out('validate.csv')}")
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
        with open(self._out("exit_times.csv"), "w", newline="") as fh:
            fh.write(f"# manifest {self.hash}\n")
            w = csv.writer(fh)
            w.writerow(["minimum", "h", "mean_exit", "censored", "paths"])
            w.writerows(rows)
        for name, ss in samples.items():
            if len(ss) >= 3:
                fit = sde.arrhenius_fit(ss)
                S = self.labeling.minima[name].depth
                print(json.dumps({"minimum": name, "slope": fit.slope,
                                  "target_2S": 2 * S,
                                  "ci_halfwidth": fit.ci_halfwidth}))
        print(f"wrote {self._out('exit_times.csv')}")

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
