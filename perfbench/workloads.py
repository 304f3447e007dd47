"""The benchmark's workloads: set-up, timed work and output checks.

Each repetition of a workload runs in a process of its own (see
worker.py).  `execute` marks
the end of set-up and the moment every output exists on a `Timing`, and
returns the outputs; `check` then compares them with references and
criterion bounds, outside the timed span.

Why these workloads (each stresses a different module):
  tilted_1d  `metastab all` on the shipped 1D spec.  Langevin exits (sde)
             and the scalar-jet `check` stage do most of the work; the
             spectral solve is about 2% of it.
  tilted_2d  the same well plus a harmonic transverse direction on a
             512x512 grid.  The factored shift-invert solve (spectral)
             does about 75% of the work and its LU has real fill-in; the
             operator separates, so lambda_2(2D) = lambda_2(1D).
  tube_3d    criterion 7's twisted/untwisted circle saddles through
             library calls (the potentials are not confining, so the CLI
             rejects them).  The 3D tube grid in sublevel and peak memory
             do the work; spectral and sde never run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
H_LIST = "0.2,0.15,0.1"

# Output-check tolerances; the last three are acceptance-criterion bounds.
LAMBDA_REF_RTOL = 1e-6       # eigsh without v0 jitters around 1e-11
SEPARABLE_RTOL = 1e-3        # lambda_2(2D) against the 1D reference
INTERACTION_RTOL = 1e-2      # criterion 5: M_h spectrum against lambda_2
SLOPE_RTOL = 0.15            # criterion 11: Arrhenius slope against 2S

# lambda_2 per h, from `metastab all ... --h 0.2,0.15,0.1` at this revision
# (any seed: the spectral stage does not use it).
LAMBDA2_REF = {
    "tilted_1d": {0.2: 0.0180070868942, 0.15: 0.00724569471874,
                  0.1: 0.00159285150692},
    "tilted_2d": {0.2: 0.0180061734397, 0.15: 0.00724514987738,
                  0.1: 0.00159259460278},
}

# Criterion 7's circle saddles in R^3 (copied from the test suite):
# f = a^2 - b^2 applied to (r - 1, z) rotated by theta/2, so the negative
# direction comes back flipped after one turn; and its untwisted version.
TWISTED = ("((sqrt(x1^2 + x2^2) - 1)^2 - x3^2) * x1 / sqrt(x1^2 + x2^2)"
           " + 2*(sqrt(x1^2 + x2^2) - 1) * x3 * x2 / sqrt(x1^2 + x2^2)")
UNTWISTED = "(sqrt(x1^2 + x2^2) - 1)^2 - x3^2"
TUBE_RADIUS = 0.3
TUBE_RESOLUTION = 320
UNTWISTED_BOX = [[-1.6, 1.6], [-1.6, 1.6], [-1.0, 1.0]]
UNTWISTED_GRID = (96, 96, 64)


def two_s_tilted():
    """2 S for f = x^4/4 - x^2/2 + x/10: saddle minus right minimum."""
    import numpy as np

    _, saddle, right = np.sort(np.roots([1.0, 0.0, -1.0, 0.1]).real)
    f = lambda x: x**4 / 4 - x**2 / 2 + x / 10
    return float(2.0 * (f(saddle) - f(right)))


def _cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Timing:
    """Set-up end mark and the timed work span of one process."""

    def __init__(self):
        self.setup_end = None
        self.cpu_at_setup = None
        self.wall_s = None
        self.cpu_s = None

    def mark_setup(self):
        self.setup_end = time.monotonic()
        self.cpu_at_setup = _cpu()

    def mark_done(self):
        self.wall_s = time.monotonic() - self.setup_end
        self.cpu_s = _cpu() - self.cpu_at_setup


# ---------------------------------------------------------------------------
# CLI workloads


class CliWorkload:
    """`metastab all` through `metastab.cli.main`; set-up ends when the
    pipeline is constructed (interpreter, imports, spec load and parse)."""

    def __init__(self, name, spec, grid=None):
        self.name = name
        self.spec = spec
        self.grid = grid

    def required_files(self):
        return [self.spec]

    def preload(self):
        import metastab.cli  # noqa: F401

    def argv(self, seed, out):
        argv = ["all", "--spec", self.spec]
        if self.grid:
            argv += ["--grid", self.grid]
        return argv + ["--h", H_LIST, "--seed", str(seed), "--out", out]

    def command(self, seed, out):
        return "metastab " + " ".join(self.argv(seed, out))

    def execute(self, seed, out, timing, install=None, setup_only=False):
        from metastab import cli

        if install is not None:
            install()
        run = cli.Pipeline.run

        def timed_run(pipeline, command):
            timing.mark_setup()
            if not setup_only:
                run(pipeline, command)

        cli.Pipeline.run = timed_run
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            try:
                code = cli.main(self.argv(seed, out))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if not setup_only:
            timing.mark_done()
        return {"exit_code": code or 0, "stdout": stdout.getvalue(),
                "out": out}

    def check(self, outputs):
        """[(name, ok, detail)] for the workload's outputs, plus findings
        (measured, reported, not gating)."""
        checks = []
        out = outputs["out"]
        checks.append(("cli exits 0", outputs["exit_code"] == 0,
                       f"exit code {outputs['exit_code']}"))
        spectrum = _read_csv(os.path.join(out, "spectrum.csv"))
        interaction = _read_csv(os.path.join(out, "interaction.csv"))
        exits = _read_csv(os.path.join(out, "exit_times.csv"))
        lam2 = {}
        for row in spectrum:
            lam2[float(row["h"])] = sorted(
                float(v) for v in row["eigenvalues"].split(";"))[1]
        mh = {}
        for row in interaction:
            mh[float(row["h"])] = sorted(
                float(v) for v in row["M_h_eigenvalues"].split(";"))[1]
        for h, ref in LAMBDA2_REF[self.name].items():
            got = lam2.get(h, math.nan)
            rel = abs(got - ref) / ref
            checks.append((f"lambda_2 reference h={h}",
                           rel <= LAMBDA_REF_RTOL,
                           f"{got:.12g} vs {ref:.12g}, rel {rel:.1e} <= "
                           f"{LAMBDA_REF_RTOL:g}"))
            if self.name != "tilted_1d":
                ref1 = LAMBDA2_REF["tilted_1d"][h]
                rel = abs(got - ref1) / ref1
                checks.append((f"lambda_2 = 1D lambda_2 h={h}",
                               rel <= SEPARABLE_RTOL,
                               f"rel {rel:.1e} <= {SEPARABLE_RTOL:g}"))
            m = mh.get(h, math.nan)
            rel = abs(m - got) / got
            checks.append((f"M_h eigenvalue h={h}", rel <= INTERACTION_RTOL,
                           f"rel {rel:.1e} <= {INTERACTION_RTOL:g}"))
        for h in LAMBDA2_REF[self.name]:
            rows = [r for r in exits if float(r["h"]) == h]
            censored = sum(int(r["censored"]) for r in rows)
            checks.append((f"no censored paths h={h}",
                           bool(rows) and censored == 0,
                           f"{censored} censored in {len(rows)} rows"))
        slope = _printed_slope(outputs["stdout"])
        target = two_s_tilted()
        rel = abs(slope - target) / target
        slope_check = ("Arrhenius slope", rel <= SLOPE_RTOL,
                       f"{slope:.4f} vs 2S = {target:.4f} (off {rel:.1%}, "
                       f"bound {SLOPE_RTOL:.0%})")
        if self.name == "tilted_1d":
            return checks + [slope_check], []
        # On the 2D well the slope falls 14-21% below 2S at every seed
        # tried (0-9) at this revision: a standing finding about the exit
        # definition, reported each run but not gating correctness.
        return checks, [slope_check]


def _read_csv(path):
    if not os.path.exists(path):
        return []
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _printed_slope(stdout):
    for line in stdout.splitlines():
        if line.startswith("{") and '"slope"' in line:
            return float(json.loads(line)["slope"])
    return math.nan


# ---------------------------------------------------------------------------
# 3D tube workload


class TubeWorkload:
    """Criterion 7 through library calls; set-up ends when both potentials
    are parsed and both 256-node circles are built.  Deterministic: the
    seed is not used."""

    name = "tube_3d"

    def required_files(self):
        return []

    def preload(self):
        pass

    def command(self, seed, out):
        return ("verify_critical + negative_direction_field on twisted and "
                "untwisted 256-node circles; local_structure(twisted, radius "
                f"{TUBE_RADIUS}, resolution {TUBE_RESOLUTION}); "
                f"classify_separating(untwisted, grid {UNTWISTED_GRID}, "
                f"radius {TUBE_RADIUS}, resolution {TUBE_RESOLUTION})")

    def execute(self, seed, out, timing, install=None, setup_only=False):
        import metastab.manifolds as manifolds
        import metastab.sublevel as sublevel
        from metastab.potential import parse_potential

        if install is not None:
            install()
        p_tw = parse_potential(TWISTED, 3)
        p_un = parse_potential(UNTWISTED, 3)
        circles = [manifolds.manifold_parametrized(
            maps=["cos(x1)", "sin(x1)", "0"], param_box=[[0.0, 2 * math.pi]],
            periodic=[True], n_nodes=[256], ambient_dim=3, name=name)
            for name in ("twisted", "untwisted")]
        timing.mark_setup()
        if setup_only:
            return {}
        m_tw, m_un = circles
        verified = [manifolds.verify_critical(p_tw, m_tw).ok,
                    manifolds.verify_critical(p_un, m_un).ok]
        fr_tw = manifolds.negative_direction_field(p_tw, m_tw)
        fr_un = manifolds.negative_direction_field(p_un, m_un)
        loc = sublevel.local_structure(p_tw, m_tw, None, radius=TUBE_RADIUS,
                                       resolution=TUBE_RESOLUTION)
        g = sublevel.sample_grid(p_un, UNTWISTED_BOX, shape=UNTWISTED_GRID)
        cls = sublevel.classify_separating(p_un, m_un, fr_un, g,
                                           radius=TUBE_RADIUS,
                                           resolution=TUBE_RESOLUTION)
        timing.mark_done()
        flipped = manifolds.NonOrientableNormalLine
        return {"verified": verified,
                "twisted_orientable": not isinstance(fr_tw, flipped),
                "untwisted_orientable": not isinstance(fr_un, flipped),
                "twisted_components": loc.n_components,
                "untwisted_status": cls.status}

    def check(self, o):
        return [
            ("circles verified critical", all(o["verified"]),
             f"verify_critical ok: {o['verified']}"),
            ("twisted line non-orientable", not o["twisted_orientable"], ""),
            ("untwisted line orientable", o["untwisted_orientable"], ""),
            ("twisted tube single component", o["twisted_components"] == 1,
             f"{o['twisted_components']} components"),
            ("untwisted saddle separating",
             o["untwisted_status"] == "separating", o["untwisted_status"]),
        ], []


WORKLOADS = {
    "tilted_1d": CliWorkload("tilted_1d", "specs/tilted_double_well.json"),
    "tilted_2d": CliWorkload("tilted_2d", "perfbench/specs/tilted_2d.json",
                             grid="512,512"),
    "tube_3d": TubeWorkload(),
}
