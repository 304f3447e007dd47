"""Overdamped Langevin simulation dX = -2 grad f dt + sqrt(2h) dB and
exit-time statistics for Arrhenius-slope validation.

Exit from a well is defined through the labeled component geometry: a path
leaves once it enters a grid cell outside E(m)'s component, ignoring the
thin shell within `margin` of the separating level so rim grazing does not
count.  That measures the time to leave E(m)'s component, outside the
margin shell, not the transition time: on the shipped 1D spec it is a
steady 0.116-0.121 of the mean hitting time of the destination minimum,
so only the exponential slope of the mean exit time in 1/h is compared
downstream.  The Eyring-Kramers prefactor concerns that hitting time,
E tau ~ h / lambda_2, with -L = Delta_f / h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labeling import FICTIVE_SADDLE, LabelingResult
from .manifolds import CriticalManifold
from .potential import Potential
from .sublevel import GridSampling

__all__ = [
    "LangevinConfig",
    "stability_dt",
    "ExitSampleSet",
    "simulate_exit",
    "ArrheniusFit",
    "arrhenius_fit",
    "STABILITY_FACTOR",
    "BOOTSTRAP_RESAMPLES",
]

STABILITY_FACTOR = 10.0
BOOTSTRAP_RESAMPLES = 200


def stability_dt(p: Potential, points, h):
    """Largest stable step h / (STABILITY_FACTOR * max |Hess f|) over sample
    points."""
    _, _, H = p.hessians(np.atleast_2d(np.asarray(points, dtype=float)))
    worst = float(np.max(np.abs(np.linalg.eigvalsh(H)), initial=0.0))
    if worst == 0.0:
        raise ValueError("vanishing Hessian sample; cannot bound the step")
    return h / (STABILITY_FACTOR * worst)


@dataclass
class LangevinConfig:
    h: float
    dt: float
    horizon: float
    n_paths: int
    seed: int
    margin: float = 0.0       # level shell ignored around sigma(m)

    def rng(self):
        return np.random.Generator(np.random.Philox(key=self.seed))


@dataclass
class ExitSampleSet:
    h: float
    times: np.ndarray
    censored: np.ndarray      # True where the horizon cut the path

    @property
    def n_censored(self):
        return int(np.sum(self.censored))

    def mean_exit(self):
        frac = self.n_censored / self.times.size
        if frac > 0.5:
            raise RuntimeError(
                f"{frac:.0%} of paths censored at the horizon; statistics "
                "refused (increase the horizon)")
        return float(np.mean(self.times))


def _exit_mask(g: GridSampling, L: LabelingResult, lab, margin):
    cmap = L.level_maps[lab.level]
    shell = (cmap.labels < 0) & (g.values <= lab.sigma + margin)
    return (cmap.labels != lab.component) & ~shell


def simulate_exit(p: Potential, m: CriticalManifold, L: LabelingResult,
                  g: GridSampling, cfg: LangevinConfig) -> ExitSampleSet:
    """Euler-Maruyama exit times from the well of m; deterministic per seed.

    Start points cycle through the manifold's quadrature nodes.  Leaving
    the grid box counts as an exit (the box is confining by construction).
    """
    lab = L.minima[m.name]
    if FICTIVE_SADDLE in lab.saddles:
        raise ValueError(f"{m.name} is the global minimum: S = inf, "
                         "no exit event defined")
    cap = stability_dt(p, m.nodes, cfg.h)
    if cfg.dt > cap:
        raise ValueError(f"dt = {cfg.dt:.3g} violates the stability bound "
                         f"{cap:.3g} = h / ({STABILITY_FACTOR:g} "
                         "max |Hess f|)")
    exit_mask = _exit_mask(g, L, lab, cfg.margin)
    rng = cfg.rng()
    n = cfg.n_paths
    X = m.nodes[np.arange(n) % m.nodes.shape[0]].astype(float).copy()
    times = np.full(n, cfg.horizon)
    alive = np.ones(n, dtype=bool)
    sigma_step = np.sqrt(2.0 * cfg.h * cfg.dt)
    t = 0.0
    n_steps = int(np.ceil(cfg.horizon / cfg.dt))
    for _ in range(n_steps):
        if not np.any(alive):
            break
        idx = np.nonzero(alive)[0]
        x = X[idx]
        _, grad = p.gradients(x)
        x = x - 2.0 * cfg.dt * grad + sigma_step * rng.standard_normal(x.shape)
        X[idx] = x
        t += cfg.dt
        done = idx[g.lookup(exit_mask, x, True)]
        times[done] = t
        alive[done] = False
    return ExitSampleSet(h=cfg.h, times=times, censored=alive)


@dataclass
class ArrheniusFit:
    slope: float              # d ln(mean exit) / d(1/h); compare to 2 S(m)
    intercept: float
    ci_halfwidth: float       # bootstrap confidence half-width on the slope


def arrhenius_fit(samples) -> ArrheniusFit:
    """Least-squares slope of ln(mean exit time) against 1/h, with a 95%
    confidence half-width from BOOTSTRAP_RESAMPLES bootstrap resamples of
    the exit times, drawn the same on every call."""
    hs = np.array([s.h for s in samples])
    if hs.size < 3:
        raise ValueError("need at least 3 values of h")
    if np.unique(hs).size != hs.size:
        raise ValueError("duplicate h values")
    means = np.array([s.mean_exit() for s in samples])
    x = 1.0 / hs
    y = np.log(means)
    slope, intercept = np.polyfit(x, y, 1)
    rng = np.random.default_rng(0)
    boots = np.empty(BOOTSTRAP_RESAMPLES)
    for b in range(BOOTSTRAP_RESAMPLES):
        yb = np.empty_like(y)
        for i, s in enumerate(samples):
            pick = rng.integers(0, s.times.size, s.times.size)
            yb[i] = np.log(np.mean(s.times[pick]))
        boots[b] = np.polyfit(x, yb, 1)[0]
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return ArrheniusFit(slope=float(slope), intercept=float(intercept),
                        ci_halfwidth=float((hi - lo) / 2.0))
