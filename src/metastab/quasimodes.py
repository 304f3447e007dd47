"""Glued Gaussian quasimodes, Agmon distances and the interaction matrix.

Each non-global minimum m gets an approximate eigenfunction

    psi_m = 2 theta_m e^{-(f - f(m))/h} prod_{Gamma in j(m)} (v_Gamma + 1)/2,

where v_Gamma is an error-function-like profile in the signed transversal
coordinate ell0 across the saddle (positive on the E(m) side) and theta_m
is a smoothstep cutoff of the distance to E(m).  The global minimum keeps
the pure Gibbs vector.  Rayleigh quotients and the projected interaction
matrix give an independent route to the small spectrum.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .kramers import EXP_CLAMP
from .labeling import FICTIVE_SADDLE, LabelingResult, SaddleRecord
from .manifolds import CriticalManifold
from .potential import Potential
from .spectral import WittenOperator
from .sublevel import GridSampling

__all__ = [
    "zeta",
    "smoothstep",
    "agmon_distance",
    "SaddleGluing",
    "build_gluing",
    "QuasimodeField",
    "build_psi",
    "rayleigh",
    "InteractionMatrix",
    "interaction_matrix",
    "MAX_PROJECTION_LOSS",
]

MAX_PROJECTION_LOSS = 0.01


# ---------------------------------------------------------------------------
# Smooth cutoffs


def _expstep(u):
    """exp(-1/u) continued by 0 for u <= 0; the standard smooth spline seed."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    pos = u > 0
    out[pos] = np.exp(-1.0 / u[pos])
    return out


def smoothstep(t):
    """C^inf monotone step: 0 for t <= 0, 1 for t >= 1."""
    a = _expstep(t)
    b = _expstep(1.0 - np.asarray(t, dtype=float))
    return a / (a + b + np.finfo(float).tiny)


def zeta(t):
    """Even smooth bump, 1 on [-1, 1], supported in [-2, 2]."""
    return smoothstep(2.0 - np.abs(np.asarray(t, dtype=float)))


# ---------------------------------------------------------------------------
# Agmon distance by first-order fast marching


def agmon_distance(p: Potential, target: CriticalManifold, g: GridSampling):
    """Viscosity solution of |grad phi| = |grad f|, phi = 0 on the target.

    First-order fast marching on cell centers, seeded with phi = 0 on the
    cells within 1.01 times the largest spacing of a target node; returns
    an array shaped like the grid with inf on cells the front never
    reached.
    """
    # imported here: scipy.spatial takes about 0.1 s to load, and no stage
    # of the command-line pipeline calls this function
    from scipy.spatial import cKDTree

    shape = g.shape
    d = g.dim
    spac = g.spacings
    pts = g.points()
    _, grads = p.gradients(pts)
    speed = np.sqrt(np.sum(grads**2, axis=1)).reshape(shape)

    seed_radius = 1.01 * float(np.max(spac))
    tree = cKDTree(target.nodes)
    dist, _ = tree.query(pts, workers=-1)
    seeds = (dist <= seed_radius).reshape(shape)
    if not np.any(seeds):
        raise ValueError("target does not intersect the grid")

    phi = np.full(shape, np.inf)
    phi[seeds] = 0.0
    accepted = np.zeros(shape, dtype=bool)
    heap = [(0.0, idx) for idx in zip(*np.nonzero(seeds))]
    heapq.heapify(heap)

    def solve(idx):
        # one-sided upwind quadratic using accepted neighbors per axis
        terms = []
        for a in range(d):
            best = np.inf
            for step in (-1, 1):
                j = list(idx)
                j[a] += step
                if 0 <= j[a] < shape[a]:
                    j = tuple(j)
                    if accepted[j]:
                        best = min(best, phi[j])
            if np.isfinite(best):
                terms.append((best, spac[a]))
        if not terms:
            return np.inf
        terms.sort()
        c = speed[idx]
        x = np.inf
        for m in range(len(terms), 0, -1):
            sub = terms[:m]
            s1 = sum(v / dd**2 for v, dd in sub)
            s0 = sum(1.0 / dd**2 for v, dd in sub)
            s2 = sum(v * v / dd**2 for v, dd in sub)
            disc = s1 * s1 - s0 * (s2 - c * c)
            if disc < 0:
                continue
            x = (s1 + np.sqrt(disc)) / s0
            if x >= sub[-1][0]:
                break
            x = np.inf
        return x

    while heap:
        val, idx = heapq.heappop(heap)
        if accepted[idx]:
            continue
        accepted[idx] = True
        for a in range(d):
            for step in (-1, 1):
                j = list(idx)
                j[a] += step
                if not (0 <= j[a] < shape[a]):
                    continue
                j = tuple(j)
                if accepted[j]:
                    continue
                trial = solve(j)
                if trial < phi[j]:
                    phi[j] = trial
                    heapq.heappush(heap, (trial, j))
    return phi


# ---------------------------------------------------------------------------
# Saddle gluing


@dataclass
class SaddleGluing:
    """Profile data of one saddle crossing, oriented toward a minimum."""

    saddle: str
    tau: float
    h: float
    ell0: np.ndarray          # signed transversal coordinate on the grid
    C: float                  # normalization int_0^inf zeta(s/tau)e^{-s^2/2h}
    _s_grid: np.ndarray = field(repr=False, default=None)
    _cum: np.ndarray = field(repr=False, default=None)

    def v(self):
        """v_Gamma on the grid: odd, saturating at +/-1 beyond |ell0|=2tau."""
        a = np.abs(self.ell0)
        out = np.interp(a, self._s_grid, self._cum) / self.C
        return np.sign(self.ell0) * np.minimum(out, 1.0)


def _signed_quadratic_ell0(rec: SaddleRecord, pts):
    """sqrt(-2 mu(p)) <x - p, nu(p)> with p the closest saddle node.

    A one-node manifold (every point saddle) needs no nearest-node search;
    scipy.spatial, which takes about 0.1 s to import, is loaded only for
    manifolds with more nodes."""
    M, fr = rec.manifold, rec.frame
    if len(M.nodes) == 1:
        near = 0
    else:
        from scipy.spatial import cKDTree

        _, near = cKDTree(M.nodes).query(pts, workers=-1)
    diff = pts - M.nodes[near]
    return np.sqrt(2.0 * np.abs(fr.mu[near])) * np.sum(diff * fr.nu[near],
                                                       axis=1)


def plateau_feasible_tau(rec: SaddleRecord):
    """Largest tau with |ell0| >= 2 tau on the gluing-tube boundary."""
    mu_min = float(np.min(np.abs(rec.frame.mu)))
    return 0.5 * np.sqrt(2.0 * mu_min) * rec.radius


def build_gluing(p: Potential, rec: SaddleRecord, minimum_component,
                 g: GridSampling, h, tau=None, mode="quadratic",
                 plus_is_minimum=None) -> SaddleGluing:
    """Oriented gluing profile for one (saddle, minimum) pair.

    `minimum_component` is the global component id of E(m) at the saddle's
    level; the classification's side labels fix the sign of ell0 so that it
    is positive toward the minimum.  `plus_is_minimum` overrides that
    lookup when the caller already knows the orientation.
    """
    tau_max = plateau_feasible_tau(rec)
    if tau is None:
        tau = tau_max / 3.0
    if tau > tau_max:
        raise ValueError(f"tau = {tau:.4g} exceeds the plateau-feasible "
                         f"maximum {tau_max:.4g} for saddle {rec.name}")
    if plus_is_minimum is None:
        cls = rec.classification
        if cls is None or cls.b_plus is None:
            raise ValueError(f"saddle {rec.name} lacks side classification")
        if minimum_component == cls.b_plus:
            plus_is_minimum = True
        elif minimum_component == cls.b_minus:
            plus_is_minimum = False
        else:
            raise ValueError(
                f"saddle {rec.name} does not border component "
                f"{minimum_component}")
    pts = g.points()
    ell0 = _signed_quadratic_ell0(rec, pts)
    if mode == "agmon":
        phi = agmon_distance(p, rec.manifold, g).ravel()
        val = p.values(pts)
        gap = np.maximum(phi - (val - rec.value), 0.0)
        ell0 = np.sign(ell0) * np.sqrt(2.0 * gap)
    elif mode != "quadratic":
        raise ValueError(f"unknown ell0 mode {mode!r}")
    if not plus_is_minimum:
        ell0 = -ell0
    s_grid = np.linspace(0.0, 2.0 * tau, 4097)
    integrand = zeta(s_grid / tau) * np.exp(-s_grid**2 / (2.0 * h))
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (integrand[1:] + integrand[:-1]) * np.diff(s_grid))])
    return SaddleGluing(saddle=rec.name, tau=tau, h=h,
                        ell0=ell0.reshape(g.shape), C=float(cum[-1]),
                        _s_grid=s_grid, _cum=cum)


# ---------------------------------------------------------------------------
# Quasimodes


@dataclass
class QuasimodeField:
    minimum: str
    values: np.ndarray        # grid-shaped, >= 0
    h: float
    cell_volume: float
    delta: float | None = None

    def norm_sq(self):
        """Continuum L2 norm squared (midpoint quadrature)."""
        return float(np.sum(self.values**2)) * self.cell_volume

    def flat(self):
        return self.values.ravel()


def build_psi(p: Potential, m: CriticalManifold, L: LabelingResult,
              gluings, g: GridSampling, h, other_minima=()) -> QuasimodeField:
    """Quasimode on the grid; pure Gibbs vector for the global minimum.

    The cutoff theta is 1 on E(m) and on every gluing tube (so it never
    varies where the crossing profile does) and decays by smoothstep over
    [delta, 2 delta] of distance from that core.  delta is a quarter of
    the separation from the nearest other declared minimum, or four times
    the largest spacing when none is given.
    """
    lab = L.minima[m.name]
    vals = g.values
    cell_volume = float(np.prod(g.spacings))
    gibbs = np.exp(-np.minimum((vals - lab.value) / h, EXP_CLAMP))
    if FICTIVE_SADDLE in lab.saddles:
        return QuasimodeField(minimum=m.name, values=gibbs, h=h,
                              cell_volume=cell_volume)
    missing = [s for s in lab.saddles if s not in gluings]
    if missing:
        raise ValueError(f"no gluing built for saddles {missing}")
    cmap = L.level_maps[lab.level]
    core = cmap.labels == lab.component
    for s in lab.saddles:
        glu = gluings[s]
        core |= np.abs(glu.ell0) <= 2.02 * glu.tau
    dist = ndimage.distance_transform_edt(~core, sampling=g.spacings)
    if other_minima:
        sep = min(
            float(np.min(np.linalg.norm(
                m.nodes[:, None, :] - o.nodes[None, :, :], axis=-1)))
            for o in other_minima if o.name != m.name)
        delta = sep / 4.0
    else:
        delta = 4.0 * float(np.max(g.spacings))
    theta = smoothstep((2.0 * delta - dist) / delta)
    psi = 2.0 * theta * gibbs
    for s in lab.saddles:
        psi *= 0.5 * (gluings[s].v() + 1.0)
    field_ = QuasimodeField(minimum=m.name, values=psi, h=h,
                            cell_volume=cell_volume, delta=delta)
    for other in other_minima:
        if other.name == m.name:
            continue
        if g.lookup(psi, other.nodes[:1], 0.0)[0] > 1e-12 * np.max(psi):
            raise ValueError(
                f"support of psi_{m.name} leaks into the well of "
                f"{other.name}; decrease delta")
    return field_


def rayleigh(op: WittenOperator, psi: QuasimodeField):
    """||A psi||^2 / ||psi||^2 in factored form."""
    u = psi.flat()
    if u.shape[0] != op.n_cells:
        raise ValueError("quasimode grid does not match the operator grid")
    return op.quadratic_form(u) / float(u @ u)


# ---------------------------------------------------------------------------
# Interaction matrix


@dataclass
class InteractionMatrix:
    names: list               # basis order, decreasing S
    gram: np.ndarray          # <phi_j, phi_k>
    projected: np.ndarray     # M_h in the orthonormalized projected basis
    norm_loss: np.ndarray     # 1 - ||Pi_h phi_j||^2 per quasimode

    def eigenvalues(self):
        return np.linalg.eigvalsh(self.projected)


def interaction_matrix(op, psis, eig, L: LabelingResult) -> InteractionMatrix:
    """Gram matrix of the quasimodes and the projected small-space matrix.

    `eig` holds the discrete small eigenvectors; each normalized quasimode
    phi_j is projected onto their span (a loss of norm above
    MAX_PROJECTION_LOSS rejected), the projections are Gram-Schmidt
    orthonormalized in order of decreasing barrier S, and M_h is the
    quadratic form in that basis.
    """
    order = sorted(psis, key=lambda q: -L.minima[q.minimum].depth)
    names = [q.minimum for q in order]
    Phi = np.stack([q.flat() / np.linalg.norm(q.flat()) for q in order],
                   axis=1)
    G = Phi.T @ Phi
    V = eig.vectors
    proj = V @ (V.T @ Phi)
    loss = 1.0 - np.sum(proj**2, axis=0)
    if np.any(loss > MAX_PROJECTION_LOSS):
        bad = [names[j] for j in np.nonzero(loss > MAX_PROJECTION_LOSS)[0]]
        raise ValueError(f"projection loses more than "
                         f"{MAX_PROJECTION_LOSS:.0%} of the norm for {bad}; "
                         "quasimodes and solver disagree")
    # Gram-Schmidt in the S-ordering
    E = np.empty_like(proj)
    for j in range(proj.shape[1]):
        v = proj[:, j].copy()
        for k in range(j):
            v -= (E[:, k] @ v) * E[:, k]
        E[:, j] = v / np.linalg.norm(v)
    AE = op.A @ E
    M = AE.T @ AE
    return InteractionMatrix(names=names, gram=G, projected=M,
                             norm_loss=loss)
