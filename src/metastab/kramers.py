"""Eyring-Kramers predictions for the exponentially small eigenvalues.

Each non-global minimal manifold m gets a prediction

    lambda(m, h) = D(m) * h^{e(m)} * exp(-2 S(m) / h),

with exponent e(m) = (d_m - d_m^max)/2 + 1, where d_m^max is the largest
dimension among the separating saddles in j(m).  Only saddles of that top
dimension contribute to the constant

    D(m) = sum_{Gamma in j^max} pi^{(d_m - d_Gamma)/2 - 1}
             * int_Gamma |mu| |det Hess_perp f|^{-1/2} ds
           / int_m |det Hess_perp f|^{-1/2} ds.

A closed-form radial specialization is provided as an independent code
path for rotation-invariant potentials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .labeling import FICTIVE_SADDLE, LabelingResult
from .manifolds import CriticalManifold, transversal_hessian
from .potential import Potential

__all__ = [
    "SaddleContribution",
    "KramersPrediction",
    "weight_integral",
    "saddle_flux_integral",
    "prefactor",
    "evaluate",
    "predict_all",
    "radial_predict",
    "EXP_CLAMP",
]

EXP_CLAMP = 700.0
DEGENERACY_FLOOR = 1e-12


@dataclass
class SaddleContribution:
    name: str
    dim: int
    integral: float          # int_Gamma |mu| |det Hess_perp|^{-1/2} ds
    in_top_set: bool         # counts toward D(m) iff dim == d_m^max


@dataclass
class KramersPrediction:
    minimum: str
    barrier: float           # S(m)
    exponent: float          # e(m)
    constant: float          # D(m)
    contributions: list = field(default_factory=list)
    dim_top: int = 0          # d_m^max
    half_integer_expansion: bool = False  # mixed saddle-dimension parity

    def evaluate(self, h):
        return evaluate(self, h)


def _check_nodes(M: CriticalManifold, det, mu=None):
    """Raise for the first node whose transversal Hessian is nearly singular
    or, when `mu` is given, has no negative direction."""
    singular = np.abs(det) < DEGENERACY_FLOOR
    bad = singular if mu is None else singular | (mu >= 0)
    if not np.any(bad):
        return
    i = int(np.argmax(bad))
    if singular[i]:
        raise ValueError(f"{M.name}: transversal Hessian nearly singular "
                         f"at node {i} (|det| = {abs(det[i]):.3g})")
    raise ValueError(f"{M.name}: no negative transversal direction "
                     f"at node {i}; not an index-1 manifold")


def weight_integral(p: Potential, M: CriticalManifold):
    """int_M |det Hess_perp f|^{-1/2} ds by the manifold's quadrature."""
    _, det, _ = transversal_hessian(p, M)
    _check_nodes(M, det)
    return float(np.sum(M.weights / np.sqrt(np.abs(det))))


def saddle_flux_integral(p: Potential, M: CriticalManifold):
    """int_M |mu| |det Hess_perp f|^{-1/2} ds, mu the negative eigenvalue."""
    _, det, eig = transversal_hessian(p, M)
    mu = eig[:, 0]
    _check_nodes(M, det, mu)
    return float(np.sum(M.weights * np.abs(mu) / np.sqrt(np.abs(det))))


def prefactor(p: Potential, m: CriticalManifold, L: LabelingResult,
              saddle_manifolds) -> KramersPrediction:
    """Prediction record for a non-global minimum.

    `saddle_manifolds` maps saddle name -> CriticalManifold for every name
    appearing in the hierarchy.
    """
    lab = L.minima[m.name]
    if FICTIVE_SADDLE in lab.saddles:
        raise ValueError(f"{m.name} is the global minimum; its eigenvalue "
                         "is exactly 0 and has no prediction")
    if not lab.saddles:
        raise ValueError(f"j({m.name}) is empty")
    gammas = [saddle_manifolds[s] for s in lab.saddles]
    d_top = max(G.dim for G in gammas)
    d_m = m.dim
    denom = weight_integral(p, m)
    contributions = []
    parities = {G.dim % 2 for G in gammas}
    numer = 0.0
    for G in gammas:
        integral = saddle_flux_integral(p, G)
        top = G.dim == d_top
        contributions.append(SaddleContribution(
            name=G.name, dim=G.dim, integral=integral, in_top_set=top))
        if top:
            numer += math.pi ** ((d_m - G.dim) / 2.0 - 1.0) * integral
    return KramersPrediction(
        minimum=m.name, barrier=lab.depth,
        exponent=(d_m - d_top) / 2.0 + 1.0,
        constant=numer / denom, contributions=contributions, dim_top=d_top,
        half_integer_expansion=len(parities) > 1)


def evaluate(pr: KramersPrediction, h):
    if h <= 0:
        raise ValueError("h must be positive")
    if not np.isfinite(pr.barrier) or 2.0 * pr.barrier / h > EXP_CLAMP:
        return 0.0
    return pr.constant * h ** pr.exponent * math.exp(-2.0 * pr.barrier / h)


def predict_all(p: Potential, L: LabelingResult, minima, saddle_manifolds):
    """Predictions for all non-global minima, deepest first."""
    by_name = {m.name: m for m in minima}
    out = []
    for lab in L.ordered_by_depth():
        if lab.name == L.global_min:
            continue
        out.append(prefactor(p, by_name[lab.name], L, saddle_manifolds))
    return out


def sphere_area(d):
    """Surface measure of the unit (d-1)-sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def radial_predict(p: Potential, d, r_m, s_m, barrier) -> KramersPrediction:
    """Closed-form prediction for a rotation-invariant potential.

    `r_m` is the radius of the minimal sphere (0 for the center minimum),
    `s_m` the radius of its separating saddle sphere, `barrier` = S(m).
    """
    if not p.radial:
        raise ValueError("radial_predict needs a rotation-invariant potential")
    profile = p.profile()
    F2_s, F2_r = (float(H[0, 0])
                  for H in profile.hessians([[s_m], [r_m]])[2])
    if r_m == 0.0:
        if F2_r <= 0:
            raise ValueError("0 is not a minimum of the profile")
        D = (sphere_area(d) * s_m ** (d - 1) * math.pi ** (-(1.0 + d) / 2.0)
             * F2_r ** (d / 2.0) * math.sqrt(abs(F2_s)))
        e = (3.0 - d) / 2.0
    else:
        D = (s_m ** (d - 1) / (math.pi * r_m ** (d - 1))
             * math.sqrt(F2_r * abs(F2_s)))
        e = 1.0
    return KramersPrediction(
        minimum=f"radial(r={r_m:g})", barrier=barrier, exponent=e,
        constant=D, dim_top=d - 1)

