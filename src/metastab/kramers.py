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

import csv
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
    "compare_1d_profile",
    "write_prediction_csv",
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
    denominator: float = 0.0  # int_m |det Hess_perp|^{-1/2} ds
    dim_min: int = 0          # d_m
    dim_top: int = 0          # d_m^max
    top_saddles: tuple = ()
    half_integer_expansion: bool = False  # mixed saddle-dimension parity

    def evaluate(self, h):
        return evaluate(self, h)


def weight_integral(p: Potential, M: CriticalManifold):
    """int_M |det Hess_perp f|^{-1/2} ds by the manifold's quadrature."""
    total = 0.0
    for i in range(M.nodes.shape[0]):
        _, det, _ = transversal_hessian(p, M, i)
        if abs(det) < DEGENERACY_FLOOR:
            raise ValueError(f"{M.name}: transversal Hessian nearly singular "
                             f"at node {i} (|det| = {abs(det):.3g})")
        total += M.weights[i] / math.sqrt(abs(det))
    return total


def saddle_flux_integral(p: Potential, M: CriticalManifold):
    """int_M |mu| |det Hess_perp f|^{-1/2} ds, mu the negative eigenvalue."""
    total = 0.0
    for i in range(M.nodes.shape[0]):
        _, det, eig = transversal_hessian(p, M, i)
        if abs(det) < DEGENERACY_FLOOR:
            raise ValueError(f"{M.name}: transversal Hessian nearly singular "
                             f"at node {i} (|det| = {abs(det):.3g})")
        if eig[0] >= 0:
            raise ValueError(f"{M.name}: no negative transversal direction "
                             f"at node {i}; not an index-1 manifold")
        total += M.weights[i] * abs(eig[0]) / math.sqrt(abs(det))
    return total


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
        constant=numer / denom, contributions=contributions,
        denominator=denom, dim_min=d_m, dim_top=d_top,
        top_saddles=tuple(G.name for G in gammas if G.dim == d_top),
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
    _, _, F2_s = p.profile_eval2(s_m)
    _, _, F2_r = p.profile_eval2(r_m)
    if r_m == 0.0:
        if F2_r <= 0:
            raise ValueError("0 is not a minimum of the profile")
        D = (sphere_area(d) * s_m ** (d - 1) * math.pi ** (-(1.0 + d) / 2.0)
             * F2_r ** (d / 2.0) * math.sqrt(abs(F2_s)))
        e = (3.0 - d) / 2.0
        dim_min = 0
    else:
        D = (s_m ** (d - 1) / (math.pi * r_m ** (d - 1))
             * math.sqrt(F2_r * abs(F2_s)))
        e = 1.0
        dim_min = d - 1
    return KramersPrediction(
        minimum=f"radial(r={r_m:g})", barrier=barrier, exponent=e,
        constant=D, dim_min=dim_min, dim_top=d - 1,
        denominator=float("nan"))


@dataclass
class ProfileComparison:
    """Relation between a d-dimensional prediction and the 1D profile one."""

    prefactor_ratio: float    # D_profile / D_radial
    exponent_gap: float       # e_profile - e_radial


def compare_1d_profile(pr_radial: KramersPrediction,
                       pr_profile: KramersPrediction) -> ProfileComparison:
    """Ratio record: 1D-profile prediction relative to the d-dim one.

    For a spherical minimum the ratio is r_m^{d-1}/s_m^{d-1} with equal
    exponents; for the center minimum the exponent gap is (d-1)/2.
    """
    if abs(pr_radial.barrier - pr_profile.barrier) > 1e-9 * max(
            1.0, abs(pr_radial.barrier)):
        raise ValueError("predictions refer to different barriers; "
                         "mismatched minima")
    return ProfileComparison(
        prefactor_ratio=pr_profile.constant / pr_radial.constant,
        exponent_gap=pr_profile.exponent - pr_radial.exponent)


def write_prediction_csv(path, predictions, h_values=(), header_line=None):
    """Prediction table; one row per minimum, saddle breakdown inline.

    `header_line`, if given, is written first as its own line (the CLI's
    manifest line).  Lines end in "\\n"."""
    with open(path, "w", newline="") as fh:
        if header_line is not None:
            fh.write(header_line + "\n")
        w = csv.writer(fh, lineterminator="\n")
        header = ["minimum", "S", "exponent", "D", "saddles"]
        header += [f"lambda(h={h:g})" for h in h_values]
        w.writerow(header)
        for pr in predictions:
            breakdown = ";".join(
                f"{c.name}:dim={c.dim}:integral={c.integral:.12g}"
                f":top={int(c.in_top_set)}" for c in pr.contributions)
            row = [pr.minimum, f"{pr.barrier:.12g}", f"{pr.exponent:g}",
                   f"{pr.constant:.12g}", breakdown]
            row += [f"{evaluate(pr, h):.12g}" for h in h_values]
            w.writerow(row)
