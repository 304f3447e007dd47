"""Potentials: parsing, exact derivatives, and confinement checking."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import qmc

from .expr import (
    Call,
    BinOp,
    Const,
    DomainError,
    Jet,
    Neg,
    Node,
    PowInt,
    Var,
    parse_expression,
)

__all__ = [
    "Potential",
    "ConfinementReport",
    "parse_potential",
    "check_confinement",
    "load_spec_file",
    "save_spec_file",
    "DomainError",
]

# points per block in `values`/`gradients`: the expression tree's
# temporaries stay cache-sized; every operation is elementwise, so the
# result does not depend on the block size
_BLOCK = 1 << 16


def _substitute_r(node: Node) -> Node:
    """Rewrite the radial symbol as the single coordinate of a 1D profile."""
    if isinstance(node, Var):
        return Var(0) if node.index == -1 else node
    if isinstance(node, Neg):
        return Neg(_substitute_r(node.arg))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute_r(node.lhs), _substitute_r(node.rhs))
    if isinstance(node, PowInt):
        return PowInt(_substitute_r(node.base), node.exponent)
    if isinstance(node, Call):
        return Call(node.name, _substitute_r(node.arg))
    return node


class Potential:
    """Immutable scalar field f on R^d with exact gradient and Hessian.

    Safe to evaluate concurrently: parsing fixes the tree and no evaluation
    mutates shared state.
    """

    def __init__(self, text, dim, root, radial):
        self.text = text
        self.dim = int(dim)
        self._root = root
        self.radial = bool(radial)
        if radial:
            self._profile_root = _substitute_r(root)
        else:
            self._profile_root = None

    def __repr__(self):
        return f"Potential({self.text!r}, d={self.dim}, radial={self.radial})"

    # -- profile access (radial potentials only) ---------------------------

    def profile(self) -> "Potential":
        """The 1D radial profile F with F(r) = f(x), |x| = r."""
        if not self.radial:
            raise ValueError("potential is not radial")
        return Potential(self.text, 1, self._profile_root, radial=False)

    # -- evaluation ---------------------------------------------------------

    def value(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.values(x)[0]

    def values(self, points):
        """Vectorized evaluation at an (n, d) array of points."""
        points = self._check_points(points)
        out = np.empty(points.shape[0])
        for start in range(0, points.shape[0], _BLOCK):
            block = points[start:start + _BLOCK]
            rows = slice(start, start + _BLOCK)
            if self.radial:
                r = np.sqrt(np.sum(block**2, axis=1))
                out[rows] = self._profile_root.eval_array([r])
            else:
                cols = [block[:, i] for i in range(self.dim)]
                out[rows] = self._root.eval_array(cols)
        return out

    def gradients(self, points):
        """Vectorized values and gradients: (values (n,), grads (n, d))."""
        points = self._check_points(points)
        v = np.empty(points.shape[0])
        g = np.empty(points.shape)
        for start in range(0, points.shape[0], _BLOCK):
            block = points[start:start + _BLOCK]
            rows = slice(start, start + _BLOCK)
            if self.radial:
                r = np.sqrt(np.sum(block**2, axis=1))
                v[rows], (dr,) = self._profile_root.eval_vg([r])
                safe = np.where(r > 0.0, r, 1.0)
                scale = np.where(r > 0.0, dr / safe, 0.0)
                g[rows] = scale[:, None] * block
            else:
                cols = [block[:, i] for i in range(self.dim)]
                v[rows], grads = self._root.eval_vg(cols)
                g[rows] = np.stack(grads, axis=-1)
        return v, g

    def _check_points(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) points array")
        return points

    def eval2(self, x):
        """Value, gradient and Hessian at a point, exact to rounding."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise ValueError(f"expected point of dimension {self.dim}")
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite evaluation point")
        if self.radial:
            return self._eval2_radial(x)
        d = self.dim
        seeds = [Jet.variable(x[i], i, d) for i in range(d)]
        jet = self._root.eval_jet(seeds)
        hess = 0.5 * (jet.h + jet.h.T)  # exact symmetry
        return jet.v, jet.g, hess

    def _eval2_radial(self, x):
        d = self.dim
        r = float(np.sqrt(np.sum(x**2)))
        if r < 1e-12:
            # smooth radial profile: F'(0) = 0, Hess = F''(0) I
            jet = self._profile_root.eval_jet([Jet.variable(0.0, 0, 1)])
            return jet.v, np.zeros(d), jet.h[0, 0] * np.eye(d)
        jet = self._profile_root.eval_jet([Jet.variable(r, 0, 1)])
        F1, F2 = jet.g[0], jet.h[0, 0]
        u = x / r
        outer = np.outer(u, u)
        grad = F1 * u
        hess = F2 * outer + (F1 / r) * (np.eye(d) - outer)
        return jet.v, grad, 0.5 * (hess + hess.T)

    def profile_eval2(self, r):
        """(F, F', F'') of the radial profile at scalar r >= 0."""
        if not self.radial:
            raise ValueError("potential is not radial")
        jet = self._profile_root.eval_jet([Jet.variable(float(r), 0, 1)])
        return jet.v, jet.g[0], jet.h[0, 0]


def parse_potential(text, d) -> Potential:
    """Parse a closed-form expression into a Potential on R^d."""
    if d < 1:
        raise ValueError("dimension must be positive")
    root, uses_r = parse_expression(text, d)
    return Potential(text, d, root, radial=uses_r)


# ---------------------------------------------------------------------------
# Confinement check (growth and gradient bounds on an outer shell)


@dataclass
class ConfinementReport:
    box: np.ndarray
    shell_fraction: float
    C: float
    n_samples: int
    min_f: float
    min_grad_norm: float
    max_hess_ratio: float
    lower_bound_ok: bool
    gradient_ok: bool
    hessian_ok: bool

    @property
    def passed(self):
        return self.lower_bound_ok and self.gradient_ok and self.hessian_ok

    def summary(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"confinement {status}: min f = {self.min_f:.6g}, "
            f"min |grad f| = {self.min_grad_norm:.6g}, "
            f"max |Hess|/|grad|^2 = {self.max_hess_ratio:.6g} (C = {self.C:g})"
        )


def _shell_samples(box, shell_fraction, n_samples, seed=0):
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    widths = box[:, 1] - box[:, 0]
    depth = shell_fraction * widths
    sampler = qmc.Halton(d=d, scramble=True, seed=seed)
    points = []
    # rejection from the full box; the shell has positive volume fraction
    frac = 1.0 - np.prod(1.0 - 2.0 * shell_fraction)
    frac = max(frac, 2.0 * shell_fraction)
    while sum(len(p) for p in points) < n_samples:
        raw = box[:, 0] + sampler.random(int(n_samples / frac) + 64) * widths
        dist_to_boundary = np.minimum(raw - box[:, 0], box[:, 1] - raw)
        in_shell = np.any(dist_to_boundary < depth, axis=1)
        points.append(raw[in_shell])
    return np.concatenate(points)[:n_samples]


def check_confinement(p: Potential, box, shell_fraction=0.1, C=10.0,
                      n_samples=4096, seed=0) -> ConfinementReport:
    """Sample the outer shell of `box` and test the three confinement clauses:
    f >= -C, |grad f| >= 1/C and |Hess f| <= C |grad f|^2.
    """
    box = np.asarray(box, dtype=float)
    if box.shape != (p.dim, 2):
        raise ValueError(f"expected box of shape ({p.dim}, 2)")
    samples = _shell_samples(box, shell_fraction, n_samples, seed=seed)
    min_f = np.inf
    min_grad = np.inf
    max_ratio = 0.0
    for x in samples:
        v, g, h = p.eval2(x)
        gn = float(np.linalg.norm(g))
        hn = float(np.linalg.norm(h, 2))
        min_f = min(min_f, v)
        min_grad = min(min_grad, gn)
        ratio = hn / gn**2 if gn > 0 else np.inf
        max_ratio = max(max_ratio, ratio)
    return ConfinementReport(
        box=box,
        shell_fraction=shell_fraction,
        C=C,
        n_samples=n_samples,
        min_f=min_f,
        min_grad_norm=min_grad,
        max_hess_ratio=max_ratio,
        lower_bound_ok=bool(min_f >= -C),
        gradient_ok=bool(min_grad >= 1.0 / C),
        hessian_ok=bool(max_ratio <= C),
    )


# ---------------------------------------------------------------------------
# Potential spec files (JSON): expression, dim, box, manifold declarations.


def load_spec_file(path):
    """Load a potential spec file.

    Schema::

        {
          "expression": "...",
          "dim": 2,
          "box": [[lo, hi], ...],
          "manifolds": [
            {"name": "...", "kind": "point", "coords": [..]},
            {"name": "...", "kind": "sphere", "center": [..], "radius": r,
             "nodes": 256},
            {"name": "...", "kind": "parametrized", "maps": ["...", ...],
             "param_box": [[lo, hi], ...], "periodic": [true, ...],
             "nodes": [n, ...]}
          ]
        }
    """
    with open(path) as fh:
        data = json.load(fh)
    for key in ("expression", "dim", "box"):
        if key not in data:
            raise ValueError(f"spec file missing field {key!r}")
    data.setdefault("manifolds", [])
    return data


def save_spec_file(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
