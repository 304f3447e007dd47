"""Potentials: parsing, exact derivatives, and confinement checking."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .expr import DomainError, parse_expression

__all__ = [
    "Potential",
    "ConfinementReport",
    "parse_potential",
    "check_confinement",
    "DomainError",
    "CONFINEMENT_SAMPLES",
    "CONFINEMENT_SHELL_FRACTION",
    "CONFINEMENT_C",
]

# check_confinement samples this many points of the outer shell, a band of
# this fraction of the box width along each axis, and tests its clauses
# with this constant C
CONFINEMENT_SAMPLES = 4096
CONFINEMENT_SHELL_FRACTION = 0.1
CONFINEMENT_C = 10.0

# points per block in `_evaluate`: the expression tree's
# temporaries stay cache-sized; every operation is elementwise, so the
# result does not depend on the block size
_BLOCK = 1 << 16


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

    def __repr__(self):
        return f"Potential({self.text!r}, d={self.dim}, radial={self.radial})"

    # -- profile access (radial potentials only) ---------------------------

    def profile(self) -> "Potential":
        """The 1D radial profile F with F(r) = f(x), |x| = r."""
        if not self.radial:
            raise ValueError("potential is not radial")
        # r parses as Var(-1), the last column: on the one column [r] the
        # same tree is the profile
        return Potential(self.text, 1, self._root, radial=False)

    # -- evaluation ---------------------------------------------------------

    def values(self, points):
        """Vectorized evaluation at an (n, d) array of points."""
        return self._evaluate(points, 0)[0]

    def gradients(self, points):
        """Vectorized values and gradients: (values (n,), grads (n, d))."""
        return self._evaluate(points, 1)[:2]

    def hessians(self, points):
        """Values, gradients and Hessians at an (n, d) array of points:
        (n,), (n, d) and (n, d, d) arrays, exact to rounding."""
        points = self._check_points(points)
        if not np.all(np.isfinite(points)):
            raise ValueError("non-finite evaluation point")
        return self._evaluate(points, 2)

    def eval2(self, x):
        """Value, gradient and Hessian at a point, exact to rounding."""
        x = np.asarray(x, dtype=float).ravel()
        if x.shape[0] != self.dim:
            raise ValueError(f"expected point of dimension {self.dim}")
        v, g, h = self.hessians(x[None])
        return v[0], g[0], h[0]

    def _check_points(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError(f"expected (n, {self.dim}) points array")
        return points

    def _evaluate(self, points, order):
        """Values, then gradients (order >= 1) and symmetric Hessians
        (order 2) at (n, d) points; None past `order`."""
        points = self._check_points(points)
        n, d = points.shape
        v = np.empty(n)
        g = np.empty((n, d)) if order >= 1 else None
        h = np.empty((n, d, d)) if order == 2 else None
        for start in range(0, n, _BLOCK):
            rows = slice(start, start + _BLOCK)
            x = points[rows]
            if not self.radial:
                v[rows], gx, hx = self._root.evaluate(x.T, order)
                if order >= 1:
                    g[rows] = gx.T
                if order == 2:
                    hx = 0.5 * (hx + hx.swapaxes(0, 1))
                    h[rows] = hx.transpose(2, 0, 1)
                continue
            # radial chain rule: grad f = F'(r) x / r and
            # Hess f = F''(r) u u^T + F'(r)/r (I - u u^T) with u = x / r
            r = np.sqrt(np.sum(x**2, axis=1))
            v[rows], gr, hr = self._root.evaluate([r], order)
            if order >= 1:
                pos = r > 0.0
                safe = np.where(pos, r, 1.0)
                g[rows] = np.where(pos, gr[0] / safe, 0.0)[:, None] * x
            if order == 2:
                # a smooth profile has F'(0) = 0: Hess f = F''(0) I there
                tiny = r < 1e-12
                safe = np.where(tiny, 1.0, r)[:, None]
                u = x / safe
                uu = u[:, :, None] * u[:, None, :]
                hx = (hr[0, 0][:, None, None] * uu
                      + (gr[0] / safe[:, 0])[:, None, None] * (np.eye(d) - uu))
                hx[tiny] = hr[0, 0][tiny, None, None] * np.eye(d)
                h[rows] = 0.5 * (hx + hx.swapaxes(1, 2))
        return v, g, h


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
            f"max |Hess|/|grad|^2 = {self.max_hess_ratio:.6g} "
            f"(C = {CONFINEMENT_C:g})"
        )


def _first_primes(d):
    primes = []
    k = 2
    while len(primes) < d:
        if all(k % q for q in primes):
            primes.append(k)
        k += 1
    return primes


class _ScrambledHalton:
    """Randomized Halton sequence in [0, 1)^d (Owen, *A randomized Halton
    algorithm in R*, 2017); coordinate j has the j-th prime as its base.

    Each base b gets one random permutation of its digits 0..b-1 per digit
    position a double resolves, ceil(54 / log2 b) - 1 of them, drawn in
    order from `np.random.default_rng(seed)`.  Point i is
    sum_k perm_k[digit_k(i)] b^-(k+1); successive `random` calls continue
    the index.  The points equal scipy.stats.qmc.Halton(d, scramble=True,
    seed=seed) bit for bit, without that module's import cost.
    """

    def __init__(self, d, seed):
        rng = np.random.default_rng(seed)
        self.bases = _first_primes(d)
        self.perms = [
            np.array([rng.permutation(b)
                      for _ in range(math.ceil(54 / math.log2(b)) - 1)])
            for b in self.bases]
        self.n_drawn = 0

    def random(self, n):
        index = np.arange(self.n_drawn, self.n_drawn + n, dtype=np.int64)
        self.n_drawn += n
        columns = []
        for b, perms in zip(self.bases, self.perms):
            quotient, scale = index, 1.0
            column = np.zeros(n)
            for perm in perms:
                scale /= b
                if quotient.any():
                    quotient, digit = np.divmod(quotient, b)
                    column += perm[digit] * scale
                else:
                    # every index is out of digits: digit 0 from here on
                    column += perm[0] * scale
            columns.append(column)
        return np.stack(columns, axis=1)


def _shell_samples(box, shell_fraction, n_samples, seed=0):
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    widths = box[:, 1] - box[:, 0]
    depth = shell_fraction * widths
    sampler = _ScrambledHalton(d, seed)
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


def check_confinement(p: Potential, box) -> ConfinementReport:
    """Sample CONFINEMENT_SAMPLES points of the outer shell of `box`, the
    same points on every call, and test the three confinement clauses
    with C = CONFINEMENT_C: f >= -C, |grad f| >= 1/C and
    |Hess f| <= C |grad f|^2.
    """
    box = np.asarray(box, dtype=float)
    if box.shape != (p.dim, 2):
        raise ValueError(f"expected box of shape ({p.dim}, 2)")
    samples = _shell_samples(box, CONFINEMENT_SHELL_FRACTION,
                             CONFINEMENT_SAMPLES)
    v, g, h = p.hessians(samples)
    gn = np.linalg.norm(g, axis=1)
    ratio = np.full(gn.shape, np.inf)
    np.divide(np.linalg.norm(h, 2, axis=(1, 2)), gn**2, out=ratio,
              where=gn > 0)
    min_f = float(np.min(v, initial=np.inf))
    min_grad = float(np.min(gn, initial=np.inf))
    max_ratio = float(np.max(ratio, initial=0.0))
    C = CONFINEMENT_C
    return ConfinementReport(
        box=box,
        min_f=min_f,
        min_grad_norm=min_grad,
        max_hess_ratio=max_ratio,
        lower_bound_ok=bool(min_f >= -C),
        gradient_ok=bool(min_grad >= 1.0 / C),
        hessian_ok=bool(max_ratio <= C),
    )

