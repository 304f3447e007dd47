"""Sparse discretization of the Witten Laplacian in factored form.

The operator -h^2 Lap + |grad f|^2 - h Lap f is assembled as A^T A where A
is the discrete twisted gradient (h * forward difference + grad f averaged
to staggered faces), with homogeneous Dirichlet walls.  The square
structure keeps the exponentially small eigenvalues at relative accuracy
instead of losing them to cancellation.  A radial finite-volume reduction
handles rotation-invariant potentials in any dimension.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .potential import Potential
from .sublevel import Grid

__all__ = [
    "WittenOperator",
    "DiscreteWitten",
    "RadialWitten",
    "assemble_witten",
    "assemble_radial",
    "EigenResult",
    "smallest_eigs",
    "count_small",
    "GridResolutionError",
]

RELIABLE_FLOOR_FACTOR = 1e2
DEFAULT_ETA0 = 0.1


class GridResolutionError(ValueError):
    pass


def _diff_avg(n, delta):
    """Forward difference and average from n cells to n+1 faces (Dirichlet)."""
    rows = np.concatenate([np.arange(n), np.arange(1, n + 1)])
    cols = np.concatenate([np.arange(n), np.arange(n)])
    d_vals = np.concatenate([np.full(n, 1.0 / delta), np.full(n, -1.0 / delta)])
    a_vals = np.full(2 * n, 0.5)
    D = sparse.csr_matrix((d_vals, (rows, cols)), shape=(n + 1, n))
    Avg = sparse.csr_matrix((a_vals, (rows, cols)), shape=(n + 1, n))
    return D, Avg


class WittenOperator:
    """The Witten Laplacian A^T A held as its sparse factor.  Subclasses
    supply `A` (faces x cells); everything else is shared."""

    _gram = None

    @property
    def n_cells(self):
        return self.A.shape[1]

    def gram(self):
        """A^T A in CSC form, built on first use."""
        if self._gram is None:
            self._gram = (self.A.T @ self.A).tocsc()
        return self._gram

    def apply(self, u):
        return self.A.T @ (self.A @ u)

    def norm_bound(self):
        """Max absolute row sum of A^T A, a bound on its 2-norm."""
        G = self.gram()
        return float(np.max(np.abs(G).sum(axis=1)))

    def quadratic_form(self, u):
        """||A u||^2 = <u, A^T A u> without forming A^T A."""
        w = self.A @ u
        return float(w @ w)


@dataclass
class DiscreteWitten(WittenOperator):
    grid: Grid                    # the cells, in C order
    h: float
    A: sparse.csr_matrix          # faces x cells twisted gradient factor


def _check_resolution(spacings, h, strict):
    limit = np.sqrt(h) / 8.0
    if np.any(spacings > limit):
        msg = (f"grid spacing {np.max(spacings):.4g} exceeds sqrt(h)/8 = "
               f"{limit:.4g}; fewer than 8 cells per semiclassical length")
        if strict:
            raise GridResolutionError(msg)
        warnings.warn(msg, stacklevel=3)


def assemble_witten(p: Potential, box, shape, h, strict=False) -> DiscreteWitten:
    """Factored Witten Laplacian on a Dirichlet box.

    grad f is evaluated exactly at staggered face midpoints, one family of
    faces per axis.
    """
    grid = Grid(box, shape)
    _check_resolution(grid.spacings, h, strict)
    blocks = []
    for a in range(grid.dim):
        D1, Avg1 = _diff_avg(grid.shape[a], grid.spacings[a])
        Dk, Ak = None, None
        for b, n_b in enumerate(grid.shape):
            eye = sparse.identity(n_b, format="csr")
            db = D1 if b == a else eye
            ab = Avg1 if b == a else eye
            Dk = db if Dk is None else sparse.kron(Dk, db, format="csr")
            Ak = ab if Ak is None else sparse.kron(Ak, ab, format="csr")
        _, grads = p.gradients(grid.points(face_axis=a))
        ga = sparse.diags(grads[:, a])
        blocks.append((h * Dk + ga @ Ak).tocsr())
    A = sparse.vstack(blocks, format="csr")
    return DiscreteWitten(grid=grid, h=h, A=A)


@dataclass
class RadialWitten(WittenOperator):
    """Radial sector of the Witten Laplacian for a rotation-invariant f.

    Finite volumes on (0, R] with weight r^{d-1}: Neumann at 0 (the zero
    face weight), Dirichlet at R.  Angular sectors only add nonnegative
    centrifugal terms, so the smallest eigenvalues live here.
    """

    R: float
    n: int
    d: int
    h: float
    A: sparse.csr_matrix          # symmetrized factor in y = r^{(d-1)/2} u


def assemble_radial(p: Potential, d, R, n, h, strict=False) -> RadialWitten:
    if d < 2:
        raise ValueError("the radial reduction needs ambient dimension >= 2")
    profile = p.profile() if p.radial else p
    if profile.dim != 1:
        raise ValueError("need a 1D profile or a radial potential")
    grid = Grid([[0.0, R]], n)
    _check_resolution(grid.spacings, h, strict)
    r_cells, r_faces = grid.centers(0), grid.edges(0)
    D1, Avg1 = _diff_avg(n, grid.spacings[0])
    _, grads = profile.gradients(grid.points(face_axis=0))
    B = h * D1 + sparse.diags(grads[:, 0]) @ Avg1
    w_face = sparse.diags(r_faces ** ((d - 1) / 2.0))
    w_cell_inv = sparse.diags(r_cells ** (-(d - 1) / 2.0))
    A = (w_face @ B @ w_cell_inv).tocsr()
    return RadialWitten(R=R, n=n, d=d, h=h, A=A)


@dataclass
class EigenResult:
    values: np.ndarray            # ascending, length k
    vectors: np.ndarray           # (n_cells, k)
    floor: float                  # below this, magnitudes are unreliable
    residuals: np.ndarray         # ||G v - lambda v|| per pair, below floor

    def reliable(self):
        return self.values >= self.floor


def smallest_eigs(op, k, tol=0.0) -> EigenResult:
    """k smallest eigenpairs of A^T A via shift-invert at a small negative
    shift; eigenvalues sorted ascending, floor = 100 eps ||A^T A||.
    ARPACK starts from a fixed vector, so repeated calls on the same
    operator return the same values and vectors.  Each pair's residual
    ||G v - lambda v|| is checked against the floor: a pair above it
    raises RuntimeError rather than being trusted."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= op.n_cells:
        raise ValueError(f"k = {k} must be below the grid size {op.n_cells}")
    G = op.gram()
    norm = op.norm_bound()
    sigma = -1e-8 * max(norm, 1.0)
    # SuperLU's default COLAMD ordering fills in badly on the symmetric
    # stencil; the AT_PLUS_A minimum-degree ordering is several times faster.
    shifted = (G - sigma * sparse.identity(G.shape[0], format="csc")).tocsc()
    lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
    op_inv = LinearOperator(G.shape, matvec=lu.solve)
    # ARPACK's default start vector is random; a constant one needs more
    # shift-invert solves than this fixed random one
    v0 = np.random.default_rng(0).standard_normal(G.shape[0])
    try:
        vals, vecs = eigsh(G, k=k, sigma=sigma, which="LM", tol=tol,
                           OPinv=op_inv, v0=v0)
    except ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    floor = RELIABLE_FLOOR_FACTOR * np.finfo(float).eps * norm
    if np.any(vals < -1e-14 * norm):
        raise RuntimeError("negative eigenvalue beyond rounding; "
                           "factored operator corrupted")
    residuals = np.linalg.norm(G @ vecs - vecs * vals, axis=0)
    if np.any(residuals > floor):
        raise RuntimeError(f"eigenpair residual {np.max(residuals):.3g} "
                           f"exceeds the reliability floor {floor:.3g}")
    return EigenResult(values=vals, vectors=vecs, floor=floor,
                       residuals=residuals)


def count_small(values, h, eta0=DEFAULT_ETA0):
    """Number of eigenvalues <= eta0 h^2 and the gap ratio of the next one."""
    values = np.asarray(values)
    cut = eta0 * h * h
    n = int(np.sum(values <= cut))
    ratio = float(values[n] / cut) if n < values.size else np.inf
    return n, ratio
