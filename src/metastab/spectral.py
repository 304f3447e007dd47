"""Sparse discretization of the Witten Laplacian in factored form.

The operator -h^2 Lap + |grad f|^2 - h Lap f is assembled as A^T A where A
is the discrete twisted gradient (h * forward difference + grad f averaged
to staggered faces), with homogeneous Dirichlet walls.  The square
structure keeps the exponentially small eigenvalues at relative accuracy
instead of losing them to cancellation.  A radial finite-volume reduction
handles rotation-invariant potentials in any dimension.
"""

from __future__ import annotations

import contextlib
import ctypes
import threading
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
    "WittenPieces",
    "DiscreteWitten",
    "RadialWitten",
    "assemble_witten",
    "assemble_radial",
    "EigenResult",
    "smallest_eigs",
    "count_small",
    "GridResolutionError",
    "ARPACK_TOL",
]

RELIABLE_FLOOR_FACTOR = 1e2
DEFAULT_ETA0 = 0.1
# relative tolerance of the Lanczos iteration in smallest_eigs; at 1e-9 a
# residual of the 512x512 tilted double well already exceeds the floor
ARPACK_TOL = 1e-12


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

    @property
    def n_cells(self):
        return self.A.shape[1]

    def gram(self):
        """A^T A in CSC form, built afresh on each call."""
        return (self.A.T @ self.A).tocsc()

    def quadratic_form(self, u):
        """||A u||^2 = <u, A^T A u> without forming A^T A."""
        w = self.A @ u
        return float(w @ w)


@dataclass(eq=False)
class WittenPieces:
    """The h-independent parts of the twisted gradient A(h) = h D + Gamma
    Avg of one f on one grid.  D stacks the forward differences along
    each axis; Avg, the face averages, is 1/2 on D's sparsity pattern and
    Gamma is grad f at the faces, so Gamma Avg is kept as its values `ga`
    on that pattern.  Every A(h) then shares D's (read-only) index
    arrays."""

    p: Potential
    grid: Grid
    D: sparse.csr_matrix          # faces x cells
    ga: np.ndarray                # Gamma Avg on D's pattern, like D.data

    def operator(self, h) -> DiscreteWitten:
        """The factored operator with A(h) = h D + Gamma Avg; the same, bit
        for bit, on every call with the same h."""
        D = self.D
        A = sparse.csr_matrix((h * D.data + self.ga, D.indices, D.indptr),
                              shape=D.shape)
        if not np.all(A.data):
            # an exact cancellation, which a sparse sum would not store
            A = A.copy()
            A.eliminate_zeros()
        return DiscreteWitten(A=A, pieces=self)


@dataclass
class DiscreteWitten(WittenOperator):
    A: sparse.csr_matrix          # faces x cells twisted gradient factor
    pieces: WittenPieces          # what A is built from, for other h

    @property
    def grid(self):
        """The cells, in C order."""
        return self.pieces.grid


def _check_resolution(spacings, h, strict):
    limit = np.sqrt(h) / 8.0
    if np.any(spacings > limit):
        msg = (f"grid spacing {np.max(spacings):.4g} exceeds sqrt(h)/8 = "
               f"{limit:.4g}; fewer than 8 cells per semiclassical length")
        if strict:
            raise GridResolutionError(msg)
        warnings.warn(msg, stacklevel=3)


def _witten_pieces(p: Potential, grid: Grid) -> WittenPieces:
    D_blocks, gamma = [], []
    for a in range(grid.dim):
        D1, _ = _diff_avg(grid.shape[a], grid.spacings[a])
        Dk = None
        for b, n_b in enumerate(grid.shape):
            db = D1 if b == a else sparse.identity(n_b, format="csr")
            Dk = db if Dk is None else sparse.kron(Dk, db, format="csr")
        _, grads = p.gradients(grid.points(face_axis=a))
        D_blocks.append(Dk)
        gamma.append(grads[:, a])
    D = sparse.vstack(D_blocks, format="csr")
    # each row's entries in descending column order, the order in which
    # scipy's sparse sum h D + Gamma Avg stores them
    counts = np.diff(D.indptr)
    rows = np.repeat(np.arange(D.shape[0]), counts)
    rev = D.indptr[rows] + D.indptr[rows + 1] - 1 - np.arange(D.nnz)
    D = sparse.csr_matrix((D.data[rev], D.indices[rev], D.indptr),
                          shape=D.shape)
    D.indices.flags.writeable = False
    D.indptr.flags.writeable = False
    ga = np.repeat(np.concatenate(gamma), counts) * 0.5
    return WittenPieces(p=p, grid=grid, D=D, ga=ga)


def assemble_witten(p: Potential, box, shape, h, strict=False,
                    pieces=None) -> DiscreteWitten:
    """Factored Witten Laplacian on a Dirichlet box.

    grad f is evaluated exactly at staggered face midpoints, one family of
    faces per axis.  `pieces`, taken from an operator assembled earlier
    for the same f and grid (`W.pieces`), skips everything but the sum
    h D + Gamma Avg; the result is the same either way.
    """
    grid = Grid(box, shape)
    _check_resolution(grid.spacings, h, strict)
    if pieces is None:
        pieces = _witten_pieces(p, grid)
    elif not (pieces.p is p and pieces.grid.shape == grid.shape
              and np.array_equal(pieces.grid.box, grid.box)):
        raise ValueError("the Witten pieces were assembled for another "
                         "potential or grid")
    return pieces.operator(h)


@dataclass
class RadialWitten(WittenOperator):
    """Radial sector of the Witten Laplacian for a rotation-invariant f.

    Finite volumes on (0, R] with weight r^{d-1}: Neumann at 0 (the zero
    face weight), Dirichlet at R.  Angular sectors only add nonnegative
    centrifugal terms, so the smallest eigenvalues live here.
    """

    A: sparse.csr_matrix          # symmetrized factor in y = r^{(d-1)/2} u


def assemble_radial(p: Potential, d, R, n, h) -> RadialWitten:
    """Radial operator on n cells of (0, R]; warns when the cells are too
    coarse for h."""
    if d < 2:
        raise ValueError("the radial reduction needs ambient dimension >= 2")
    profile = p.profile() if p.radial else p
    if profile.dim != 1:
        raise ValueError("need a 1D profile or a radial potential")
    grid = Grid([[0.0, R]], n)
    _check_resolution(grid.spacings, h, strict=False)
    r_cells, r_faces = grid.centers(0), grid.edges(0)
    D1, Avg1 = _diff_avg(n, grid.spacings[0])
    _, grads = profile.gradients(grid.points(face_axis=0))
    B = h * D1 + sparse.diags(grads[:, 0]) @ Avg1
    w_face = sparse.diags(r_faces ** ((d - 1) / 2.0))
    w_cell_inv = sparse.diags(r_cells ** (-(d - 1) / 2.0))
    A = (w_face @ B @ w_cell_inv).tocsr()
    return RadialWitten(A=A)


@dataclass
class EigenResult:
    values: np.ndarray            # ascending, length k
    vectors: np.ndarray           # (n_cells, k)
    floor: float                  # below this, magnitudes are unreliable
    residuals: np.ndarray         # ||G v - lambda v|| per pair, below floor
    ordering: np.ndarray | None = None   # cells in LU elimination order

    def reliable(self):
        return self.values >= self.floor


def _is_permutation(ordering, n):
    """Whether `ordering` holds each of the integers 0..n-1 once."""
    ordering = np.asarray(ordering)
    return (ordering.shape == (n,)
            and np.issubdtype(ordering.dtype, np.integer)
            and np.array_equal(np.sort(ordering), np.arange(n)))


def _openblas_thread_controls():
    """The (get, set) thread-count functions of each OpenBLAS loaded in
    this process, found by its path in /proc/self/maps; none where there
    is no /proc or no OpenBLAS (another BLAS is left as it is)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    put = getattr(lib, f"{prefix}set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
    return controls


class _OneBlasThread(contextlib.ContextDecorator):
    """Holds every loaded OpenBLAS at one thread while entered and gives
    each its caller's count back on the way out, on an exception too.
    Entries that overlap, from other threads, share one hold: the counts
    are saved by the first and restored by the last to leave.  The
    libraries are looked up on first entry, not at import."""

    def __init__(self):
        self._lock = threading.Lock()
        self._controls = None
        self._saved = []
        self._depth = 0

    def __enter__(self):
        with self._lock:
            if self._controls is None:
                self._controls = _openblas_thread_controls()
            if self._depth == 0:
                self._saved = [get() for get, _ in self._controls]
                for _, put in self._controls:
                    put(1)
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for (_, put), n in zip(self._controls, self._saved):
                    put(n)


# The thread counts are per process, so there is one hold for the process:
# `smallest_eigs` enters it, and so does `cli.Pipeline.run` around every
# stage; the inner entry nests in the outer one.
ONE_BLAS_THREAD = _OneBlasThread()


@ONE_BLAS_THREAD
def smallest_eigs(op, k, ordering=None) -> EigenResult:
    """k smallest eigenpairs of A^T A via shift-invert at a small negative
    shift; eigenvalues sorted ascending, floor = 100 eps ||A^T A||.

    The shifted matrix is factored in `ordering`, a permutation of the
    cells, when one is given (an earlier result's `ordering` on the same
    grid: the stencil's sparsity does not depend on h), else in SuperLU's
    minimum-degree order on A + A^T; the order used is returned.  ARPACK
    runs to relative tolerance ARPACK_TOL from a fixed start vector, so
    repeated calls with the same arguments return the same values and
    vectors.  Each pair's residual
    ||G v - lambda v|| is checked against the floor: a pair above it
    raises RuntimeError rather than being trusted.

    The whole solve runs with every loaded OpenBLAS held at one thread,
    and the caller's thread counts are restored on return.  Its time goes
    into serial sparse triangular solves between short BLAS calls; a
    second BLAS thread would speed up only those calls and spin through
    the solves between them.  One thread also makes the values and
    vectors the same, bit for bit, whatever the process's thread count."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n = op.n_cells
    if k >= n:
        raise ValueError(f"k = {k} must be below the grid size {n}")
    if ordering is not None and not _is_permutation(ordering, n):
        raise ValueError(f"the ordering must permute all {n} cells")
    G = op.gram()
    # max absolute row sum, a bound on the 2-norm
    norm = float(np.max(np.abs(G).sum(axis=1)))
    sigma = -1e-8 * max(norm, 1.0)
    shifted = (G - sigma * sparse.identity(n, format="csc")).tocsc()
    # the factorization's scratch sets the peak memory: hold nothing else
    # through it, and build G again for the residual check
    del G
    if ordering is None:
        # SuperLU's default COLAMD ordering fills in badly on the symmetric
        # stencil; the AT_PLUS_A minimum-degree ordering is several times
        # faster.  Its column permutation maps each cell to its position.
        lu = splu(shifted, permc_spec="MMD_AT_PLUS_A")
        ordering = np.argsort(lu.perm_c)
        solve = lu.solve
    else:
        shifted = shifted[ordering][:, ordering]
        lu = splu(shifted, permc_spec="NATURAL")

        def solve(b):
            x = np.empty_like(b)
            x[ordering] = lu.solve(b[ordering])
            return x
    del shifted
    # with its dtype given, LinearOperator spares a solve on zeros
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    # ARPACK's default start vector is random; a constant one needs more
    # shift-invert solves than this fixed random one
    v0 = np.random.default_rng(0).standard_normal(n)
    # a Lanczos basis smaller than ARPACK's default of 20 vectors restarts
    # more often but needs fewer shift-invert solves in all
    ncv = min(max(2 * k + 2, 12), n)
    try:
        # in shift-invert mode ARPACK only applies OPinv
        vals, vecs = eigsh(op_inv, k=k, sigma=sigma, which="LM",
                           tol=ARPACK_TOL, OPinv=op_inv, v0=v0, ncv=ncv)
    except ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    del op_inv, solve, lu         # the factors are done with
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    floor = RELIABLE_FLOOR_FACTOR * np.finfo(float).eps * norm
    if np.any(vals < -1e-14 * norm):
        raise RuntimeError("negative eigenvalue beyond rounding; "
                           "factored operator corrupted")
    residuals = np.linalg.norm(op.gram() @ vecs - vecs * vals, axis=0)
    if np.any(residuals > floor):
        raise RuntimeError(f"eigenpair residual {np.max(residuals):.3g} "
                           f"exceeds the reliability floor {floor:.3g}")
    return EigenResult(values=vals, vectors=vecs, floor=floor,
                       residuals=residuals, ordering=ordering)


def count_small(values, h, eta0=DEFAULT_ETA0):
    """Number of eigenvalues <= eta0 h^2 and the gap ratio of the next one."""
    values = np.asarray(values)
    cut = eta0 * h * h
    n = int(np.sum(values <= cut))
    ratio = float(values[n] / cut) if n < values.size else np.inf
    return n, ratio
