"""Sparse discretization of the Witten Laplacian in factored form.

The operator -h^2 Lap + |grad f|^2 - h Lap f is assembled as A^T A where A
is the discrete twisted gradient (h * forward difference + grad f averaged
to staggered faces), with homogeneous Dirichlet walls.  The square
structure keeps the exponentially small eigenvalues at relative accuracy
instead of losing them to cancellation.  Every factor is one
`WittenOperator` on its `Grid`; the radial sector of a rotation-invariant
potential, in any dimension, is its 1D profile's factor, weighted.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from . import sublevel
from .potential import Potential
from .sublevel import Grid

__all__ = [
    "WittenOperator",
    "WittenPieces",
    "assemble_witten",
    "assemble_radial",
    "EigenResult",
    "smallest_eigs",
    "ritz",
    "count_small",
    "GridResolutionError",
    "ARPACK_TOL",
]

RELIABLE_FLOOR_FACTOR = 1e2
DEFAULT_ETA0 = 0.1
# relative tolerance of the Lanczos iteration in smallest_eigs; at 1e-9 a
# residual of the 512x512 tilted double well already exceeds the floor
ARPACK_TOL = 1e-12
# bytes of process growth per factored cell and per ln(factored cells)
# over the first solve of a 2D grid whose even cells are eliminated (fill
# grows like n log n): measured 158 at 512^2 (131 072 factored cells,
# L+U 15.7 M) and 161 at 720^2 (259 200 cells, L+U 34.4 M)
_FACTOR_CELL_BYTES = 161
# the same per factored cell on a 1D grid, whose fill grows like n: 603-615
# at 2^18 cells (131 072 factored) and 617-628 at 2^20 (524 288 factored),
# for x^4/4 - x^2/2 + x/10 at h = 0.2 and k = 5
_FACTOR_CELL_BYTES_1D = 630
# the same per (factored cells)^{4/3} on a 3D grid, which factors every
# cell, for (x1^2 + x2^2 + x3^2)/2 on [-3, 3]^3 at h = 0.5 and k = 5: 571
# at 24^3 (13 824 cells, L+U 4.06 M) and 462 at 32^3 (32 768 cells, L+U
# 15.73 M); 513, 526 and 454 at 16^3, 20^3 and 28^3.  The larger, rounded
# up, so no measured growth exceeds its projection
_FACTOR_CELL_BYTES_3D = 580


class GridResolutionError(ValueError):
    pass


def _diff(n, delta):
    """Forward difference from n cells to n+1 faces (Dirichlet)."""
    rows = np.concatenate([np.arange(n), np.arange(1, n + 1)])
    cols = np.concatenate([np.arange(n), np.arange(n)])
    vals = np.concatenate([np.full(n, 1.0 / delta), np.full(n, -1.0 / delta)])
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n + 1, n))


@dataclass(eq=False)
class WittenOperator:
    """The Witten Laplacian A^T A held as its sparse factor A (faces x
    cells) on the cells of `grid`, in C order; `pieces`, where set, are
    what A was built from, for other h of the same grid."""

    A: sparse.csr_matrix
    grid: Grid
    pieces: WittenPieces | None = None

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

    def operator(self, h) -> WittenOperator:
        """The factored operator with A(h) = h D + Gamma Avg; the same, bit
        for bit, on every call with the same h."""
        D = self.D
        A = sparse.csr_matrix((h * D.data + self.ga, D.indices, D.indptr),
                              shape=D.shape)
        if not np.all(A.data):
            # an exact cancellation, which a sparse sum would not store
            A = A.copy()
            A.eliminate_zeros()
        return WittenOperator(A=A, grid=self.grid, pieces=self)


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
        D1 = _diff(grid.shape[a], grid.spacings[a])
        Dk = None
        for b, n_b in enumerate(grid.shape):
            db = D1 if b == a else sparse.identity(n_b, format="csr")
            Dk = db if Dk is None else sparse.kron(Dk, db, format="csr")
        _, grads = p.gradients(grid.points(face_axis=a))
        D_blocks.append(Dk)
        gamma.append(grads[:, a])
    D = sparse.vstack(D_blocks, format="csr")
    D.indices.flags.writeable = False
    D.indptr.flags.writeable = False
    ga = np.repeat(np.concatenate(gamma), np.diff(D.indptr)) * 0.5
    return WittenPieces(p=p, grid=grid, D=D, ga=ga)


def assemble_witten(p: Potential, box, shape, h, strict=False,
                    pieces=None) -> WittenOperator:
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


def assemble_radial(p: Potential, d, R, n, h) -> WittenOperator:
    """Radial sector of the Witten Laplacian for a rotation-invariant f,
    on n cells of (0, R]; warns when the cells are too coarse for h.

    Finite volumes with weight r^{d-1}: Neumann at 0 (the zero face
    weight), Dirichlet at R.  Angular sectors only add nonnegative
    centrifugal terms, so the smallest eigenvalues live here.  The factor
    is the 1D profile's, symmetrized in y = r^{(d-1)/2} u.
    """
    if d < 2:
        raise ValueError("the radial reduction needs ambient dimension >= 2")
    profile = p.profile() if p.radial else p
    if profile.dim != 1:
        raise ValueError("need a 1D profile or a radial potential")
    grid = Grid([[0.0, R]], n)
    _check_resolution(grid.spacings, h, strict=False)
    B = _witten_pieces(profile, grid).operator(h).A
    w_face = sparse.diags(grid.edges(0) ** ((d - 1) / 2.0))
    w_cell_inv = sparse.diags(grid.axes[0] ** (-(d - 1) / 2.0))
    return WittenOperator(A=(w_face @ B @ w_cell_inv).tocsr(), grid=grid)


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


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, looked up once in the process's C library;
    None where the C library has none (musl, macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_freed_heap():
    """Hand the heap that has been freed back to the OS, where the C
    library can.  Once large arrays have been mmapped and freed, glibc
    raises its mmap threshold, so the solve's per-h sparse temporaries
    land in the brk heap, and their holes would otherwise stay resident
    under the LU factor and the Lanczos basis."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _eliminated_cells(shape):
    """Whether each cell (C order) is eliminated ahead of the factor.
    A^T A couples a cell only to its neighbours along one axis, so the
    cells of even index sum share no coupling: their block of the
    shifted matrix is diagonal.  Eliminating them leaves the Schur
    complement on the odd cells, which SuperLU factors and solves faster
    than the whole matrix on a grid of one or two dimensions (on a
    shared 2-core VM: at 720^2 a factor of 3.3 s against 4.6 s, at 512^2
    a solve of 40 ms against 48 ms).  On a 3D grid it factors slower
    (48x40x40: 53 s against 37 s), so none is eliminated there."""
    if len(shape) > 2:
        return np.zeros(int(np.prod(shape)), dtype=bool)
    return np.indices(shape).sum(axis=0).ravel() % 2 == 0


def _eliminate(G, sigma, cells, m):
    """For G - sigma = [[diag(d), B], [B^T, C]] with its rows and columns
    in the order `cells`, the first m of them eliminated: 1/d,
    diag(d)^-1 B and the Schur complement C - B^T diag(d)^-1 B (CSC).
    m may be 0: the Schur complement is then the whole shifted matrix."""
    P = G.tocsr()[cells][:, cells]
    d_block, B = P[:m, :m], P[:m, m:]
    if d_block.nnz != m:
        raise RuntimeError("the cells eliminated first are coupled")
    d_inv = 1.0 / (d_block.diagonal() - sigma)
    DB = sparse.diags(d_inv) @ B
    C = P[m:, m:] - sigma * sparse.identity(P.shape[0] - m, format="csr")
    return d_inv, DB, (C - B.T @ DB).tocsc()


def ritz(A, Y):
    """Ritz pairs of A^T A on the span of Y through the factor: the QR
    Y = QR, then the SVD A Q = U S W^T.  Returns S^2 ascending and Q W to
    match.  A^T A is never formed, so small values keep the relative
    accuracy of A's singular values (Demmel et al., Computing the SVD
    with high relative accuracy, 1999).  U is never formed either: the
    SVD is taken of the k x k R factor of A Q, whose singular values and
    right vectors are A Q's."""
    Q, _ = np.linalg.qr(Y)
    _, s, Wt = np.linalg.svd(np.linalg.qr(A @ Q, mode="r"))
    return s[::-1] ** 2, Q @ Wt[::-1].T


@ONE_BLAS_THREAD
def smallest_eigs(op, k, ordering=None) -> EigenResult:
    """k smallest eigenpairs of A^T A via shift-invert at a small negative
    shift; eigenvalues sorted ascending, floor = 100 eps ||A^T A||.

    The m cells that `_eliminated_cells` picks, whose block of the
    shifted matrix is diagonal, are eliminated first, and SuperLU factors
    the Schur complement on the others.  m may be 0: on a 3D grid no cell
    is eliminated, and the same path factors the whole shifted matrix.
    The factored cells are taken in their order in `ordering`, a
    permutation of the cells, when one is given (an earlier result's
    `ordering` on the same grid: the stencil's sparsity does not depend
    on h), else in SuperLU's minimum-degree order, which is returned with
    the eliminated cells first.  ARPACK runs to relative tolerance
    ARPACK_TOL from a fixed start vector, so repeated calls with the same
    arguments return the same values and vectors.  Each pair's residual
    ||G v - lambda v|| is checked against the floor: if one is above it,
    one block step solves every vector once more and takes `ritz` on
    their span, and a pair still above it raises RuntimeError.

    Memory.  The first factorization of a 2D grid is projected to grow
    the process by `_FACTOR_CELL_BYTES` n ln n bytes for its n factored
    cells, that of a 1D grid by `_FACTOR_CELL_BYTES_1D` n bytes and that
    of a 3D grid by `_FACTOR_CELL_BYTES_3D` n^{4/3} bytes; a projection
    above physical memory raises ValueError before anything is built.
    Freed heap is handed back to the OS, where the C library has glibc's
    malloc_trim, at three phase boundaries: before the factorization,
    before the Lanczos phase and before the residual check builds G
    again.  glibc would keep the holes that the per-h temporaries (G, its
    permuted copy, the block products, the Schur complement) leave in its
    brk arena resident under the factor and the Lanczos basis: in
    `metastab all` on the 512^2 tilted double well, at the third
    factorization, the arena held 146 MB, 83 MB of it free, and the RSS
    was 221 MB without the releases and 138 MB with them.  The values and
    vectors do not depend on the releases.

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
    first = _eliminated_cells(op.grid.shape)
    m = np.count_nonzero(first)
    if ordering is None:
        # the first factor; later ones reuse its ordering
        factored = n - m
        if op.grid.dim == 1:
            need = _FACTOR_CELL_BYTES_1D * factored
        elif op.grid.dim == 2:
            need = _FACTOR_CELL_BYTES * factored * math.log(factored)
        else:
            need = _FACTOR_CELL_BYTES_3D * factored ** (4 / 3)
        sublevel._refuse_beyond_memory(
            f"the shift-invert factor of {factored} cells", need)
    G = op.gram()
    # max absolute row sum, a bound on the 2-norm
    norm = float(np.max(np.abs(G).sum(axis=1)))
    sigma = -1e-8 * max(norm, 1.0)
    cells = np.arange(n) if ordering is None else ordering
    cells = np.concatenate([cells[first[cells]], cells[~first[cells]]])
    d_inv, DB, schur = _eliminate(G, sigma, cells, m)
    # the factorization's scratch sets the peak memory: hold nothing but
    # the elimination's pieces through it, and build G again for the
    # residual check
    del G
    _release_freed_heap()
    if ordering is None:
        # SuperLU's default COLAMD ordering fills in badly on the symmetric
        # stencil; the AT_PLUS_A minimum-degree ordering is several times
        # faster.  Its column permutation maps each factored cell to its
        # position.
        lu = splu(schur, permc_spec="MMD_AT_PLUS_A")
        ordering = np.concatenate([cells[:m],
                                   cells[m:][np.argsort(lu.perm_c)]])
    else:
        lu = splu(schur, permc_spec="NATURAL")
    del schur
    _release_freed_heap()
    # [[diag(d), B], [B^T, C]] x = b: x[m:] solves the Schur complement
    # system, then x[:m] = (b[:m] - B x[m:]) / d; B^T diag(d)^-1 is DB's
    # transpose, a view of its arrays
    DBt = DB.T

    def solve(b):
        x = np.empty_like(b)
        x[m:] = lu.solve(b[m:] - DBt @ b[:m])
        x[:m] = d_inv * b[:m] - DB @ x[m:]
        return x
    # ARPACK works on the cells in the order `cells`, so a solve gathers
    # nothing; with its dtype given, LinearOperator spares a solve on zeros
    op_inv = LinearOperator((n, n), matvec=solve, dtype=float)
    # ARPACK's default start vector is random; a constant one needs more
    # shift-invert solves than this fixed random one
    v0 = np.random.default_rng(0).standard_normal(n)[cells]
    # a Lanczos basis smaller than ARPACK's default of 20 vectors restarts
    # more often but needs fewer shift-invert solves in all
    ncv = min(max(2 * k + 2, 12), n)
    try:
        # in shift-invert mode ARPACK only applies OPinv
        vals, vecs = eigsh(op_inv, k=k, sigma=sigma, which="LM",
                           tol=ARPACK_TOL, OPinv=op_inv, v0=v0, ncv=ncv)
    except ArpackNoConvergence as exc:
        raise RuntimeError(f"eigensolver did not converge: {exc}") from exc
    del op_inv
    order, back = np.argsort(vals), np.argsort(cells)
    vals, vecs = vals[order], vecs[np.ix_(back, order)]
    floor = RELIABLE_FLOOR_FACTOR * np.finfo(float).eps * norm
    if np.any(vals < -1e-14 * norm):
        raise RuntimeError("negative eigenvalue beyond rounding; "
                           "factored operator corrupted")
    _release_freed_heap()
    G = op.gram()
    residuals = np.linalg.norm(G @ vecs - vecs * vals, axis=0)
    if np.any(residuals > floor):
        # ARPACK's vectors carry rounding near eps times the largest
        # shift-invert value, which can lift a pair's residual above the
        # floor; one more solve of every vector damps it, and the Ritz
        # step on their span keeps the pairs orthogonal
        Y = np.column_stack([solve(v) for v in vecs[cells].T])[back]
        vals, vecs = ritz(op.A, Y)
        residuals = np.linalg.norm(G @ vecs - vecs * vals, axis=0)
    del solve, lu                 # the factors are done with
    if np.any(residuals > floor):
        raise RuntimeError(f"eigenpair residual {np.max(residuals):.3g} "
                           f"exceeds the reliability floor {floor:.3g}")
    return EigenResult(values=vals, vectors=vecs, floor=floor,
                       residuals=residuals, ordering=ordering)


def count_small(values, h):
    """Number of eigenvalues <= DEFAULT_ETA0 h^2 and the gap ratio of the
    next one."""
    values = np.asarray(values)
    cut = DEFAULT_ETA0 * h * h
    n = int(np.sum(values <= cut))
    ratio = float(values[n] / cut) if n < values.size else np.inf
    return n, ratio
