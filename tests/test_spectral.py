"""Discretized Witten Laplacian tests.

The harmonic potential is the exactly solvable oracle: for f = |x|^2/2 the
spectrum is 2h(n1+...+nd) with the usual multiplicities, and the radial
sector keeps only the even total levels.  The Gibbs density is an exact
kernel element in the continuum, so its discrete Rayleigh quotient bounds
the scheme error directly.
"""

import ctypes
import platform
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import eigsh

from metastab import spectral, sublevel
from metastab.potential import parse_potential
from metastab.spectral import (DEFAULT_ETA0, GridResolutionError,
                               assemble_radial, assemble_witten, count_small,
                               smallest_eigs)
from metastab.sublevel import Grid


def test_harmonic_1d_spectrum():
    p = parse_potential("x1^2/2", 1)
    h = 0.1
    W = assemble_witten(p, [[-6.0, 6.0]], (2048,), h)
    res = smallest_eigs(W, 5)
    assert abs(res.values[0]) < res.floor
    for k, lam in enumerate(res.values[1:], start=1):
        assert lam == pytest.approx(2.0 * h * k, rel=1e-3)
    # exact zero mode sits below the reliability floor, the rest above
    assert list(res.reliable()) == [False, True, True, True, True]


def test_harmonic_2d_multiplicities():
    p = parse_potential("(x1^2 + x2^2)/2", 2)
    h = 0.1
    W = assemble_witten(p, [[-5.0, 5.0]] * 2, 256, h)
    res = smallest_eigs(W, 6)
    assert abs(res.values[0]) < res.floor
    # level 2h is doubly degenerate, level 4h triply
    assert res.values[1] == pytest.approx(2.0 * h, rel=1e-2)
    assert res.values[2] == pytest.approx(res.values[1], rel=1e-6)
    for lam in res.values[3:6]:
        assert lam == pytest.approx(4.0 * h, rel=1e-2)


def test_harmonic_radial_even_levels():
    p = parse_potential("r^2/2", 2)
    h = 0.1
    W = assemble_radial(p, 2, 6.0, 2048, h)
    res = smallest_eigs(W, 3)
    assert abs(res.values[0]) < res.floor
    assert res.values[1] == pytest.approx(4.0 * h, rel=1e-3)
    assert res.values[2] == pytest.approx(8.0 * h, rel=1e-3)


def test_gibbs_is_discrete_near_kernel(tilted):
    h = 0.1
    W = assemble_witten(tilted.p, tilted.box, (4096,), h)
    x = W.grid.axes[0]
    f = tilted.p.values(x.reshape(-1, 1))
    g = np.exp(-(f - f.min()) / h)
    g /= np.linalg.norm(g)
    assert W.quadratic_form(g) < (W.grid.spacings[0] ** 2 / h) ** 2


def test_second_eigenvalue_self_convergence(tilted):
    h = 0.1
    lams = []
    for n in (2048, 4096):
        W = assemble_witten(tilted.p, tilted.box, (n,), h)
        lams.append(smallest_eigs(W, 2).values[1])
    assert abs(lams[0] - lams[1]) / lams[1] < 1e-2


def test_gram_symmetric_nonnegative(tilted):
    W = assemble_witten(tilted.p, tilted.box, (512,), 0.2)
    G = W.gram()
    assert abs(G - G.T).max() == 0.0
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = rng.standard_normal(W.n_cells)
        q = W.quadratic_form(u)
        assert q >= 0.0
        assert q == pytest.approx(float(u @ (G @ u)), rel=1e-12)


def test_count_small_threshold():
    h = 0.1
    cut = DEFAULT_ETA0 * h * h
    values = np.array([1e-9, 0.5 * cut, 100.0 * cut])
    n, ratio = count_small(values, h)
    assert n == 2
    assert ratio == pytest.approx(100.0)
    n_all, ratio_all = count_small(values[:2], h)
    assert n_all == 2 and ratio_all == np.inf


def test_eig_count_validation(tilted):
    W = assemble_witten(tilted.p, tilted.box, (64,), 0.5)
    with pytest.raises(ValueError):
        smallest_eigs(W, 0)
    with pytest.raises(ValueError):
        smallest_eigs(W, 64)


def test_resolution_guard(tilted):
    # 32 cells over width 4.8 at h = 0.01: spacing far above sqrt(h)/8
    with pytest.raises(GridResolutionError):
        assemble_witten(tilted.p, tilted.box, (32,), 0.01, strict=True)
    with pytest.warns(UserWarning, match="spacing"):
        assemble_witten(tilted.p, tilted.box, (32,), 0.01)


def test_radial_input_validation(mexican):
    with pytest.raises(ValueError):
        assemble_radial(mexican.p, 1, 2.0, 256, 0.1)
    cart = parse_potential("x1^2 + x2^4", 2)
    with pytest.raises(ValueError):
        assemble_radial(cart, 2, 2.0, 256, 0.1)


def test_radial_accepts_explicit_profile(mexican):
    h = 0.1
    via_radial = assemble_radial(mexican.p, 2, 2.2, 1024, h)
    via_profile = assemble_radial(mexican.p.profile(), 2, 2.2, 1024, h)
    a = smallest_eigs(via_radial, 2).values
    b = smallest_eigs(via_profile, 2).values
    assert a[1] == pytest.approx(b[1], rel=1e-12)


def test_smallest_eigs_is_deterministic():
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10 + x2^2/2", 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    first = smallest_eigs(W, 4)
    second = smallest_eigs(W, 4)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


TILTED_2D = "x1^4/4 - x1^2/2 + x1/10 + x2^2/2"


def test_residuals_below_floor_tilted_2d():
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 128, 0.2)
    res = smallest_eigs(W, 5)
    G = W.gram()
    direct = [np.linalg.norm(G @ v - lam * v)
              for lam, v in zip(res.values, res.vectors.T)]
    assert res.residuals == pytest.approx(direct, rel=1e-12, abs=1e-300)
    assert np.all(res.residuals <= res.floor)


def perturbed_eigsh(scale):
    """`eigsh` with its second eigenvector perturbed by `scale` times a
    standard normal vector, taken orthogonal to the vectors returned."""
    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        noise = np.random.default_rng(3).standard_normal(vecs.shape[0])
        vecs[:, 1] += scale * (noise - vecs @ (vecs.T @ noise))
        vecs[:, 1] /= np.linalg.norm(vecs[:, 1])
        return vals, vecs
    return perturbed


def test_residual_check_rejects_perturbed_eigenvector(monkeypatch):
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    monkeypatch.setattr(spectral, "eigsh", perturbed_eigsh(1e-6))
    with pytest.raises(RuntimeError, match="residual"):
        smallest_eigs(W, 3)


def test_one_more_solve_takes_rounding_out_of_a_pair(monkeypatch):
    # noise of norm 1e-10 lifts the residual over the floor, as the
    # rounding that ARPACK leaves in a pair far above the shift can; the
    # block step's one more shift-invert solve of every vector scales it
    # by about lambda over the noise's eigenvalues, and the Ritz pairs on
    # their span bring every residual back under
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    clean = smallest_eigs(W, 3)
    monkeypatch.setattr(spectral, "eigsh", perturbed_eigsh(1e-12))
    res = smallest_eigs(W, 3)
    assert np.all(res.residuals <= res.floor)
    assert abs(res.vectors[:, 1] @ clean.vectors[:, 1]) == pytest.approx(
        1.0, abs=1e-12)


def test_block_step_costs_k_solves_and_runs_only_when_needed(monkeypatch):
    # a pair above the floor sends every one of the k vectors once more
    # through the factor already held; a clean solve takes no step
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    calls, steps = counting_splu(monkeypatch), []
    monkeypatch.setattr(spectral, "ritz",
                        recorded("ritz", spectral.ritz, steps))
    smallest_eigs(W, 3)
    assert steps == []
    monkeypatch.setattr(spectral, "eigsh", perturbed_eigsh(1e-12))
    smallest_eigs(W, 3)
    assert steps == ["ritz"]
    assert calls[1][1] == calls[0][1] + 3


def test_ritz_values_match_the_gram_above_the_floor():
    # on the solver's vectors and three random ones, the squared singular
    # values of A Q agree with the eigenvalues of Q^T G Q above the floor:
    # measured within 1.8e-13 relative at h = 0.2 (1.1e-12 at h = 0.1),
    # what eps ||G|| allows the Gram's values of 1.8e-2 and up
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    res = smallest_eigs(W, 5)
    rng = np.random.default_rng(0)
    Y = np.column_stack([res.vectors, rng.standard_normal((W.n_cells, 3))])
    values, vectors = spectral.ritz(W.A, Y)
    assert np.all(values >= 0) and np.all(np.diff(values) >= 0)
    assert vectors.T @ vectors == pytest.approx(np.eye(8), abs=1e-14)
    Q, _ = np.linalg.qr(Y)
    dense = np.linalg.eigvalsh(Q.T @ (W.gram() @ Q))
    above = dense > res.floor
    assert np.count_nonzero(above) == 7
    assert values[above] == pytest.approx(dense[above], rel=1e-11, abs=0.0)


def test_3d_harmonic_matches_sums_of_1d_values():
    # a separable f makes A^T A the Kronecker sum of its 1D Grams, so each
    # value is a sum of three 1D values.  A pair leaves ARPACK above the
    # floor here, and one more solve of its vector alone lifts its residual
    # to 5.99e-10 against the floor 1.42e-12; the block step brings every
    # pair under.  Single-vector Lanczos can miss a copy of a degenerate
    # value (0.977, three-fold, comes twice), so each value is matched to
    # its nearest sum
    h, box = 0.5, [[-3.0, 3.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # coarse grids
        W = assemble_witten(parse_potential("(x1^2 + x2^2 + x3^2)/2", 3),
                            box * 3, 28, h)
        W1 = assemble_witten(parse_potential("x1^2/2", 1), box, 28, h)
    mu = np.linalg.eigvalsh(W1.gram().toarray())
    sums = (mu[:, None, None] + mu[:, None] + mu).ravel()
    res = smallest_eigs(W, 5)
    assert np.all(res.residuals <= res.floor)
    gaps = np.min(np.abs(res.values[:, None] - sums), axis=1)
    assert np.all(gaps <= res.floor)


def diff_avg(n, delta):
    """Forward difference and average from n cells to n+1 faces
    (Dirichlet)."""
    D = sparse.diags([1.0 / delta, -1.0 / delta], [0, -1], shape=(n + 1, n))
    Avg = sparse.diags([0.5, 0.5], [0, -1], shape=(n + 1, n))
    return D.tocsr(), Avg.tocsr()


def per_h_assembly(p, box, shape, h):
    """The twisted gradient built from scratch for one h: Kronecker
    difference and average blocks per axis, grad f at that axis's faces,
    each block summed as h D + Gamma Avg and the blocks stacked."""
    grid = Grid(box, shape)
    blocks = []
    for a in range(grid.dim):
        D1, Avg1 = diff_avg(grid.shape[a], grid.spacings[a])
        Dk, Ak = None, None
        for b, n_b in enumerate(grid.shape):
            eye = sparse.identity(n_b, format="csr")
            db = D1 if b == a else eye
            ab = Avg1 if b == a else eye
            Dk = db if Dk is None else sparse.kron(Dk, db, format="csr")
            Ak = ab if Ak is None else sparse.kron(Ak, ab, format="csr")
        _, grads = p.gradients(grid.points(face_axis=a))
        blocks.append((h * Dk + sparse.diags(grads[:, a]) @ Ak).tocsr())
    return sparse.vstack(blocks, format="csr")


def assert_same_csr(got, want):
    """The same matrix, bit for bit, once each row's entries are sorted by
    column."""
    got, want = got.sorted_indices(), want.sorted_indices()
    for got_a, want_a in ((got.data, want.data),
                          (got.indices, want.indices),
                          (got.indptr, want.indptr)):
        assert got_a.dtype == want_a.dtype
        assert np.array_equal(got_a, want_a)


@pytest.mark.parametrize("expression,box,shape", [
    ("x1^4/4 - x1^2/2 + x1/10", [[-2.4, 2.4]], (4096,)),
    (TILTED_2D, [[-2.4, 2.4], [-1.5, 2.0]], (96, 61)),
    ("(x1^2 + x2^2 + x3^2 - 1)^2 + x3/5", [[-2.0, 2.0], [-1.5, 1.5],
                                          [-1.0, 1.2]], (24, 17, 30)),
])
def test_shared_pieces_match_per_h_assembly(expression, box, shape):
    p = parse_potential(expression, len(box))
    pieces = None
    for h in (0.2, 0.15, 0.1):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # coarse 3D grid
            W = assemble_witten(p, box, shape, h, pieces=pieces)
        # the two store each row's entries in opposite column orders
        assert_same_csr(W.A, per_h_assembly(p, box, shape, h))
        assert np.shares_memory(W.A.indices, W.pieces.D.indices)
        pieces = W.pieces


def radial_reference(p, d, R, n, h):
    """The radial factor as it was assembled by its own formula:
    W_f (h D1 + diag(F') Avg1) W_c^-1, with F' the profile's derivative
    at the faces and W_f, W_c the weights r^{(d-1)/2} of faces and
    cells."""
    grid = Grid([[0.0, R]], n)
    D1, Avg1 = diff_avg(n, grid.spacings[0])
    _, grads = p.profile().gradients(grid.points(face_axis=0))
    B = h * D1 + sparse.diags(grads[:, 0]) @ Avg1
    w_face = sparse.diags(grid.edges(0) ** ((d - 1) / 2.0))
    w_cell_inv = sparse.diags(grid.axes[0] ** (-(d - 1) / 2.0))
    return (w_face @ B @ w_cell_inv).tocsr()


@pytest.mark.parametrize("d,h", [(2, 0.05), (2, 0.01), (3, 0.3), (3, 0.1)])
def test_radial_factor_is_the_weighted_profile_factor(d, h):
    p = parse_potential("r^6/6 - r^4/2 + 0.35*r^2" if d == 2 else "r^2/2",
                        d)
    R, n = (2.2, 8192) if d == 2 else (6.0, 2048)
    W = assemble_radial(p, d, R, n, h)
    assert W.grid.shape == (n,) and W.pieces is None
    assert_same_csr(W.A, radial_reference(p, d, R, n, h))


def test_pieces_rejected_for_another_grid_or_potential():
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 128, 0.2)
    with pytest.raises(ValueError, match="pieces"):
        assemble_witten(p, [[-2.4, 2.4]] * 2, 129, 0.2, pieces=W.pieces)
    with pytest.raises(ValueError, match="pieces"):
        assemble_witten(p, [[-2.4, 2.5]] * 2, 128, 0.2, pieces=W.pieces)
    other = parse_potential(TILTED_2D, 2)
    with pytest.raises(ValueError, match="pieces"):
        assemble_witten(other, [[-2.4, 2.4]] * 2, 128, 0.2, pieces=W.pieces)


def test_reused_ordering_matches_fresh_solves():
    p = parse_potential(TILTED_2D, 2)
    pieces = ordering = None
    for h in (0.2, 0.15, 0.1):
        W = assemble_witten(p, [[-2.4, 2.4]] * 2, 128, h, pieces=pieces)
        fresh = smallest_eigs(W, 5)
        reused = smallest_eigs(W, 5, ordering=ordering)
        if ordering is not None:
            assert reused.ordering is ordering
        above = fresh.values > fresh.floor
        assert np.count_nonzero(above) == 4
        assert reused.values[above] == pytest.approx(fresh.values[above],
                                                     rel=1e-12, abs=0.0)
        assert np.all(np.abs(reused.values[~above]) <= reused.floor)
        assert np.all(reused.residuals <= reused.floor)
        assert np.all(fresh.residuals <= fresh.floor)
        pieces, ordering = W.pieces, fresh.ordering


def test_smallest_eigs_with_ordering_is_deterministic():
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 128, 0.15)
    ordering = smallest_eigs(assemble_witten(p, [[-2.4, 2.4]] * 2, 128, 0.2),
                             4).ordering
    first = smallest_eigs(W, 4, ordering=ordering)
    second = smallest_eigs(W, 4, ordering=ordering)
    assert np.array_equal(first.values, second.values)
    assert np.array_equal(first.vectors, second.vectors)


def counting_splu(monkeypatch):
    """Wrap `spectral.splu`; returns the list of (permc_spec, LU solves)
    per factorization, filled as the solver runs."""
    calls = []
    real = spectral.splu

    class Counted:
        def __init__(self, lu, record):
            self.lu, self.record = lu, record
            self.perm_c = lu.perm_c

        def solve(self, b):
            self.record[1] += 1
            return self.lu.solve(b)

    def splu(matrix, permc_spec=None, **kwargs):
        calls.append([permc_spec, 0])
        return Counted(real(matrix, permc_spec=permc_spec, **kwargs),
                       calls[-1])

    monkeypatch.setattr(spectral, "splu", splu)
    return calls


# LU solves for the three h of tilted 2D at 128^2, k = 5, the later two
# reusing the first h's ordering: measured 92 (28 + 32 + 32) with a
# Lanczos basis of max(2k + 2, 12) vectors and tol 1e-12.  ARPACK's
# defaults (ncv = 20, tol = 0) and the one solve on zeros that a
# LinearOperator without a dtype spends to find it took 105 (35 per h).
LU_SOLVES_TILTED_2D_128 = 92


def test_lu_solve_count_tilted_2d(monkeypatch):
    calls = counting_splu(monkeypatch)
    p = parse_potential(TILTED_2D, 2)
    pieces = ordering = None
    for h in (0.2, 0.15, 0.1):
        W = assemble_witten(p, [[-2.4, 2.4]] * 2, 128, h, pieces=pieces)
        res = smallest_eigs(W, 5, ordering=ordering)
        pieces, ordering = W.pieces, res.ordering
    assert [spec for spec, _ in calls] == ["MMD_AT_PLUS_A", "NATURAL",
                                          "NATURAL"]
    assert sum(n for _, n in calls) <= LU_SOLVES_TILTED_2D_128


def test_ordering_must_permute_the_cells():
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    n = W.n_cells
    good = smallest_eigs(W, 3).ordering
    repeated = good.copy()
    repeated[1] = repeated[0]     # SuperLU finds this factor singular
    for bad in (repeated, good[:-1], good + 1, good - n - 1,
                good.astype(float), np.zeros(n, dtype=bool)):
        with pytest.raises(ValueError, match="must permute all"):
            smallest_eigs(W, 3, ordering=bad)


def test_first_factor_beyond_physical_memory_is_refused(monkeypatch):
    # 96^2 factors 4608 cells, projected at 6.26 MB; a later h that
    # reuses the ordering is not projected again
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    ordering = smallest_eigs(W, 3).ordering
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 6_000_000)
    with pytest.raises(ValueError, match="factor of 4608 cells needs about "
                       r"6\.26e\+06 bytes"):
        smallest_eigs(W, 3)
    smallest_eigs(W, 3, ordering=ordering)
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: None)
    smallest_eigs(W, 3)


def test_first_1d_factor_projected_per_cell(monkeypatch):
    # a 1D factor fills in like n: its 32 768 cells are projected at
    # 630 B each, 20.6 MB, where the 2D n ln n fit projected 54.9 MB
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10", 1)
    W = assemble_witten(p, [[-2.4, 2.4]], 1 << 16, 0.2)
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 40_000_000)
    assert smallest_eigs(W, 3).values.size == 3
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 20_000_000)
    with pytest.raises(ValueError, match="factor of 32768 cells needs about "
                       r"2\.06e\+07 bytes"):
        smallest_eigs(W, 3)


def test_first_3d_factor_projected_before_any_factor(monkeypatch):
    # a 3D grid factors every cell, its fill growing like n^{4/3}: the
    # 1728 cells of 12^3 are projected at 580 B per cell^{4/3}, 12.0 MB,
    # and refused before SuperLU sees them
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # coarse 3D grid
        W = assemble_witten(parse_potential("(x1^2 + x2^2 + x3^2)/2", 3),
                            [[-3.0, 3.0]] * 3, 12, 0.5)
    factored = []
    real = spectral.splu
    monkeypatch.setattr(spectral, "splu", lambda matrix, **kwargs: (
        factored.append(matrix.shape[0]) or real(matrix, **kwargs)))
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 12_000_000)
    with pytest.raises(ValueError, match="factor of 1728 cells needs about "
                       r"1\.2e\+07 bytes"):
        smallest_eigs(W, 3)
    assert factored == []
    monkeypatch.setattr(sublevel, "_physical_memory", lambda: 13_000_000)
    assert smallest_eigs(W, 3).values.size == 3
    assert factored == [1728]


def recorded(name, function, calls):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)
    return wrapper


def test_freed_heap_is_released_at_the_phase_boundaries(monkeypatch):
    # before the factor, before the Lanczos phase and before the residual
    # check builds G again
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    calls = []
    for name in ("_release_freed_heap", "splu", "eigsh"):
        monkeypatch.setattr(spectral, name,
                            recorded(name, getattr(spectral, name), calls))
    monkeypatch.setattr(W, "gram", recorded("gram", W.gram, calls))
    smallest_eigs(W, 3)
    assert calls == ["gram", "_release_freed_heap", "splu",
                     "_release_freed_heap", "eigsh", "_release_freed_heap",
                     "gram"]


def test_solve_without_malloc_trim_is_the_same(monkeypatch):
    if platform.libc_ver()[0] == "glibc":
        assert spectral._malloc_trim() is not None
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    normal = smallest_eigs(W, 3)

    def no_library(*args, **kwargs):
        raise OSError("no C library")
    # the solve above has looked up OpenBLAS already, so only the
    # malloc_trim lookup meets the failing CDLL
    spectral._malloc_trim.cache_clear()
    monkeypatch.setattr(spectral.ctypes, "CDLL", no_library)
    try:
        assert spectral._malloc_trim() is None
        bare = smallest_eigs(W, 3)
    finally:
        spectral._malloc_trim.cache_clear()
    for field in ("values", "vectors", "residuals", "ordering"):
        assert np.array_equal(getattr(bare, field), getattr(normal, field))
    assert bare.floor == normal.floor


def test_even_cells_are_eliminated_first_in_2d():
    # the cells of even index sum share no coupling, so their block of the
    # Gram matrix is diagonal and they lead the returned order
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4], [-1.5, 2.0]], (96, 65), 0.2)
    order = smallest_eigs(W, 3).ordering
    parity = np.sum(np.unravel_index(order, W.grid.shape), axis=0) % 2
    n_even = np.count_nonzero(parity == 0)
    assert np.all(parity[:n_even] == 0) and np.all(parity[n_even:] == 1)
    even = order[:n_even]
    block = W.gram().tocsr()[even][:, even]
    assert block.nnz == n_even and np.all(block.diagonal() > 0)


@pytest.mark.parametrize("expression,box,shape,factored", [
    (TILTED_2D, [[-2.4, 2.4], [-1.5, 2.0]], (24, 20), 240),
    ("(x1^2 + x2^2 + x3^2 - 1)^2 + x3/5", [[-2.0, 2.0], [-1.5, 1.5],
                                          [-1.0, 1.2]], (10, 9, 8), 720),
])
def test_eliminated_solve_matches_dense_eigh(monkeypatch, expression, box,
                                             shape, factored):
    # a 2D grid factors its odd cells alone, a 3D grid every cell.  At
    # h = 0.3 the smallest value is 1.5e-4, far enough above eps ||G|| for
    # the dense solve to hold it to 1e-9 (at h = 0.2, 5.6e-6, it does not)
    sizes = []
    real = spectral.splu
    monkeypatch.setattr(spectral, "splu", lambda matrix, **kwargs: (
        sizes.append(matrix.shape[0]) or real(matrix, **kwargs)))
    p = parse_potential(expression, len(box))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # coarse grids
        W = assemble_witten(p, box, shape, 0.3)
    res = smallest_eigs(W, 4)
    assert sizes == [factored]
    dense = scipy.linalg.eigh(W.gram().toarray(), eigvals_only=True)[:4]
    assert np.all(res.values > res.floor)
    assert res.values == pytest.approx(dense, rel=1e-9, abs=0.0)


def test_3d_solve_goes_through_the_elimination_with_none_eliminated(
        monkeypatch):
    # no cell is eliminated on a 3D grid, so the solve calls `_eliminate`
    # with m = 0 and SuperLU gets the Schur complement it returns: the
    # whole shifted matrix, entry for entry, in the order of the cells;
    # the values and vectors are those of the solve through that matrix
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # coarse 3D grid
        W = assemble_witten(parse_potential("(x1^2 + x2^2 + x3^2)/2", 3),
                            [[-3.0, 3.0]] * 3, 12, 0.5)
    real_eliminate, real_splu = spectral._eliminate, spectral.splu
    eliminated, factored = [], []

    def recording_eliminate(G, sigma, cells, m):
        out = real_eliminate(G, sigma, cells, m)
        eliminated.append((sigma, cells.copy(), m, out[2]))
        return out

    def recording_splu(matrix, **kwargs):
        factored.append(matrix)
        return real_splu(matrix, **kwargs)
    monkeypatch.setattr(spectral, "_eliminate", recording_eliminate)
    monkeypatch.setattr(spectral, "splu", recording_splu)
    first = smallest_eigs(W, 5)
    again = smallest_eigs(W, 5, ordering=first.ordering)
    assert len(eliminated) == len(factored) == 2
    runs = [(first, None), (again, first.ordering)]
    for (res, ordering), (sigma, cells, m, schur), matrix in zip(
            runs, list(eliminated), list(factored)):
        assert m == 0
        assert matrix is schur
        want_cells = np.arange(W.n_cells) if ordering is None else ordering
        assert np.array_equal(cells, want_cells)
        want = real_eliminate(W.gram(), sigma, want_cells, 0)[2]
        for got_a, want_a in ((matrix.data, want.data),
                              (matrix.indices, want.indices),
                              (matrix.indptr, want.indptr)):
            assert np.array_equal(got_a, want_a)
        # the same solve through the factor of that matrix
        monkeypatch.setattr(spectral, "splu", lambda _, **kwargs: real_splu(
            want, **kwargs))
        ref = smallest_eigs(W, 5, ordering=ordering)
        assert np.all(res.residuals <= res.floor)
        for field in ("values", "vectors", "ordering"):
            assert np.array_equal(getattr(res, field), getattr(ref, field))


def openblas_threads():
    """(get, set) thread-count functions of each OpenBLAS this process has
    loaded, looked up independently of `spectral`."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(maxsplit=5)[-1].strip() for line in fh
                        if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        names = [f"{prefix}{{}}_num_threads{suffix}"
                 for prefix in ("scipy_openblas_", "openblas_")
                 for suffix in ("64_", "")]
        name = next(n for n in names if hasattr(lib, n.format("get")))
        get, put = (getattr(lib, name.format(verb)) for verb in ("get", "set"))
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        found.append((get, put))
    return found


@pytest.fixture
def blas_threads():
    """Each loaded OpenBLAS's (get, set), every count set to 2 where
    OpenBLAS allows it and the process's counts put back after the test;
    skips where no OpenBLAS is loaded."""
    try:
        found = openblas_threads()
    except OSError:
        found = []
    if not found:
        pytest.skip("no OpenBLAS loaded")
    before = [get() for get, _ in found]
    for _, put in found:
        put(2)
    yield found
    for (_, put), n in zip(found, before):
        put(n)


def thread_counts(blas):
    return [get() for get, _ in blas]


def recording(function, seen, blas):
    def wrapper(*args, **kwargs):
        seen.append(thread_counts(blas))
        return function(*args, **kwargs)
    return wrapper


def test_solve_holds_blas_at_one_thread(monkeypatch, blas_threads):
    caller = thread_counts(blas_threads)
    ones = [1] * len(blas_threads)
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    seen = []
    monkeypatch.setattr(spectral, "splu",
                        recording(spectral.splu, seen, blas_threads))
    monkeypatch.setattr(spectral, "eigsh",
                        recording(eigsh, seen, blas_threads))
    res = smallest_eigs(W, 3)
    assert seen == [ones, ones]
    assert thread_counts(blas_threads) == caller
    smallest_eigs(W, 3, ordering=res.ordering)
    assert seen == [ones] * 4
    assert thread_counts(blas_threads) == caller
    monkeypatch.setattr(spectral, "eigsh",
                        recording(perturbed_eigsh(1e-6), seen, blas_threads))
    with pytest.raises(RuntimeError, match="residual"):
        smallest_eigs(W, 3)
    assert seen == [ones] * 6
    assert thread_counts(blas_threads) == caller


def test_overlapping_solves_restore_counts_once(monkeypatch, blas_threads):
    """Two threads inside the solve at once: the one that leaves first does
    not hand the other its caller's counts, and the one that leaves last
    restores the counts from before either entered."""
    caller = thread_counts(blas_threads)
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)
    both_inside = threading.Barrier(2, timeout=60)
    first_done = threading.Event()
    seen, errors = {}, []
    real = spectral.splu

    def splu(*args, **kwargs):
        both_inside.wait()
        if threading.current_thread().name == "second":
            assert first_done.wait(timeout=60)
            seen["second"] = thread_counts(blas_threads)
        return real(*args, **kwargs)

    def solve():
        try:
            smallest_eigs(W, 3)
        except Exception as exc:       # reported by the main thread
            errors.append(exc)

    monkeypatch.setattr(spectral, "splu", splu)
    first = threading.Thread(target=solve, name="first")
    second = threading.Thread(target=solve, name="second")
    first.start()
    second.start()
    first.join(timeout=60)
    assert not first.is_alive()
    first_done.set()
    second.join(timeout=60)
    assert not second.is_alive()
    assert errors == []
    assert seen["second"] == [1] * len(blas_threads)
    assert thread_counts(blas_threads) == caller


def test_solve_does_not_depend_on_blas_threads(blas_threads):
    """Solved on the process's thread count, the values at 256^2 were
    8.3e-16 apart (relative) with two OpenBLAS threads and with one; at
    128^2 they agreed, so a smaller grid would not show the difference."""
    if thread_counts(blas_threads) != [2] * len(blas_threads):
        pytest.skip("OpenBLAS cannot run two threads here")
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 256, 0.1)
    two = smallest_eigs(W, 5)
    for _, put in blas_threads:
        put(1)
    one = smallest_eigs(W, 5)
    assert np.array_equal(two.values, one.values)
    assert np.array_equal(two.vectors, one.vectors)
