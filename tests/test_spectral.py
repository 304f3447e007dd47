"""Discretized Witten Laplacian tests.

The harmonic potential is the exactly solvable oracle: for f = |x|^2/2 the
spectrum is 2h(n1+...+nd) with the usual multiplicities, and the radial
sector keeps only the even total levels.  The Gibbs density is an exact
kernel element in the continuum, so its discrete Rayleigh quotient bounds
the scheme error directly.
"""

import warnings

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from metastab import spectral
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
    x = W.grid.centers(0)
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
    n_alt, _ = count_small(values, h, eta0=1e-7)
    assert n_alt == 1


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


def test_residual_check_rejects_perturbed_eigenvector(monkeypatch):
    p = parse_potential(TILTED_2D, 2)
    W = assemble_witten(p, [[-2.4, 2.4]] * 2, 96, 0.2)

    def perturbed(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        vecs[:, 1] += 1e-6 * np.random.default_rng(3).standard_normal(
            vecs.shape[0])
        vecs[:, 1] /= np.linalg.norm(vecs[:, 1])
        return vals, vecs

    monkeypatch.setattr(spectral, "eigsh", perturbed)
    with pytest.raises(RuntimeError, match="residual"):
        smallest_eigs(W, 3)


def per_h_assembly(p, box, shape, h):
    """The twisted gradient built from scratch for one h: Kronecker
    difference and average blocks per axis, grad f at that axis's faces,
    each block summed as h D + Gamma Avg and the blocks stacked."""
    grid = Grid(box, shape)
    blocks = []
    for a in range(grid.dim):
        D1, Avg1 = spectral._diff_avg(grid.shape[a], grid.spacings[a])
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
        want = per_h_assembly(p, box, shape, h)
        for got_a, want_a in ((W.A.data, want.data),
                              (W.A.indices, want.indices),
                              (W.A.indptr, want.indptr)):
            assert got_a.dtype == want_a.dtype
            assert np.array_equal(got_a, want_a)
        assert np.shares_memory(W.A.indices, W.pieces.D.indices)
        pieces = W.pieces


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
