"""Discretized Witten Laplacian tests.

The harmonic potential is the exactly solvable oracle: for f = |x|^2/2 the
spectrum is 2h(n1+...+nd) with the usual multiplicities, and the radial
sector keeps only the even total levels.  The Gibbs density is an exact
kernel element in the continuum, so its discrete Rayleigh quotient bounds
the scheme error directly.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from metastab import spectral
from metastab.potential import parse_potential
from metastab.spectral import (DEFAULT_ETA0, GridResolutionError,
                               assemble_radial, assemble_witten, count_small,
                               smallest_eigs)


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
        assert q == pytest.approx(float(u @ W.apply(u)), rel=1e-12)


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
