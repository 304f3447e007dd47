"""Critical manifolds: quadrature, verification, transversal Hessians and
the global negative-direction field (orientable vs Moebius-like cases)."""

import math
import tracemalloc
import types

import numpy as np
import pytest

from metastab import manifolds
from metastab.manifolds import (CriticalManifold, NonOrientableNormalLine,
                                SaddleFrame, classify_index, manifold_point,
                                manifold_parametrized, manifold_sphere,
                                negative_direction_field, node_distance,
                                transversal_hessian, verify_critical)
from metastab.potential import parse_potential

from conftest import TWISTED, UNTWISTED, unit_circle

def test_sphere_measure_is_circumference():
    M = manifold_sphere([0.0, 0.0], 1.25)
    assert M.measure() == pytest.approx(2 * math.pi * 1.25, rel=1e-10)
    assert M.dim == 1


def test_parametrized_circle_matches_sphere_quadrature():
    Ma = manifold_sphere([0.0, 0.0], 0.7, n_nodes=256)
    Mb = manifold_parametrized(
        maps=["0.7*cos(x1)", "0.7*sin(x1)"],
        param_box=[[0.0, 2.0 * math.pi]],
        periodic=[True], n_nodes=[256], ambient_dim=2, name="circle2d")
    assert Mb.measure() == pytest.approx(Ma.measure(), rel=1e-10)


def assert_normals_radial(M, center, radius):
    # the one normal at each node spans (x - c)/R
    u = (M.nodes - center) / radius
    assert M.normals.shape == (M.n_nodes, M.ambient_dim, 1)
    np.testing.assert_allclose(M.normals @ M.normals.transpose(0, 2, 1),
                               u[:, :, None] * u[:, None, :], atol=1e-14)


def test_circle_off_origin_matches_closed_form():
    c, R, n = np.array([1.5, -2.0]), 0.7, 64
    M = manifold_sphere(c, R, n_nodes=n)
    theta = 2.0 * np.pi * np.arange(n) / n
    np.testing.assert_allclose(
        M.nodes, c + R * np.stack([np.cos(theta), np.sin(theta)], axis=1),
        rtol=1e-14)
    np.testing.assert_allclose(M.weights, np.full(n, R * 2.0 * np.pi / n),
                               rtol=1e-14)
    assert M.closed_chain
    assert_normals_radial(M, c, R)


def test_sphere_off_origin_matches_closed_form():
    from numpy.polynomial.legendre import leggauss
    c, R, n = np.array([1.5, -2.0, 3.0]), 0.8, 64
    M = manifold_sphere(c, R, n_nodes=n)
    z_gl, w_gl = leggauss(16)
    assert M.n_nodes == n * 16
    # azimuth-major order: the heights run through z_gl at each azimuth
    np.testing.assert_allclose(M.nodes[:, 2], c[2] + R * np.tile(z_gl, n),
                               rtol=1e-14)
    np.testing.assert_allclose(
        M.weights, R**2 * (2.0 * np.pi / n) * np.tile(w_gl, n), rtol=1e-14)
    assert_normals_radial(M, c, R)


@pytest.mark.parametrize("center,radius", [
    ([np.nan, 0.0], 1.0), ([0.0, 0.0, np.inf], 1.0), ([0.0, 0.0], np.inf),
], ids=["center-nan", "center-infinite", "radius-infinite"])
def test_sphere_refuses_non_finite(center, radius):
    with pytest.raises(ValueError, match="finite"):
        manifold_sphere(center, radius)


def test_quadrature_converges_under_node_doubling(mexican):
    # int_M |det Hess_perp|^{-1/2}: value must be node-count independent
    from metastab.kramers import weight_integral
    a = weight_integral(mexican.p,
                        manifold_sphere([0.0, 0.0], mexican.r_ring,
                                        n_nodes=128, name="ring"))
    b = weight_integral(mexican.p,
                        manifold_sphere([0.0, 0.0], mexican.r_ring,
                                        n_nodes=256, name="ring"))
    assert abs(a - b) < 1e-10 * abs(b)


def test_verify_critical_accepts_true_manifolds(mexican):
    for M in (mexican.m_center, mexican.m_ring, mexican.saddle):
        res = verify_critical(mexican.p, M)
        assert res.ok


def test_verify_critical_rejects_wrong_radius(mexican):
    M = manifold_sphere([0.0, 0.0], 1.0, name="not_critical")
    res = verify_critical(mexican.p, M)
    assert not res.ok


def test_transversal_hessian_on_saddle_ring(mexican):
    # F'' at the saddle radius: 5 r^4 - 6 r^2 + 0.7 with r^2 = 1 - sqrt(0.3)
    r2 = 1.0 - math.sqrt(0.3)
    expected = 5.0 * r2**2 - 6.0 * r2 + 0.7
    assert expected == pytest.approx(-0.9909, abs=2e-4)
    H, det, eig = transversal_hessian(mexican.p, mexican.saddle)
    assert H[0].shape == (1, 1)
    assert det[0] == pytest.approx(expected, rel=1e-8)
    assert eig[0, 0] == pytest.approx(expected, rel=1e-8)


def test_transversal_hessian_on_minimal_ring(mexican):
    r2 = 1.0 + math.sqrt(0.3)
    expected = 5.0 * r2**2 - 6.0 * r2 + 0.7
    _, det, eig = transversal_hessian(mexican.p, mexican.m_ring)
    assert det[0] == pytest.approx(expected, rel=1e-8)
    assert eig[0, 0] > 0


def test_classify_index(mexican):
    assert classify_index(mexican.p, mexican.m_center) == 0
    assert classify_index(mexican.p, mexican.m_ring) == 0
    assert classify_index(mexican.p, mexican.saddle) == 1


def test_direction_field_orientable_on_untwisted_circle():
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle()
    res = verify_critical(p, M)
    assert res.ok
    frame = negative_direction_field(p, M)
    assert isinstance(frame, SaddleFrame)
    assert np.all(frame.mu < 0)
    # the negative direction of (r-1)^2 - z^2 is the z axis
    assert np.allclose(np.abs(frame.nu[:, 2]), 1.0, atol=1e-9)
    # consistency: no sign flips between neighboring nodes
    dots = np.sum(frame.nu[1:] * frame.nu[:-1], axis=1)
    assert np.all(dots > 0.9)


def test_direction_field_nonorientable_on_twisted_circle():
    p = parse_potential(TWISTED, 3)
    M = unit_circle()
    res = verify_critical(p, M)
    assert res.ok
    out = negative_direction_field(p, M)
    assert isinstance(out, NonOrientableNormalLine)


def test_twisted_transversal_eigenvalues_are_plus_minus_two():
    # rotation of (r-1, z) leaves the quadratic form a^2 - b^2 with
    # transversal spectrum {-2, 2} at every node
    p = parse_potential(TWISTED, 3)
    M = unit_circle(64)
    _, dets, eigs = transversal_hessian(p, M)
    for i in (0, 13, 40):
        det, eig = dets[i], eigs[i]
        assert det == pytest.approx(-4.0, rel=1e-7)
        assert eig[0] == pytest.approx(-2.0, rel=1e-7)
        assert eig[1] == pytest.approx(2.0, rel=1e-7)


def test_degenerate_parametrization_rejected():
    from metastab.manifolds import DegenerateParametrizationError
    with pytest.raises(DegenerateParametrizationError):
        manifold_parametrized(
            maps=["0*x1", "0*x1"], param_box=[[0.0, 1.0]],
            periodic=[False], n_nodes=[16], ambient_dim=2, name="squashed")


def whole_array_node_distance(a, b):
    """The smallest node distance from the whole (na, nb, d) array."""
    return float(np.min(np.linalg.norm(
        a.nodes[:, None, :] - b.nodes[None, :, :], axis=-1)))


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
def test_node_distance_blocks_match_whole_array(monkeypatch, block):
    # blocks 1 and 7 send every case with more pairs to the k-d tree; the
    # minima must agree bit for bit
    monkeypatch.setattr(manifolds, "_PAIR_BLOCK", block)
    ring = manifold_sphere([0.1, -0.3], 1.3, n_nodes=64)
    ball = manifold_sphere([0.0, 0.0, 0.0], 0.8, n_nodes=16)
    cases = [(ring, manifold_point([2.0, 0.7])),
             (manifold_point([2.0, 0.7]), ring),
             (ring, manifold_sphere([0.4, 0.2], 0.5, n_nodes=40)),
             (ball, manifold_sphere([0.3, -0.2, 2.1], 1.1, n_nodes=20))]
    for a, b in cases:
        assert node_distance(a, b) == whole_array_node_distance(a, b)


def nodes_only(nodes):
    """What `node_distance` reads of a manifold."""
    return types.SimpleNamespace(nodes=nodes, n_nodes=len(nodes))


@pytest.mark.parametrize("seed", range(4))
def test_node_distance_tree_matches_whole_array(seed):
    # 400 x 300 pairs take the k-d tree; the sets are dyadic, so the
    # planted translates lie at exactly equal distances, and a copied node
    # is a coincident pair
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    a = np.round(rng.uniform(-4.0, 4.0, (400, dim)) * 1024) / 1024
    b = np.round(rng.uniform(-4.0, 4.0, (300, dim)) * 1024) / 1024
    shift = np.full(dim, 3.0 / 1024)
    tie = a[[5, 17, 230]] + shift
    # translates of one length, in random directions: their distances
    # differ in the last bits only
    step = rng.normal(size=a.shape)
    step *= 1e-3 / np.linalg.norm(step, axis=1, keepdims=True)
    cases = [(a, b), (b, a), (a, np.vstack([b, tie])),
             (a, np.vstack([b, tie, a[99]])), (a, a + step)]
    for x, y in cases:
        x, y = nodes_only(x), nodes_only(y)
        assert x.n_nodes * y.n_nodes > manifolds._PAIR_BLOCK
        assert node_distance(x, y) == whole_array_node_distance(x, y)
    assert node_distance(nodes_only(a), nodes_only(np.vstack([b, tie]))) \
        == np.linalg.norm(shift)
    assert node_distance(nodes_only(a), nodes_only(np.vstack([b, a[99]]))) \
        == 0.0


def test_node_distance_memory_bounded():
    # the whole (2304, 2304, 3) difference array and its norms peaked at
    # 340 MB; the k-d tree path traced 0.08 MB
    a = manifold_sphere([0.0, 0.0, 0.0], 1.0, n_nodes=96)
    b = manifold_sphere([0.5, 0.0, 2.5], 1.0, n_nodes=96)
    assert a.n_nodes == b.n_nodes == 2304
    tracemalloc.start()
    try:
        node_distance(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_point_manifold_basics():
    M = manifold_point([1.0, 2.0])
    assert M.dim == 0
    assert M.nodes.shape == (1, 2)
    assert M.measure() == pytest.approx(1.0)
