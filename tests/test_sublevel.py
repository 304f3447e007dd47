"""Sublevel-set topology: flood fill components, probe levels, local tube
structure and the separating / locally-separating / non-separating verdicts."""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from metastab.manifolds import (manifold_point, manifold_sphere,
                                negative_direction_field, verify_critical)
from metastab.potential import parse_potential
from metastab.sublevel import (classify_separating, components,
                               local_structure, probe_level, sample_grid)

from conftest import TWISTED, UNTWISTED, unit_circle

# Tilted circle well: two minima near (−0.125, ±1.04), the right saddle is
# higher than the left one, so at the right saddle's level the two wells are
# already joined around the other side of the ring.
LSNS_EXPR = "(x1^2 + x2^2 - 1)^2 + 0.2*(x1^2 - x2^2) + x1/10"


def lsns_fixture():
    p = parse_potential(LSNS_EXPR, 2)
    xs = np.sort(np.roots([4.0, 0.0, -3.6, 0.1]).real)   # f'(x, 0) = 0
    s_low = manifold_point([xs[0], 0.0], name="saddle_low")
    s_high = manifold_point([xs[2], 0.0], name="saddle_high")
    for M in (s_low, s_high):
        res = verify_critical(p, M)
        assert res.ok, res
    assert s_low.value < s_high.value
    g = sample_grid(p, [[-1.8, 1.8], [-1.8, 1.8]], shape=(640, 640))
    return p, g, s_low, s_high


def test_component_count_across_saddle_level(tilted):
    g = tilted.g
    sigma = tilted.saddle.value
    below = components(g, probe_level(g, sigma))
    above = components(g, sigma + 0.05)
    assert below.count == 2
    assert above.count == 1
    assert below.count >= above.count + 1


def test_probe_level_stays_below_sigma(tilted):
    sigma = tilted.saddle.value
    probed = probe_level(tilted.g, sigma)
    assert probed < sigma


def test_component_labels_at_minima(tilted):
    g = tilted.g
    cmap = components(g, probe_level(g, tilted.saddle.value))
    labels = cmap.label_at(g, np.array([[tilted.x_left], [tilted.x_right]]))
    assert labels[0] >= 0 and labels[1] >= 0
    assert labels[0] != labels[1]


def test_points_outside_sublevel_get_minus_one(tilted):
    g = tilted.g
    cmap = components(g, probe_level(g, tilted.saddle.value))
    lab = cmap.label_at(g, np.array([[tilted.x_saddle]]))
    assert lab[0] == -1


def test_resolution_stability_of_counts(tilted):
    for n in (2048, 4096, 8192):
        g = sample_grid(tilted.p, tilted.box, shape=(n,))
        cmap = components(g, probe_level(g, tilted.saddle.value))
        assert cmap.count == 2


def test_local_structure_point_saddle_1d(tilted):
    frame = negative_direction_field(tilted.p, tilted.saddle)
    local = local_structure(tilted.p, tilted.saddle, frame, radius=0.7)
    assert local.n_components == 2
    assert local.plus_label != local.minus_label


def test_classify_lower_saddle_separating():
    p, g, s_low, s_high = lsns_fixture()
    frame = negative_direction_field(p, s_low)
    cls = classify_separating(p, s_low, frame, g, radius=0.25)
    assert cls.status == "separating"
    assert cls.b_plus != cls.b_minus


def test_classify_higher_saddle_locally_separating_only():
    p, g, s_low, s_high = lsns_fixture()
    frame = negative_direction_field(p, s_high)
    cls = classify_separating(p, s_high, frame, g, radius=0.25)
    assert cls.status == "locally_separating_not_separating"
    assert cls.b_plus == cls.b_minus
    assert not cls.separating


def test_twisted_circle_not_locally_separating():
    p = parse_potential(TWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    local = local_structure(p, M, None, radius=0.3, resolution=128)
    assert local.n_components == 1


def test_untwisted_circle_single_level_splits():
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    local = local_structure(p, M, frame, radius=0.3, resolution=128)
    assert local.n_components == 2
    g = sample_grid(p, [[-1.6, 1.6], [-1.6, 1.6], [-1.0, 1.0]],
                    shape=(96, 96, 64))
    cls = classify_separating(p, M, frame, g, radius=0.3, resolution=128)
    assert cls.status == "separating"


def test_mexican_ring_saddle_separates(mexican):
    g = sample_grid(mexican.p, mexican.box, shape=(512, 512))
    frame = negative_direction_field(mexican.p, mexican.saddle)
    cls = classify_separating(mexican.p, mexican.saddle, frame, g, radius=0.45)
    assert cls.status == "separating"


def test_sample_grid_geometry():
    p = parse_potential("x1^2 + x2^2", 2)
    g = sample_grid(p, [[-1.0, 1.0], [0.0, 2.0]], shape=(10, 20))
    assert g.values.shape == (10, 20)
    assert g.spacings[0] == pytest.approx(0.2)
    assert g.spacings[1] == pytest.approx(0.1)
    idx = g.index_of(np.array([[0.95, 1.95]]))
    assert tuple(idx[0]) == (9, 19)


# ---------------------------------------------------------------------------
# Tube grids: the stamped mask against the nearest-node reference


def kdtree_tube_mask(grid, nodes, radius):
    """Reference tube mask: nearest-node distance of every cell center."""
    axes = [grid.centers(a) for a in range(grid.dim)]
    points = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                      axis=-1)
    dist, _ = cKDTree(nodes).query(points)
    return (dist < radius).reshape(grid.shape)


def assert_tube_grid_exact(p, M, radius, resolution=None):
    local = local_structure(p, M, None, radius=radius, resolution=resolution)
    g = local.grid
    expected = kdtree_tube_mask(g, M.nodes, radius)
    assert np.array_equal(g.mask, expected)
    assert np.count_nonzero(g.mask) > 0
    # masked sampling: full-grid values on the tube, +inf elsewhere
    full = sample_grid(p, g.box, g.shape)
    assert np.array_equal(g.values[g.mask], full.values[g.mask])
    assert np.all(np.isinf(g.values[~g.mask]))
    return local


def test_tube_mask_exact_tilted_2d_point_saddle():
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10 + x2^2/2", 2)
    xs = np.sort(np.roots([1.0, 0.0, -1.0, 0.1]).real)[1]
    M = manifold_point([xs, 0.0], name="saddle")
    assert verify_critical(p, M).ok
    local = assert_tube_grid_exact(p, M, radius=0.7)
    assert local.grid.shape == (1024, 1024)
    assert local.n_components == 2


def test_tube_mask_exact_mexican_saddle_ring(mexican):
    assert mexican.saddle.n_nodes == 256
    local = assert_tube_grid_exact(mexican.p, mexican.saddle, radius=0.45)
    assert local.n_components == 2


def test_tube_mask_exact_3d_circle():
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    local = assert_tube_grid_exact(p, M, radius=0.3, resolution=96)
    assert local.grid.shape == (96, 96, 96)


def test_sample_grid_mask_shape_checked():
    p = parse_potential("x1^2 + x2^2", 2)
    with pytest.raises(ValueError, match="mask shape"):
        sample_grid(p, [[-1.0, 1.0], [-1.0, 1.0]], shape=(8, 8),
                    mask=np.ones((8, 9), dtype=bool))
