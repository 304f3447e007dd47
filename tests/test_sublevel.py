"""Sublevel-set topology: flood fill components, probe levels, local tube
structure and the separating / locally-separating / non-separating verdicts."""

import contextlib
import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.spatial import cKDTree

from metastab import sublevel
from metastab.manifolds import (manifold_point, manifold_sphere,
                                negative_direction_field, verify_critical)
from metastab.potential import parse_potential
from metastab.spectral import assemble_witten
from metastab.sublevel import (ComponentMap, Grid, GridSampling,
                               classify_separating, components,
                               local_structure, probe_level, sample_grid)

from conftest import TWISTED, UNTWISTED, unit_circle

# Tilted circle well: two minima near (−0.125, ±1.04), the right saddle is
# higher than the left one, so at the right saddle's level the two wells are
# already joined around the other side of the ring.
LSNS_EXPR = "(x1^2 + x2^2 - 1)^2 + 0.2*(x1^2 - x2^2) + x1/10"


@contextlib.contextmanager
def traced_memory():
    """Trace allocations through the block; on exit, also by an exception,
    the yielded namespace holds the bytes still traced (`current`) and the
    peak (`peak`)."""
    mem = types.SimpleNamespace()
    tracemalloc.start()
    try:
        yield mem
    finally:
        mem.current, mem.peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()


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


def test_local_structure_rejects_radius_whose_offset_leaves_sublevel(tilted):
    # radius 2.5 puts the offset x_saddle + 1.25 at x = 1.35, where
    # f = 0.054 lies above sigma = 0.005: that side meets no component
    frame = negative_direction_field(tilted.p, tilted.saddle)
    with pytest.raises(ValueError, match="saddle saddle: .* tube radius"):
        local_structure(tilted.p, tilted.saddle, frame, radius=2.5)


def test_classify_lower_saddle_separating():
    p, g, s_low, s_high = lsns_fixture()
    frame = negative_direction_field(p, s_low)
    cls = classify_separating(p, s_low, frame, g, radius=0.25)
    assert cls.status == "separating"


def test_classify_higher_saddle_locally_separating_only():
    p, g, s_low, s_high = lsns_fixture()
    frame = negative_direction_field(p, s_high)
    cls = classify_separating(p, s_high, frame, g, radius=0.25)
    assert cls.status == "locally_separating_not_separating"
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


@pytest.mark.parametrize("box,shape", [
    ([[-2.4, 2.4]], (8,)),
    ([[-0.3, 1.7]], (7,)),
    ([[-2.4, 1.3], [0.5, 0.6]], (16, 8)),
    ([[-2.4, 1.3], [0.5, 0.6]], (9, 5)),
    ([[-1.0, 3.0], [0.5, 0.6], [-7.0, 3.0]], (4, 8, 2)),
    ([[-1.0, 3.0], [0.5, 0.6], [-7.0, 3.0]], (5, 3, 7)),
], ids=["1d-pow2", "1d-odd", "2d-pow2", "2d-odd", "3d-pow2", "3d-odd"])
@pytest.mark.filterwarnings("ignore:grid spacing")
def test_grid_geometry(box, shape):
    grid = sublevel.Grid(box, shape)
    d = len(shape)
    assert grid.shape == shape and grid.dim == d
    # every cell centre lies in its own cell, enumerated in C order
    cells = np.indices(shape).reshape(d, -1).T
    assert np.array_equal(grid.index_of(grid.points()), cells)
    ranks = np.arange(math.prod(shape)).reshape(shape)
    assert np.array_equal(grid.lookup(ranks, grid.points(), -1), ranks.ravel())
    # below the box, and on its upper faces (cells are half-open)
    beyond = np.array([[lo - 1.0 for lo, _ in box], [hi for _, hi in box]])
    assert np.array_equal(grid.lookup(ranks, beyond, -1), [-1, -1])
    for a in range(d):
        edges, centers = grid.edges(a), grid.axes[a]
        assert not centers.flags.writeable     # shared by every caller
        assert edges.size == shape[a] + 1
        assert edges[0] == box[a][0]
        assert edges[-1] == pytest.approx(box[a][1], rel=1e-15, abs=1e-15)
        assert np.all(edges[:-1] < centers) and np.all(centers < edges[1:])
        assert np.allclose(np.diff(edges), grid.spacings[a], rtol=1e-12)
        faces = grid.points(face_axis=a)
        assert faces.shape == (math.prod(shape) // shape[a]
                               * (shape[a] + 1), d)
        assert np.array_equal(np.unique(faces[:, a]), edges)
    # the Witten operator's cells are the sampled grid's cells
    p = parse_potential("+".join(f"x{a + 1}^2" for a in range(d)), d)
    g = sample_grid(p, box, shape)
    W = assemble_witten(p, box, shape, 1.0)
    assert W.grid.shape == g.shape
    assert np.array_equal(W.grid.box, g.box)
    assert np.array_equal(W.grid.spacings, g.spacings)
    for a in range(d):
        assert np.array_equal(W.grid.axes[a], g.axes[a])
        assert np.array_equal(W.grid.edges(a), g.edges(a))
    assert np.array_equal(W.grid.points(), g.points())
    assert W.n_cells == g.values.size


def test_grid_shape_normalised():
    box = [[0.0, 1.0], [0.0, 2.0]]
    assert sublevel.Grid(box, 6).shape == (6, 6)
    assert sublevel.Grid(box, [6]).shape == (6, 6)
    assert sublevel.Grid(box, None).shape == (1024, 1024)
    with pytest.raises(ValueError, match="3 entries .* dimension 2"):
        sublevel.Grid(box, (6, 6, 6))
    with pytest.raises(ValueError, match=">= 2"):
        sublevel.Grid(box, (6, 1))


# ---------------------------------------------------------------------------
# Tube grids: the stamped mask against the nearest-node reference


def kdtree_tube_mask(grid, nodes, radius):
    """Reference tube mask: nearest-node distance of every cell center."""
    points = np.stack([g.ravel() for g in np.meshgrid(*grid.axes,
                                                      indexing="ij")],
                      axis=-1)
    dist, _ = cKDTree(nodes).query(points)
    return (dist < radius).reshape(grid.shape)


def reference_tube_mask(nodes, axes, radius):
    """Tube mask by stamping each node's whole window: the squared
    distances of all its cells, summed axis by axis with axis 0 first, are
    compared with the squared radius bound and ORed into the mask."""
    t = sublevel._squared_radius_bound(radius)
    mask = np.zeros(tuple(ax.size for ax in axes), dtype=bool)
    for x in nodes:
        window = []
        sq = []
        for ax, xa in zip(axes, x):
            lo = max(int(np.searchsorted(ax, xa - radius)) - 1, 0)
            hi = int(np.searchsorted(ax, xa + radius, side="right")) + 1
            window.append(slice(lo, hi))
            sq.append((ax[lo:hi] - xa) ** 2)
        acc = sq[0]
        for a in range(1, len(axes)):
            acc = acc[..., None] + sq[a]
        block = mask[tuple(window)]
        block |= acc < t
    return mask


def runs_mask(first, last, shape):
    """The bool grid of shape `shape` whose C-order cells the flat runs
    [first, last) cover."""
    mask = np.zeros(math.prod(shape), dtype=bool)
    for lo, hi in zip(first.tolist(), last.tolist()):
        mask[lo:hi] = True
    return mask.reshape(shape)


def tube_mask(tube):
    """A tube grid's cells as a bool grid."""
    return runs_mask(tube.first, tube.last, tube.shape)


def assert_runs_well_formed(first, last, shape):
    """Runs are non-empty, in increasing order, disjoint and not touching,
    and inside the grid."""
    assert first.dtype == last.dtype == np.int64
    assert np.all(first < last)
    assert np.all(last[:-1] < first[1:])
    assert first.size == 0 or (first[0] >= 0 and last[-1] <= math.prod(shape))


def plane_offsets(mask):
    """The marked cells before each axis-0 plane of a bool grid, and in
    all."""
    per_plane = np.count_nonzero(mask.reshape(mask.shape[0], -1), axis=1)
    return np.concatenate([[0], np.cumsum(per_plane)])


def densify(tube):
    """The tube grid as a full grid: its values on the tube cells, +inf on
    the others."""
    values = np.full(tube.shape, np.inf)
    values[tube_mask(tube)] = tube.values
    return GridSampling(tube.box, tube.shape, values)


def assert_tube_grid_exact(p, M, radius, resolution=None):
    """Check the tube grid against the references; returns the grid and
    local_structure's component count on it."""
    g = sublevel._tube_grid(p, M, radius, resolution)
    assert_runs_well_formed(g.first, g.last, g.shape)
    mask = tube_mask(g)
    expected = kdtree_tube_mask(g, M.nodes, radius)
    assert np.array_equal(mask, expected)
    assert np.array_equal(mask, reference_tube_mask(M.nodes, g.axes, radius))
    assert np.count_nonzero(mask) > 0
    # tube sampling: the full grid's values on the tube cells in C order,
    # plane i's at offsets[i]:offsets[i + 1]; slabs read the runs' cells,
    # and f there, +inf off the tube
    full = sample_grid(p, g.box, g.shape)
    assert g.values.shape == (np.count_nonzero(mask),)
    assert np.array_equal(g.values, full.values[mask])
    assert np.array_equal(g.offsets, plane_offsets(mask))
    dense = densify(g)
    for start, stop in [(0, g.shape[0]), (0, 1), (1, g.shape[0] // 2 + 1),
                        (g.shape[0] - 1, g.shape[0])]:
        assert np.array_equal(g.cells(start, stop), mask[start:stop])
        assert np.array_equal(g.slab(start, stop), dense.values[start:stop])
    local = local_structure(p, M, None, radius=radius, resolution=resolution)
    return g, local.n_components


def test_tube_mask_exact_tilted_2d_point_saddle():
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10 + x2^2/2", 2)
    xs = np.sort(np.roots([1.0, 0.0, -1.0, 0.1]).real)[1]
    M = manifold_point([xs, 0.0], name="saddle")
    assert verify_critical(p, M).ok
    g, n_components = assert_tube_grid_exact(p, M, radius=0.7)
    assert g.shape == (1024, 1024)
    assert n_components == 2


def test_tube_mask_exact_mexican_saddle_ring(mexican):
    assert mexican.saddle.n_nodes == 256
    _, n_components = assert_tube_grid_exact(mexican.p, mexican.saddle,
                                             radius=0.45)
    assert n_components == 2


def test_tube_mask_exact_3d_circle():
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    g, _ = assert_tube_grid_exact(p, M, radius=0.3, resolution=96)
    assert g.shape == (96, 96, 96)


@pytest.mark.parametrize("batch", [1, 3000])
def test_tube_mask_node_batches(batch, monkeypatch):
    # one node per batch, and batches of a few nodes with a remainder
    M = unit_circle(128)
    box = [[-1.36, 1.36], [-1.36, 1.36], [-0.36, 0.36]]
    axes = sublevel.Grid(box, (48, 40, 36)).axes
    expected = reference_tube_mask(M.nodes, axes, 0.3)
    monkeypatch.setattr(sublevel, "_RUN_BATCH", batch)
    first, last = sublevel._tube_mask(M.nodes, axes, 0.3)
    assert np.array_equal(runs_mask(first, last, expected.shape), expected)


@st.composite
def tube_cases(draw, dim):
    """Anisotropic cell-center axes, nodes on centers, on cell faces or
    anywhere (some outside the box, some repeated), and radii from a
    fraction of a cell to beyond the box."""
    max_cells = {1: 400, 2: 60, 3: 24}[dim]
    axes = []
    for _ in range(dim):
        n = draw(st.integers(2, max_cells))
        lo = draw(st.floats(-3.0, 3.0))
        width = draw(st.floats(0.05, 4.0))
        axes.append(sublevel.Grid([[lo, lo + width]], n).axes[0])
    nodes = []
    for _ in range(draw(st.integers(1, 6))):
        x = []
        for ax in axes:
            lo, hi = 1.5 * ax[0] - 0.5 * ax[1], 1.5 * ax[-1] - 0.5 * ax[-2]
            where = draw(st.sampled_from(["center", "face", "anywhere"]))
            if where == "center":
                x.append(float(ax[draw(st.integers(0, ax.size - 1))]))
            elif where == "face":
                k = draw(st.integers(0, ax.size))
                x.append(lo + (hi - lo) * k / ax.size)
            else:
                pad = 0.5 * (hi - lo)
                x.append(draw(st.floats(lo - pad, hi + pad)))
        nodes.append(x)
    nodes += [nodes[i] for i in draw(st.lists(
        st.integers(0, len(nodes) - 1), max_size=3))]
    cell = min(ax[1] - ax[0] for ax in axes)
    span = max(ax[-1] - ax[0] for ax in axes)
    radius = math.exp(draw(st.floats(math.log(0.3 * cell),
                                     math.log(2.0 * span + cell))))
    return np.array(nodes), axes, radius


@pytest.mark.parametrize("dim", [1, 2, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tube_mask_matches_box_stamping(dim, data):
    nodes, axes, radius = data.draw(tube_cases(dim))
    first, last = sublevel._tube_mask(nodes, axes, radius)
    expected = reference_tube_mask(nodes, axes, radius)
    assert_runs_well_formed(first, last, expected.shape)
    assert np.array_equal(runs_mask(first, last, expected.shape), expected)
    tube = sublevel.TubeSampling([[0.0, 1.0]] * dim, expected.shape, first,
                                 last, np.zeros(np.count_nonzero(expected)))
    assert np.array_equal(tube.offsets, plane_offsets(expected))


@settings(max_examples=200, deadline=None)
@given(shape=st.lists(st.integers(2, 13), min_size=1, max_size=3).map(tuple),
       density=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1),
       planes=st.integers(1, 4))
def test_tube_runs_read_as_byte_mask(shape, density, seed, planes):
    # a tube grid built from a random mask's runs: its offsets, and every
    # slab of cells and of f read from the runs, equal the byte mask's;
    # labelled `planes` planes at a time, its sublevel set has the
    # components of the byte mask's
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    values = rng.standard_normal(shape)
    # a level of some cell's value: that cell is not below it
    level = float(rng.choice([rng.standard_normal(),
                              rng.choice(values.ravel())]))
    flat = np.concatenate([[False], mask.ravel(), [False]])
    ends = np.flatnonzero(flat[1:] != flat[:-1])
    tube = sublevel.TubeSampling([[0.0, 1.0]] * len(shape), shape, ends[::2],
                                 ends[1::2], values[mask])
    assert np.array_equal(tube.offsets, plane_offsets(mask))
    dense = np.where(mask, values, np.inf)
    for start in range(shape[0]):
        for stop in range(start + 1, shape[0] + 1):
            assert np.array_equal(tube.cells(start, stop), mask[start:stop])
            assert np.array_equal(tube.slab(start, stop), dense[start:stop])
    structure = ndimage.generate_binary_structure(len(shape), 1)
    want, count = ndimage.label(mask & (values < level), structure)
    want -= 1
    keep = rng.integers(-1, mask.size, 10)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sublevel, "_LABEL_SLAB", planes * math.prod(shape[1:]))
        kept = sublevel._label(tube, level, keep)
    assert kept.labels is None and kept.count == count
    assert [kept.kept[c] for c in keep.tolist()] == \
        np.where(keep >= 0, want.ravel()[keep], -1).tolist()
    whole = sublevel._label(tube, level)
    assert np.array_equal(whole.labels, want) and whole.count == count


def test_masked_sampling_rejects_non_finite_values():
    # exp(10 x2^4) overflows to inf for |x2| > 2.91: a tube of radius 0.5
    # around the saddle stays clear of that, one of radius 3.5 reaches it
    p = parse_potential("x1^2 - x2^2 + exp(10*x2^4)", 2)
    M = manifold_point([0.0, 0.0], name="saddle")
    assert verify_critical(p, M).ok
    g = sublevel._tube_grid(p, M, 0.5, 64)
    assert g.values.size == np.count_nonzero(tube_mask(g)) > 0
    assert np.all(np.isfinite(g.values))
    with pytest.raises(ValueError, match="non-finite potential values"):
        local_structure(p, M, None, radius=3.5, resolution=64)


@pytest.mark.parametrize("call", ["sample_grid", "local_structure"])
def test_oversized_grid_rejected_before_allocation(call):
    if sublevel._physical_memory() is None:
        pytest.skip("physical memory not reported by os.sysconf")
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(16)
    verify_critical(p, M)
    with traced_memory() as mem, pytest.raises(ValueError) as err:
        if call == "sample_grid":
            sample_grid(p, [[-1.0, 1.0]] * 3, shape=10**5)
        else:
            local_structure(p, M, None, radius=0.3, resolution=10**5)
    assert mem.peak < 1 << 20
    message = str(err.value)
    assert "(100000, 100000, 100000)" in message
    assert "1.3e+16 bytes" in message
    assert "`resolution`" in message and "`--grid`" in message


def test_results_do_not_keep_tube_grid():
    # the 96^3 tube grid with its labels is about 11.5 MB; none of it may
    # outlive the calls that build it
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    g = sample_grid(p, [[-1.6, 1.6], [-1.6, 1.6], [-1.0, 1.0]],
                    shape=(96, 96, 64))
    with traced_memory() as mem:
        local = local_structure(p, M, frame, radius=0.3, resolution=96)
        cls = classify_separating(p, M, frame, g, radius=0.3, resolution=96)
    assert local.n_components == 2
    assert cls.status == "separating"
    assert mem.current < 1 << 20


@pytest.mark.parametrize("expression", [TWISTED, UNTWISTED],
                         ids=["twisted", "untwisted"])
def test_tube_grid_peak_memory(expression):
    # a full grid of values with its mask, sublevel set and labels would be
    # 14 B/cell; see test_tube_grid_labelling_peak_memory for the tube form
    p = parse_potential(expression, 3)
    M = unit_circle(256)
    verify_critical(p, M)
    with traced_memory() as mem:
        local_structure(p, M, None, radius=0.3, resolution=160)
    assert mem.peak <= 12 * 160**3


@pytest.mark.parametrize("expression", [TWISTED, UNTWISTED],
                         ids=["twisted", "untwisted"])
def test_tube_grid_labelling_peak_memory(expression):
    # 16 B per run plus 8 B per tube cell (about a third of the cells);
    # the sublevel set is labelled one slab at a time
    # (test_tube_grid_labelled_without_a_label_grid)
    p = parse_potential(expression, 3)
    M = unit_circle(256)
    verify_critical(p, M)
    with traced_memory() as mem:
        local_structure(p, M, None, radius=0.3, resolution=160)
    assert mem.peak <= 7 * 160**3


@pytest.mark.parametrize("expression", [TWISTED, UNTWISTED],
                         ids=["twisted", "untwisted"])
def test_tube_grid_holds_its_cells_as_runs(expression, monkeypatch):
    # the sampled tube grid holds its runs, its plane offsets and the
    # values of its tube cells, and no pass over it (sampling, probing,
    # labelling) adds more than a sampling slab's scratch; a byte mask
    # would hold 1 B/cell
    p = parse_potential(expression, 3)
    M = unit_circle(256)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    frame = frame if hasattr(frame, "nu") else None
    tube_grid, tubes = sublevel._tube_grid, []

    def traced_tube_grid(*args):
        tube = tube_grid(*args)
        tubes.append((tube.values.size, tube.first.size, tube.offsets.nbytes,
                      tracemalloc.get_traced_memory()[0]))
        return tube
    monkeypatch.setattr(sublevel, "_tube_grid", traced_tube_grid)
    with traced_memory() as mem:
        local_structure(p, M, frame, radius=0.3, resolution=160)
    [(tube_cells, runs, offsets, held)] = tubes
    cells = 160**3
    # with 8 KiB for the interpreter's own small allocations (4.5 KB
    # measured)
    assert held - 8 * tube_cells <= 16 * runs + offsets + 2**13
    assert mem.peak - 8 * tube_cells <= cells / 8 + 64 * sublevel._SAMPLE_SLAB


@pytest.mark.parametrize("expression,count", [(TWISTED, 1), (UNTWISTED, 2)],
                         ids=["twisted", "untwisted"])
def test_local_structure_matches_components_on_tube_grid(expression, count):
    p = parse_potential(expression, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    frame = frame if hasattr(frame, "nu") else None
    radius, resolution = 0.3, 96
    tube = sublevel._tube_grid(p, M, radius, resolution)
    g = densify(tube)
    assert np.array_equal(tube.values, sample_grid(
        p, g.box, g.shape).values[tube_mask(tube)])
    level = probe_level(tube, M.value)
    assert level == reference_probe_level(g, M.value)
    cmap = components(g, level)
    local = local_structure(p, M, frame, radius=radius, resolution=resolution)
    assert local.n_components == cmap.count == count
    if frame is not None:
        plus, minus = cmap.sides(g, M, frame, radius)
        assert plus != minus


@pytest.mark.parametrize("expression,count", [(TWISTED, 1), (UNTWISTED, 2)],
                         ids=["twisted", "untwisted"])
@pytest.mark.parametrize("planes", [1, 7])
def test_local_structure_slab_labels_match_whole_grid(expression, count,
                                                      planes, monkeypatch):
    # the default slab splits the 96^3 tube; labelled in those slabs, and a
    # few planes at a time, it keeps the whole grid's count and sides
    p = parse_potential(expression, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    frame = frame if hasattr(frame, "nu") else None
    radius, resolution = 0.3, 96
    tube = sublevel._tube_grid(p, M, radius, resolution)
    grid = Grid(tube.box, tube.shape)
    level = probe_level(tube, M.value)
    assert len(list(sublevel._slabs(tube.shape, sublevel._LABEL_SLAB))) > 1
    whole = sublevel._label(tube, level)
    local = local_structure(p, M, frame, radius=radius, resolution=resolution)
    assert local.n_components == count
    monkeypatch.setattr(sublevel, "_LABEL_SLAB", planes * 96 * 96)
    keep = ([] if frame is None else grid.flat_index(
        np.concatenate(sublevel._side_points(M, frame, radius))))
    slabbed = sublevel._label(tube, level, keep)
    assert slabbed.labels is None
    assert slabbed.count == whole.count == count
    if frame is not None:
        sides = slabbed.sides(grid, M, frame, radius)
        assert sides == whole.sides(grid, M, frame, radius)
        assert sides[0] != sides[1]


def test_tube_grid_labelled_without_a_label_grid(monkeypatch):
    # an int32 label grid of the 160^3 tube would take 4 B/cell; the
    # labeller holds one 2**19-cell slab of ids at a time
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(256)
    verify_critical(p, M)
    frame = negative_direction_field(p, M)
    label, peaks = sublevel._label, []

    def traced_label(*args):
        with traced_memory() as mem:
            cmap = label(*args)
        peaks.append(mem.peak)
        return cmap
    monkeypatch.setattr(sublevel, "_label", traced_label)
    local = local_structure(p, M, frame, radius=0.3, resolution=160)
    assert local.n_components == 2
    assert len(peaks) == 1
    assert peaks[0] < 4 * 160**3


def mask_grid(mask):
    """A grid whose cells below 0 are those `mask` marks."""
    return unit_box_grid(np.where(mask, -1.0, 1.0))


@pytest.mark.parametrize("dim,extent", [(1, 300), (2, 40), (3, 12)])
def test_slab_labels_match_ndimage(dim, extent, monkeypatch):
    # random masks labelled one to three planes at a time: the whole
    # label grid, and the labels kept for a few cells, are ndimage.label's
    rng = np.random.default_rng(dim)
    structure = ndimage.generate_binary_structure(dim, 1)
    for _ in range(100):
        shape = tuple(int(n) for n in rng.integers(2, extent, size=dim))
        mask = rng.random(shape) < rng.uniform(0.2, 0.8)
        monkeypatch.setattr(sublevel, "_LABEL_SLAB",
                            math.prod(shape[1:]) * int(rng.integers(1, 4)))
        want, count = ndimage.label(mask, structure)
        want -= 1
        g = mask_grid(mask)
        cmap = sublevel._label(g, 0.0)
        assert np.array_equal(cmap.labels, want)
        assert cmap.count == count
        keep = rng.integers(-1, mask.size, 20)
        kept = sublevel._label(g, 0.0, keep)
        assert kept.labels is None and kept.count == count
        assert [kept.kept[c] for c in keep.tolist()] == \
            np.where(keep >= 0, want.ravel()[keep], -1).tolist()


def test_slab_labels_u_joined_in_last_slab(monkeypatch):
    # one row per slab: the U's arms meet only in the last row, after a
    # second component has started between them; the U, first in C
    # order, takes 0 and its right arm is renumbered with it
    mask = np.zeros((6, 5), dtype=bool)
    mask[:, 0] = mask[:, 4] = mask[-1] = True
    mask[1:3, 2] = True
    want = np.where(mask, 0, -1)
    want[1:3, 2] = 1
    monkeypatch.setattr(sublevel, "_LABEL_SLAB", 5)
    cmap = sublevel._label(mask_grid(mask), 0.0)
    assert cmap.count == 2
    assert np.array_equal(cmap.labels, want)
    kept = sublevel._label(mask_grid(mask), 0.0, [4, 12, 29, 1, -1])
    assert kept.count == 2
    assert kept.kept == {4: 0, 12: 1, 29: 0, 1: -1, -1: -1}


@pytest.mark.parametrize("expression,box,shape", [
    ("x1^2 + x2^2/2 + x3^4 - x1*x3", [[-1.0, 1.0], [-0.5, 2.0], [-1.0, 1.0]],
     (96, 96, 96)),
    (LSNS_EXPR, [[-1.8, 1.8], [-1.7, 1.9]], (1000, 333)),
])
def test_sample_grid_slabs_match_whole_grid(expression, box, shape):
    # several axis-0 slabs, the last one short
    p = parse_potential(expression, len(box))
    g = sample_grid(p, box, shape)
    want = p.values(Grid(box, shape).points()).reshape(shape)
    assert np.array_equal(g.values, want)


@pytest.mark.parametrize("n", [96, 160])
def test_sample_grid_scratch_bounded_by_slab(n):
    # the grid keeps its 8-byte values; the scratch on top (one slab's
    # points and values and the evaluator's block temporaries, about 55
    # bytes per slab cell in 3D) does not grow with the grid
    p = parse_potential("x1^2 + x2^2/2 + x3^4 - x1*x3", 3)
    with traced_memory() as mem:
        g = sample_grid(p, [[-1.0, 1.0]] * 3, n)
    assert mem.peak - 8 * g.values.size <= 64 * sublevel._SAMPLE_SLAB


def test_squared_radius_bound_is_tight():
    radii = [0.3, 0.45, 0.7, 0.25, 1.0 / 3.0, 1e-3, 2.0, 1e150, 5e-324]
    radii += list(np.random.default_rng(5).uniform(1e-3, 3.0, 2000))
    for radius in radii:
        t = sublevel._squared_radius_bound(radius)
        assert math.sqrt(t) >= radius > math.sqrt(math.nextafter(t, -math.inf))


@pytest.mark.parametrize("radius", [0.3, 0.45, 0.7, 1.0 / 3.0])
def test_tube_mask_boundary_cells(radius):
    # cells whose squared distance is the bound t, or the float below it:
    # sqrt decides, so the first is outside although t < radius * radius
    t = sublevel._squared_radius_bound(radius)
    assert t < radius * radius
    a = math.nextafter(radius, 0.0)
    b = np.array([math.sqrt(t - a * a),
                  math.sqrt(math.nextafter(t, 0.0) - a * a)])
    d2 = a * a + b * b
    assert d2[0] == t and d2[1] == math.nextafter(t, 0.0)
    first, last = sublevel._tube_mask(np.zeros((1, 2)), [np.array([a]), b],
                                      radius)
    mask = runs_mask(first, last, (1, 2))
    assert mask.tolist() == [[False, True]]
    assert np.array_equal(mask[0], np.sqrt(d2) < radius)


# ---------------------------------------------------------------------------
# Slab-wise probe_level and components against the whole-grid reference
# implementations


def reference_probe_level(g, sigma):
    """probe_level on whole-grid temporaries."""
    finite = g.values[np.isfinite(g.values)]
    scale = float(np.max(np.abs(finite))) if finite.size else 1.0
    eps = sublevel.LEVEL_EPS_REL * max(scale, 1.0)
    v = np.where(np.isfinite(g.values), g.values, np.nan)
    d2max = np.zeros_like(v)
    for a in range(g.dim):
        d2 = np.abs(np.diff(v, 2, axis=a))
        interior = [slice(None)] * g.dim
        interior[a] = slice(1, -1)
        np.fmax(d2max[tuple(interior)], d2, out=d2max[tuple(interior)])
    band = np.isfinite(v) & (np.abs(v - sigma) <= d2max)
    if np.any(band):
        eps = max(eps, float(np.max(d2max[band])) / 4.0)
    return sigma - eps


def reference_components(g, sigma):
    """components from whole-grid temporaries."""
    inside = g.values < sigma
    structure = ndimage.generate_binary_structure(g.dim, 1)
    raw, count = ndimage.label(inside, structure=structure)
    labels = raw.astype(np.int64) - 1
    return ComponentMap(sigma=float(sigma), labels=labels, count=count)


@pytest.fixture(params=[None, 1, 2900, 30000],
                ids=["default-slabs", "one-plane", "2900-cells",
                     "30000-cells"])
def slab_cells(request, monkeypatch):
    """Run with the module's slab sizes, or with all three set to `param`
    cells (at least one axis-0 plane per slab)."""
    if request.param is not None:
        monkeypatch.setattr(sublevel, "_PROBE_SLAB", request.param)
        monkeypatch.setattr(sublevel, "_SAMPLE_SLAB", request.param)
        monkeypatch.setattr(sublevel, "_LABEL_SLAB", request.param)
    return request.param


def assert_matches_reference(g, sigma, level=None):
    """probe_level(g, sigma) and the components at `level` (default: the
    probed level) equal the references."""
    probed = probe_level(g, sigma)
    assert probed == reference_probe_level(g, sigma)
    if level is None:
        level = probed
    cmap = components(g, level)
    ref = reference_components(g, level)
    assert cmap.labels.dtype == np.int32
    assert np.array_equal(cmap.labels, ref.labels)
    assert cmap.count == ref.count
    return cmap


def test_reference_equivalence_tilted_1d(tilted, slab_cells):
    cmap = assert_matches_reference(tilted.g, tilted.saddle.value)
    assert cmap.count == 2


def test_reference_equivalence_lsns_640(slab_cells):
    p, g, s_low, s_high = lsns_fixture()
    assert g.shape == (640, 640)
    for M in (s_low, s_high):
        assert_matches_reference(g, M.value)


def test_reference_equivalence_3d_tube(slab_cells):
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    tube = sublevel._tube_grid(p, M, 0.3, 96)
    assert tube.shape == (96, 96, 96)
    g = densify(tube)
    assert np.array_equal(tube.values, sample_grid(
        p, g.box, g.shape).values[tube_mask(tube)])
    assert probe_level(tube, M.value) == reference_probe_level(g, M.value)
    assert assert_matches_reference(g, M.value).count == 2


# planes of 64 x 128 cells: several to a probe_level slab, several probe
# slabs to a sampling slab
SLAB_PLANE = (64, 128)


def probe_slab_planes():
    planes = sublevel._PROBE_SLAB // math.prod(SLAB_PLANE)
    assert planes >= 2
    return planes


def test_reference_equivalence_slab_remainder():
    # one sampling slab, one probe_level slab and a plane: both slab
    # sizes leave a remainder
    p = parse_potential(UNTWISTED, 3)
    M = unit_circle(128)
    verify_critical(p, M)
    sample_planes = sublevel._SAMPLE_SLAB // math.prod(SLAB_PLANE)
    probe_planes = probe_slab_planes()
    shape = (sample_planes + probe_planes + 1,) + SLAB_PLANE
    assert shape[0] % sample_planes > 0 and shape[0] % probe_planes > 0
    tube, _ = assert_tube_grid_exact(p, M, radius=0.3, resolution=shape)
    assert tube.shape == shape
    g = densify(tube)
    assert probe_level(tube, M.value) == reference_probe_level(g, M.value)
    assert assert_matches_reference(g, M.value).count == 2


@pytest.mark.parametrize("side", [0, 1], ids=["slab-end", "slab-start"])
def test_reference_equivalence_kink_at_slab_boundary(side):
    # f = |i - kink| along axis 0, the kink on the last plane of the first
    # probe_level slab or the first plane of the second: the curvature
    # bound is the second difference there
    planes = probe_slab_planes()
    kink = planes - 1 + side
    shape = (2 * planes + 1,) + SLAB_PLANE
    values = (np.abs(np.arange(shape[0]) - kink)[:, None, None]
              + 1e-3 * np.linspace(0.0, 1.0, shape[1])[:, None]
              + np.zeros(shape))
    g = GridSampling(box=np.array([[0.0, 1.0]] * 3), shape=shape,
                     values=values)
    assert_matches_reference(g, 5e-4)
    assert probe_level(g, 5e-4) == 5e-4 - 2.0 / 4.0


def test_reference_equivalence_smaller_than_one_slab():
    values = np.random.default_rng(11).standard_normal((6, 7, 8))
    g = GridSampling(box=np.array([[0.0, 1.0]] * 3), shape=(6, 7, 8),
                     values=values)
    assert g.values.size < sublevel._SAMPLE_SLAB
    assert assert_matches_reference(g, 0.0, level=-0.5).count > 1


def test_reference_equivalence_many_components(slab_cells):
    rng = np.random.default_rng(7)
    shape = (40, 50, 60)
    values = rng.random(shape)
    mask = rng.random(shape) < 0.9
    values[~mask] = np.inf
    g = GridSampling(box=np.array([[-1.0, 1.0]] * 3), shape=shape,
                     values=values)
    cmap = assert_matches_reference(g, 0.2, level=0.2)
    assert cmap.count > 500


def test_reference_equivalence_empty_sublevel(tilted, slab_cells):
    g = tilted.g
    sigma = float(np.min(g.values)) - 1.0
    cmap = assert_matches_reference(g, sigma)
    assert cmap.count == 0
    assert np.all(cmap.labels == -1)


def unit_box_grid(values):
    values = np.asarray(values, dtype=float)
    return GridSampling(box=np.array([[0.0, 1.0]] * values.ndim),
                        shape=values.shape, values=values)


@pytest.mark.parametrize("fill", [np.inf, -np.inf, np.nan])
def test_probe_level_non_finite_slab_between_finite(fill, monkeypatch):
    # slabs of two planes; the third slab holds no finite value
    values = np.random.default_rng(3).standard_normal((10, 6, 7))
    values[4:6] = fill
    monkeypatch.setattr(sublevel, "_PROBE_SLAB", 2 * 6 * 7)
    for sigma in (0.0, 0.5, -1.0):
        assert_matches_reference(unit_box_grid(values), sigma)


def test_probe_level_cells_at_sigma(slab_cells):
    # i + j is exact and linear: every second difference is 0, so the band
    # is the cells at sigma, some of them corners with no second difference
    i, j = np.meshgrid(np.arange(9.0), np.arange(7.0), indexing="ij")
    g = unit_box_grid(i + j)
    for sigma in (0.0, 5.0, 14.0):
        assert np.any(g.values == sigma)
        assert_matches_reference(g, sigma)
        assert probe_level(g, sigma) == sigma - sublevel.LEVEL_EPS_REL * 14.0


@pytest.mark.parametrize("shape", [(2,), (2, 9), (9, 2), (2, 2, 7),
                                   (6, 2, 5), (5, 6, 2)])
def test_probe_level_axis_of_two_cells(shape, slab_cells):
    values = np.random.default_rng(9).standard_normal(shape)
    for sigma in (0.0, float(np.median(values))):
        assert_matches_reference(unit_box_grid(values), sigma)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("axis", [0, 1])
def test_probe_level_second_difference_overflows(axis, slab_cells):
    # finite values 1.7e308 apart: some second differences overflow to
    # +-inf, and the band bound is inf
    column = np.array([0.0, 1.7e308, -1.7e308, 0.0, 1.0, 2.0, 1e308])
    values = np.broadcast_to(column[:, None] if axis == 0 else column,
                             (7, 7)).copy()
    values[3, 3] = np.inf
    g = unit_box_grid(values)
    assert np.all(np.isfinite(np.delete(values.ravel(), 3 * 7 + 3)))
    for sigma in (0.0, 1.0):
        assert probe_level(g, sigma) == reference_probe_level(g, sigma)
    assert probe_level(g, 0.0) == -np.inf


@st.composite
def probe_cases(draw):
    """Grids of 1 to 3 axes of 2 to 7 cells: small integers (exact ties with
    sigma and zero second differences) or wide floats, some cells
    non-finite; sigma from the grid or anywhere; any slab size."""
    shape = tuple(draw(st.lists(st.integers(2, 7), min_size=1, max_size=3)))
    size = math.prod(shape)
    finite = draw(st.sampled_from([st.integers(-3, 3).map(float),
                                   st.floats(-1e6, 1e6)]))
    cell = st.one_of(finite, st.sampled_from([np.inf, -np.inf, np.nan]))
    element = draw(st.sampled_from([finite, cell]))
    values = np.array(draw(st.lists(element, min_size=size,
                                    max_size=size))).reshape(shape)
    sigma = draw(st.one_of(st.sampled_from(values.ravel().tolist()),
                           st.floats(-1e6, 1e6)))
    if not math.isfinite(sigma):
        sigma = 0.0
    slab = draw(st.integers(1, size + 1))
    return values, sigma, slab


@settings(max_examples=300, deadline=None)
@given(case=probe_cases())
def test_probe_level_matches_reference_random_grids(case):
    values, sigma, slab = case
    g = unit_box_grid(values)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sublevel, "_PROBE_SLAB", slab)
        assert probe_level(g, sigma) == reference_probe_level(g, sigma)


def test_probe_level_scratch_bounded_by_slab():
    # the same peak scratch for 16 and for 128 planes of 128 x 128 cells:
    # it is bounded by the slab, not the grid
    peaks = []
    for planes in (16, 128):
        x, y, z = np.ix_(np.linspace(-1.0, 1.0, planes),
                         np.linspace(-1.0, 1.0, 128),
                         np.linspace(-1.0, 1.0, 128))
        values = x * x + y * y - z * z + np.zeros((planes, 128, 128))
        values[values > 1.0] = np.inf
        g = unit_box_grid(values)
        with traced_memory() as mem:
            probe_level(g, 0.0)
        peaks.append(mem.peak)
    assert abs(peaks[0] - peaks[1]) <= 0.1 * max(peaks)
