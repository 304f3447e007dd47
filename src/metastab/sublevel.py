"""Grid-based sublevel-set topology: components, local saddle structure,
and the separating classification.

`Grid` is the cell-centred geometry shared by the sampled and tube grids,
the factored Witten operator and the quasimodes.

The flood fill uses face adjacency (2d neighbors) on cell-center samples
with strict inequality f < sigma; levels that would graze a critical value
are probed at sigma - eps with eps proportional to the value scale.

Local structure is computed on a tube grid: the cells whose centers lie
within `radius` of some node of the manifold.  Each row of cells along the
last axis meets a node's ball in one run, so the tube is built as runs:
their ends are found exactly with a few float evaluations per row, and
the tube is held as the merged runs.  That costs about (number of nodes)
x (rows per node box), and never forms a full-grid coordinate or
distance array; f is then evaluated on the tube cells only.

Grid passes that need temporaries (sampling, `probe_level`, labelling)
stream over slabs of consecutive axis-0 planes: at most 2**18 cells per
slab for sampling, 2**15 for `probe_level` and 2**19 for labelling a
tube (or one plane, if a plane is larger).  Each reads the grid through
`slab(start, stop)`, f on those planes.  Their scratch memory is
therefore bounded by the slab, not the grid, and results do not depend on
the slab size: sampling and `probe_level` do the same arithmetic cell for
cell, and the labeller (`_label`) merges the ids that meet across slab
faces and numbers the components as one `ndimage.label` call on the whole
grid would.  `probe_level`'s slab is small enough that its few
temporaries stay in a core's cache; it converts each plane once, and
reduces its band of level-crossing cells axis by axis, without a per-cell
maximum over the axes.  Beyond the slabs, `components` on a full grid
holds the float64 values, the boolean sublevel set and one int32 label
grid: about 13 bytes per cell.  A grid shape whose cells would need more
than the machine's physical memory at that rate is refused before
anything is allocated.
A tube grid (`TubeSampling`) keeps f on the tube cells only: its flat
runs, 16 bytes per run, and the float64 values of the tube cells, 8
bytes per tube cell.  Every pass over it (sampling, `probe_level`,
labelling) expands only the planes of its own slab from the runs, so no
tube grid ever holds a byte per cell.  `local_structure` labels its
sublevel set slab by slab, +inf off the tube, keeping only the component
count and the labels of the cells under the side points: a tube grid
never holds a label grid either.  It lives only while `local_structure`
runs.

`ComponentMap.sides` is the one rule that matches the two sides of an
index-1 manifold to components: `local_structure`, `classify_separating`
and the labeling all read a saddle's sides through it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import ndimage

from .manifolds import CriticalManifold, SaddleFrame
from .potential import Potential


def __getattr__(name):
    # No code here uses cKDTree.  `perfbench/tracing.py` still reads and
    # wraps `sublevel.cKDTree` to time a tube-mask query that no longer
    # runs, so the name is kept for it until the tracer reads spans that
    # the program records (ROADMAP, "Instrument inside the program").  It
    # is imported only when read: scipy.spatial costs about 0.1 s at
    # start-up.
    if name == "cKDTree":
        from scipy.spatial import cKDTree
        return cKDTree
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Grid",
    "GridSampling",
    "ComponentMap",
    "sample_grid",
    "components",
    "LocalStructure",
    "local_structure",
    "SeparatingClassification",
    "classify_separating",
    "LEVEL_EPS_REL",
]

LEVEL_EPS_REL = 1e-6

DEFAULT_RESOLUTION = {1: 4096, 2: 1024, 3: 160}

# cells per axis-0 slab of the streamed grid passes; a `probe_level` slab
# of float64 is 256 KiB, so its temporaries fit in cache.  Labelling
# slabs of 2**18, 2**19 and 2**20 cells all label the twisted 320^3 tube
# in 0.24-0.25 s; 2**19 (4 MiB of float64 f) holds half the scratch of
# 2**20, which set `tube_3d`'s peak
_SAMPLE_SLAB = 1 << 18
_PROBE_SLAB = 1 << 15
_LABEL_SLAB = 1 << 19
# padded window rows per batch of nodes in the tube-mask run search
_RUN_BATCH = 1 << 18
# bytes per cell of `components` on a full grid: float64 values, the bool
# sublevel set and its int32 labels (a tube grid holds 16 B per run plus
# 8 per tube cell; it never holds a label grid)
_CELL_BYTES = 8 + 1 + 4


@dataclass(eq=False)
class Grid:
    """Cell-centred grid on an axis-aligned box, `shape[a]` equal cells
    along axis a: the one home of cell centres, faces and spacings.

    The shape is normalised on construction: None is the default
    resolution, a single count applies to every axis, else there is one
    count per box axis; each axis needs 2 cells, and a shape needing more
    than physical memory (`_CELL_BYTES` per cell) is refused.
    """

    box: np.ndarray            # (d, 2)
    shape: tuple               # per-axis cell counts

    def __post_init__(self):
        self.box = np.asarray(self.box, dtype=float)
        d = self.dim
        shape = self.shape
        shape = DEFAULT_RESOLUTION.get(d, 64) if shape is None else shape
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        if len(shape) == 1:
            shape *= d
        if len(shape) != d:
            raise ValueError(
                f"grid shape {shape} has {len(shape)} entries but the box "
                f"has dimension {d}; give one entry, or one per dimension")
        if any(s < 2 for s in shape):
            raise ValueError("resolutions must be >= 2")
        _refuse_beyond_memory(f"grid of shape {shape}",
                              _CELL_BYTES * math.prod(shape),
                              f" ({_CELL_BYTES} per cell)")
        self.shape = shape

    @property
    def dim(self):
        return self.box.shape[0]

    @property
    def spacings(self):
        return (self.box[:, 1] - self.box[:, 0]) / np.asarray(self.shape)

    @cached_property
    def axes(self):
        """Cell-centre coordinates along each axis; read-only, since every
        caller shares them."""
        axes = tuple(lo + (hi - lo) * (np.arange(n) + 0.5) / n
                     for (lo, hi), n in zip(self.box, self.shape))
        for ax in axes:
            ax.flags.writeable = False
        return axes

    def edges(self, axis):
        """Face coordinates along `axis`: the shape[axis] + 1 cell bounds."""
        lo, hi = self.box[axis]
        n = self.shape[axis]
        return lo + (hi - lo) * np.arange(n + 1) / n

    def points(self, face_axis=None):
        """Cell centres, one row per cell in C order.  With `face_axis`,
        the midpoints of the faces normal to that axis instead: its
        `edges` along it, cell centres along the others."""
        axes = list(self.axes)
        if face_axis is not None:
            axes[face_axis] = self.edges(face_axis)
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def index_of(self, points):
        """Cell multi-indices of points; -1 marks out-of-box coordinates."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = np.empty(points.shape, dtype=np.int64)
        for a in range(self.dim):
            lo, hi = self.box[a]
            n = self.shape[a]
            j = np.floor((points[:, a] - lo) / (hi - lo) * n).astype(np.int64)
            j[(points[:, a] < lo) | (points[:, a] >= hi)] = -1
            j[j == n] = n - 1
            idx[:, a] = j
        return idx

    def flat_index(self, points):
        """C-order flat indices of the cells holding points; -1 for
        out-of-box points."""
        idx = self.index_of(points)
        flat = np.ravel_multi_index(tuple(np.maximum(idx, 0).T), self.shape)
        return np.where(np.all(idx >= 0, axis=1), flat, -1)

    def lookup(self, array, points, outside):
        """`array`, shaped like the grid, read at the cells holding
        `points`; `outside` for points out of the box."""
        flat = self.flat_index(points)
        ok = flat >= 0
        out = np.full(flat.shape, outside, dtype=array.dtype)
        out[ok] = array.reshape(-1)[flat[ok]]
        return out


@dataclass(eq=False)
class GridSampling(Grid):
    """Samples of f at the cell centres of a grid; immutable after fill."""

    values: np.ndarray         # f at cell centers, shape `shape`
    # always None: a tube grid is a `TubeSampling`; kept readable because
    # the benchmark tracer reads it from `sample_grid`'s results
    mask = None

    def slab(self, start, stop):
        """f on the axis-0 planes start..stop-1: a view of the values."""
        return self.values[start:stop]


@dataclass(eq=False)
class TubeSampling(Grid):
    """Samples of f on the tube cells of a grid only.

    The tube cells are the disjoint, sorted flat C-order runs
    [first, last) of `_tube_mask`, 16 B per run; `cells` reads them one
    axis-0 slab at a time.  `values` holds f at the tube cells, in C
    order, and the cells of axis-0 plane i are
    values[offsets[i]:offsets[i + 1]].
    """

    first: np.ndarray          # int64 run starts
    last: np.ndarray           # int64 run ends
    values: np.ndarray         # f on the tube cells, 1-D
    offsets: np.ndarray = field(init=False)    # int64, shape[0] + 1

    def __post_init__(self):
        super().__post_init__()
        # the cells before a plane's first cell: every run that starts
        # before it, less what the last of those runs covers from it on
        edges = np.arange(self.shape[0] + 1) * math.prod(self.shape[1:])
        k = np.searchsorted(self.first, edges)
        covered = np.concatenate([[0], np.cumsum(self.last - self.first)])
        beyond = np.concatenate([[0], self.last])[k] - edges
        self.offsets = covered[k] - np.maximum(beyond, 0)

    def cells(self, start, stop):
        """The tube cells of the axis-0 planes start..stop-1, as bools."""
        plane = math.prod(self.shape[1:])
        lo, hi = start * plane, stop * plane
        i = np.searchsorted(self.last, lo, side="right")
        j = np.searchsorted(self.first, hi)
        # in flat order the runs alternate with the gaps between them
        ends = np.stack([self.first[i:j], self.last[i:j]], axis=1).ravel()
        lengths = np.diff(np.clip(ends, lo, hi), prepend=lo, append=hi)
        cells = np.repeat(np.arange(lengths.size) % 2 == 1, lengths)
        return cells.reshape((stop - start,) + self.shape[1:])

    def slab(self, start, stop):
        """f on the axis-0 planes start..stop-1, +inf off the tube."""
        out = np.full((stop - start,) + self.shape[1:], np.inf)
        out[self.cells(start, stop)] = \
            self.values[self.offsets[start]:self.offsets[stop]]
        return out


def _slabs(shape, max_cells):
    """Axis-0 plane ranges (start, stop) covering a grid of shape `shape`,
    each of at most `max_cells` cells or a single plane."""
    step = max(1, max_cells // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        yield start, min(start + step, shape[0])


def _physical_memory():
    """Bytes of physical memory, or None where the OS does not report it."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _refuse_beyond_memory(subject, need, detail=""):
    """Raise ValueError when the `need` bytes of `subject` exceed physical
    memory; `detail` follows the byte count in the message."""
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{subject} needs about {need:.3g} bytes{detail}, more than the "
            f"{have:.3g} bytes of physical memory; lower the resolution "
            f"(`resolution`, or `--grid` on the command line)")


def sample_grid(p: Potential, box, shape=None) -> GridSampling:
    """Evaluate f at cell centers of an axis-aligned grid.

    Coordinates are formed one axis-0 slab at a time from the per-axis
    cell centers, so the scratch memory is bounded by the slab.  A
    non-finite value of f raises ValueError.
    """
    grid = Grid(box, shape)
    values = np.empty(grid.shape)
    for start, stop, slab in _sample_slabs(p, grid):
        values[start:stop] = slab.reshape((stop - start,) + grid.shape[1:])
    return GridSampling(grid.box, grid.shape, values)


def _sample_slabs(p: Potential, grid: Grid, cells=None):
    """(start, stop, f) per axis-0 slab: f at the slab's cells in C order,
    or only at those that `cells(start, stop)` marks where it is given.
    A non-finite value of f raises ValueError."""
    axes = grid.axes
    for start, stop in _slabs(grid.shape, _SAMPLE_SLAB):
        centers = np.ix_(axes[0][start:stop], *axes[1:])
        inside = (np.ones((stop - start,) + grid.shape[1:], dtype=bool)
                  if cells is None else cells(start, stop))
        points = np.empty((np.count_nonzero(inside), grid.dim))
        for a in range(grid.dim):
            points[:, a] = np.broadcast_to(centers[a], inside.shape)[inside]
        slab = p.values(points)
        if not np.all(np.isfinite(slab)):
            raise ValueError("non-finite potential values on grid")
        yield start, stop, slab


@dataclass
class ComponentMap:
    """Face-adjacent component labels of {f < sigma}; label -1 = excluded.

    `labels` is the whole label grid, or None for a map labelled for a few
    cells only (`_label`'s `keep`): `kept` then maps each of those cells'
    flat C-order index to its label, and only points in them are read.
    """

    sigma: float
    labels: np.ndarray | None  # int32, -1 excluded, 0..count-1 otherwise
    count: int
    kept: dict | None = None

    def label_at(self, grid: Grid, points):
        """Component label at given points; -1 if excluded or out of box."""
        if self.labels is not None:
            return grid.lookup(self.labels, points, -1)
        return np.array([self.kept[c] if c >= 0 else -1
                         for c in grid.flat_index(points).tolist()],
                        dtype=np.int32)

    def sides(self, grid: Grid, M: CriticalManifold, frame: SaddleFrame,
              radius):
        """The components (plus, minus) on the two sides of the index-1
        manifold M: the labels at M.nodes + (radius/2) nu and at
        M.nodes - (radius/2) nu, excluded and out-of-box points dropped.

        Each side must meet exactly one component, else ValueError.  The
        two may be the same component; each caller decides what that means.
        """
        out = []
        for sign, points in zip("+-", _side_points(M, frame, radius)):
            lab = self.label_at(grid, points)
            lab = np.unique(lab[lab >= 0])
            if lab.size != 1:
                raise ValueError(
                    f"saddle {M.name}: the offset points on its {sign}nu side "
                    f"meet {lab.size} components of {{f < {self.sigma:.9g}}}; "
                    "adjust the tube radius")
            out.append(int(lab[0]))
        return tuple(out)


def _side_points(M: CriticalManifold, frame: SaddleFrame, radius):
    """M.nodes + (radius/2) nu and M.nodes - (radius/2) nu: the points
    `ComponentMap.sides` reads on the two sides of M."""
    offset = 0.5 * radius * frame.nu
    return M.nodes + offset, M.nodes - offset


def components(g: GridSampling, sigma) -> ComponentMap:
    """Connected components of {cells: f < sigma} under face adjacency."""
    return _label(g, sigma)


def _label(g: GridSampling | TubeSampling, sigma,
           keep=None) -> ComponentMap:
    """The face-adjacent components of the cells of `g` with f below
    sigma, `g.slab(start, stop) < sigma` (+inf off a tube is never
    below), numbered 0, 1, ... by their first cell in C order, as
    `ndimage.label` numbers them on the whole grid.

    Without `keep`, one `ndimage.label` call labels the whole grid and the
    map holds its int32 label grid.  With `keep`, flat C-order indices of
    cells (-1 for none), no label grid outlives its slab: the map holds
    the count and the labels of those cells only.  `g` is then read by
    axis-0 slabs of at most `_LABEL_SLAB` = 2**19 cells (or one plane),
    so a tube grid is never expanded whole.  Each slab is labelled on its
    own, its provisional ids offset past the earlier slabs', and the id
    pairs that meet across each slab face are merged (`_face_pairs`,
    `_merge_ids`).
    A component's first cell is the first cell of its smallest
    provisional id, so its number is the rank of that id among the
    groups' smallest ids.
    """
    structure = ndimage.generate_binary_structure(g.dim, 1)
    plane = math.prod(g.shape[1:])
    whole = keep is None        # then the whole grid is one slab
    slabs = [(0, g.shape[0])] if whole else _slabs(g.shape, _LABEL_SLAB)
    keep = np.asarray([] if whole else keep, dtype=np.int64)
    kept = np.zeros(keep.shape, dtype=np.int64)     # provisional ids
    n = 0                       # provisional ids so far
    last = None                 # the previous slab's last plane of ids
    pairs = []
    for start, stop in slabs:
        ids, count = ndimage.label(g.slab(start, stop) < sigma, structure)
        if whole:               # its ids, 1..count, less one
            ids -= 1
            return ComponentMap(sigma=float(sigma), labels=ids, count=count)
        if n:
            np.add(ids, n, out=ids, where=ids > 0)
        if last is not None:
            pairs.append(_face_pairs(last, ids[:1]))
        here = (keep >= start * plane) & (keep < stop * plane)
        kept[here] = ids.reshape(-1)[keep[here] - start * plane]
        last = ids[-1:].copy()
        n += count
    root = _merge_ids(n, pairs)
    # a root is the smallest id of its group; -1 for id 0, outside
    number = np.cumsum(root == np.arange(n + 1), dtype=np.int64) - 2
    at = np.where(keep >= 0, number[root[kept]], -1)
    return ComponentMap(sigma=float(sigma), labels=None,
                        count=int(number[-1]) + 1,
                        kept=dict(zip(keep.tolist(), at.tolist())))


def _face_pairs(before, after):
    """The distinct pairs of ids (a, b), both inside, that meet across a
    slab face: `before` is the plane before it, `after` the plane after,
    as a single int64 key a * 2**32 + b each.  Runs of one pair along a
    row are dropped before the sort."""
    a, b = before.reshape(-1), after.reshape(-1)
    both = (a > 0) & (b > 0)
    a, b = a[both], b[both]
    new = np.ones(a.size, dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return np.unique((a[new].astype(np.int64) << 32) | b[new])


def _merge_ids(n, pairs):
    """root[i], the smallest of the ids 0..n joined to id i by the keyed
    pairs (`_face_pairs`), by hooking each pair's roots to the smaller one
    and compressing the paths until every pair shares its root."""
    root = np.arange(n + 1)
    keys = np.concatenate(pairs) if pairs else np.empty(0, dtype=np.int64)
    a, b = keys >> 32, keys & 0xFFFFFFFF
    while a.size:
        ra, rb = root[a], root[b]
        low = np.minimum(ra, rb)
        np.minimum.at(root, ra, low)
        np.minimum.at(root, rb, low)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        split = root[a] != root[b]
        a, b = a[split], b[split]
    return root


def probe_level(g: GridSampling | TubeSampling, sigma):
    """Level just below sigma at which strict components are grid-resolvable.

    The margin combines a relative floor with a curvature bound: near an
    index-1 critical set the two strict components of {f < sigma} touch at
    the set itself, and cells whose centers straddle it can spuriously
    connect them unless levels within one quadratic cell variation of sigma
    are excluded.  The bound uses second differences of the sampled values,
    restricted to cells the sigma level surface actually crosses: the band
    of cells with |v - sigma| <= max_a |d2_a|, a cell's largest second
    difference over the axes a where it has one (0 where it has none).

    The band's largest bound is reduced axis by axis: it is the largest
    |d2_a| over the cells with |v - sigma| <= |d2_a|, since a cell's
    largest difference passes its own test.  A band cell with no second
    difference contributes 0, which the relative floor already exceeds.
    Non-finite values become NaN, so every difference that touches one is
    NaN and fails the test, as does the cell itself.

    Streams over slabs of at most `_PROBE_SLAB` = 2**15 cells along axis 0
    (or one plane), read through `g.slab`, each plane converted once.  The
    axis-0 differences across a slab boundary use the previous slab's last
    plane, its first difference and its |v - sigma|, and are computed as
    (v[c+1] - v[c]) - (v[c] - v[c-1]), exactly as along the other axes, so
    the level does not depend on the slab size.
    """
    scale = 1.0
    band_max = 0.0
    carry = None    # last plane of the previous slab: v, |v - sigma|, dv
    for start, stop in _slabs(g.shape, _PROBE_SLAB):
        raw = g.slab(start, stop)
        with np.errstate(invalid="ignore"):
            v = raw * 0.0           # 0 where finite, NaN elsewhere
        v += raw
        scale = max(scale, float(np.fmax.reduce(v, axis=None, initial=0.0)),
                    -float(np.fmin.reduce(v, axis=None, initial=0.0)))
        w = v - sigma
        np.abs(w, out=w)
        for a in range(1, g.dim):
            interior = (slice(None),) * a + (slice(1, -1),)
            band_max = max(band_max, _band_max(w[interior],
                                               np.diff(v, 2, axis=a)))
        # first differences dv[j] = v[c + 1] - v[c] along axis 0, from
        # c = start - 1 on where a previous slab supplies v[start - 1]
        if carry is None:
            dv, first = np.diff(v, axis=0), start
        else:
            last_v, last_w, last_dv = carry
            dv, first = np.empty_like(v), start - 1
            np.subtract(v[:1], last_v, out=dv[:1])
            np.subtract(v[1:], v[:-1], out=dv[1:])
            if last_dv is not None:       # centred on plane start - 1
                band_max = max(band_max, _band_max(last_w, dv[:1] - last_dv))
        # centred on planes first + 1 .. stop - 2
        band_max = max(band_max, _band_max(w[first + 1 - start:-1],
                                           dv[1:] - dv[:-1]))
        carry = v[-1:], w[-1:], (dv[-1:] if len(dv) else None)
    return sigma - max(LEVEL_EPS_REL * scale, band_max / 4.0)


def _band_max(w, d2):
    """The largest |d2| over the cells where w <= |d2|, or 0 if none;
    `d2` is overwritten with |d2|."""
    np.abs(d2, out=d2)
    band = d2[w <= d2]
    return float(band.max()) if band.size else 0.0


# ---------------------------------------------------------------------------
# Local structure near an index-1 manifold


@dataclass
class LocalStructure:
    n_components: int


def _tube_mask(nodes, axes, radius):
    """Cells of the grid with cell-center axes `axes` whose centers lie
    strictly within `radius` of some node, as disjoint, non-touching flat
    C-order runs [first, last) in increasing order, 16 B per run.

    Exactly the nearest-node test `min_k |c - x_k| < radius`: a cell is in
    the tube iff, for some node, its squared distance, summed axis by axis
    with axis 0 first, is below the bound t of `_squared_radius_bound`.
    Only cells of a node's window, its box [x - r, x + r] padded by one
    cell, are tested.

    Each row of a window along the last axis meets the node's ball in one
    run of cells (see `_row_runs`), found exactly from a few float
    evaluations per row rather than one per cell.  The nodes are handled
    in batches of at most `_RUN_BATCH` padded window rows; each batch's
    runs are merged into the union so far (`_merge_runs`).  Cost is
    about len(nodes) x (rows per window) for the runs and their sorts;
    scratch memory is bounded by the batch and the merged runs.
    """
    t = _squared_radius_bound(radius)
    d = len(axes)
    nodes = np.asarray(nodes, dtype=float).reshape(-1, d)
    lo = np.stack([np.maximum(np.searchsorted(ax, nodes[:, a] - radius) - 1,
                              0) for a, ax in enumerate(axes)], axis=1)
    hi = np.stack([np.minimum(np.searchsorted(ax, nodes[:, a] + radius,
                                              side="right") + 1, ax.size)
                   for a, ax in enumerate(axes)], axis=1)
    hi = np.maximum(hi, lo)
    rows_per_node = math.prod(int(np.max(hi[:, a] - lo[:, a], initial=0))
                              for a in range(d - 1))
    step = max(1, _RUN_BATCH // max(rows_per_node, 1))
    first = last = np.empty(0, dtype=np.int64)
    for s in range(0, len(nodes), step):
        row, start, stop = _row_runs(nodes[s:s + step], lo[s:s + step],
                                     hi[s:s + step], axes, t)
        first, last = _merge_runs(
            np.concatenate([first, row * axes[-1].size + start]),
            np.concatenate([last, row * axes[-1].size + stop]))
    return first, last


def _row_runs(nodes, lo, hi, axes, t):
    """The runs [start, stop) of cells along the last axis, one per window
    row of each node, whose squared distance to the node is below t.

    A row's squared distance is part + sq[k], part the sum over the other
    axes and sq[k] = (c[k] - x)**2.  Along a monotone axis the rounded
    offsets c[k] - x are monotone, so sq falls to its first minimum, at mid,
    and does not fall after it.  Rounded addition is monotone too, so the
    test holds on a suffix of the cells left of mid and a prefix of the
    cells from mid on: one interval.  Its ends are estimated from
    sqrt(t - part) and then moved with the exact float test until it
    flips, usually by a cell at most.  Returns flat row indices over axes
    0..d-2, starts and stops.
    """
    n = len(nodes)
    part = np.zeros(n)
    row = np.zeros(n, dtype=np.int64)
    for a, ax in enumerate(axes[:-1]):
        k, sq = _window_squares(ax, nodes[:, a], lo[:, a], hi[:, a])
        fan = (n,) + (1,) * a + (-1,)
        part = part[..., None] + sq.reshape(fan)
        row = row[..., None] * ax.size + k.reshape(fan)
    ax = axes[-1]
    _, sq = _window_squares(ax, nodes[:, -1], lo[:, -1], hi[:, -1])
    mid = lo[:, -1] + np.argmin(sq, axis=1)

    near = part < t
    node = np.nonzero(near)[0]
    part = part[near]
    row = np.broadcast_to(row, near.shape)[near]
    x = nodes[node, -1]
    lo, hi, mid = lo[node, -1], hi[node, -1], mid[node]
    reach = np.sqrt(t - part)
    start = np.clip(np.searchsorted(ax, x - reach), lo, mid)
    stop = np.clip(np.searchsorted(ax, x + reach), mid, hi)

    def inside(k, i):
        return part[i] + (ax[k] - x[i]) ** 2 < t

    # start: the first cell inside left of mid; stop: the first cell
    # outside from mid on
    _walk(start, mid, +1, False, inside)
    _walk(start, lo, -1, True, inside)
    _walk(stop, mid, -1, False, inside)
    _walk(stop, hi, +1, True, inside)
    return row, start, stop


def _window_squares(ax, x, lo, hi):
    """Per node, the cells k of its window [lo, hi) on the axis with cell
    centers `ax`, padded to the widest window, and (ax[k] - x)**2 on them
    (+inf on the padding)."""
    k = lo[:, None] + np.arange(max(int(np.max(hi - lo)), 1))
    valid = k < hi[:, None]
    k = np.minimum(k, ax.size - 1)
    return k, np.where(valid, (ax[k] - x[:, None]) ** 2, np.inf)


def _walk(k, limit, step, want, inside):
    """Move each k[i] by `step` while it differs from limit[i] and the cell
    it would pass, k[i] or k[i] - 1, has inside(...) == want; in place."""
    probe = min(step, 0)
    i = np.nonzero(k != limit)[0]
    while i.size:
        i = i[inside(k[i] + probe, i) == want]
        k[i] += step
        i = i[k[i] != limit[i]]


def _merge_runs(first, last):
    """The union of the flat runs [first, last) as disjoint, non-touching
    runs in increasing order."""
    keep = first < last
    first, last = first[keep], last[keep]
    # runs arrive mostly in order, which the stable sort exploits
    order = np.argsort(first, kind="stable")
    first, last = first[order], last[order]
    reach = np.maximum.accumulate(last)
    # a run that starts before or where the runs so far end joins them
    opens = np.ones(first.size, dtype=bool)
    opens[1:] = first[1:] > reach[:-1]
    return first[opens], reach[np.roll(opens, -1)]


def _squared_radius_bound(radius):
    """The smallest float t with sqrt(t) >= radius.

    sqrt is correctly rounded, hence monotone, so for every float d2 the
    test `d2 < t` is exactly `sqrt(d2) < radius`.
    """
    r = max(float(radius), 0.0)
    t = r * r
    while math.sqrt(t) < radius:
        t = math.nextafter(t, math.inf)
    while t > 0.0 and math.sqrt(math.nextafter(t, -math.inf)) >= radius:
        t = math.nextafter(t, -math.inf)
    return t


def _tube_grid(p: Potential, M: CriticalManifold, radius,
               resolution) -> TubeSampling:
    """f on the tube cells (`_tube_mask`) of a grid on M's bounding box
    padded by 1.2 radius, and only there."""
    lo = np.min(M.nodes, axis=0) - 1.2 * radius
    hi = np.max(M.nodes, axis=0) + 1.2 * radius
    grid = Grid(np.stack([lo, hi], axis=1), resolution)
    first, last = _tube_mask(M.nodes, grid.axes, radius)
    tube = TubeSampling(grid.box, grid.shape, first, last,
                        np.empty(int(np.sum(last - first))))
    for start, stop, slab in _sample_slabs(p, grid, tube.cells):
        tube.values[tube.offsets[start]:tube.offsets[stop]] = slab
    return tube


def local_structure(p: Potential, M: CriticalManifold,
                    frame: SaddleFrame | None, radius,
                    resolution=None) -> LocalStructure:
    """Components of X_{f(M)} restricted to the tube M + B(0, radius).

    With a direction frame, two components must be the two sides of M
    (`ComponentMap.sides`), or `radius` does not suit M.  The tube grid
    holds 16 bytes per run plus 8 per tube cell.  Its sublevel set is
    labelled slab by slab, read through the tube's `slab`: the labeller
    keeps only the component count and the labels of the cells under the
    side points, so neither a byte nor a label per cell of the grid is
    ever held.  The tube grid is freed on return.
    """
    if M.value is None:
        raise ValueError("manifold value unknown; run verify_critical first")
    grid = _tube_grid(p, M, radius, resolution)
    level = probe_level(grid, M.value)
    keep = (np.empty(0, dtype=np.int64) if frame is None else
            grid.flat_index(np.concatenate(_side_points(M, frame, radius))))
    cmap = _label(grid, level, keep)
    if cmap.count == 2 and frame is not None:
        plus, minus = cmap.sides(grid, M, frame, radius)
        if plus == minus:
            raise ValueError(f"saddle {M.name}: both sides meet one of the "
                             "two tube components; adjust the tube radius")
    return LocalStructure(n_components=cmap.count)


# ---------------------------------------------------------------------------
# Separating classification


@dataclass
class SeparatingClassification:
    status: str               # "not_locally_separating" |
                              # "locally_separating_not_separating" |
                              # "separating"

    @property
    def separating(self):
        return self.status == "separating"


def classify_separating(p: Potential, M: CriticalManifold,
                        frame: SaddleFrame | None, g: GridSampling,
                        radius, resolution=None) -> SeparatingClassification:
    """Full Def-style classification of an index-1 manifold.

    Locally separating iff the tube splits in two; separating iff the two
    local sides extend to distinct global components of {f < f(M)}.  Only
    the status is kept: the labeling (`run_labeling`) records the sides'
    component ids in the map of the saddle's level.
    """
    n_local = local_structure(p, M, frame, radius,
                              resolution=resolution).n_components
    if n_local < 2:
        return SeparatingClassification(status="not_locally_separating")
    if frame is None:
        raise ValueError("two local components but no direction frame; "
                         "cannot match sides to global components")
    cmap = components(g, probe_level(g, M.value))
    plus, minus = cmap.sides(g, M, frame, radius)
    return SeparatingClassification(
        status="separating" if plus != minus
        else "locally_separating_not_separating")
