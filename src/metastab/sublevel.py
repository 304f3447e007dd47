"""Grid-based sublevel-set topology: components, local saddle structure,
and the separating classification.

`Grid` is the cell-centred geometry shared by the sampled and tube grids,
the factored Witten operator and the quasimodes.

The flood fill uses face adjacency (2d neighbors) on cell-center samples
with strict inequality f < sigma; levels that would graze a critical value
are probed at sigma - eps with eps proportional to the value scale.

Local structure is computed on a tube grid: the cells whose centers lie
within `radius` of some node of the manifold.  Each row of cells along the
last axis meets a node's ball in one run, so the tube mask is built from
runs: their ends are found exactly with a few float evaluations per row,
and the merged runs are written into the boolean grid in one pass.  That
costs about (number of nodes) x (rows per node box) plus one pass over the
grid, and never forms a full-grid coordinate or distance array; f is then
evaluated on the tube cells only.

Grid passes that need temporaries (sampling, `probe_level`) stream
over slabs of consecutive axis-0 planes: at most 2**18 cells per slab for
sampling and 2**15 for `probe_level` (or one plane, if a plane is larger).
Their scratch memory is therefore bounded by the slab, not the grid, and
the arithmetic is the same cell for cell, so results do not depend on the
slab size.  `probe_level`'s slab is small enough that its few temporaries
stay in a core's cache; it converts each plane once, and reduces its band
of level-crossing cells axis by axis, without a per-cell maximum over the
axes.  Beyond the slabs, `components` on a full grid holds the float64
values, the boolean sublevel set and one int32 label grid: about 13 bytes
per cell.  A grid shape whose cells would need more than the machine's
physical memory at that rate is refused before anything is allocated.
A tube grid (`TubeSampling`) keeps f on the tube cells only: its boolean
mask and the float64 values of the cells it marks.  It peaks at 1 byte
per cell plus 8 bytes per tube cell while it is sampled and probed
(`probe_level` reads it slab by slab, the cells off the tube as +inf),
and at 5 bytes per cell while it is labelled: `local_structure` turns the
mask into the sublevel set in place and drops the values before the int32
labels are allocated.  A tube grid lives only while `local_structure`
runs: its result keeps the component count and the side labels, not the
grid or its labels.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
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
# of float64 is 256 KiB, so its temporaries fit in cache
_SAMPLE_SLAB = 1 << 18
_PROBE_SLAB = 1 << 15
# padded window rows per batch of nodes in the tube-mask run search
_RUN_BATCH = 1 << 18
# bytes per cell of `components` on a full grid: float64 values, the bool
# sublevel set and its int32 labels (a tube grid peaks at 1 + 4, plus 8
# per tube cell while it is sampled)
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
        need = _CELL_BYTES * math.prod(shape)
        have = _physical_memory()
        if have is not None and need > have:
            raise ValueError(
                f"grid of shape {shape} needs about {need:.3g} bytes "
                f"({_CELL_BYTES} per cell), more than the {have:.3g} bytes "
                f"of physical memory; lower the resolution (`resolution`, "
                f"or `--grid` on the command line)")
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

    def centers(self, axis):
        return self.axes[axis]

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

    def lookup(self, array, points, outside):
        """`array`, shaped like the grid, read at the cells holding
        `points`; `outside` for points out of the box."""
        idx = self.index_of(points)
        ok = np.all(idx >= 0, axis=1)
        out = np.full(idx.shape[0], outside, dtype=array.dtype)
        out[ok] = array[tuple(idx[ok].T)]
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

    `values` holds f at the cells `mask` marks, in C order, and the cells
    of axis-0 plane i are values[offsets[i]:offsets[i + 1]].
    `local_structure` turns the mask into its sublevel set in place.
    """

    mask: np.ndarray           # bool, shape `shape`: the tube cells
    values: np.ndarray         # f on the tube cells, 1-D
    offsets: np.ndarray        # int64, shape[0] + 1 plane offsets

    def slab(self, start, stop):
        """f on the axis-0 planes start..stop-1, +inf off the tube."""
        out = np.full((stop - start,) + self.shape[1:], np.inf)
        out[self.mask[start:stop]] = \
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


def _sample_tube(p: Potential, grid: Grid, mask) -> TubeSampling:
    """f at the cells of `grid` that `mask` marks, and only there."""
    offsets = np.zeros(grid.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(mask.reshape(grid.shape[0], -1), axis=1),
              out=offsets[1:])
    values = np.empty(offsets[-1])
    for start, stop, slab in _sample_slabs(p, grid, mask):
        values[offsets[start]:offsets[stop]] = slab
    return TubeSampling(grid.box, grid.shape, mask, values, offsets)


def _sample_slabs(p: Potential, grid: Grid, mask=None):
    """(start, stop, f) per axis-0 slab: f at the slab's cells in C order,
    or at its `mask` cells only where there is a mask."""
    axes = grid.axes
    for start, stop in _slabs(grid.shape, _SAMPLE_SLAB):
        centers = np.ix_(axes[0][start:stop], *axes[1:])
        if mask is None:
            points = np.empty((stop - start,) + grid.shape[1:] + (grid.dim,))
            for a in range(grid.dim):
                points[..., a] = centers[a]
            points = points.reshape(-1, grid.dim)
        else:
            inside = mask[start:stop]
            points = np.empty((np.count_nonzero(inside), grid.dim))
            for a in range(grid.dim):
                grid_a = np.broadcast_to(centers[a], inside.shape)
                points[:, a] = grid_a[inside]
        slab = p.values(points)
        _check_finite(slab)
        yield start, stop, slab


def _check_finite(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite potential values on grid")


@dataclass
class ComponentMap:
    """Face-adjacent component labels of {f < sigma}; label -1 = excluded."""

    sigma: float
    labels: np.ndarray         # int32, -1 excluded, 0..count-1 otherwise
    count: int

    def label_at(self, grid: Grid, points):
        """Component label at given points; -1 if excluded or out of box."""
        return grid.lookup(self.labels, points, -1)

    def side_labels(self, grid: Grid, nodes, offset):
        """The distinct labels, ascending, at nodes + offset and at
        nodes - offset; excluded and out-of-box points are dropped."""
        return tuple(np.unique(lab[lab >= 0]) for lab in
                     (self.label_at(grid, nodes + offset),
                      self.label_at(grid, nodes - offset)))


def components(g: GridSampling, sigma) -> ComponentMap:
    """Connected components of {cells: f < sigma} under face adjacency."""
    return _label(g.values < sigma, sigma)


def _label(inside, sigma) -> ComponentMap:
    """The face-adjacent components of `inside`, the cells below sigma."""
    structure = ndimage.generate_binary_structure(inside.ndim, 1)
    labels, count = ndimage.label(inside, structure=structure)
    labels -= 1
    return ComponentMap(sigma=float(sigma), labels=labels, count=count)


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
    plus_label: int | None = None   # side hit by x + (r/2) nu(x)
    minus_label: int | None = None


def _tube_mask(nodes, axes, radius):
    """Cells of the grid with cell-center axes `axes` whose centers lie
    strictly within `radius` of some node.

    Exactly the nearest-node test `min_k |c - x_k| < radius`: a cell is in
    the tube iff, for some node, its squared distance, summed axis by axis
    with axis 0 first, is below the bound t of `_squared_radius_bound`.
    Only cells of a node's window, its box [x - r, x + r] padded by one
    cell, are tested.

    Each row of a window along the last axis meets the node's ball in one
    run of cells (see `_row_runs`), found exactly from a few float
    evaluations per row rather than one per cell.  The nodes are handled
    in batches of at most `_RUN_BATCH` padded window rows; each batch's
    runs are merged into the union so far (`_merge_runs`), and the union
    is written out in one pass.  Cost is about len(nodes) x (rows per
    window) for the runs and their sorts, plus one pass over the mask;
    scratch memory is bounded by the batch and the merged runs.
    """
    t = _squared_radius_bound(radius)
    shape = tuple(ax.size for ax in axes)
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
            np.concatenate([first, row * shape[-1] + start]),
            np.concatenate([last, row * shape[-1] + stop]))
    # in flat order the merged runs alternate with the gaps between them
    lengths = np.diff(np.stack([first, last], axis=1).ravel(), prepend=0,
                      append=math.prod(shape))
    return np.repeat(np.arange(lengths.size) % 2 == 1, lengths).reshape(shape)


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


def _tube_grid(p: Potential, M: CriticalManifold, radius, resolution):
    lo = np.min(M.nodes, axis=0) - 1.2 * radius
    hi = np.max(M.nodes, axis=0) + 1.2 * radius
    grid = Grid(np.stack([lo, hi], axis=1), resolution)
    return _sample_tube(p, grid, _tube_mask(M.nodes, grid.axes, radius))


def local_structure(p: Potential, M: CriticalManifold,
                    frame: SaddleFrame | None, radius,
                    resolution=None) -> LocalStructure:
    """Components of X_{f(M)} restricted to the tube M + B(0, radius).

    With a direction frame, the two components (if any) are matched to the
    sides +/- via the offset points x +/- (radius/2) nu(x).  The tube grid
    peaks at 1 byte per cell plus 8 per tube cell while it is sampled and
    probed, and at 5 bytes per cell while it is labelled: the mask becomes
    the sublevel set in place and the values are freed before the labels
    are allocated.  The tube grid and its labels are freed on return.
    """
    if M.value is None:
        raise ValueError("manifold value unknown; run verify_critical first")
    grid = _tube_grid(p, M, radius, resolution)
    level = probe_level(grid, M.value)
    # the labels and side labels need only the sublevel set and the
    # geometry: the set is formed in place on the mask, then the values go
    inside, values = grid.mask, grid.values
    grid = Grid(grid.box, grid.shape)
    inside[inside] = values < level
    del values
    cmap = _label(inside, level)
    if cmap.count != 2 or frame is None:
        return LocalStructure(n_components=cmap.count)
    plus, minus = cmap.side_labels(grid, M.nodes, 0.5 * radius * frame.nu)
    if plus.size == 0 or minus.size == 0:
        raise ValueError("offset points fall outside the sublevel tube; "
                         "adjust the tube radius")
    if plus.size != 1 or minus.size != 1 or plus[0] == minus[0]:
        raise ValueError("inconsistent side assignment from offset points")
    return LocalStructure(n_components=2, plus_label=int(plus[0]),
                          minus_label=int(minus[0]))


# ---------------------------------------------------------------------------
# Separating classification


@dataclass
class SeparatingClassification:
    status: str               # "not_locally_separating" |
                              # "locally_separating_not_separating" |
                              # "separating"
    sigma: float
    b_plus: int | None = None   # global component ids in X_sigma
    b_minus: int | None = None

    @property
    def separating(self):
        return self.status == "separating"


def classify_separating(p: Potential, M: CriticalManifold,
                        frame: SaddleFrame | None, g: GridSampling,
                        radius, resolution=None) -> SeparatingClassification:
    """Full Def-style classification of an index-1 manifold.

    Locally separating iff the tube splits in two; separating iff the two
    local sides extend to distinct global components of {f < f(M)}.
    """
    n_local = local_structure(p, M, frame, radius,
                              resolution=resolution).n_components
    sigma = M.value
    if n_local < 2:
        return SeparatingClassification(status="not_locally_separating",
                                        sigma=sigma)
    if frame is None:
        raise ValueError("two local components but no direction frame; "
                         "cannot match sides to global components")
    cmap = components(g, probe_level(g, sigma))
    plus, minus = cmap.side_labels(g, M.nodes, 0.5 * radius * frame.nu)
    if plus.size != 1 or minus.size != 1:
        raise ValueError("offset points map to inconsistent global components")
    bp, bm = int(plus[0]), int(minus[0])
    if bp == bm:
        return SeparatingClassification(
            status="locally_separating_not_separating", sigma=sigma,
            b_plus=bp, b_minus=bm)
    return SeparatingClassification(
        status="separating", sigma=sigma, b_plus=bp, b_minus=bm)

