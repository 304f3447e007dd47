"""Grid-based sublevel-set topology: components, local saddle structure,
and the separating classification.

The flood fill uses face adjacency (2d neighbors) on cell-center samples
with strict inequality f < sigma; levels that would graze a critical value
are probed at sigma - eps with eps proportional to the value scale.

Local structure is computed on a tube grid: the cells whose centers lie
within `radius` of some node of the manifold.  The tube mask is built by
stamping each node's bounding box into a boolean grid, so it costs about
(number of nodes) x (cells per node box) and never forms a full-grid
coordinate or distance array; f is then evaluated on the tube cells only.

Grid passes that need temporaries (masked sampling, `probe_level`) stream
over slabs of consecutive axis-0 planes: at most 2**18 cells per slab for
sampling and 2**20 for `probe_level` (or one plane, if a plane is larger).
Their scratch memory is therefore bounded by the slab, not the grid, and
the arithmetic is the same cell for cell, so results do not depend on the
slab size.  Beyond the slabs, a tube grid holds its float64 values and
boolean mask, and `components` adds one int32 label grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
# unused here; kept bound because the benchmark tracer wraps sublevel.cKDTree
from scipy.spatial import cKDTree  # noqa: F401

from .manifolds import CriticalManifold, SaddleFrame
from .potential import Potential

__all__ = [
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

# cells per axis-0 slab of the streamed grid passes
_SAMPLE_SLAB = 1 << 18
_PROBE_SLAB = 1 << 20


@dataclass
class GridSampling:
    """Axis-aligned cell-centered sampling of f; immutable after fill."""

    box: np.ndarray            # (d, 2)
    shape: tuple               # per-axis cell counts
    values: np.ndarray         # f at cell centers, shape `shape`
    mask: np.ndarray | None = None   # optional validity mask (tube grids)

    @property
    def dim(self):
        return self.box.shape[0]

    @property
    def spacings(self):
        return (self.box[:, 1] - self.box[:, 0]) / np.asarray(self.shape)

    def centers(self, axis):
        return _cell_centers(self.box[axis], self.shape[axis])

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


def _cell_centers(interval, n):
    lo, hi = interval
    return lo + (hi - lo) * (np.arange(n) + 0.5) / n


def _slabs(shape, max_cells):
    """Axis-0 plane ranges (start, stop) covering a grid of shape `shape`,
    each of at most `max_cells` cells or a single plane."""
    step = max(1, max_cells // math.prod(shape[1:]))
    for start in range(0, shape[0], step):
        yield start, min(start + step, shape[0])


def _grid_shape(d, shape):
    if shape is None:
        shape = (DEFAULT_RESOLUTION.get(d, 64),) * d
    elif np.isscalar(shape):
        shape = (int(shape),) * d
    shape = tuple(int(s) for s in shape)
    if any(s < 2 for s in shape):
        raise ValueError("resolutions must be >= 2")
    return shape


def sample_grid(p: Potential, box, shape=None, mask=None) -> GridSampling:
    """Evaluate f at cell centers of an axis-aligned grid.

    `mask`, a boolean array of shape `shape`, restricts the grid (tube
    grids): f is evaluated only at the cells it marks, masked-out cells hold
    +inf and never enter any flood fill.  Only the masked cells' coordinates
    are formed, read from the per-axis cell centers one axis-0 slab at a
    time.
    """
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    shape = _grid_shape(d, shape)
    axes = [_cell_centers(box[a], shape[a]) for a in range(d)]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != shape:
            raise ValueError(f"mask shape {mask.shape} does not match grid "
                             f"shape {shape}")
        values = np.full(shape, np.inf)
        for start, stop in _slabs(shape, _SAMPLE_SLAB):
            inside = mask[start:stop]
            centers = np.ix_(axes[0][start:stop], *axes[1:])
            points = np.empty((np.count_nonzero(inside), d))
            for a in range(d):
                grid_a = np.broadcast_to(centers[a], inside.shape)
                points[:, a] = grid_a[inside]
            values[start:stop][inside] = p.values(points)
        return GridSampling(box=box, shape=shape, values=values, mask=mask)
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    values = p.values(points).reshape(shape)
    if not np.all(np.isfinite(values)):
        raise ValueError("non-finite potential values on grid")
    return GridSampling(box=box, shape=shape, values=values)


@dataclass
class ComponentMap:
    """Face-adjacent component labels of {f < sigma}; label -1 = excluded."""

    sigma: float
    labels: np.ndarray         # int32, -1 excluded, 0..count-1 otherwise
    count: int
    representatives: list      # one cell multi-index per component

    def label_at(self, grid: GridSampling, points):
        """Component label at given points; -1 if excluded or out of box."""
        idx = grid.index_of(points)
        out = np.full(idx.shape[0], -1, dtype=np.int64)
        ok = np.all(idx >= 0, axis=1)
        if np.any(ok):
            out[ok] = self.labels[tuple(idx[ok].T)]
        return out


def components(g: GridSampling, sigma) -> ComponentMap:
    """Connected components of {cells: f < sigma} under face adjacency."""
    inside = g.values < sigma
    if g.mask is not None:
        inside &= g.mask
    structure = ndimage.generate_binary_structure(g.dim, 1)
    labels, count = ndimage.label(inside, structure=structure)
    del inside
    boxes = ndimage.find_objects(labels)
    labels -= 1
    reps = []
    for c, box in enumerate(boxes):
        # deterministic representative: the label's first cell in scan
        # order, which lies in the first axis-0 plane of its bounding box
        plane = (slice(box[0].start, box[0].start + 1),) + box[1:]
        hit = labels[plane] == c
        offset = np.unravel_index(np.argmax(hit), hit.shape)
        reps.append(tuple(s.start + i for s, i in zip(plane, offset)))
    return ComponentMap(sigma=float(sigma), labels=labels, count=count,
                        representatives=reps)


def probe_level(g: GridSampling, sigma):
    """Level just below sigma at which strict components are grid-resolvable.

    The margin combines a relative floor with a curvature bound: near an
    index-1 critical set the two strict components of {f < sigma} touch at
    the set itself, and cells whose centers straddle it can spuriously
    connect them unless levels within one quadratic cell variation of sigma
    are excluded.  The bound uses second differences of the sampled values,
    restricted to cells the sigma level surface actually crosses.

    Runs slab by slab along axis 0, each slab read with a one-plane halo so
    its axis-0 second differences are those of the whole grid.
    """
    n0 = g.shape[0]
    scale = 1.0
    band_max = -np.inf
    for start, stop in _slabs(g.shape, _PROBE_SLAB):
        lo, hi = max(start - 1, 0), min(stop + 1, n0)
        v = g.values[lo:hi]
        v = np.where(np.isfinite(v), v, np.nan)
        d2max = np.zeros((stop - start,) + g.shape[1:])
        # axis-0 second differences, centred on planes first .. last - 1
        # (the grid's first and last planes have none)
        first, last = max(start, 1), min(stop, n0 - 1)
        if first < last:
            d2 = np.abs(np.diff(v[first - 1 - lo:last + 1 - lo], 2, axis=0))
            own = d2max[first - start:last - start]
            np.fmax(own, d2, out=own)
        v = v[start - lo:stop - lo]
        for a in range(1, g.dim):
            d2 = np.abs(np.diff(v, 2, axis=a))
            interior = [slice(None)] * g.dim
            interior[a] = slice(1, -1)
            np.fmax(d2max[tuple(interior)], d2, out=d2max[tuple(interior)])
        # non-finite cells are NaN here and fall out of the max and the band
        scale = max(scale, float(np.fmax.reduce(np.abs(v), axis=None,
                                                initial=0.0)))
        band = np.abs(v - sigma) <= d2max
        band_max = max(band_max, float(np.max(d2max, where=band,
                                              initial=-np.inf)))
    eps = LEVEL_EPS_REL * scale
    if band_max >= 0.0:
        eps = max(eps, band_max / 4.0)
    return sigma - eps


# ---------------------------------------------------------------------------
# Local structure near an index-1 manifold


@dataclass
class LocalStructure:
    n_components: int
    grid: GridSampling
    cmap: ComponentMap
    plus_label: int | None = None   # side hit by x + (r/2) nu(x)
    minus_label: int | None = None


def _tube_mask(nodes, axes, radius):
    """Cells of the grid with cell-center axes `axes` whose centers lie
    strictly within `radius` of some node.

    Exactly the nearest-node test `min_k |c - x_k| < radius`, evaluated per
    node on the cells of its box [x - r, x + r] (padded by one cell): their
    squared distances, summed axis by axis, are compared with the squared
    radius bound of `_squared_radius_bound` and ORed into the mask.  Cost is
    about len(nodes) x (cells per node box).
    """
    t = _squared_radius_bound(radius)
    mask = np.zeros(tuple(ax.size for ax in axes), dtype=bool)
    for x in nodes:
        window = []
        sq = []
        for ax, xa in zip(axes, x):
            lo = max(int(np.searchsorted(ax, xa - radius)) - 1, 0)
            hi = int(np.searchsorted(ax, xa + radius, side="right")) + 1
            window.append(slice(lo, hi))
            sq.append((ax[lo:hi] - xa) ** 2)
        # same summation order as a nearest-neighbour distance: axis 0 first
        acc = sq[0]
        for a in range(1, len(axes)):
            acc = acc[..., None] + sq[a]
        block = mask[tuple(window)]
        block |= acc < t
    return mask


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
    box = np.stack([lo, hi], axis=1)
    shape = _grid_shape(M.ambient_dim, resolution)
    axes = [_cell_centers(box[a], shape[a]) for a in range(len(shape))]
    return sample_grid(p, box, shape, mask=_tube_mask(M.nodes, axes, radius))


def local_structure(p: Potential, M: CriticalManifold,
                    frame: SaddleFrame | None, radius,
                    resolution=None) -> LocalStructure:
    """Components of X_{f(M)} restricted to the tube M + B(0, radius).

    With a direction frame, the two components (if any) are matched to the
    sides +/- via the offset points x +/- (radius/2) nu(x).
    """
    if M.value is None:
        raise ValueError("manifold value unknown; run verify_critical first")
    if resolution is None:
        resolution = DEFAULT_RESOLUTION.get(M.ambient_dim, 64)
    grid = _tube_grid(p, M, radius, resolution)
    cmap = components(grid, probe_level(grid, M.value))
    result = LocalStructure(n_components=cmap.count, grid=grid, cmap=cmap)
    if cmap.count != 2 or frame is None:
        return result
    plus = cmap.label_at(grid, M.nodes + 0.5 * radius * frame.nu)
    minus = cmap.label_at(grid, M.nodes - 0.5 * radius * frame.nu)
    plus = plus[plus >= 0]
    minus = minus[minus >= 0]
    if plus.size == 0 or minus.size == 0:
        raise ValueError("offset points fall outside the sublevel tube; "
                         "adjust the tube radius")
    lp, lm = np.unique(plus), np.unique(minus)
    if lp.size != 1 or lm.size != 1 or lp[0] == lm[0]:
        raise ValueError("inconsistent side assignment from offset points")
    result.plus_label = int(lp[0])
    result.minus_label = int(lm[0])
    return result


# ---------------------------------------------------------------------------
# Separating classification


@dataclass
class SeparatingClassification:
    status: str               # "not_locally_separating" |
                              # "locally_separating_not_separating" |
                              # "separating"
    sigma: float
    local: LocalStructure
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
    local = local_structure(p, M, frame, radius, resolution=resolution)
    sigma = M.value
    if local.n_components < 2:
        return SeparatingClassification(
            status="not_locally_separating", sigma=sigma, local=local)
    if frame is None:
        raise ValueError("two local components but no direction frame; "
                         "cannot match sides to global components")
    cmap = components(g, probe_level(g, sigma))
    plus = cmap.label_at(g, M.nodes + 0.5 * radius * frame.nu)
    minus = cmap.label_at(g, M.nodes - 0.5 * radius * frame.nu)
    plus = np.unique(plus[plus >= 0])
    minus = np.unique(minus[minus >= 0])
    if plus.size != 1 or minus.size != 1:
        raise ValueError("offset points map to inconsistent global components")
    bp, bm = int(plus[0]), int(minus[0])
    if bp == bm:
        return SeparatingClassification(
            status="locally_separating_not_separating", sigma=sigma,
            local=local, b_plus=bp, b_minus=bm)
    return SeparatingClassification(
        status="separating", sigma=sigma, local=local, b_plus=bp, b_minus=bm)

