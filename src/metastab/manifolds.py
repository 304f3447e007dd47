"""Critical manifolds: declaration, verification, transversal spectra.

Users declare candidate critical manifolds (points, spheres/circles, or
parametrized maps); `verify_critical` polices the declaration numerically,
`transversal_hessian` and `classify_index` extract the normal-space data,
and `negative_direction_field` builds the unit negative-eigenvector field
with sign propagated by continuity along the node chain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .potential import Potential, parse_potential

__all__ = [
    "CriticalManifold",
    "VerificationResult",
    "SaddleFrame",
    "NonOrientableNormalLine",
    "manifold_point",
    "manifold_sphere",
    "manifold_parametrized",
    "node_distance",
    "verify_critical",
    "transversal_hessian",
    "classify_index",
    "negative_direction_field",
    "GRAD_TOL",
    "VALUE_TOL",
    "EIG_REL_TOL",
    "SEPARATION_TOL",
]


# the fixed tolerances of verify_critical and negative_direction_field
GRAD_TOL = 1e-8
VALUE_TOL = 1e-8
EIG_REL_TOL = 1e-6
SEPARATION_TOL = 0.1

# node pairs up to which `node_distance` measures every pair at once (about
# 1.5 MB of differences); above it, a k-d tree picks the candidates
_PAIR_BLOCK = 1 << 16


class DegenerateParametrizationError(ValueError):
    pass


@dataclass
class CriticalManifold:
    """A declared critical submanifold with quadrature nodes and weights.

    Immutable after construction; node-wise operations are independent.
    `value` and `index` are cached by verify_critical / classify_index.
    """

    name: str
    dim: int                       # intrinsic dimension d_Gamma
    ambient_dim: int
    nodes: np.ndarray              # (k, d)
    weights: np.ndarray            # (k,) surface-measure weights
    normals: np.ndarray            # (k, d, d - dim) orthonormal normal bases
    closed_chain: bool = False     # nodes ordered along a periodic loop
    value: float | None = None
    index: int | None = None

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    def measure(self):
        return float(np.sum(self.weights))


def manifold_point(coords, name="point") -> CriticalManifold:
    coords = np.asarray(coords, dtype=float).ravel()
    d = coords.shape[0]
    return CriticalManifold(
        name=name, dim=0, ambient_dim=d,
        nodes=coords.reshape(1, d), weights=np.ones(1),
        normals=np.eye(d)[None],
    )


def manifold_sphere(center, radius, n_nodes=256, name="sphere") -> CriticalManifold:
    """Sphere (circle in 2D), built as a parametrization.

    2D: angle x1 in [0, 2pi), equal-weight trapezoid (spectrally accurate
    for smooth periodic integrands).  3D: azimuth x1 by trapezoid x height
    x2 in [-1, 1] by Gauss-Legendre (the sphere's area measure is uniform
    in the height).
    """
    center = np.asarray(center, dtype=float).ravel()
    d = center.shape[0]
    if not (np.all(np.isfinite(center)) and np.isfinite(radius)):
        raise ValueError("center and radius must be finite")
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = [repr(float(v)) for v in center]
    R = repr(float(radius))
    if d == 2:
        return manifold_parametrized(
            [f"{c[0]} + {R}*cos(x1)", f"{c[1]} + {R}*sin(x1)"],
            [[0.0, 2.0 * np.pi]], [True], n_nodes, 2, name=name)
    if d == 3:
        rho = f"{R}*sqrt(1 - x2^2)"
        return manifold_parametrized(
            [f"{c[0]} + {rho}*cos(x1)", f"{c[1]} + {rho}*sin(x1)",
             f"{c[2]} + {R}*x2"],
            [[0.0, 2.0 * np.pi], [-1.0, 1.0]], [True, False],
            [n_nodes, max(n_nodes // 4, 16)], 3, name=name)
    raise ValueError("spheres are supported in ambient dimension 2 or 3 "
                     "(use the radial profile route in higher dimension)")


def _param_axis(lo, hi, n, periodic):
    if periodic:
        t = lo + (hi - lo) * np.arange(n) / n
        w = np.full(n, (hi - lo) / n)
    else:
        x, w = leggauss(n)
        t = (lo + hi) / 2.0 + (hi - lo) / 2.0 * x
        w = w * (hi - lo) / 2.0
    return t, w


def manifold_parametrized(maps, param_box, periodic, n_nodes, ambient_dim,
                          name="parametrized") -> CriticalManifold:
    """Manifold given by coordinate expressions over a parameter box.

    `maps` are expression strings in the parameters (named x1..xk);
    weights carry the surface measure sqrt(det J^T J).
    """
    param_box = np.asarray(param_box, dtype=float)
    k = param_box.shape[0]
    if len(maps) != ambient_dim:
        raise ValueError("need one coordinate expression per ambient dimension")
    if np.isscalar(n_nodes):
        n_nodes = [int(n_nodes)] * k
    coord_maps = [parse_potential(m, k) for m in maps]
    axes = [_param_axis(param_box[i, 0], param_box[i, 1], n_nodes[i], periodic[i])
            for i in range(k)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=-1)
    wg = np.meshgrid(*[a[1] for a in axes], indexing="ij")
    w_tensor = np.prod(np.stack([w.ravel() for w in wg], axis=0), axis=0)

    nodes = np.empty((params.shape[0], ambient_dim))
    jac = np.empty((params.shape[0], ambient_dim, k))
    for c, cm in enumerate(coord_maps):
        nodes[:, c], jac[:, c] = cm.gradients(params)
    svals = np.linalg.svd(jac, compute_uv=False)
    bad = svals[:, -1] < 1e-10 * np.maximum(svals[:, 0], 1.0)
    if np.any(bad):
        raise DegenerateParametrizationError(
            f"rank-deficient Jacobian at parameter {params[np.argmax(bad)]}")
    gram = jac.transpose(0, 2, 1) @ jac
    weights = w_tensor * np.sqrt(np.linalg.det(gram))
    # the last d - k columns of a complete QR span the normal space
    normals = np.linalg.qr(jac, mode="complete")[0][:, :, k:]
    closed = k == 1 and bool(periodic[0])
    return CriticalManifold(
        name=name, dim=k, ambient_dim=ambient_dim,
        nodes=nodes, weights=weights, normals=normals, closed_chain=closed,
    )


def node_distance(a: CriticalManifold, b: CriticalManifold) -> float:
    """Smallest distance between a node of `a` and a node of `b`.

    Up to `_PAIR_BLOCK` node pairs, every pair is measured.  Above it, a
    k-d tree finds the smallest distance in O(n log n) time, and the pairs
    whose tree distance lies within a relative 1e-12 of it are measured
    again with the same per-pair expression: the tree rounds its distances
    differently, and the minimum over those pairs is bit for bit the one
    over every pair."""
    if a.n_nodes * b.n_nodes <= _PAIR_BLOCK:
        return float(np.min(np.linalg.norm(
            a.nodes[:, None, :] - b.nodes[None, :, :], axis=-1)))
    from scipy.spatial import cKDTree
    tree_a, tree_b = cKDTree(a.nodes), cKDTree(b.nodes)
    nearest = float(np.min(tree_b.query(a.nodes)[0]))
    pairs = tree_a.sparse_distance_matrix(
        tree_b, nearest * (1.0 + 1e-12), output_type="ndarray")
    return float(np.min(np.linalg.norm(
        a.nodes[pairs["i"]] - b.nodes[pairs["j"]], axis=-1)))


# ---------------------------------------------------------------------------
# Verification and spectra


@dataclass
class VerificationResult:
    ok: bool
    value: float
    index: int | None
    messages: list                 # one line per failed clause


def verify_critical(p: Potential, M: CriticalManifold) -> VerificationResult:
    """Check criticality, value constancy and Morse-Bott nondegeneracy.

    The gradient must stay below GRAD_TOL and the spread of f over the
    nodes below VALUE_TOL; at each node exactly M.dim Hessian eigenvalues
    may lie within EIG_REL_TOL times its spectral radius of zero."""
    messages = []
    values, grads, hess = p.hessians(M.nodes)
    max_grad = float(np.max(np.linalg.norm(grads, axis=1)))
    # eigen-split of Hess f at each node into near-zero and transversal parts
    eigvals = np.linalg.eigvalsh(hess)
    radius = np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
    tol = EIG_REL_TOL * radius
    small = np.abs(eigvals) < tol[:, None]
    n_small = np.sum(small, axis=1)
    for i in np.flatnonzero(n_small != M.dim):
        messages.append(
            f"node {i}: {n_small[i]} near-zero Hessian eigenvalues, "
            f"expected {M.dim} (tol {tol[i]:.3g})")
    nondeg = bool(np.all(n_small == M.dim))
    indices = {int(j) for j in np.sum((eigvals < 0.0) & ~small, axis=1)}
    spread = float(np.max(values) - np.min(values))
    index_constant = len(indices) == 1
    if not index_constant:
        messages.append(f"index varies across nodes: {sorted(indices)}")
    if max_grad >= GRAD_TOL:
        messages.append(f"max gradient residual {max_grad:.3g} >= {GRAD_TOL:g}")
    if spread >= VALUE_TOL:
        messages.append(f"critical value spread {spread:.3g} >= {VALUE_TOL:g}")
    ok = (max_grad < GRAD_TOL and spread < VALUE_TOL and nondeg
          and index_constant)
    value = float(np.mean(values))
    index = indices.pop() if index_constant else None
    if ok:
        M.value, M.index = value, index
    return VerificationResult(ok=ok, value=value, index=index, messages=messages)


def transversal_hessian(p: Potential, M: CriticalManifold):
    """Hess f restricted to the normal space at every node.

    Returns (matrices (k, m, m), dets (k,), eigenvalues (k, m)) with
    m = d - dim.  The determinants do not depend on the orthonormal normal
    bases chosen.
    """
    _, _, hess = p.hessians(M.nodes)
    N = M.normals
    hperp = N.transpose(0, 2, 1) @ hess @ N
    hperp = 0.5 * (hperp + hperp.transpose(0, 2, 1))
    eigvals = np.linalg.eigvalsh(hperp)
    return hperp, np.prod(eigvals, axis=1), eigvals


def classify_index(p: Potential, M: CriticalManifold) -> int:
    """Number of negative transversal Hessian eigenvalues (constant on M)."""
    _, _, eigvals = transversal_hessian(p, M)
    indices = sorted({int(j) for j in np.sum(eigvals < 0.0, axis=1)})
    if len(indices) != 1:
        raise ValueError(
            f"inconsistent index across nodes of {M.name}: {indices} "
            "(signature of Hess f must be constant on a critical manifold)")
    M.index = indices[0]
    return M.index


@dataclass
class SaddleFrame:
    """Unit negative-direction field nu and eigenvalue mu along an index-1
    manifold; sign propagated by continuity along the node chain."""
    manifold: CriticalManifold
    mu: np.ndarray        # (k,) negative eigenvalue per node
    nu: np.ndarray        # (k, d) unit eigenvectors


@dataclass
class NonOrientableNormalLine:
    """The negative eigenline flips sign after one loop: no global smooth
    unit field exists (the manifold is not locally separating)."""
    manifold: CriticalManifold
    mu: np.ndarray


def negative_direction_field(p: Potential, M: CriticalManifold):
    """SaddleFrame for an index-1 manifold, or NonOrientableNormalLine if the
    sign cannot be propagated around a closed chain.  A node whose negative
    eigenvalue mu lies within SEPARATION_TOL |mu| of the next is refused."""
    if M.index is None:
        classify_index(p, M)
    if M.index != 1:
        raise ValueError(f"{M.name} has index {M.index}, expected 1")
    if M.dim > 1:
        raise NotImplementedError("direction fields implemented for "
                                  "manifolds of dimension 0 or 1")
    k = M.n_nodes
    d = M.ambient_dim
    _, _, hess = p.hessians(M.nodes)
    eigvals, eigvecs = np.linalg.eigh(hess)
    mu = eigvals[:, 0]
    if np.any(mu >= 0):
        raise ValueError("no negative Hessian eigenvalue at node "
                         f"{np.argmax(mu >= 0)}")
    gap = eigvals[:, 1] - mu if d > 1 else np.full(k, np.inf)
    close = gap < SEPARATION_TOL * np.abs(mu)
    if np.any(close):
        i = np.argmax(close)
        raise ValueError(
            f"negative eigenvalue nearly degenerate at node {i} "
            f"(gap {gap[i]:.3g})")
    nu = eigvecs[:, :, 0].copy()
    for i in range(1, k):
        if float(np.dot(nu[i], nu[i - 1])) < 0:
            nu[i] = -nu[i]
    if M.closed_chain and k > 1 and float(np.dot(nu[-1], nu[0])) < 0:
        return NonOrientableNormalLine(M, mu)
    return SaddleFrame(M, mu, nu)
