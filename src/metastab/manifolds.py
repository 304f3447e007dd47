"""Critical manifolds: declaration, verification, transversal spectra.

Users declare candidate critical manifolds (points, spheres/circles, or
parametrized maps); `verify_critical` polices the declaration numerically,
`transversal_hessian` and `classify_index` extract the normal-space data,
and `negative_direction_field` builds the unit negative-eigenvector field
with sign propagated by continuity along the node chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .potential import Potential, parse_potential

__all__ = [
    "CriticalManifold",
    "VerificationResult",
    "SaddleFrame",
    "NonOrientableNormalLine",
    "Tolerances",
    "manifold_point",
    "manifold_sphere",
    "manifold_parametrized",
    "manifold_from_decl",
    "verify_critical",
    "transversal_hessian",
    "classify_index",
    "negative_direction_field",
]


@dataclass
class Tolerances:
    grad: float = 1e-8
    value: float = 1e-8
    eig_rel: float = 1e-6  # times the spectral radius of Hess f at the node


class DegenerateParametrizationError(ValueError):
    pass


@dataclass
class CriticalManifold:
    """A declared critical submanifold with quadrature nodes and weights.

    Immutable after construction; node-wise operations are independent.
    `value` and `index` are cached by verify_critical / classify_index.
    """

    name: str
    kind: str                      # "point" | "sphere" | "parametrized"
    dim: int                       # intrinsic dimension d_Gamma
    ambient_dim: int
    nodes: np.ndarray              # (k, d)
    weights: np.ndarray            # (k,) surface-measure weights
    tangents: np.ndarray           # (k, d, dim) orthonormal tangent bases
    closed_chain: bool = False     # nodes ordered along a periodic loop
    value: float | None = None
    index: int | None = None
    meta: dict = field(default_factory=dict)

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
        name=name, kind="point", dim=0, ambient_dim=d,
        nodes=coords.reshape(1, d), weights=np.ones(1),
        tangents=np.zeros((1, d, 0)),
    )


def manifold_sphere(center, radius, n_nodes=256, name="sphere") -> CriticalManifold:
    """Sphere (circle in 2D) quadrature.

    2D: equal-weight trapezoid in angle (spectrally accurate for smooth
    periodic integrands).  3D: trapezoid in azimuth x Gauss-Legendre in the
    z coordinate (the sphere's area measure is uniform in z).
    """
    center = np.asarray(center, dtype=float).ravel()
    d = center.shape[0]
    if radius <= 0:
        raise ValueError("radius must be positive")
    if d == 2:
        theta = 2.0 * np.pi * np.arange(n_nodes) / n_nodes
        nodes = center + radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        weights = np.full(n_nodes, radius * 2.0 * np.pi / n_nodes)
        tangents = np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, :, None]
        return CriticalManifold(
            name=name, kind="sphere", dim=1, ambient_dim=2,
            nodes=nodes, weights=weights, tangents=tangents, closed_chain=True,
            meta={"center": center, "radius": radius},
        )
    if d == 3:
        n_t = n_nodes
        n_z = max(n_nodes // 4, 16)
        theta = 2.0 * np.pi * np.arange(n_t) / n_t
        z_gl, w_gl = leggauss(n_z)
        th, zz = np.meshgrid(theta, z_gl, indexing="ij")
        rho = np.sqrt(np.maximum(1.0 - zz**2, 0.0))
        pts = np.stack([rho * np.cos(th), rho * np.sin(th), zz], axis=-1)
        nodes = center + radius * pts.reshape(-1, 3)
        w = (radius**2) * (2.0 * np.pi / n_t) * np.broadcast_to(w_gl, th.shape)
        # tangent basis: d/dtheta and d/dz directions, orthonormalized
        t1 = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=-1)
        t2 = np.stack(
            [-zz * np.cos(th) / np.maximum(rho, 1e-12) * rho,
             -zz * np.sin(th) / np.maximum(rho, 1e-12) * rho,
             rho],
            axis=-1,
        )
        t2 = t2 / np.linalg.norm(t2, axis=-1, keepdims=True)
        tangents = np.stack([t1.reshape(-1, 3), t2.reshape(-1, 3)], axis=-1)
        return CriticalManifold(
            name=name, kind="sphere", dim=2, ambient_dim=3,
            nodes=nodes, weights=w.ravel(), tangents=tangents,
            meta={"center": center, "radius": radius},
        )
    raise ValueError("spheres are supported in ambient dimension 2 or 3 "
                     "(use the radial profile route in higher dimension)")


def _param_axis(lo, hi, n, periodic):
    if periodic:
        t = lo + (hi - lo) * np.arange(n) / n
        w = np.full(n, (hi - lo) / n)
    else:
        x, w = leggauss(n)
        t = lo + (hi - lo) * (x + 1.0) / 2.0
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
    tangents = np.linalg.qr(jac)[0]
    closed = k == 1 and bool(periodic[0])
    return CriticalManifold(
        name=name, kind="parametrized", dim=k, ambient_dim=ambient_dim,
        nodes=nodes, weights=weights, tangents=tangents, closed_chain=closed,
        meta={"maps": list(maps), "param_box": param_box,
              "periodic": list(periodic)},
    )


_REQUIRED_FIELDS = {
    "point": ("coords",),
    "sphere": ("center", "radius"),
    "parametrized": ("maps", "param_box"),
}


def manifold_from_decl(decl, ambient_dim) -> CriticalManifold:
    """Build a manifold from a spec-file declaration dict."""
    kind = decl.get("kind")
    name = decl.get("name", kind)
    if kind not in _REQUIRED_FIELDS:
        raise ValueError(f"manifold {name!r}: unknown kind {kind!r}")
    for key in _REQUIRED_FIELDS[kind]:
        if key not in decl:
            raise ValueError(f"manifold {name!r}: {kind} declaration "
                             f"missing field {key!r}")
    if kind == "point":
        return manifold_point(decl["coords"], name=name)
    if kind == "sphere":
        return manifold_sphere(decl["center"], decl["radius"],
                               n_nodes=decl.get("nodes", 256), name=name)
    if kind == "parametrized":
        k = len(decl["param_box"])
        return manifold_parametrized(
            decl["maps"], decl["param_box"],
            decl.get("periodic", [False] * k),
            decl.get("nodes", 256), ambient_dim, name=name)


# ---------------------------------------------------------------------------
# Verification and spectra


@dataclass
class VerificationResult:
    ok: bool
    max_grad_residual: float
    value_spread: float
    value: float
    index: int | None
    nondegenerate: bool
    index_constant: bool
    messages: list


def verify_critical(p: Potential, M: CriticalManifold,
                    tols: Tolerances | None = None) -> VerificationResult:
    """Check criticality, value constancy and Morse-Bott nondegeneracy."""
    tols = tols or Tolerances()
    messages = []
    values, grads, hess = p.hessians(M.nodes)
    max_grad = float(np.max(np.linalg.norm(grads, axis=1)))
    # eigen-split of Hess f at each node into near-zero and transversal parts
    eigvals = np.linalg.eigvalsh(hess)
    radius = np.maximum(np.max(np.abs(eigvals), axis=1), 1e-300)
    tol = tols.eig_rel * radius
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
    if max_grad >= tols.grad:
        messages.append(f"max gradient residual {max_grad:.3g} >= {tols.grad:g}")
    if spread >= tols.value:
        messages.append(f"critical value spread {spread:.3g} >= {tols.value:g}")
    ok = (max_grad < tols.grad and spread < tols.value and nondeg
          and index_constant)
    value = float(np.mean(values))
    result = VerificationResult(
        ok=ok, max_grad_residual=max_grad, value_spread=spread, value=value,
        index=(indices.pop() if index_constant else None),
        nondegenerate=nondeg, index_constant=index_constant, messages=messages,
    )
    if ok:
        M.value = value
        M.index = result.index
    return result


def _normal_bases(M: CriticalManifold):
    """(k, d, d - dim) orthonormal normal bases, from one batched SVD of the
    tangent frames (the null space of each frame's transpose)."""
    d = M.ambient_dim
    if M.dim == 0:
        return np.broadcast_to(np.eye(d), (M.n_nodes, d, d))
    _, s, vh = np.linalg.svd(M.tangents.transpose(0, 2, 1))
    tol = s[:, :1] * (np.finfo(float).eps * d)
    rank = np.sum(s > tol, axis=1)
    if np.any(rank != M.dim):
        raise DegenerateParametrizationError(
            "tangent/normal split ill-conditioned at node "
            f"{np.argmax(rank != M.dim)}")
    return vh[:, M.dim:].transpose(0, 2, 1)


def transversal_hessian(p: Potential, M: CriticalManifold):
    """Hess f restricted to the normal space at every node.

    Returns (matrices (k, m, m), dets (k,), eigenvalues (k, m)) with
    m = d - dim.  The determinants do not depend on the orthonormal normal
    bases chosen.
    """
    _, _, hess = p.hessians(M.nodes)
    N = _normal_bases(M)
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
    orientable: bool = True


@dataclass
class NonOrientableNormalLine:
    """The negative eigenline flips sign after one loop: no global smooth
    unit field exists (the manifold is not locally separating)."""
    manifold: CriticalManifold
    mu: np.ndarray
    holonomy_overlap: float   # inner product after loop closure, < 0


def negative_direction_field(p: Potential, M: CriticalManifold,
                             separation_tol=0.1):
    """SaddleFrame for an index-1 manifold, or NonOrientableNormalLine if the
    sign cannot be propagated around a closed chain."""
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
    close = gap < separation_tol * np.abs(mu)
    if np.any(close):
        i = np.argmax(close)
        raise ValueError(
            f"negative eigenvalue nearly degenerate at node {i} "
            f"(gap {gap[i]:.3g})")
    nu = eigvecs[:, :, 0].copy()
    for i in range(1, k):
        if float(np.dot(nu[i], nu[i - 1])) < 0:
            nu[i] = -nu[i]
    if M.closed_chain and k > 1:
        closure = float(np.dot(nu[-1], nu[0]))
        if closure < 0:
            return NonOrientableNormalLine(M, mu, closure)
    return SaddleFrame(M, mu, nu, orientable=True)
