"""Potential evaluation, radial profiles, confinement and spec files."""

import json
import math
import pathlib

import numpy as np
import pytest

from metastab.cli import build_manifold, read_spec
from metastab.potential import (_ScrambledHalton, _shell_samples,
                                check_confinement, parse_potential)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_values_match_eval2():
    p = parse_potential("x1^2*x2 - cos(x2)", 2)
    pts = np.array([[0.3, -0.7], [1.1, 0.2], [0.0, 0.0]])
    vals = p.values(pts)
    for x, v in zip(pts, vals):
        v2, _, _ = p.eval2(x)
        assert v == pytest.approx(v2, rel=1e-15)


def test_gradients_match_eval2():
    p = parse_potential("exp(-x1^2 - 2*x2^2) + x1^4", 2)
    pts = np.array([[0.5, -0.3], [-1.2, 0.8]])
    _, grads = p.gradients(pts)
    for k, x in enumerate(pts):
        _, g, _ = p.eval2(x)
        assert np.allclose(grads[k], g, rtol=1e-13)


@pytest.mark.parametrize("text,d", [
    ("((sqrt(x1^2 + x2^2) - 1)^2 - x3^2) * x1 / sqrt(x1^2 + x2^2)", 3),
    ("x1^2*x2 + sin(x1*x2) - exp(-x2^2) + x1/10", 2),
    ("r^6/6 - r^4/2 + 0.35*r^2", 2),
    ("r^4/4 - r^2/2", 3),
])
def test_blocked_evaluation_matches_one_shot(text, d):
    # values/gradients evaluate in blocks of 2^16 points; more than one
    # block must reproduce a single pass over the expression tree exactly
    p = parse_potential(text, d)
    rng = np.random.default_rng(1)
    pts = rng.uniform(-1.5, 1.5, size=((1 << 16) + 3, d))
    if p.radial:
        r = np.sqrt(np.sum(pts**2, axis=1))
        v_ref = p._root.evaluate([r])[0]
        w_ref, (dr,), _ = p._root.evaluate([r], 1)
        g_ref = (dr / r)[:, None] * pts
    else:
        v_ref = p._root.evaluate(pts.T)[0]
        w_ref, grads, _ = p._root.evaluate(pts.T, 1)
        g_ref = grads.T
    v, g = p.gradients(pts)
    assert np.array_equal(p.values(pts), v_ref)
    assert np.array_equal(v, w_ref)
    assert np.array_equal(g, g_ref)


def test_radial_gradient_formula():
    # grad f = F'(r)/r * x, and 0 at the origin for a smooth radial f
    p = parse_potential("r^4/4 - r^2/2", 3)
    assert p.radial
    pts = np.array([[0.0, 0.0, 0.0], [0.3, -0.4, 1.2], [1.0, 0.0, 0.0]])
    _, grads = p.gradients(pts)
    assert np.allclose(grads[0], 0.0)
    for k in (1, 2):
        x = pts[k]
        r = np.linalg.norm(x)
        expect = (r**3 - r) / r * x
        assert np.allclose(grads[k], expect, rtol=1e-12)


def test_radial_eval2_matches_cartesian_equivalent():
    pr = parse_potential("r^2/2", 2)
    pc = parse_potential("(x1^2 + x2^2)/2", 2)
    x = np.array([0.6, -1.3])
    vr, gr, hr = pr.eval2(x)
    vc, gc, hc = pc.eval2(x)
    assert vr == pytest.approx(vc, rel=1e-14)
    assert np.allclose(gr, gc, rtol=1e-12)
    assert np.allclose(hr, hc, rtol=1e-10, atol=1e-12)


def test_profile_eval2():
    p = parse_potential("r^6/6 - r^4/2 + 0.35*r^2", 2)
    r = 0.9
    v, (d1,), ((d2,),) = p.profile().eval2(r)
    assert v == pytest.approx(r**6 / 6 - r**4 / 2 + 0.35 * r * r, rel=1e-14)
    assert d1 == pytest.approx(r**5 - 2 * r**3 + 0.7 * r, rel=1e-13)
    assert d2 == pytest.approx(5 * r**4 - 6 * r * r + 0.7, rel=1e-12)


def test_profile_of_cartesian_potential_is_rejected():
    p = parse_potential("x1^2 + x2^2", 2)
    with pytest.raises(ValueError):
        p.profile()


def test_mixing_r_and_x_is_rejected():
    from metastab.expr import ExprSyntaxError
    with pytest.raises(ExprSyntaxError):
        parse_potential("r^2 + x1", 2)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_scrambled_halton_matches_scipy(d, seed):
    from scipy.stats import qmc
    ref = qmc.Halton(d=d, scramble=True, seed=seed)
    ours = _ScrambledHalton(d, seed)
    for n in (100, 4160, 37):
        assert np.array_equal(ours.random(n), ref.random(n))


def _shell_samples_scipy(box, shell_fraction, n_samples, seed=0):
    # the shell sampler as it was written on scipy.stats.qmc.Halton
    from scipy.stats import qmc
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    widths = box[:, 1] - box[:, 0]
    depth = shell_fraction * widths
    sampler = qmc.Halton(d=d, scramble=True, seed=seed)
    points = []
    frac = 1.0 - np.prod(1.0 - 2.0 * shell_fraction)
    frac = max(frac, 2.0 * shell_fraction)
    while sum(len(p) for p in points) < n_samples:
        raw = box[:, 0] + sampler.random(int(n_samples / frac) + 64) * widths
        dist_to_boundary = np.minimum(raw - box[:, 0], box[:, 1] - raw)
        in_shell = np.any(dist_to_boundary < depth, axis=1)
        points.append(raw[in_shell])
    return np.concatenate(points)[:n_samples]


@pytest.mark.parametrize("box", [
    json.loads((ROOT / "specs/tilted_double_well.json").read_text())["box"],
    json.loads((ROOT / "perfbench/specs/tilted_2d.json").read_text())["box"],
    [[-1.6, 1.6], [-1.6, 1.6], [-0.9, 1.2]],
], ids=["1d", "tilted_2d", "3d"])
@pytest.mark.parametrize("shell_fraction,seed", [(0.1, 0), (0.2, 7)])
def test_shell_samples_match_scipy_sampler(box, shell_fraction, seed):
    got = _shell_samples(box, shell_fraction, 4096, seed=seed)
    want = _shell_samples_scipy(box, shell_fraction, 4096, seed=seed)
    assert got.shape == (4096, len(box))
    assert np.array_equal(got, want)


def test_confinement_passes_on_growing_quartic():
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10", 1)
    rep = check_confinement(p, [[-2.4, 2.4]])
    assert rep.passed
    assert "PASS" in rep.summary()


def test_confinement_fails_on_oscillatory_potential():
    # sin has critical points in every shell; the gradient clause must trip
    p = parse_potential("sin(x1)", 1)
    rep = check_confinement(p, [[-20.0, 20.0]])
    assert not rep.passed
    assert not rep.gradient_ok


def test_confinement_fails_on_unbounded_below():
    p = parse_potential("-x1^2", 1)
    rep = check_confinement(p, [[-100.0, 100.0]])
    assert not rep.lower_bound_ok


def test_confinement_box_shape_checked():
    p = parse_potential("x1^2 + x2^2", 2)
    with pytest.raises(ValueError):
        check_confinement(p, [[-1.0, 1.0]])


def test_spec_file_round_trip(tmp_path):
    data = {
        "expression": "r^6/6 - r^4/2 + 0.35*r^2",
        "dim": 2,
        "box": [[-2.2, 2.2], [-2.2, 2.2]],
        "manifolds": [
            {"name": "center", "kind": "point", "coords": [0.0, 0.0],
             "role": "minimum"},
            {"name": "ring", "kind": "sphere", "center": [0.0, 0.0],
             "radius": 1.2433, "role": "minimum"},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    back = read_spec(path)
    assert back["expression"] == data["expression"]
    assert back["dim"] == 2
    assert len(back["manifolds"]) == 2


def test_spec_file_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"expression": "x1^2"}')
    with pytest.raises(ValueError):
        read_spec(path)


@pytest.mark.parametrize("fields,bad", [
    ({"nodes": 8}, None), ({"nodes": [8]}, None),
    ({"periodic": [True], "nodes": [8]}, None),
    ({"nodes": [8, 8]}, "'nodes'"), ({"nodes": [True]}, "'nodes'"),
    ({"nodes": True}, "'nodes'"), ({"periodic": [1]}, "'periodic'"),
    ({"periodic": [True, False]}, "'periodic'"),
])
def test_parametrized_sampling_fields(tmp_path, fields, bad):
    # a count, or one per param_box row; one bool per param_box row
    decl = dict({"name": "arc", "kind": "parametrized", "role": "saddle",
                 "maps": ["x1"], "param_box": [[0.0, 1.0]]}, **fields)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"expression": "x1^2", "dim": 1,
                                "box": [[-1.0, 1.0]], "manifolds": [decl]}))
    spec = read_spec(path)
    assert spec["manifolds"] == [decl]
    if bad is None:
        assert build_manifold(decl, 1).name == "arc"
    else:
        with pytest.raises(ValueError, match=bad):
            build_manifold(decl, 1)
