"""Potential evaluation, radial profiles, confinement and spec files."""

import math

import numpy as np
import pytest

from metastab.potential import (check_confinement, load_spec_file,
                                parse_potential, save_spec_file)


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
        v_ref = p._profile_root.eval_array([r])
        w_ref, (dr,) = p._profile_root.eval_vg([r])
        g_ref = (dr / r)[:, None] * pts
    else:
        cols = [pts[:, i] for i in range(d)]
        v_ref = p._root.eval_array(cols)
        w_ref, grads = p._root.eval_vg(cols)
        g_ref = np.stack(grads, axis=-1)
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
    v, d1, d2 = p.profile_eval2(r)
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


def test_confinement_passes_on_growing_quartic():
    p = parse_potential("x1^4/4 - x1^2/2 + x1/10", 1)
    rep = check_confinement(p, [[-2.4, 2.4]])
    assert rep.passed
    assert "PASS" in rep.summary()


def test_confinement_fails_on_oscillatory_potential():
    # sin has critical points in every shell; the gradient clause must trip
    p = parse_potential("sin(x1)", 1)
    rep = check_confinement(p, [[-20.0, 20.0]], shell_fraction=0.2)
    assert not rep.passed
    assert not rep.gradient_ok


def test_confinement_fails_on_unbounded_below():
    p = parse_potential("-x1^2", 1)
    rep = check_confinement(p, [[-100.0, 100.0]], C=10.0)
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
    save_spec_file(path, data)
    back = load_spec_file(path)
    assert back["expression"] == data["expression"]
    assert back["dim"] == 2
    assert len(back["manifolds"]) == 2


def test_spec_file_missing_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"expression": "x1^2"}')
    with pytest.raises(ValueError):
        load_spec_file(path)
